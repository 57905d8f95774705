"""Dataset CSV reading and writing.

Format: header ``id,feat_0..feat_{n-1}[,z_0..z_{m-1}][,label][,score]``,
UTF-8, comma separated, decimal-point reals.  ``load_dataset`` streams the
rows into the columns of a ``Dataset``, ``BLOCK_ROWS`` at a time: a block
is parsed straight into one float matrix and checked as a whole by the
``Dataset`` constructor, and a block that fails is read again row by row,
each row a one-point ``Dataset``, for the line and message of its first
bad row.  A ``score`` column defines a tabular scorer, read exactly from
its text: a plain decimal as integer digits over a power of ten, any
other text through ``as_score``.  ``save_dataset`` writes a score as its
float text where that reads back as the score, and as a fraction
otherwise.
"""

from __future__ import annotations

import csv
import itertools
import re
from fractions import Fraction
from operator import itemgetter
from typing import Optional

import numpy as np

from .core import Dataset, TabularScorer, as_score, over_common_denominator
from .errors import DataFormatError, InvalidParameterError

_FEAT = re.compile(r"^feat_(\d+)$")
_FAIR = re.compile(r"^z_(\d+)$")
BLOCK_ROWS = 256


def load_dataset(path) -> tuple[Dataset, Optional[TabularScorer]]:
    """Read a dataset CSV; returns (dataset, scorer-or-None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                return _read(path, reader)
            finally:  # a file that cannot be read says so, whatever its rows hold
                for _ in reader:
                    pass
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: {exc}") from None


def _read(path, reader) -> tuple[Dataset, Optional[TabularScorer]]:
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if not header or header[0] != "id":
        raise DataFormatError(f"{path}: first column must be 'id'")

    feat_cols, fair_cols = [], []
    label_col = score_col = None
    for idx, name in enumerate(header[1:], start=1):
        if _FEAT.match(name):
            feat_cols.append(idx)
        elif _FAIR.match(name):
            fair_cols.append(idx)
        elif name == "label":
            label_col = idx
        elif name == "score":
            score_col = idx
        else:
            raise DataFormatError(f"{path}: unrecognized column {name!r}")
    if not feat_cols:
        raise DataFormatError(f"{path}: no feat_* columns")
    expected = [f"feat_{i}" for i in range(len(feat_cols))]
    if [header[i] for i in feat_cols] != expected:
        raise DataFormatError(f"{path}: feat_* columns must be feat_0..feat_{len(feat_cols) - 1} in order")
    if fair_cols and [header[i] for i in fair_cols] != [f"z_{i}" for i in range(len(fair_cols))]:
        raise DataFormatError(f"{path}: z_* columns must be z_0..z_{len(fair_cols) - 1} in order")

    ids, blocks, labels, scores, bad_score, d = [], [], [], [], None, len(feat_cols)
    for line_no in itertools.count(2, BLOCK_ROWS):
        block = list(itertools.islice(reader, BLOCK_ROWS))
        rows = [row for row in block if row]
        try:  # numpy reads a str field as float() does; the block's rows are checked as a dataset's
            if set(map(len, rows)) - {len(header)}:
                raise ValueError
            x = np.array(list(map(itemgetter(*feat_cols, *fair_cols), rows)), dtype=float)
            x = x.reshape(len(rows), d + len(fair_cols))
            tags = [int(v) if v != "" else None for v in map(itemgetter(label_col), rows)] if label_col else None
            if rows:  # numbered, not by id: a repeated id is reported once every row is read
                Dataset(range(len(rows)), x[:, :d], x[:, d:] if fair_cols else None, tags)
        except ValueError:
            _check_rows(path, header, block, line_no, feat_cols, fair_cols, label_col)
            raise
        ids += map(itemgetter(0), rows)
        blocks.append(x)
        labels += tags or ()
        for text in map(itemgetter(score_col), rows) if score_col else ():
            try:
                scores.append(_score(text))
            except InvalidParameterError as exc:  # raised once every row is read, as a scorer would
                bad_score = bad_score or exc
                scores.append((0, 1))
        if len(block) < BLOCK_ROWS:
            break

    x = np.concatenate(blocks)
    try:  # no row, or a repeated id
        dataset = Dataset(ids, x[:, :d], x[:, d:] if fair_cols else None, labels if label_col else None)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if bad_score is not None:
        raise DataFormatError(f"{path}: {bad_score}")
    return dataset, TabularScorer(dataset.ids, over_common_denominator(scores)) if score_col else None


def _check_rows(path, header, block, line_no, feat_cols, fair_cols, label_col):
    """Read the rows of a block as one-point datasets: raises at the first bad row."""
    for line_no, row in enumerate(block, start=line_no):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            Dataset([row[0]], [[float(row[i]) for i in feat_cols]],
                    [[float(row[i]) for i in fair_cols]] if fair_cols else None,
                    [int(row[label_col]) if label_col is not None and row[label_col] != "" else None])
        except Exception as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from exc


def _score(text: str) -> tuple[int, int]:
    """(numerator, denominator) of a score: a plain decimal of at most 18
    digits directly, any other text through ``as_score``."""
    whole, _, frac = text.partition(".")
    digits = whole + frac
    if digits.isdecimal() and len(digits) <= 18:
        numerator, denominator = int(digits), 10 ** len(frac)
        if numerator <= denominator:
            return numerator, denominator
    score = as_score(text)
    return score.numerator, score.denominator


def save_dataset(path, dataset: Dataset, scorer: Optional[TabularScorer] = None) -> None:
    """Write a dataset (and optional tabular scores) in the CSV format."""
    has_label = any(label is not None for label in dataset.labels)
    fairness = dataset.features[:, :0] if dataset.fairness is None else dataset.fairness  # no z_*: empty rows
    header = ["id", *(f"feat_{i}" for i in range(dataset.features.shape[1]))]
    header += [f"z_{i}" for i in range(fairness.shape[1])]
    if has_label:
        header.append("label")
    if scorer is not None:
        header.append("score")
        numerators, den = scorer.scores(dataset)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r, (point, x, z, label) in enumerate(zip(dataset.ids, dataset.features.tolist(), fairness.tolist(),
                                                      dataset.labels)):
            row = [point, *map(repr, x), *map(repr, z)]
            if has_label:
                row.append("" if label is None else str(label))
            if scorer is not None:  # the float text only where it reads back as the score
                score = Fraction(int(numerators[r]), den)
                row.append(repr(float(score)) if Fraction(repr(float(score))) == score else str(score))
            writer.writerow(row)
