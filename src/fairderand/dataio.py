"""Dataset CSV reading and writing.

Format: header ``id,feat_0..feat_{n-1}[,z_0..z_{m-1}][,label][,score]``,
UTF-8, comma separated, decimal-point reals.  A ``score`` column, when
present, defines a tabular scorer; scores are parsed from their decimal
text exactly.
"""

from __future__ import annotations

import csv
import re
from typing import Optional

from .core import Dataset, Point, TabularScorer
from .errors import DataFormatError

_FEAT = re.compile(r"^feat_(\d+)$")
_FAIR = re.compile(r"^z_(\d+)$")


def load_dataset(path) -> tuple[Dataset, Optional[TabularScorer]]:
    """Read a dataset CSV; returns (dataset, scorer-or-None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: empty file")

    header = [h.strip() for h in rows[0]]
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

    points, scores = [], {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            pid = row[0]
            features = tuple(float(row[i]) for i in feat_cols)
            fairness = tuple(float(row[i]) for i in fair_cols) if fair_cols else None
            label = int(row[label_col]) if label_col is not None and row[label_col] != "" else None
            points.append(Point(pid, features, fairness, label))
            if score_col is not None:
                scores[pid] = row[score_col]
        except DataFormatError:
            raise
        except Exception as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from exc

    try:
        dataset = Dataset(points)
        scorer = TabularScorer(scores) if score_col is not None else None
    except Exception as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return dataset, scorer


def save_dataset(path, dataset: Dataset, scorer: Optional[TabularScorer] = None) -> None:
    """Write a dataset (and optional tabular scores) in the CSV format."""
    first = dataset.points[0]
    has_fair = first.fairness_features is not None
    has_label = any(p.label is not None for p in dataset.points)
    header = ["id"] + [f"feat_{i}" for i in range(dataset.dimension)]
    if has_fair:
        header += [f"z_{i}" for i in range(len(first.fairness_features))]
    if has_label:
        header.append("label")
    if scorer is not None:
        header.append("score")

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in dataset.points:
            row = [p.id] + [repr(v) for v in p.features]
            if has_fair:
                row += [repr(v) for v in p.fairness_features]
            if has_label:
                row.append("" if p.label is None else str(p.label))
            if scorer is not None:
                row.append(repr(float(scorer.score(p))))
            writer.writerow(row)
