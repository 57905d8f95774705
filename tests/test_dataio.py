"""The columnar CSV loader: the same dataset, scores and errors as a
per-row read, and scores that survive a save."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import dataio
from fairderand.adversarial import SphereConstruction, sphere_counterexample
from fairderand.dataio import load_dataset, save_dataset
from fairderand.errors import DataFormatError

from conftest import reference_load, score_list

HEADER = "id,feat_0,feat_1,z_0,label,score\n"
GOOD = ["a,0,1,0.5,1,0.25", "b,1,0,0.25,0,0.5", "c,0.5,0.5,1,,1"]


def with_rows(*rows):
    """The good rows with ``rows`` after the first, as CSV text (line 3 on)."""
    return HEADER + "\n".join([GOOD[0], *rows, *GOOD[1:]]) + "\n"


def many_rows(n=1000, **bad):
    """n good rows p0..p{n-1} (row r on line r + 2), with bad[f"r{r}"] for row r."""
    rows = [f"p{r},{r % 2},{r // 2 % 2},0.5,{r % 2},0.{r % 1000:03d}" for r in range(n)]
    for key, row in bad.items():
        rows[int(key[1:])] = row
    return HEADER + "\n".join(rows) + "\n"


class TestMalformedCsv:
    """Each malformed file gives the message, line number included, that a
    per-row read gives: row errors in file order, then a missing or
    repeated id, then the first bad score (without a line)."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (with_rows("x,inf,0,0.5,1,0.5"), ":3: point 'x' has non-finite features"),
            (with_rows("x,nan,0,0.5,1,0.5"), ":3: point 'x' has non-finite features"),
            (with_rows("x,1e999,0,0.5,1,0.5"), ":3: point 'x' has non-finite features"),
            (with_rows("x,abc,0,0.5,1,0.5"), ":3: could not convert string to float: 'abc'"),
            (with_rows("x,0,0,0.5,yes,0.5"), ":3: invalid literal for int() with base 10: 'yes'"),
            (with_rows("x,0,0,0.5,2,0.5"), ":3: label of 'x' must be 0 or 1"),
            (with_rows("x,0,0,inf,1,0.5"), ":3: point 'x' has invalid fairness features"),
            (with_rows("x,0,0,zz,1,0.5"), ":3: could not convert string to float: 'zz'"),
            (with_rows("x,0,0,0.5,1,zz"), ": cannot interpret 'zz' as a score"),
            (with_rows("x,0,0,0.5,1,1.5"), ": score '1.5' outside [0, 1]"),
            (with_rows("x,0,0,0.5,1,4/3"), ": score '4/3' outside [0, 1]"),
            (with_rows("x,0,0,0.5,1,"), ": cannot interpret '' as a score"),
            (with_rows("x,0,0,0.5,1,1.0000000000000000000001"), ": score '1.0000000000000000000001' outside [0, 1]"),
            (with_rows("a,0,0,0.5,1,0.5"), ": dataset ids must be unique"),
            (with_rows("x,0,0,0.5,1"), ":3: expected 6 fields, got 5"),
            (with_rows("", "x,abc,0,0.5,1,0.5"), ":4: could not convert string to float: 'abc'"),
            # the first bad row decides, whichever of its checks fails first
            (with_rows("x,inf,0,0.5,zz,0.5"), ":3: invalid literal for int() with base 10: 'zz'"),
            (with_rows("x,inf,0,0.5,1,0.5", "y,abc,0,0.5,1,0.5"), ":3: point 'x' has non-finite features"),
            (with_rows("x,0,0,0.5,2,0.5", "y,inf,0,0.5,1,0.5"), ":3: label of 'x' must be 0 or 1"),
            # a bad score or a repeated id is reported once every row is read
            (with_rows("x,0,0,0.5,1,zz", "y,abc,0,0.5,1,0.5"), ":4: could not convert string to float: 'abc'"),
            (with_rows("a,0,0,0.5,1,zz"), ": dataset ids must be unique"),
            (HEADER, ": dataset must contain at least one point"),
            # rows past the first block of the stream
            (many_rows(r700="p700,0,inf,0.5,1,0.5"), ":702: point 'p700' has non-finite features"),
            (many_rows(r300="p300,0,0,0.5,1,0.5,0", r900="p900,abc,0,0.5,1,0.5"), ":302: expected 6 fields, got 7"),
            (many_rows(r999="p0,0,0,0.5,1,0.5"), ": dataset ids must be unique"),
            (many_rows(r512="p512,0,0,0.5,1,2"), ": score '2' outside [0, 1]"),
        ],
        ids=[
            "inf-feature", "nan-feature", "overflowing-feature", "unparsable-feature", "bad-label", "label-2",
            "inf-fairness", "unparsable-fairness", "unparsable-score", "score-above-1", "fraction-above-1",
            "empty-score", "long-score-above-1", "duplicate-id", "field-count", "blank-line",
            "label-parse-before-finiteness", "first-row-decides", "label-range-before-later-row",
            "row-error-before-score", "duplicate-before-score", "no-rows",
            "deep-non-finite", "deep-field-count", "deep-duplicate", "deep-score",
        ],
    )
    def test_message(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}{message}"

    def test_undecodable_file_says_so_before_its_rows(self, tmp_path):
        # the bad row comes first, but the file cannot be read as a whole
        path = tmp_path / "bad.csv"
        path.write_bytes(with_rows("x,abc,0,0.5,1,0.5").encode() + b"z,\xff,0,0.5,1,0.5\n")
        with pytest.raises(DataFormatError, match="codec can't decode byte 0xff"):
            load_dataset(path)


def field(draw, kind):
    """A field text that a per-row read accepts."""
    if kind == "feature":
        value = draw(st.one_of(st.integers(-3, 3), st.floats(-1e6, 1e6, allow_nan=False)))
        return draw(st.sampled_from([repr(value), str(value), f" {value} "]))
    if kind == "label":
        return draw(st.sampled_from(["", "0", "1"]))
    return draw(st.one_of(  # a score
        st.integers(0, 10**6).map(lambda n: f"0.{n:06d}".rstrip("0") or "0"),
        st.sampled_from(["0", "1", "1.0", ".5", "1/3", "2/7", "5e-1", " 0.25", "0.1234567890123456789", "٠.٥"]),
    ))


@st.composite
def csv_texts(draw):
    dim, fair = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    label, score = draw(st.booleans()), draw(st.booleans())
    header = ["id", *(f"feat_{i}" for i in range(dim)), *(f"z_{i}" for i in range(fair))]
    header += ["label"] * label + ["score"] * score
    lines = [",".join(header)]
    for r in range(draw(st.integers(1, 12))):
        kinds = ["feature"] * (dim + fair) + ["label"] * label + ["score"] * score
        lines.append(",".join([f"p{r}", *(field(draw, kind) for kind in kinds)]))
        lines += [""] * draw(st.integers(0, 1))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), block_rows=st.sampled_from([1, 2, 5, dataio.BLOCK_ROWS]))
def test_columns_equal_per_row_read(tmp_path_factory, text, block_rows):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8")
    ids, features, fairness, labels, scores = reference_load(path)
    with mock.patch.object(dataio, "BLOCK_ROWS", block_rows):
        dataset, scorer = load_dataset(path)
    assert dataset.ids == tuple(ids)
    assert dataset.features.tolist() == features
    assert (None if dataset.fairness is None else dataset.fairness.tolist()) == fairness
    assert dataset.labels == tuple(labels)
    if scores is None:
        assert scorer is None
    else:
        numerators, den = scorer.scores(dataset)
        assert [Fraction(int(n), den) for n in numerators] == [scores[p] for p in ids]


class TestSave:
    def test_scores_that_are_not_doubles_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,feat_0,score\na,0,0.1234567890123456789\nb,1,1/3\nc,0,0.25\n", encoding="utf-8")
        dataset, scorer = load_dataset(path)
        save_dataset(tmp_path / "copy.csv", dataset, scorer)
        text = (tmp_path / "copy.csv").read_text(encoding="utf-8")
        assert text.splitlines()[1:] == ["a,0.0,1234567890123456789/10000000000000000000", "b,1.0,1/3", "c,0.0,0.25"]
        reloaded, rescorer = load_dataset(tmp_path / "copy.csv")
        assert score_list(rescorer, reloaded) == score_list(scorer, dataset)

    def test_sphere_scores_round_trip(self, tmp_path):
        cons = SphereConstruction(n_points=6, dimension=2, delta_sphere=0.15, eps_gap=0.05, k=101)
        dataset, scorer, _ = sphere_counterexample(cons)
        save_dataset(tmp_path / "sphere.csv", dataset, scorer)
        reloaded, rescorer = load_dataset(tmp_path / "sphere.csv")
        assert score_list(rescorer, reloaded) == score_list(scorer, dataset)
        assert np.array_equal(reloaded.features, dataset.features)


def test_ten_thousand_rows_load_as_columns(tmp_path):
    rng = random.Random(5)
    rows = [f"p{r},{','.join(str(rng.randint(0, 1)) for _ in range(16))},0.{rng.randint(0, 999):03d}"
            for r in range(10_000)]
    path = tmp_path / "data.csv"
    path.write_text(",".join(["id", *(f"feat_{i}" for i in range(16)), "score"]) + "\n" + "\n".join(rows) + "\n")
    dataset, scorer = load_dataset(path)
    assert dataset.features.shape == (10_000, 16) and dataset.features.dtype == np.float64
    assert scorer.den == 1000 and scorer.numerators.dtype == np.int64
    assert scorer.numerators.tolist() == [int(row.rsplit(".", 1)[1]) for row in rows]
