"""Golden exact audit reports: three exact audits, run from inputs built
here from fixed seeds, must write ``audit.json`` and ``fairness_curve.csv``
byte for byte as the files under ``tests/golden/``.

Only exact configs are pinned: their values are rationals, and curve
values are elementwise operations plus ``math.fsum``, so they read the
same on every numpy build.  Monte Carlo reductions (``var``, ``std``) may
round differently across builds and stay out.

The configs name their files by relative paths, so each audit runs with
the test's temporary directory as its working directory.
"""

import json
import random
from pathlib import Path

import pytest

from fairderand.cli import main
from fairderand.dataio import save_dataset

from conftest import random_binary_dataset, random_scorer

GOLDEN = Path(__file__).parent / "golden"


def write_scored_binary(path: Path, seed: int, n_points: int, dim: int) -> None:
    """Distinct non-zero bit vectors with three-decimal scores."""
    rng = random.Random(seed)
    dataset = random_binary_dataset(rng, n_points, dim)
    save_dataset(path, dataset, random_scorer(rng, dataset, 1000))


CASES = {
    "ls-bit-sampling-curve": (
        dict(seed=11, n_points=24, dim=8),
        {"scheme": "ls", "k": 11, "lsh": {"kind": "bit_sampling"}, "alpha": 1.5, "beta": 0.05,
         "tau": 0.125, "delta": 0.25, "n_classifiers": 20, "curve_alphas": [0, 0.25, 0.5, 1, 2, 4]},
    ),
    "rt-capped": (
        dict(seed=12, n_points=300, dim=12),
        {"scheme": "rt", "k": 101, "pairs_cap": 20_000, "alpha": 1, "beta": 0.1},
    ),
    "pi-identity": (
        dict(seed=13, n_points=40, dim=8),
        {"scheme": "pi", "k": 101, "bucketer": {"kind": "identity"}, "alpha": 2, "beta": 0},
    ),
}


def run_case(name: str, directory: Path) -> Path:
    """Write the case's input and config into directory and audit it there;
    the report directory, relative to directory."""
    data, config = CASES[name]
    write_scored_binary(directory / "data.csv", **data)
    config = {**config, "mode": "exact", "seed": 5, "input": "data.csv", "out": "reports"}
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["audit", "--config", "config.json"]) == 0
    return Path("reports")


@pytest.mark.parametrize("name", list(CASES))
def test_exact_audit_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run_case(name, tmp_path)
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name
