"""Golden reports: six exact audits, four derandomizations, a strategic
analysis, an adversarial sphere construction and a violation search over
a grid, run from inputs built
here from fixed seeds, must write their report files byte for byte as the
files under ``tests/golden/``.

Only exact configs are pinned: their values are rationals, and curve
values are elementwise operations plus ``math.fsum``, so they read the
same on every numpy build.  Monte Carlo reductions (``var``, ``std``) may
round differently across builds and stay out.  So does a SimHash
derandomization: its unit normal comes from numpy's ``log`` and ``cos``,
which may round differently across builds, and its predictions with it.

The float metrics' cases run on real-valued points.  Their sums are
``math.fsum``s and their products, square roots and quotients are IEEE
operations, so they are correctly rounded everywhere.  Angular values
then come from the platform libm's ``acos``, not from numpy, and the
sphere's coordinates from its ``cos``, ``sin`` and ``asin``; the files
were written with glibc's.

The configs name their files by relative paths, so each command runs with
the test's temporary directory as its working directory.  One case of each
command also runs as its own ``python -m fairderand.cli`` process, the
entry that freezes the import heap before the command runs.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fairderand
from fairderand.cli import main
from fairderand.dataio import save_dataset

from conftest import random_binary_dataset, random_real_dataset, random_scorer

GOLDEN = Path(__file__).parent / "golden"


def write_scored(path: Path, seed: int, n_points: int, dim: int, real: bool = False) -> None:
    """Distinct non-zero bit vectors (or real vectors in [-1, 1]) with
    three-decimal scores."""
    rng = random.Random(seed)
    dataset = (random_real_dataset if real else random_binary_dataset)(rng, n_points, dim)
    save_dataset(path, dataset, random_scorer(rng, dataset, 1000))


CASES = {  # name: (input, config, command)
    "ls-bit-sampling-curve": (
        dict(seed=11, n_points=24, dim=8),
        {"scheme": "ls", "k": 11, "lsh": {"kind": "bit_sampling"}, "alpha": 1.5, "beta": 0.05,
         "tau": 0.125, "delta": 0.25, "n_classifiers": 20, "curve_alphas": [0, 0.25, 0.5, 1, 2, 4]},
        "audit",
    ),
    "rt-capped": (
        dict(seed=12, n_points=300, dim=12),
        {"scheme": "rt", "k": 101, "pairs_cap": 20_000, "alpha": 1, "beta": 0.1},
        "audit",
    ),
    "pi-identity": (
        dict(seed=13, n_points=40, dim=8),
        {"scheme": "pi", "k": 101, "bucketer": {"kind": "identity"}, "alpha": 2, "beta": 0},
        "audit",
    ),
    "rt-angular": (
        dict(seed=14, n_points=40, dim=4, real=True),
        {"scheme": "rt", "k": 101, "metric": {"kind": "angular"}, "alpha": 1, "beta": 0.05,
         "curve_alphas": [0, 0.5, 1, 2]},
        "audit",
    ),
    "pi-grid-scaled-euclidean": (
        dict(seed=15, n_points=40, dim=3, real=True),
        {"scheme": "pi", "k": 101, "bucketer": {"kind": "grid", "resolution": 0.5},
         "metric": {"kind": "scaled_euclidean", "scale": 2}, "alpha": 1, "beta": 0.1},
        "audit",
    ),
    "pi-grid-affine": (
        dict(seed=18, n_points=40, dim=4, real=True),
        {"scheme": "pi", "k": 101, "bucketer": {"kind": "grid", "resolution": 0.5},
         "scorer": {"kind": "affine", "weights": [0.8, -0.6, 0.5, 0.3], "bias": 0.5},
         "metric": {"kind": "angular"}, "alpha": 1, "beta": 0.05, "curve_alphas": [0, 0.5, 1]},
        "audit",
    ),
    "strategic-scaled-euclidean": (
        dict(seed=16, n_points=30, dim=2, real=True),
        {"scheme": "rt", "k": 11, "metric": {"kind": "scaled_euclidean", "scale": 1.5}, "alpha": 1, "beta": 0.05},
        "strategic",
    ),
    "adversarial-sphere": (
        None,
        {"adversarial": {"construction": "sphere", "n_points": 12, "dimension": 3,
                         "delta_sphere": 0.2, "eps_gap": 0.05}, "k": 101, "alpha": 1, "beta": 0},
        "adversarial",
    ),
    "adversarial-violation-search": (
        dict(seed=17, n_points=20, dim=2, real=True),
        {"adversarial": {"construction": "violation_search", "grid_steps": 1001, "grid_start": [-1, -1],
                         "grid_stop": [1, 0.5]},
         "scorer": {"kind": "affine", "weights": [0.35, -0.2], "bias": 0.45}, "scheme": "rt", "k": 11,
         "metric": {"kind": "scaled_euclidean", "scale": 2}, "alpha": 1, "beta": 0.01},
        "adversarial",
    ),
    "derandomize-rt": (dict(seed=21, n_points=30, dim=8), {"scheme": "rt", "k": 101}, "derandomize"),
    "derandomize-pi-grid": (
        dict(seed=22, n_points=30, dim=6),
        {"scheme": "pi", "k": 101, "bucketer": {"kind": "grid", "resolution": 0.5}},
        "derandomize",
    ),
    "derandomize-ls-bit-sampling": (
        dict(seed=23, n_points=30, dim=8), {"scheme": "ls", "k": 11, "lsh": {"kind": "bit_sampling"}}, "derandomize"
    ),
    "derandomize-ls-minhash": (
        dict(seed=24, n_points=30, dim=10), {"scheme": "ls", "k": 11, "lsh": {"kind": "minhash"}}, "derandomize"
    ),
}


def run_process(argv: list) -> int:
    """The exit code of the command line argv, run as its own process."""
    env = dict(os.environ, PYTHONPATH=str(Path(fairderand.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "fairderand.cli", *argv], env=env).returncode


def run_case(name: str, directory: Path, run=main) -> Path:
    """Write the case's input and config into directory and run its command
    there, in this process or by run; the report directory, relative to
    directory."""
    data, config, command = CASES[name]
    config = {**config, "mode": "exact", "seed": 5, "out": "reports"}
    if data is not None:
        write_scored(directory / "data.csv", **data)
        config["input"] = "data.csv"
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run([command, "--config", "config.json"]) == 0
    return Path("reports")


def check_case(name: str, directory: Path, run=main) -> None:
    out = run_case(name, directory, run)
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[2] == "audit"])
def test_exact_audit_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[2] == "derandomize"])
def test_derandomize_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[2] in ("strategic", "adversarial")])
def test_float_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", ["ls-bit-sampling-curve", "derandomize-rt", "strategic-scaled-euclidean",
                                  "adversarial-sphere"])
def test_process_entry_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_case(name, tmp_path, run_process)
