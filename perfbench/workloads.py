"""Workload definitions and seeded input generation.

Every input of a run is made here from ``(workload name, seed)``: the
dataset CSV and the ``fairderand audit`` config.  The program under test
receives only these files.

All workloads use 16-dimensional binary points with exact decimal scores.
The scores are Lipschitz in the workload's metric with constant below 1,
so the scorer is (1, 0)-fair and the audit (alpha=1, beta=0) runs in the
paper's alpha-fair regime:

* Hamming workloads: s(x) = (c + sum_i w_i x_i) / 1000 with integer
  weights w_i in [40, 62]; one flipped bit moves s by at most 0.062 < 1/16,
  and by enough that RT's 1/k grid rounding shows as violations.
* Jaccard workload: s(A) = 0.1 + 0.36036 * (d_J(A, C1) + d_J(A, C2)) for
  two seeded anchor sets; d_J is a metric, so s is 0.72072-Lipschitz.
  3603600 is divisible by every union size up to 16, so the score is an
  exact 7-digit decimal.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DIM = 16
K = 101  # prime and >= 16, so the affine threshold hash is pairwise independent


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_points: int
    scheme: str
    metric: str  # "hamming" or "jaccard"; also picks the score function
    mode: str
    trials: int = 100_000
    lsh: dict | None = None
    tau: float | None = None
    n_classifiers: int = 0
    curve_alphas: tuple = ()
    clusters: int = 4
    flip: float = 0.1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ls-exact-curve",
            why="LS bit sampling, exact, 40 points with curve and tail check: "
            "the enumerated expectation oracle does nearly all the work",
            n_points=40,
            scheme="ls",
            metric="hamming",
            mode="exact",
            lsh={"kind": "bit_sampling"},
            tau=0.125,
            n_classifiers=20,
            curve_alphas=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0),
        ),
        Workload(
            name="rt-exact-2k",
            why="RT, exact, 2000 points (2.0M pairs) above the 200k pair cap: "
            "pair subsampling, distances and the Fraction pair loop, trivial oracle",
            n_points=2000,
            scheme="rt",
            metric="hamming",
            mode="exact",
            clusters=16,
            flip=0.12,
        ),
        Workload(
            name="minhash-mc-600",
            why="LS MinHash over 16 elements in MC mode, Jaccard, 600 points with "
            "tail check: MC batch, per-pair reductions and per-classifier sampling",
            n_points=600,
            scheme="ls",
            metric="jaccard",
            mode="mc",
            trials=2000,
            lsh={"kind": "minhash", "universe_size": DIM},
            tau=0.25,
            n_classifiers=40,
            clusters=8,
        ),
    )
}


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    # str seeds are hashed with SHA-512 by random.Random, independent of
    # PYTHONHASHSEED, so the same seed gives the same inputs in every process.
    return random.Random(f"{workload.name}:{seed}:{purpose}")


def _distinct_points(rng: random.Random, n: int, density: float, centers: int = 0,
                     flip: float = 0.0) -> list[tuple[int, ...]]:
    """n distinct non-zero 0/1 vectors (MinHash needs non-empty sets).

    With ``centers``, each point is a seeded center with each bit flipped
    with probability ``flip``, so that close pairs are common.
    """
    hubs = _distinct_points(rng, centers, density) if centers else None
    seen: set[tuple[int, ...]] = set()
    points = []
    while len(points) < n:
        if hubs:
            hub = hubs[rng.randrange(len(hubs))]
            bits = tuple(b ^ int(rng.random() < flip) for b in hub)
        else:
            bits = tuple(int(rng.random() < density) for _ in range(DIM))
        if any(bits) and bits not in seen:
            seen.add(bits)
            points.append(bits)
    return points


def _jaccard_distance(a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
    inter = sum(x & y for x, y in zip(a, b))
    union = sum(x | y for x, y in zip(a, b))
    return Fraction(union - inter, union) if union else Fraction(0)


def score_texts(workload: Workload, seed: int, points) -> list[str]:
    """Exact decimal score text for each point."""
    rng = _rng(workload, seed, "scores")
    if workload.metric == "hamming":
        weights = [rng.randint(40, 62) for _ in range(DIM)]
        base = 500 - sum(weights) // 2
        return [
            f"0.{base + sum(w for w, b in zip(weights, p) if b):03d}" for p in points
        ]
    anchors = _distinct_points(rng, 2, 0.4)
    texts = []
    for p in points:
        num = 1_000_000 + 3_603_600 * sum(_jaccard_distance(p, c) for c in anchors)
        texts.append(f"0.{num.numerator:07d}")  # num is an integer, see above
    return texts


def generate(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the dataset CSV and the audit config; returns the config path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed, "points")
    density = 0.5 if workload.metric == "hamming" else 0.35
    points = _distinct_points(
        rng, workload.n_points, density, workload.clusters, workload.flip
    )
    scores = score_texts(workload, seed, points)
    data_path = work_dir / "data.csv"
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"feat_{i}" for i in range(DIM)] + ["score"])
        for idx, (p, s) in enumerate(zip(points, scores)):
            writer.writerow([f"p{idx:05d}"] + [str(b) for b in p] + [s])

    config = {
        "input": str(data_path.resolve()),
        "out": str((work_dir / "report").resolve()),
        "scheme": workload.scheme,
        "k": K,
        "mode": workload.mode,
        "trials": workload.trials,
        "seed": _rng(workload, seed, "config").randrange(2**31),
        "alpha": 1,
        "beta": 0,
        "metric": {"kind": workload.metric},
    }
    if workload.lsh is not None:
        config["lsh"] = dict(workload.lsh)
    if workload.tau is not None:
        config["tau"] = workload.tau
        config["delta"] = 0.25
    if workload.n_classifiers:
        config["n_classifiers"] = workload.n_classifiers
    if workload.curve_alphas:
        config["curve_alphas"] = list(workload.curve_alphas)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
