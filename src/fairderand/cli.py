"""Batch experiment driver.

Subcommands: derandomize | audit | adversarial | strategic | bounds.
Configuration is a single JSON file; --seed/--out/--mode/--trials/
--pairs-cap flags override the file.  Every command is a pure function of
(config, dataset, seed): re-running writes identical files.

Exit codes: 0 success, 2 config error, 3 data error, 4 exact mode on a
non-enumerable family.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import (
    SphereConstruction,
    finite_family_violation_search,
    sphere_counterexample,
    verify_sphere_counterexample,
)
from .core import AffineScorer, ConstantScorer, Dataset, Point
from .dataio import load_dataset, save_dataset
from .derandomize import (
    GridBucketer,
    IdentityBucketer,
    LsDerandomizer,
    PiDerandomizer,
    RtDerandomizer,
)
from .errors import (
    DataFormatError,
    DimensionMismatchError,
    EmptyPairSetError,
    FairderandError,
    FamilyTooLargeError,
    GridTooCoarseError,
    InvalidParameterError,
    NotEnumerableError,
    UnknownBucketError,
    UnknownPointError,
    ZeroVectorError,
)
from .hashing import BitSamplingFamily, MinHashFamily, SimHashFamily
from .measure import (
    EstimatorConfig,
    FairnessReport,
    aggregate_bias,
    aggregate_fairness_tail_check,
    aggregate_variance,
    bias_bound,
    compute_bound,
    empirical_fairness_curve,
    metric_fairness_check,
    over_common_denominator,
    prediction_table,
    rt_variance_bound,
    worst_case_aggregate_bound,
)
from .metrics import Angular, JaccardDistance, NormalizedHamming, ScaledEuclidean
from .rng import CountingRng
from .strategic import best_responses

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NOT_ENUMERABLE = 4


class ConfigError(FairderandError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _integral(value) -> bool:
    """An int or an integral float, never a bool."""
    return type(value) in (int, float) and value % 1 == 0


# top-level keys, and "section.key" for keys of a section's object
INTEGER_KEYS = ("k", "trials", "seed", "pairs_cap", "adversarial.n_points", "adversarial.dimension",
                "adversarial.grid_steps", "lsh.n", "lsh.universe_size", "lsh.dim", "metric.n")
NUMBER_KEYS = ("tau", "delta", "adversarial.delta_sphere", "adversarial.eps_gap", "bucketer.resolution",
               "metric.scale")


def _resolve(config: dict, args) -> dict:
    merged = dict(config)
    for key in ("seed", "out", "mode", "trials", "pairs_cap"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    merged.setdefault("seed", 0)
    merged.setdefault("out", "reports")
    merged.setdefault("mode", "exact")
    merged.setdefault("trials", 100_000)
    merged.setdefault("pairs_cap", 200_000)
    for path in INTEGER_KEYS + NUMBER_KEYS:
        section, _, key = path.rpartition(".")
        spec = merged.get(section, {}) if section else merged
        if not isinstance(spec, dict):
            raise ConfigError(f"{section} must be an object")
        if key in spec and path in INTEGER_KEYS and not _integral(spec[key]):
            raise ConfigError(f"{path} must be an integer")
        if key in spec and path in NUMBER_KEYS and type(spec[key]) not in (int, float):  # JSON numbers, not bools
            raise ConfigError(f"{path} must be a number")
    if "tau" in merged and not 0 <= merged["tau"] <= 1:
        raise ConfigError("tau must lie in [0, 1]")
    if "delta" in merged and not 0 < merged["delta"] < 1:
        raise ConfigError("delta must lie in (0, 1)")
    alphas = merged.get("curve_alphas") or []
    if not isinstance(alphas, list):
        raise ConfigError("curve_alphas must be a list")
    if not all(type(v) is int or type(v) is float and math.isfinite(v)  # JSON numbers, not bools
               for v in (merged.get("alpha", 1), merged.get("beta", 0), *alphas)):
        raise ConfigError("alpha, beta and curve_alphas must be finite numbers")
    n_classifiers = merged.get("n_classifiers", 0)
    if not (_integral(n_classifiers) and n_classifiers >= 0):
        raise ConfigError("n_classifiers must be a non-negative integer")
    return merged


def _estimator(config: dict) -> EstimatorConfig:
    return EstimatorConfig(
        mode=config["mode"],
        trials=int(config["trials"]),
        seed=int(config["seed"]),
        pairs_cap=int(config["pairs_cap"]),
    )


def _build_metric(config: dict, dataset: Dataset):
    spec = config.get("metric", {"kind": "hamming"})
    kind = spec.get("kind", "hamming")
    dim = len(dataset[0].fairness_vector)
    if kind == "hamming":
        return NormalizedHamming(int(spec.get("n", dim)))
    if kind == "angular":
        return Angular()
    if kind == "jaccard":
        return JaccardDistance()
    if kind == "scaled_euclidean":
        return ScaledEuclidean(spec.get("scale", 1.0))
    raise ConfigError(f"unknown metric kind {kind!r}")


def _build_scorer(config: dict, scorer_from_csv):
    spec = config.get("scorer")
    if spec is not None:
        kind = spec.get("kind")
        if kind == "affine":
            return AffineScorer(spec["weights"], spec.get("bias", 0.0))
        if kind == "constant":
            return ConstantScorer(str(spec["value"]))
        raise ConfigError(f"unknown scorer kind {kind!r}")
    if scorer_from_csv is None:
        raise DataFormatError(
            "dataset has no 'score' column and the config defines no scorer"
        )
    return scorer_from_csv


def _build_derandomizer(config: dict, dataset: Dataset, scorer):
    scheme = config.get("scheme")
    k = int(config.get("k", 0))
    if scheme == "rt":
        return RtDerandomizer(scorer, k)
    if scheme == "pi":
        spec = config.get("bucketer", {"kind": "grid", "resolution": 1.0})
        if spec.get("kind", "grid") == "grid":
            bucketer = GridBucketer(float(spec.get("resolution", 1.0)))
        elif spec["kind"] == "identity":
            bucketer = IdentityBucketer()
        else:
            raise ConfigError(f"unknown bucketer kind {spec['kind']!r}")
        return PiDerandomizer.build(scorer, dataset, bucketer, k)
    if scheme == "ls":
        spec = config.get("lsh", {"kind": "bit_sampling"})
        kind = spec.get("kind", "bit_sampling")
        dim = len(dataset[0].fairness_vector)
        if kind == "bit_sampling":
            family = BitSamplingFamily(int(spec.get("n", dim)))
        elif kind == "minhash":
            family = MinHashFamily(int(spec.get("universe_size", dim)))
        elif kind == "simhash":
            family = SimHashFamily(int(spec.get("dim", dim)))
        else:
            raise ConfigError(f"unknown lsh kind {kind!r}")
        return LsDerandomizer(scorer, family, k)
    raise ConfigError(f"scheme must be one of pi|rt|ls, got {scheme!r}")


def _json_number(value):
    """Fractions and numpy scalars as the JSON numbers they equal."""
    if isinstance(value, (Fraction, np.integer, np.floating)):
        return int(value) if isinstance(value, np.integer) else float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_report(out_dir: Path, name: str, payload: dict) -> Path:
    # serialize first: a payload that cannot be written leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_number)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _report_skeleton(config: dict) -> dict:
    return {"version": __version__, "config": config}


def cmd_derandomize(config: dict) -> Path:
    dataset, csv_scorer = load_dataset(config["input"])
    scorer = _build_scorer(config, csv_scorer)
    derand = _build_derandomizer(config, dataset, scorer)
    rng = CountingRng(int(config["seed"]))
    clf = derand.sample(rng)
    payload = _report_skeleton(config)
    payload.update(
        {
            "scheme": config["scheme"],
            "seed": int(config["seed"]),
            "classifier": clf.params(),
            "bit_budget": clf.budget.as_dict(),
            "predictions": {p.id: clf.predict(p) for p in dataset},
        }
    )
    return _write_report(Path(config["out"]), "derandomize.json", payload)


def cmd_audit(config: dict) -> Path:
    dataset, csv_scorer = load_dataset(config["input"])
    scorer = _build_scorer(config, csv_scorer)
    derand = _build_derandomizer(config, dataset, scorer)
    metric = _build_metric(config, dataset)
    cfg = _estimator(config)
    alpha = config.get("alpha", 1.0)
    beta = config.get("beta", 0.0)

    payload = _report_skeleton(config)
    table = prediction_table(derand, dataset, cfg)
    report = FairnessReport()

    bias = aggregate_bias(table)
    budget = bias_bound(derand.k)
    report.add(
        "aggregate_bias", bias.value, bias.stderr, budget, "family bias budget 1/k",
        abs(bias.value) <= budget + 4 * (bias.stderr or 0),
    )

    variance = aggregate_variance(table)
    if isinstance(derand, RtDerandomizer):
        numerators, den = over_common_denominator(table.scores)
        mean_fvar = Fraction(sum(p * (den - p) for p in numerators), den * den * len(dataset))
        bound = float(rt_variance_bound(mean_fvar)) + float(budget)
        report.add(
            "aggregate_variance", variance.value, variance.stderr, bound,
            "mean score variance budget (grid slack 1/k)",
            float(variance.value) <= bound + 4 * (variance.stderr or 0.0),
        )
    else:
        report.add("aggregate_variance", variance.value, variance.stderr)

    fairness = metric_fairness_check(table, metric, alpha, beta)
    report.quantities["metric_fairness"] = fairness.quantities

    if isinstance(derand, LsDerandomizer):
        tau = float(config.get("tau", 0.05))
        delta = float(config.get("delta", 0.25))
        report.add(
            "worst_case_aggregate_bound",
            worst_case_aggregate_bound(alpha, beta, tau, delta, Fraction(2, derand.k)),
            bound_source="worst-case aggregate fairness budget",
        )
        n_classifiers = int(config.get("n_classifiers", 0))
        if n_classifiers:
            tail = aggregate_fairness_tail_check(
                table, metric, alpha, tau, delta, n_classifiers, CountingRng(int(config["seed"]))
            )
            report.quantities["aggregate_fairness_tail"] = tail.quantities
    payload["quantities"] = report.quantities

    alphas = config.get("curve_alphas")
    out_dir = Path(config["out"])
    if alphas:
        curve = empirical_fairness_curve(table, metric, alphas)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "fairness_curve.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_hat", "beta_hat"])
            writer.writerows(curve)
        payload["fairness_curve"] = "fairness_curve.csv"

    if "pair_sample_seed" in fairness:
        payload["pair_sample_seed"] = fairness["pair_sample_seed"]["value"]

    return _write_report(out_dir, "audit.json", payload)


def cmd_adversarial(config: dict) -> Path:
    spec = config.get("adversarial", {})
    construction = spec.get("construction", "sphere")
    out_dir = Path(config["out"])
    payload = _report_skeleton(config)

    if construction == "sphere":
        cons = SphereConstruction(
            n_points=int(spec.get("n_points", 10)),
            dimension=int(spec.get("dimension", 2)),
            delta_sphere=float(spec.get("delta_sphere", 0.15)),
            eps_gap=float(spec.get("eps_gap", 0.05)),
            k=int(config.get("k", 101)),
            alpha=float(config.get("alpha", 1.0)),
            beta=float(config.get("beta", 0.0)),
        )
        dataset, scorer, metric = sphere_counterexample(cons)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_dataset(out_dir / "sphere.csv", dataset, scorer)
        report = verify_sphere_counterexample(cons, dataset, scorer, metric)
        payload["dataset"] = "sphere.csv"
        payload["quantities"] = report.quantities
        return _write_report(out_dir, "adversarial.json", payload)

    if construction == "violation_search":
        dataset, csv_scorer = load_dataset(config["input"])
        scorer = _build_scorer(config, csv_scorer)
        derand = _build_derandomizer(config, dataset, scorer)
        metric = _build_metric(config, dataset)
        steps = int(spec.get("grid_steps", 1001))
        if steps < 2:
            raise ConfigError("adversarial.grid_steps must be at least 2")
        start = spec.get("grid_start", [0.0] * dataset.dimension)
        stop = spec.get("grid_stop", [1.0] * dataset.dimension)
        if not all(isinstance(v, list) and len(v) == dataset.dimension and all(type(x) in (int, float) for x in v)
                   for v in (start, stop)):
            raise ConfigError(f"grid_start and grid_stop must be lists of {dataset.dimension} numbers")
        start, stop = np.asarray(start, dtype=float), np.asarray(stop, dtype=float)
        grid = [
            Point(f"g{i:05d}", tuple(start + (stop - start) * (i / (steps - 1))))
            for i in range(steps)
        ]
        found = finite_family_violation_search(
            derand, metric, grid,
            float(config.get("alpha", 1.0)), float(config.get("beta", 0.0)),
        )
        payload["violation"] = (
            None
            if found is None
            else {
                "x": {"id": found[0].id, "features": list(found[0].features)},
                "x_star": {"id": found[1].id, "features": list(found[1].features)},
            }
        )
        return _write_report(out_dir, "adversarial.json", payload)

    raise ConfigError(f"unknown construction {construction!r}")


def cmd_strategic(config: dict) -> Path:
    dataset, csv_scorer = load_dataset(config["input"])
    scorer = _build_scorer(config, csv_scorer)
    cost = _build_metric(config, dataset)
    reports = best_responses(
        scorer, dataset, cost,
        config.get("alpha", 1.0), config.get("beta", 0.0),
        _estimator(config),
    )
    payload = _report_skeleton(config)
    payload["responses"] = [r.as_dict() for r in reports]
    payload["all_within_bound"] = all(r.within_bound for r in reports)
    return _write_report(Path(config["out"]), "strategic.json", payload)


def cmd_bounds(config: dict) -> Path:
    specs = config.get("bounds", [])
    if not isinstance(specs, list) or not specs:
        raise ConfigError("config must provide a non-empty 'bounds' list")
    results = []
    for spec in specs:
        spec = dict(spec)
        name = spec.pop("name", None)
        if name is None:
            raise ConfigError("each bounds entry needs a 'name'")
        if not all(type(v) in (int, float) and math.isfinite(v) for v in spec.values()):
            raise ConfigError(f"the inputs of bound {name!r} must be finite numbers")
        results.append({"name": name, "inputs": spec, "value": float(compute_bound(name, **spec))})
    payload = _report_skeleton(config)
    payload["bounds"] = results
    return _write_report(Path(config["out"]), "bounds.json", payload)


COMMANDS = {
    "derandomize": cmd_derandomize,
    "audit": cmd_audit,
    "adversarial": cmd_adversarial,
    "strategic": cmd_strategic,
    "bounds": cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairderand",
        description="Derandomize stochastic classifiers and audit the guarantees.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None, help="override output directory")
        cmd.add_argument("--mode", choices=("exact", "mc"), default=None)
        cmd.add_argument("--trials", type=int, default=None)
        cmd.add_argument("--pairs-cap", type=int, default=None, dest="pairs_cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(_load_config(args.config), args)
        path = COMMANDS[args.command](config)
    except (ConfigError, InvalidParameterError, EmptyPairSetError, GridTooCoarseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, UnknownPointError, DimensionMismatchError, ZeroVectorError,
            UnknownBucketError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NotEnumerableError, FamilyTooLargeError) as exc:
        print(f"not enumerable in exact mode: {exc}", file=sys.stderr)
        return EXIT_NOT_ENUMERABLE
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
