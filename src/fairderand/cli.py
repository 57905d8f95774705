"""Batch experiment driver.

Commands: derandomize | audit | adversarial | strategic | bounds.
Configuration is a single strict-JSON file (no NaN or Infinity, as in
the reports); --seed/--out/--mode/--trials/--pairs-cap flags override the
file.  Every command is a pure function of (config, dataset, seed):
re-running writes identical files.  A command only wires: ``measure``
builds every audit entry, bound and verdict included, and ``_write_report``
adds {version, config}.  ``strategic`` reads a scheme's ``family_mean``,
else the scores; a row is {origin, response, gain: quantity()}.

Exit codes come from the error bases in ``errors``: 0 success, 2 config
error (``InvalidParameterError``), 3 data error (``DataError``, or a file
that cannot be read or written), 4 exact mode on a family whose members
cannot be listed, or counted below 2**63 (``NotEnumerableError``).

A process pays once for its imports: about 22,000 objects the collector
tracks.  Only as the process entry (``argv`` None, so no caller's objects
are caught) does ``main()`` freeze them, sparing every later collection.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import AffineScorer, ConstantScorer, Dataset
from .dataio import load_dataset
from .derandomize import Derandomizer, GridBucketer, IdentityBucketer
from .errors import ConfigError, DataError, DataFormatError, InvalidParameterError, NotEnumerableError
from .hashing import BitSamplingFamily, MinHashFamily, SimHashFamily
from .measure import (
    EstimatorConfig,
    aggregate_bias,
    aggregate_fairness_tail_check,
    aggregate_variance,
    compute_bound,
    empirical_fairness_curve,
    family_mean,
    metric_fairness_check,
    prediction_table,
    quantity,
    sample_classifier,
    worst_case_aggregate_bound,
)
from .metrics import Angular, JaccardDistance, NormalizedHamming, ScaledEuclidean
from .rng import CountingRng

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NOT_ENUMERABLE = 4


def _finite(text: str) -> float:
    """A JSON number literal as a float; NaN, Infinity and literals that
    overflow (1e999) are not numbers a config may hold."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or a NaN or Infinity
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _integral(value) -> bool:
    """An int or an integral float, never a bool."""
    return type(value) in (int, float) and value % 1 == 0


# top-level keys, and "section.key" for keys of a section's object
INTEGER_KEYS = ("k", "trials", "seed", "pairs_cap", "adversarial.n_points", "adversarial.dimension",
                "adversarial.grid_steps", "lsh.n", "lsh.universe_size", "lsh.dim", "metric.n")
NUMBER_KEYS = ("tau", "delta", "adversarial.delta_sphere", "adversarial.eps_gap", "bucketer.resolution",
               "metric.scale", "scorer.bias")
STRING_KEYS = ("input", "out")


def _resolve(config: dict, args) -> tuple[dict, EstimatorConfig]:
    """The config with the flags applied and its keys checked, and its
    estimator, which every command checks whether or not it reads it."""
    defaults = {f.name: f.default for f in dataclasses.fields(EstimatorConfig)} | {"out": "reports"}
    merged = {**defaults, **config}
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for path in INTEGER_KEYS + NUMBER_KEYS + STRING_KEYS:
        section, _, key = path.rpartition(".")
        spec = merged.get(section, {}) if section else merged
        if not isinstance(spec, dict):
            raise ConfigError(f"{section} must be an object")
        if key in spec and path in INTEGER_KEYS and not _integral(spec[key]):
            raise ConfigError(f"{path} must be an integer")
        if key in spec and path in NUMBER_KEYS and type(spec[key]) not in (int, float):  # JSON numbers, not bools
            raise ConfigError(f"{path} must be a number")
        if key in spec and path in STRING_KEYS and not isinstance(spec[key], str):
            raise ConfigError(f"{path} must be a string")
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
    if any(a < 0 for a in alphas):  # no fairness notion has a slope below 0
        raise ConfigError("curve_alphas must be non-negative")
    n_classifiers = merged.get("n_classifiers", 0)
    if not (_integral(n_classifiers) and n_classifiers >= 0):
        raise ConfigError("n_classifiers must be a non-negative integer")
    return merged, EstimatorConfig(
        mode=merged["mode"], trials=int(merged["trials"]), seed=int(merged["seed"]), pairs_cap=int(merged["pairs_cap"])
    )


def _fairness_params(config: dict) -> tuple[Fraction, Fraction]:
    """alpha and beta as exact decimals, as scores are read: 1.1 is 11/10, not the nearest double."""
    return Fraction(str(config.get("alpha", 1))), Fraction(str(config.get("beta", 0)))


def _build_metric(config: dict, dataset: Dataset):
    spec = config.get("metric", {"kind": "hamming"})
    kind = spec.get("kind", "hamming")
    dim = dataset.fairness_vectors.shape[1]
    if kind == "hamming":
        return NormalizedHamming(int(spec.get("n", dim)))
    if kind == "angular":
        return Angular()
    if kind == "jaccard":
        return JaccardDistance()
    if kind == "scaled_euclidean":
        return ScaledEuclidean(spec.get("scale", 1.0))
    raise ConfigError(f"unknown metric kind {kind!r}")


def _load_input(config: dict):
    """The input dataset and its scorer: the config's, or else the
    dataset's score column."""
    if "input" not in config:
        raise ConfigError("config must name an input dataset")
    dataset, scorer = load_dataset(config["input"])
    if "scorer" not in config:
        if scorer is None:
            raise DataFormatError("dataset has no 'score' column and the config defines no scorer")
        return dataset, scorer
    spec = config["scorer"]
    kind = spec.get("kind")
    if kind == "affine":
        weights = spec.get("weights")
        if not (isinstance(weights, list) and all(type(w) in (int, float) for w in weights)):
            raise ConfigError("scorer.weights must be a list of numbers")
        return dataset, AffineScorer(weights, spec.get("bias", 0.0))
    if kind == "constant":
        return dataset, ConstantScorer(str(spec.get("value")))
    raise ConfigError(f"unknown scorer kind {kind!r}")


def _build_derandomizer(config: dict, dataset: Dataset, scorer):
    scheme = config.get("scheme")
    k = int(config.get("k", 0))
    if scheme == "rt":
        return Derandomizer.rt(scorer, k)
    if scheme == "pi":
        spec = config.get("bucketer", {"kind": "grid", "resolution": 1.0})
        if spec.get("kind", "grid") == "grid":
            bucketer = GridBucketer(float(spec.get("resolution", 1.0)))
        elif spec["kind"] == "identity":
            bucketer = IdentityBucketer()
        else:
            raise ConfigError(f"unknown bucketer kind {spec['kind']!r}")
        return Derandomizer.pi(scorer, dataset, bucketer, k)
    if scheme == "ls":
        spec = config.get("lsh", {"kind": "bit_sampling"})
        kind = spec.get("kind", "bit_sampling")
        dim = dataset.fairness_vectors.shape[1]
        if kind == "bit_sampling":
            family = BitSamplingFamily(int(spec.get("n", dim)))
        elif kind == "minhash":
            family = MinHashFamily(int(spec.get("universe_size", dim)))
        elif kind == "simhash":
            family = SimHashFamily(int(spec.get("dim", dim)))
        else:
            raise ConfigError(f"unknown lsh kind {kind!r}")
        return Derandomizer(scorer, family, k)
    raise ConfigError(f"scheme must be one of pi|rt|ls, got {scheme!r}")


def _json_number(value):
    """Fractions and numpy scalars as the JSON numbers they equal."""
    if isinstance(value, (Fraction, np.integer, np.floating)):
        return int(value) if isinstance(value, np.integer) else float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_report(config: dict, name: str, body: dict) -> Path:
    """Writes the report {version, config, **body} to the config's out
    directory and returns its path; a body that cannot be serialized as
    strict JSON leaves no file, and a value beyond a float's range raises."""
    payload = {"version": __version__, "config": config, **body}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_number)
    except (ValueError, OverflowError):  # an inf from float arithmetic, or a Fraction beyond a float's range
        raise InvalidParameterError(f"{name} holds a value beyond a float's range on these inputs") from None
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def cmd_derandomize(config: dict, cfg: EstimatorConfig) -> Path:
    dataset, scorer = _load_input(config)
    derand = _build_derandomizer(config, dataset, scorer)
    params, budget, predictions = sample_classifier(derand, dataset, CountingRng(cfg.seed))
    return _write_report(config, "derandomize.json", {
        "scheme": config["scheme"],
        "seed": cfg.seed,
        "classifier": params,
        "bit_budget": budget.as_dict(),
        "predictions": dict(zip(dataset.ids, predictions.tolist())),
    })


def cmd_audit(config: dict, cfg: EstimatorConfig) -> Path:
    dataset, scorer = _load_input(config)
    derand = _build_derandomizer(config, dataset, scorer)
    metric = _build_metric(config, dataset)
    alpha, beta = _fairness_params(config)

    table = prediction_table(derand, dataset, cfg)
    quantities = {"aggregate_bias": aggregate_bias(table), "aggregate_variance": aggregate_variance(table)}
    fairness = quantities["metric_fairness"] = metric_fairness_check(table, metric, alpha, beta)

    if derand.bucketing.locality_sensitive:
        tau = Fraction(str(config.get("tau", 0.05)))  # exact too: a pair at distance 3/10 is within 0.3
        delta = float(config.get("delta", 0.25))
        quantities["worst_case_aggregate_bound"] = quantity(
            worst_case_aggregate_bound(alpha, beta, tau, delta, Fraction(2, derand.k)),
            bound_source="worst-case aggregate fairness budget",
        )
        n_classifiers = int(config.get("n_classifiers", 0))
        if n_classifiers:
            quantities["aggregate_fairness_tail"] = aggregate_fairness_tail_check(
                table, metric, alpha, tau, delta, n_classifiers, CountingRng(cfg.seed)
            )
    payload = {"quantities": quantities}

    alphas = config.get("curve_alphas")
    if alphas:
        curve = empirical_fairness_curve(table, metric, alphas)
        payload["fairness_curve"] = "fairness_curve.csv"
    if "pair_sample_seed" in fairness:
        payload["pair_sample_seed"] = fairness["pair_sample_seed"]["value"]

    path = _write_report(config, "audit.json", payload)
    if alphas:  # after the report, so a report that cannot be serialized leaves neither file
        with open(path.with_name("fairness_curve.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_hat", "beta_hat"])
            writer.writerows(curve)
    return path


def cmd_adversarial(config: dict, cfg: EstimatorConfig) -> Path:
    from . import adversarial, dataio
    spec = config.get("adversarial", {})
    construction = spec.get("construction", "sphere")
    alpha, beta = _fairness_params(config)
    if construction == "sphere":
        cons = adversarial.SphereConstruction(
            n_points=int(spec.get("n_points", 10)),
            dimension=int(spec.get("dimension", 2)),
            delta_sphere=float(spec.get("delta_sphere", 0.15)),
            eps_gap=float(spec.get("eps_gap", 0.05)),
            k=int(config.get("k", 101)),
            alpha=alpha,
            beta=beta,
        )
        dataset, scorer, metric = adversarial.sphere_counterexample(cons)
        out_dir = Path(config["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        dataio.save_dataset(out_dir / "sphere.csv", dataset, scorer)
        quantities = adversarial.verify_sphere_counterexample(cons, dataset, scorer, metric)
        return _write_report(config, "adversarial.json", {"dataset": "sphere.csv", "quantities": quantities})

    if construction == "violation_search":
        dataset, scorer = _load_input(config)
        derand = _build_derandomizer(config, dataset, scorer)
        metric = _build_metric(config, dataset)
        steps = int(spec.get("grid_steps", 1001))
        if steps < 2:
            raise ConfigError("adversarial.grid_steps must be at least 2")
        dim = dataset.features.shape[1]
        start = spec.get("grid_start", [0.0] * dim)
        stop = spec.get("grid_stop", [1.0] * dim)
        if not all(isinstance(v, list) and len(v) == dim and all(type(x) in (int, float) for x in v)
                   for v in (start, stop)):
            raise ConfigError(f"grid_start and grid_stop must be lists of {dim} numbers")
        start, stop = np.asarray(start, dtype=float), np.asarray(stop, dtype=float)
        share = np.arange(steps)[:, None] / (steps - 1)  # each i / (steps - 1) rounded once, as Python's
        grid = Dataset([f"g{i:05d}" for i in range(steps)], start + (stop - start) * share)
        found = adversarial.finite_family_violation_search(derand, metric, grid, alpha, beta)
        violation = None if found is None else {
            name: {"id": grid.ids[r], "features": grid.features[r].tolist()} for name, r in zip(("x", "x_star"), found)
        }
        return _write_report(config, "adversarial.json", {"violation": violation})

    raise ConfigError(f"unknown construction {construction!r}")


def cmd_strategic(config: dict, cfg: EstimatorConfig) -> Path:
    from .strategic import best_responses
    dataset, scorer = _load_input(config)
    cost = _build_metric(config, dataset)
    if "scheme" in config:  # the family's means t/k
        means = family_mean(_build_derandomizer(config, dataset, scorer), dataset)
    else:
        numerators, den = scorer.scores(dataset)
        means = [Fraction(n, den) for n in numerators.tolist()]
    rows = best_responses(means, dataset, cost, *_fairness_params(config))
    all_within = all(row["gain"]["satisfied"] for row in rows)
    return _write_report(config, "strategic.json", {"responses": rows, "all_within_bound": all_within})


def cmd_bounds(config: dict, cfg: EstimatorConfig) -> Path:
    specs = config.get("bounds", [])
    if not isinstance(specs, list) or not specs:
        raise ConfigError("config must provide a non-empty 'bounds' list")
    results = []
    for spec in specs:
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)):
            raise ConfigError("each bounds entry must be an object with a 'name'")
        spec = dict(spec)
        name = spec.pop("name")
        if not all(type(v) is int or type(v) is float and math.isfinite(v) for v in spec.values()):
            raise ConfigError(f"the inputs of bound {name!r} must be finite numbers")
        results.append({"name": name, "inputs": spec, "value": float(compute_bound(name, **spec))})
    return _write_report(config, "bounds.json", {"bounds": results})


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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--mode", choices=("exact", "mc"), default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--pairs-cap", type=int, default=None, dest="pairs_cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if argv is None:
        gc.freeze()
    try:
        path = COMMANDS[args.command](*_resolve(_load_config(args.config), args))
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NotEnumerableError as exc:
        print(f"not enumerable in exact mode: {exc}", file=sys.stderr)
        return EXIT_NOT_ENUMERABLE
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
