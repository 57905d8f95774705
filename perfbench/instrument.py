"""Child process for the two instrumented ways of running ``fairderand audit``.

    python3 perfbench/instrument.py setup CONFIG
    python3 perfbench/instrument.py trace CONFIG TRACE_OUT

``setup`` runs the audit command until its first call into a
``fairderand.measure`` function, which is the moment the first audited
quantity begins.  It then prints ``time.monotonic()`` and exits at once.
CLOCK_MONOTONIC is shared by all processes, so the parent turns this into
the time since it launched the process.

``trace`` runs the whole audit with the layer boundaries in LAYERS
wrapped.  Nothing under ``src/`` changes: the wrappers replace module
attributes and class methods after import.  Three kinds of wrapper:

* ``span``: each call is recorded as (name, parent span, start, end);
* ``leaf``: a hot call that is timed and counted per parent span rather
  than stored one by one (up to ~540k distance calls per audit);
* ``count``: a call that is only counted, because timing it would cost
  more than the call; its time stays in the parent's self time.

Spans, leaf totals and counts stay in memory and are written to
TRACE_OUT as JSON when the audit returns.
"""

from __future__ import annotations

import os
import sys
import time
import types

# (module, attribute or Class.method, layer metric name, kind).  The cli
# module imports its helpers by name, so a function that cli calls is
# wrapped where cli looks it up.
LAYERS = [
    ("fairderand.cli", "load_dataset", "dataio.load", "span"),
    ("fairderand.cli", "_build_derandomizer", "derandomize.build", "span"),
    ("fairderand.cli", "select_pairs", "cli.pair_seed", "span"),
    ("fairderand.cli", "_write_report", "cli.report_write", "span"),
    ("fairderand.cli", "aggregate_bias", "measure.bias", "span"),
    ("fairderand.cli", "aggregate_variance", "measure.variance", "span"),
    ("fairderand.cli", "metric_fairness_check", "measure.fairness_check", "span"),
    ("fairderand.cli", "empirical_fairness_curve", "measure.curve", "span"),
    ("fairderand.cli", "aggregate_fairness_tail_check", "measure.tail", "span"),
    ("fairderand.measure", "select_pairs", "measure.select_pairs", "span"),
    ("fairderand.measure", "family_beta", "measure.family_beta", "span"),
    ("fairderand.measure", "sampled_aggregate_fairness", "measure.sampled_fairness", "span"),
    ("fairderand.measure", "_ClassifierBatch.__init__", "measure.batch_init", "span"),
    ("fairderand.measure", "_enumerated_bits", "measure.oracle", "leaf"),
    ("fairderand.measure", "_ClassifierBatch.bits", "measure.oracle", "leaf"),
    ("fairderand.derandomize", "RtDerandomizer.sample", "derandomize.sample", "leaf"),
    ("fairderand.derandomize", "PiDerandomizer.sample", "derandomize.sample", "leaf"),
    ("fairderand.derandomize", "LsDerandomizer.sample", "derandomize.sample", "leaf"),
    ("fairderand.derandomize", "RtClassifier.predict", "derandomize.predict", "leaf"),
    ("fairderand.derandomize", "PiClassifier.predict", "derandomize.predict", "leaf"),
    ("fairderand.derandomize", "LsClassifier.predict", "derandomize.predict", "leaf"),
    ("fairderand.metrics", "NormalizedHamming.distance", "metrics.distance", "leaf"),
    ("fairderand.metrics", "JaccardDistance.distance", "metrics.distance", "leaf"),
    ("fairderand.metrics", "Angular.distance", "metrics.distance", "leaf"),
    ("fairderand.metrics", "ScaledEuclidean.distance", "metrics.distance", "leaf"),
    ("fairderand.core", "TabularScorer.score", "core.score", "count"),
    ("fairderand.core", "AffineScorer.score", "core.score", "count"),
    ("fairderand.core", "ConstantScorer.score", "core.score", "count"),
    ("fairderand.hashing", "BitSamplingMember.apply", "hashing.lsh_apply", "count"),
    ("fairderand.hashing", "MinHashMember.apply", "hashing.lsh_apply", "count"),
    ("fairderand.hashing", "SimHashMember.apply", "hashing.lsh_apply", "count"),
]


# Quantities read off a layer's return value: layer -> (value name, amount).
VALUES = {
    "dataio.load": ("dataio.rows", lambda result: len(result[0])),
    "cli.report_write": ("cli.report_bytes", os.path.getsize),
    "derandomize.sample": ("rng.bits_consumed", lambda result: result.budget.total),
    "measure.oracle": ("measure.oracle_members", lambda result: result.size),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack = [-1]
        self.leaves: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self.values = {value: 0 for value, _ in VALUES.values()}

    def wrap(self, name, kind, fn):
        clock = time.perf_counter
        stack, spans, leaves, counts, values = (
            self.stack, self.spans, self.leaves, self.counts, self.values
        )
        value, amount = VALUES.get(name, (None, None))
        counts.setdefault(name, 0)

        if kind == "count":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == "leaf":
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                entry = leaves.get((name, stack[-1]))
                if entry is None:
                    leaves[(name, stack[-1])] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                if value is not None:
                    values[value] += amount(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                record = [name, stack[-1], clock(), None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
                counts[name] += 1
                if value is not None:
                    values[value] += amount(result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def as_json(self, missing, exit_code) -> dict:
        for (name, _), (calls, _) in self.leaves.items():
            self.counts[name] += calls
        return {
            "spans": self.spans,
            "leaves": [[n, p, c, s] for (n, p), (c, s) in self.leaves.items()],
            "counts": self.counts,
            "values": self.values,
            "missing": missing,
            "exit_code": exit_code,
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary that exists; returns the ones missing."""
    missing = []
    for module_name, attr, name, kind in LAYERS:
        module = sys.modules[module_name]
        owner_name, _, key = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or key not in vars(owner):
            missing.append(f"{module_name}:{attr}")
            continue
        setattr(owner, key, tracer.wrap(name, kind, getattr(owner, key)))
    return missing


def _stop_at_first_quantity(cli):
    """Wrap every fairderand.measure function, in measure and in cli, so
    that the first call reports the time and ends the process."""
    import fairderand.measure as measure

    def stop(*args, **kwargs):
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    functions = {
        id(obj)
        for obj in vars(measure).values()
        if isinstance(obj, types.FunctionType) and obj.__module__ == measure.__name__
    }
    for module in (measure, cli):
        for attr, obj in list(vars(module).items()):
            if id(obj) in functions:
                setattr(module, attr, stop)


def main(argv) -> int:
    mode, config = argv[0], argv[1]
    import fairderand.cli as cli

    if mode == "setup":
        _stop_at_first_quantity(cli)
        cli.main(["audit", "--config", config])
        print("audit returned before any audited quantity began", file=sys.stderr)
        return 1

    import json

    tracer = Tracer()
    missing = install(tracer)
    for item in missing:
        print(f"trace: layer boundary {item} not found", file=sys.stderr)
    audit = tracer.wrap("cli.audit", "span", cli.main)
    exit_code = audit(["audit", "--config", config])
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(tracer.as_json(missing, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
