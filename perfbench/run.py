"""Benchmark of ``fairderand audit``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The inputs of a run are generated from
``(workload, seed)`` under ``perfbench/_work/<workload>/``.  Every child
process runs alone, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` repeats rounds of (3 cold set-up probes, 1 audit) until S
seconds have passed and reports the end-to-end metrics:

* ``audit_s``: median wall time of one audit process, launch to exit;
* ``setup_s``: median time from launching a process to the first audited
  quantity (see instrument.py);
* ``pairs_per_s``: pairs_checked / audit_s;
* ``peak_rss_mb``: median high-water RSS of the audit process itself,
  from its own ``wait4`` resource usage.

``--trace 1`` repeats rounds of (1 audit, 1 traced audit) and reports the
per-layer metrics of the traced audits and the tracing overhead.

The first report of a run is checked against values computed apart from
the program (checks.py); every later report of the run must be
byte-identical to it.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from checks import check_report
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # a run must end within 180 s; children are killed past this
SETUP_PROBES_PER_ROUND = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Per-layer metric -> (unit, source, key): "self" is the summed self time
# of a layer's spans, "calls" its call count, "value" a quantity read off
# its results (instrument.VALUES).
PER_LAYER = {
    "cli.pair_seed_s": ("s", "self", "cli.pair_seed"),
    "cli.report_write_s": ("s", "self", "cli.report_write"),
    "cli.report_bytes": ("bytes", "value", "cli.report_bytes"),
    "dataio.load_s": ("s", "self", "dataio.load"),
    "dataio.rows": ("count", "value", "dataio.rows"),
    "derandomize.build_s": ("s", "self", "derandomize.build"),
    "derandomize.sample_calls": ("count", "calls", "derandomize.sample"),
    "derandomize.sample_s": ("s", "self", "derandomize.sample"),
    "derandomize.predict_calls": ("count", "calls", "derandomize.predict"),
    "derandomize.predict_s": ("s", "self", "derandomize.predict"),
    "rng.bits_consumed": ("bits", "value", "rng.bits_consumed"),
    "hashing.lsh_apply_calls": ("count", "calls", "hashing.lsh_apply"),
    "metrics.distance_calls": ("count", "calls", "metrics.distance"),
    "metrics.distance_s": ("s", "self", "metrics.distance"),
    "core.score_calls": ("count", "calls", "core.score"),
    "measure.select_pairs_calls": ("count", "calls", "measure.select_pairs"),
    "measure.select_pairs_s": ("s", "self", "measure.select_pairs"),
    "measure.oracle_calls": ("count", "calls", "measure.oracle"),
    "measure.oracle_members": ("count", "value", "measure.oracle_members"),
    "measure.oracle_s": ("s", "self", "measure.oracle"),
    "measure.batch_inits": ("count", "calls", "measure.batch_init"),
    "measure.batch_init_s": ("s", "self", "measure.batch_init"),
    "measure.bias_s": ("s", "self", "measure.bias"),
    "measure.variance_s": ("s", "self", "measure.variance"),
    "measure.fairness_check_s": ("s", "self", "measure.fairness_check"),
    "measure.curve_s": ("s", "self", "measure.curve"),
    "measure.family_beta_s": ("s", "self", "measure.family_beta"),
    "measure.sampled_fairness_s": ("s", "self", "measure.sampled_fairness"),
    "measure.tail_s": ("s", "self", "measure.tail"),
    "cli.audit_self_s": ("s", "self", "cli.audit"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    """Launches one child at a time and keeps the run within its budget."""

    def __init__(self, work: Path):
        self.start = time.monotonic()
        self.env = child_env()
        self.log_path = work / "children.log"
        self.log = open(self.log_path, "w", encoding="utf-8")

    def close(self):
        self.log.close()

    def _timeout(self) -> float:
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - self.start))

    def timed(self, cmd) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MiB, exit code) of one child."""
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=self.log)
        timer = threading.Timer(self._timeout(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def setup_probe(self, config: Path) -> float | None:
        """Seconds from launch to the first audited quantity, or None."""
        start = time.monotonic()
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "instrument.py"), "setup", str(config)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=self.log,
                text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            return None
        try:
            return float(out.stdout.split()[-1]) - start if out.returncode == 0 else None
        except (ValueError, IndexError):
            return None


def read_outputs(report_dir: Path) -> tuple[str, str | None] | None:
    try:
        audit = (report_dir / "audit.json").read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    curve = report_dir / "fairness_curve.csv"
    return audit, curve.read_text(encoding="utf-8") if curve.exists() else None


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced audit.  A span's self time is its
    duration minus its child spans and the leaf calls made under it."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    for _, parent, _, seconds in trace["leaves"]:
        if parent >= 0:
            children[parent] += seconds
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        self_s[name] += end - start - children[i]
    for name, _, _, seconds in trace["leaves"]:
        self_s[name] += seconds
    sources = {"self": self_s, "calls": trace["counts"], "value": trace["values"]}
    return {
        metric: float(sources[source].get(key, 0)) if unit == "s" else int(sources[source].get(key, 0))
        for metric, (unit, source, key) in PER_LAYER.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairderand" / "cli.py").is_file():
        print(f"fairderand sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    config_path = generate(workload, args.seed, work)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    report_dir = Path(config["out"])
    audit_cmd = [sys.executable, "-m", "fairderand.cli", "audit", "--config", str(config_path)]
    trace_path = work / "trace.json"
    trace_cmd = [sys.executable, str(HERE / "instrument.py"), "trace", str(config_path), str(trace_path)]

    runner = Runner(work)
    attempted = failed = 0
    walls, rss, setups, traced_walls, layers = [], [], [], [], []
    outputs = []

    def audit(cmd):
        nonlocal attempted, failed
        attempted += 1
        shutil.rmtree(report_dir, ignore_errors=True)
        wall, mib, code = runner.timed(cmd)
        out = read_outputs(report_dir) if code == 0 else None
        if out is None:
            failed += 1
            return None
        outputs.append(out)
        return wall, mib

    def probe():
        nonlocal attempted, failed
        attempted += 1
        seconds = runner.setup_probe(config_path)
        if seconds is None:
            failed += 1
        return seconds

    try:
        probe()  # warm-up: writes bytecode caches and fills the file cache
        begin = time.monotonic()
        while True:
            if args.trace:
                done = audit(audit_cmd)
                if done:
                    walls.append(done[0])
                trace_path.unlink(missing_ok=True)
                done = audit(trace_cmd)
                if done:
                    traced_walls.append(done[0])
                    layers.append(layer_metrics(json.loads(trace_path.read_text(encoding="utf-8"))))
            else:
                for _ in range(SETUP_PROBES_PER_ROUND):
                    seconds = probe()
                    if seconds is not None:
                        setups.append(seconds)
                done = audit(audit_cmd)
                if done:
                    walls.append(done[0])
                    rss.append(done[1])
            if time.monotonic() - begin >= args.seconds:
                break
    finally:
        runner.close()

    if not walls or not (layers if args.trace else setups):
        print(f"no audit succeeded; see {runner.log_path}", file=sys.stderr)
        return 1

    try:
        errors = check_report(config, config["input"], *outputs[0])
        pairs = json.loads(outputs[0][0])["quantities"]["metric_fairness"]["pairs_checked"]["value"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors, pairs = [f"report lacks an expected field: {exc!r}"], 0
    if any(out != outputs[0] for out in outputs[1:]):
        errors.append("reports of one run are not byte-identical")
    counts = [{m: v for m, v in layer.items() if PER_LAYER[m][0] != "s"} for layer in layers]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("traced counts differ between audits of one run")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"samples: audit_s={walls} traced_s={traced_walls} setup_s={setups}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: (statistics.median(layer[name] for layer in layers) if unit == "s"
                   else layers[0][name], unit)
            for name, (unit, _, _) in PER_LAYER.items()
        }
        traced, untraced = statistics.median(traced_walls), statistics.median(walls)
        metrics["trace.audit_s"] = (traced, "s")
        metrics["trace.untraced_audit_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
    else:
        metrics = {
            "audit_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "pairs_per_s": (pairs / statistics.median(walls), "pairs/s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
