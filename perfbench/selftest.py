"""Self-test of the report checks: real reports pass, altered ones fail.

    python3 perfbench/selftest.py

Runs three small audits from the benchmark's own generators (exact LS
with curve and tail, RT above a lowered pair cap, MinHash in MC mode),
checks each report, then alters it in ways a wrong program could and
requires every alteration to be caught.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

from checks import MC_SIGMAS, PairSweep, check_report, read_dataset, threshold_counts
from run import HERE, ROOT, child_env
from workloads import WORKLOADS, generate


def audit(name: str, n_points: int, **overrides):
    workload = dataclasses.replace(WORKLOADS[name], n_points=n_points)
    work = HERE / "_work" / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    config_path = generate(workload, 7, work)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(overrides)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "fairderand.cli", "audit", "--config", str(config_path)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    report = (work / "report" / "audit.json").read_text(encoding="utf-8")
    curve = work / "report" / "fairness_curve.csv"
    return config, report, curve.read_text(encoding="utf-8") if curve.exists() else None


def altered(report: str, change) -> str:
    data = json.loads(report)
    change(data["quantities"])
    return json.dumps(data, indent=2, sort_keys=True)


def add(path, amount):
    def change(q):
        entry = q
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] += amount
    return change


def main() -> int:
    failures = []

    def expect_caught(label, config, report, curve):
        errors = check_report(config, config["input"], report, curve)
        print(f"{label}: {'caught' if errors else 'NOT CAUGHT'}")
        if not errors:
            failures.append(label)

    cases = {
        "ls-exact-curve": audit("ls-exact-curve", 24),
        "rt-exact-2k (cap 20000)": audit("rt-exact-2k", 300, pairs_cap=20_000),
        "minhash-mc-600": audit("minhash-mc-600", 120),
    }
    for label, (config, report, curve) in cases.items():
        errors = check_report(config, config["input"], report, curve)
        print(f"{label}: unaltered report {'passes' if not errors else 'FAILS: ' + '; '.join(errors)}")
        if errors:
            failures.append(f"{label} unaltered")

    config, report, curve = cases["ls-exact-curve"]
    one_over_k = float(Fraction(1, config["k"]))
    for what, change in {
        "bias + 1/k": add(["aggregate_bias", "value"], one_over_k),
        "one more violation": add(["metric_fairness", "fairness_violations", "value"], 1),
        "one fewer violation": add(["metric_fairness", "fairness_violations", "value"], -1),
        "variance + 1e-12": add(["aggregate_variance", "value"], 1e-12),
        "worst_excess + 1/k^2": add(["metric_fairness", "worst_excess", "value"], one_over_k**2),
        "certified_beta + 1/k^2": add(["aggregate_fairness_tail", "certified_beta", "value"], one_over_k**2),
    }.items():
        expect_caught(f"ls-exact-curve, {what}", config, altered(report, change), curve)
    rows = curve.splitlines()
    expect_caught("ls-exact-curve, curve row dropped", config, report, "\n".join(rows[:-1]) + "\n")
    alpha, beta = rows[2].split(",")
    rows[2] = f"{alpha},{float(beta) * (1 + 1e-6) + 1e-9}"
    expect_caught("ls-exact-curve, curve point moved by 1e-6", config, report, "\n".join(rows) + "\n")
    expect_caught("ls-exact-curve, NaN in report", config, altered(
        report, lambda q: q["metric_fairness"]["worst_excess"].update(value=float("nan"))), curve)

    config, report, curve = cases["rt-exact-2k (cap 20000)"]
    one_over_k = float(Fraction(1, config["k"]))
    for what, change in {
        "bias + 1/k": add(["aggregate_bias", "value"], one_over_k),
        "violations + 50": add(["metric_fairness", "fairness_violations", "value"], 50),
        "worst_excess + 1/k": add(["metric_fairness", "worst_excess", "value"], one_over_k),
        "pairs_checked - 1": add(["metric_fairness", "pairs_checked", "value"], -1),
    }.items():
        expect_caught(f"rt subsampled, {what}", config, altered(report, change), curve)

    config, report, curve = cases["minhash-mc-600"]
    q = json.loads(report)["quantities"]
    bits, scores = read_dataset(config["input"])
    t = threshold_counts(scores, config["k"])
    above_hi, above_lo, _, _ = PairSweep(config, bits, t, keep_pairs=True).mc_bands(
        config["trials"], MC_SIGMAS)
    violations = q["metric_fairness"]["fairness_violations"]["value"]
    print(f"minhash MC: {violations} violations, band [{above_hi}, {above_lo}]")
    for what, change in {
        "bias + 7 se": add(["aggregate_bias", "value"], 7 * q["aggregate_bias"]["stderr"]),
        "variance - 7 se": add(["aggregate_variance", "value"], -7 * q["aggregate_variance"]["stderr"]),
        "violations one above the band": add(["metric_fairness", "fairness_violations", "value"],
                                             above_lo + 1 - violations),
        "violations one below the band": add(["metric_fairness", "fairness_violations", "value"],
                                             above_hi - 1 - violations),
    }.items():
        expect_caught(f"minhash MC, {what}", config, altered(report, change), curve)

    print("self-test", "failed: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
