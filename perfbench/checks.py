"""Checks of an ``audit.json`` (and ``fairness_curve.csv``) computed apart
from the program, from the generated CSV alone.

With t = floor(s*k) and p the collision probability of the threshold
bucketing (1 for RT, 1 - Hamming for bit sampling, 1 - Jaccard for
MinHash), pairwise independence of the affine threshold hash gives:

* mean prediction at x = t/k, so bias = mean(t/k - s);
* Cov(f(x), f(y)) = p * (min(tx, ty)/k - tx*ty/k^2), so the variance of
  the dataset-mean prediction is n^-2 * sum_ij p_ij (min/k - ti*tj/k^2);
* E|f(x) - f(y)| = p*|tx - ty|/k + (1 - p)*(tx(k - ty) + ty(k - tx))/k^2.

All of it is integer arithmetic: with L = lcm(1..16), p*L and d*L are
integers for every pair of 16-dimensional binary points, and every gap
and excess is an integer over S = k^2 * L.

Exact-mode quantities must equal these values.  Monte Carlo values must
lie within MC_SIGMAS standard errors of them, and a pair subsample's
violation count within MC_SIGMAS standard deviations of the
hypergeometric mean, which holds for any uniform pair sampler.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

L = 720720  # lcm(1, ..., 16)
MC_SIGMAS = 6
FLOAT_RTOL = 1e-9


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def read_dataset(path):
    """0/1 feature matrix and exact scores, read straight from the CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    feat = [i for i, h in enumerate(header) if h.startswith("feat_")]
    score = header.index("score")
    bits = np.array([[int(r[i]) for i in feat] for r in rows[1:]], dtype=np.int64)
    scores = [Fraction(r[score]) for r in rows[1:]]
    return bits, scores


def threshold_counts(scores, k: int) -> np.ndarray:
    """t = floor(s * k) for each exact score."""
    return np.array([(s.numerator * k) // s.denominator for s in scores], dtype=np.int64)


class PairSweep:
    """Exact per-pair gaps and excesses over all n(n-1)/2 pairs, one row
    of pairs at a time, reduced to what the checks need."""

    def __init__(self, config: dict, bits: np.ndarray, t: np.ndarray, keep_pairs: bool):
        """keep_pairs keeps every pair's numerators, for the curve and the
        Monte Carlo bands; the other results are running reductions."""
        k = int(config["k"])
        alpha, beta = config.get("alpha", 1), config.get("beta", 0)
        if not (isinstance(alpha, int) and isinstance(beta, int)):
            raise ValueError("exact checks need integer alpha and beta")
        metric = config.get("metric", {}).get("kind", "hamming")
        scheme = config["scheme"]
        lsh = config.get("lsh", {}).get("kind", "bit_sampling")
        if scheme not in ("rt", "ls") or (scheme == "ls" and lsh not in ("bit_sampling", "minhash")):
            raise ValueError(f"no independent formula for {scheme}/{lsh}")
        self.scale = k * k * L
        n, dim = bits.shape
        size = bits.sum(axis=1)
        self.violations = 0
        self.max_excess = None
        self.variance_sum = L * int((k * t - t * t).sum())  # diagonal, p = 1
        self.kept = []  # per row (gap, dist, excess) numerators when keep_pairs
        for i in range(n - 1):
            other = bits[i + 1:]
            inter = (other & bits[i]).sum(axis=1)
            if metric == "hamming":
                dist = (L // dim) * (other != bits[i]).sum(axis=1)
            elif metric == "jaccard":
                union = size[i] + size[i + 1:] - inter
                dist = L - L * inter // union
            else:
                raise ValueError(f"no independent formula for metric {metric}")
            if scheme == "rt":
                p = np.full(len(other), L, dtype=np.int64)
            elif lsh == "bit_sampling":
                p = L - (L // dim) * (other != bits[i]).sum(axis=1)
            else:
                p = L * inter // (size[i] + size[i + 1:] - inter)
            ti, tj = t[i], t[i + 1:]
            cross = ti * (k - tj) + tj * (k - ti)
            gap = p * np.abs(ti - tj) * k + (L - p) * cross
            excess = gap - alpha * dist * k * k - beta * self.scale
            self.violations += int((excess > 0).sum())
            row_max = int(excess.max())
            if self.max_excess is None or row_max > self.max_excess:
                self.max_excess = row_max
            self.variance_sum += 2 * int((p * (k * np.minimum(ti, tj) - ti * tj)).sum())
            if keep_pairs:
                self.kept.append((gap, dist, excess))
        self.pairs = n * (n - 1) // 2
        self.n = n
        self.k = k

    def variance(self) -> Fraction:
        return Fraction(self.variance_sum, self.n * self.n * self.k * self.k * L)

    def worst_excess(self) -> Fraction:
        return Fraction(self.max_excess, self.scale)

    def mc_bands(self, trials: int, sigmas: float):
        """(count above +m se, count above -m se, max(excess - m se),
        max(excess + m se)) over all pairs, with se of a trial mean."""
        above_hi = above_lo = 0
        lo_max = hi_max = -math.inf
        for gap, _, excess in self.kept:
            g = gap / self.scale
            se = np.sqrt(g * (1 - g) / trials)
            e = excess / self.scale
            above_hi += int((e > sigmas * se).sum())
            above_lo += int((e > -sigmas * se).sum())
            lo_max = max(lo_max, float((e - sigmas * se).max()))
            hi_max = max(hi_max, float((e + sigmas * se).max()))
        return above_hi, above_lo, lo_max, hi_max

    def curve(self, alphas):
        gap = np.concatenate([g for g, _, _ in self.kept]) / self.scale
        dist = np.concatenate([d for _, d, _ in self.kept]) / L
        return [float(np.maximum(gap - float(a) * dist, 0.0).mean()) for a in alphas]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-15)


def check_report(config: dict, data_path, audit_text: str, curve_text) -> list[str]:
    """Every disagreement between the report and the independent values."""
    errors: list[str] = []

    def expect(ok: bool, what: str):
        if not ok:
            errors.append(what)

    try:
        report = strict_json(audit_text)
    except ValueError as exc:
        return [f"audit.json is not strict JSON: {exc}"]
    q = report.get("quantities", {})
    bits, scores = read_dataset(data_path)
    k = int(config["k"])
    exact = config["mode"] == "exact"
    trials = int(config.get("trials", 100_000))
    m = MC_SIGMAS
    t = threshold_counts(scores, k)
    n = len(scores)
    alphas = config.get("curve_alphas") or []
    cap = int(config.get("pairs_cap", 200_000))
    sweep = PairSweep(config, bits, t, keep_pairs=bool(alphas) or not exact)
    subsampled = sweep.pairs > cap
    bands = None if exact else sweep.mc_bands(trials, m)

    # bias: mean(t/k - s), and the family's 1/k guarantee
    bias = (Fraction(int(t.sum()), k) - sum(scores)) / n
    expect(abs(bias) <= Fraction(1, k), f"independent bias {bias} exceeds 1/k")
    entry = q["aggregate_bias"]
    expect(entry["bound"] == float(Fraction(1, k)), "bias bound is not 1/k")
    if exact:
        expect(entry["value"] == float(bias), f"bias {entry['value']} != {float(bias)}")
        expect(entry["satisfied"] is True, "exact bias not marked satisfied")
    else:
        expect(abs(entry["value"] - float(bias)) <= m * entry["stderr"],
               f"MC bias {entry['value']} more than {m} se from {float(bias)}")

    # variance
    variance = sweep.variance()
    entry = q["aggregate_variance"]
    if exact:
        expect(entry["value"] == float(variance),
               f"variance {entry['value']} != {float(variance)}")
    else:
        expect(abs(entry["value"] - float(variance)) <= m * entry["stderr"],
               f"MC variance {entry['value']} more than {m} se from {float(variance)}")
    if config["scheme"] == "rt":
        mean_fvar = sum(s * (1 - s) for s in scores) / n
        bound = float(mean_fvar) + float(Fraction(1, k))
        expect(entry["bound"] == bound, f"RT variance bound {entry['bound']} != {bound}")
        expect(entry["satisfied"] == (entry["value"] <= bound), "RT variance verdict inconsistent")

    # pairwise metric fairness
    fair = q["metric_fairness"]
    violations = fair["fairness_violations"]["value"]
    worst = fair["worst_excess"]["value"]
    expect(fair["pairs_checked"]["value"] == min(sweep.pairs, cap),
           f"pairs_checked {fair['pairs_checked']['value']} != {min(sweep.pairs, cap)}")
    expect(fair["fairness_violations"]["satisfied"] == (violations == 0),
           "fairness verdict inconsistent with the violation count")
    if subsampled:
        seed = int(config["seed"])
        expect(fair.get("pair_sample_seed", {}).get("value") == seed, "pair sample seed missing")
        expect(report.get("pair_sample_seed") == seed, "top-level pair_sample_seed missing")
        expect(worst <= float(sweep.worst_excess()),
               f"subsample worst_excess {worst} above the all-pairs maximum")
        frac = sweep.violations / sweep.pairs
        mean = cap * frac
        sd = math.sqrt(cap * frac * (1 - frac) * (sweep.pairs - cap) / (sweep.pairs - 1))
        expect(mean - m * sd <= violations <= mean + m * sd,
               f"subsample violations {violations} outside hypergeometric band "
               f"{mean:.1f} +- {m}*{sd:.2f} (all pairs: {sweep.violations})")
    elif exact:
        expect(violations == sweep.violations, f"violations {violations} != {sweep.violations}")
        expect(worst == float(sweep.worst_excess()),
               f"worst_excess {worst} != {float(sweep.worst_excess())}")
    else:
        hi, lo, lo_max, hi_max = bands
        expect(hi <= violations <= lo, f"MC violations {violations} outside [{hi}, {lo}]")
        expect(lo_max <= worst <= hi_max, f"MC worst_excess {worst} outside [{lo_max}, {hi_max}]")
    expect(("pair_sample_seed" in report) == subsampled, "pair_sample_seed presence wrong")

    # LS blocks: worst-case aggregate bound and the tail check
    if config["scheme"] == "ls":
        tau, delta = float(config.get("tau", 0.05)), float(config.get("delta", 0.25))
        alpha, beta = config.get("alpha", 1), config.get("beta", 0)
        factor = 1.0 + 1.0 / math.sqrt(delta)
        expected = factor * float(alpha * tau + beta + tau / 2 + 2 / k)
        expect(_close(q["worst_case_aggregate_bound"]["value"], expected),
               "worst-case aggregate bound disagrees with its formula")
        n_cls = int(config.get("n_classifiers", 0))
        expect(("aggregate_fairness_tail" in q) == bool(n_cls), "tail block presence wrong")
        if n_cls:
            tail = q["aggregate_fairness_tail"]
            beta_hat = tail["certified_beta"]["value"]
            if exact:
                certified = float(max(Fraction(0), sweep.worst_excess()))
                expect(beta_hat == certified, f"certified_beta {beta_hat} != {certified}")
            else:
                lo_max, hi_max = bands[2:]
                expect(max(0.0, lo_max) <= beta_hat <= max(0.0, hi_max),
                       f"MC certified_beta {beta_hat} outside [{max(0.0, lo_max)}, {max(0.0, hi_max)}]")
            expect(_close(tail["split_fraction_bound"]["value"], factor * (alpha * tau + beta_hat)),
                   "split fraction bound disagrees with its formula")
            frac = tail["violating_classifier_fraction"]
            expect(abs(frac["value"] * n_cls - round(frac["value"] * n_cls)) < 1e-9,
                   "violating fraction is not a count over n_classifiers")
            expect(frac["satisfied"] == (frac["value"] <= delta + 0.05), "tail verdict inconsistent")

    # fairness curve: one row per alpha, each within float rounding
    if alphas:
        expect(report.get("fairness_curve") == "fairness_curve.csv", "curve file not named")
        rows = list(csv.reader((curve_text or "").splitlines()))
        expect(rows[:1] == [["alpha_hat", "beta_hat"]], "curve header wrong")
        body = rows[1:]
        expect(len(body) == len(alphas), f"{len(body)} curve rows for {len(alphas)} alphas")
        if not subsampled and len(body) == len(alphas):
            for (a_text, b_text), a, want in zip(body, alphas, sweep.curve(alphas)):
                expect(float(a_text) == float(a), f"curve alpha {a_text} != {a}")
                expect(_close(float(b_text), want), f"curve beta at {a}: {b_text} != {want}")
    return errors
