import collections
import hashlib
import itertools
import math
import random
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import (
    AffineScorer,
    BitSamplingFamily,
    ConstantScorer,
    Derandomizer,
    EstimatorConfig,
    GridBucketer,
    IdentityBucketer,
    MinHashFamily,
    SimHashFamily,
    TabularScorer,
)
from fairderand import measure
from fairderand.errors import (
    EmptyPairSetError,
    FairderandError,
    InvalidParameterError,
    NotBinaryError,
    NotEnumerableError,
)
from fairderand.measure import (
    PairClasses,
    _excesses,
    aggregate_bias,
    aggregate_fairness_tail_check,
    aggregate_tail_bound,
    aggregate_variance,
    bias_bound,
    compute_bound,
    decomposition_check,
    empirical_fairness_curve,
    family_beta,
    family_mean,
    ls_variance_bound,
    metric_fairness_check,
    pi_variance_bound,
    prediction_table,
    quantity,
    rt_variance_bound,
    sample_pairs,
    sampled_aggregate_fairness,
    scorer_beta,
    threshold_fairness_check,
    worst_case_aggregate_bound,
    worst_case_pairwise_bound,
)
from fairderand.derandomize import SharedBucketer
from fairderand.hashing import FixedFamily, PiFamily
from fairderand import metrics
from fairderand.metrics import Angular, JaccardDistance, NormalizedHamming, ScaledEuclidean
from fairderand.rng import CountingRng

from conftest import (
    ReferenceClassifier,
    aggregate_fairness,
    binary_support,
    brute_aggregate_variance,
    brute_mean,
    brute_pairwise,
    dataset_of,
    each_point,
    enumerate_members,
    joined,
    normal_pair,
    point_of,
    random_binary_dataset,
    random_real_dataset,
    random_scorer,
    reference_decomposition,
    reference_distance,
    reference_excesses,
    reference_fairness_check,
    reference_family_beta,
    reference_family_mean,
    reference_member,
    reference_score,
    reference_scorer_beta,
    reference_threshold_count,
    select_pairs,
    split_share,
    uniform_int,
    vector_of,
)

EXACT = EstimatorConfig(mode="exact")


class IdBits:
    """An explicit id -> bit table."""

    def __init__(self, table):
        self.table = table

    def predict(self, point):
        return self.table[point.ids[0]]


def binary_dataset():
    return dataset_of({"x1": (1.0, 0.0), "x2": (0.0, 1.0), "x3": (1.0, 1.0)})


def scores_of(scorer, ds):
    """Each point's score, from the scalar reference."""
    return [reference_score(scorer, p) for p in each_point(ds)]


def small_families(dataset, scorer, k=5):
    return [
        Derandomizer.rt(scorer, k),
        Derandomizer.pi(scorer, dataset, IdentityBucketer(), k),
        Derandomizer.pi(scorer, dataset, GridBucketer(10.0), k),  # one bucket
        Derandomizer(scorer, BitSamplingFamily(2), k),
        Derandomizer(scorer, MinHashFamily(2), k),
    ]


class TestQuantity:
    def test_entry_keys(self):
        assert quantity(3) == {"value": 3}
        assert quantity(0.5, 0.01) == {"value": 0.5, "stderr": 0.01}
        assert quantity(2, bound_source="budget") == {"value": 2, "bound_source": "budget"}
        assert quantity(0, bound=0, bound_source="definition") == {
            "value": 0, "bound": 0, "bound_source": "definition", "satisfied": True,
        }

    @pytest.mark.parametrize(
        "value,stderr,bound,satisfied",
        [
            (Fraction(1, 3), None, Fraction(1, 3), True),
            (Fraction(1, 3), None, 1 / 3, False),  # exact: the double 1/3 lies below 1/3
            (-Fraction(1, 2), None, Fraction(1, 2), True),  # a signed value compares its size
            (-Fraction(2, 3), None, Fraction(1, 2), False),
            (0.5, 0.025, 0.4, True),  # within four standard errors
            (0.5, 0.024, 0.4, False),
        ],
    )
    def test_one_verdict_rule(self, value, stderr, bound, satisfied):
        assert quantity(value, stderr, bound)["satisfied"] is satisfied


class TestOracleAgreement:
    """The vectorized enumeration path must agree exactly with the
    brute-force predict-every-member oracle."""

    def test_exact_values_match_brute_force(self, py_rng):
        ds = binary_dataset()
        scorer = random_scorer(py_rng, ds)
        for derand in small_families(ds, scorer):
            table, points = prediction_table(derand, ds, EXACT), each_point(ds)
            assert family_mean(derand, ds) == [brute_mean(derand, p) for p in points]
            assert aggregate_variance(table)["value"] == brute_aggregate_variance(derand, ds)
            assert split_share(table, 0, 1) == brute_pairwise(derand, points[0], points[1])

    def test_monte_carlo_within_four_sigma_of_exact(self, py_rng):
        ds = binary_dataset()
        scorer = random_scorer(py_rng, ds)
        mc = EstimatorConfig(mode="mc", trials=100_000, seed=11)
        for derand in small_families(ds, scorer, k=7):
            exact_bias = aggregate_bias(prediction_table(derand, ds, EXACT))["value"]
            est = aggregate_bias(prediction_table(derand, ds, mc))
            assert abs(est["value"] - float(exact_bias)) <= 4 * est["stderr"] + 1e-12

            exact_var = aggregate_variance(prediction_table(derand, ds, EXACT))["value"]
            est = aggregate_variance(prediction_table(derand, ds, mc))
            assert abs(est["value"] - float(exact_var)) <= 4 * est["stderr"] + 1e-12

            exact_pair = split_share(prediction_table(derand, ds, EXACT), 0, 2)
            est = split_share(prediction_table(derand, ds, mc), 0, 2)
            stderr = math.sqrt(est * (1 - est) / mc.trials)
            assert abs(est - float(exact_pair)) <= 4 * stderr + 1e-12

    def test_monte_carlo_simhash_matches_score(self):
        # non-enumerable family: sampled mean still lands within 1/k of the
        # score, up to Monte Carlo noise
        ds = dataset_of({"x": (0.6, 0.8)})
        scorer = TabularScorer({"x": 0.37})
        derand = Derandomizer(scorer, SimHashFamily(2), 25)
        mc = EstimatorConfig(mode="mc", trials=200_000, seed=3)
        table = prediction_table(derand, ds, mc)
        mean = float(np.unpackbits(table.rows[0], count=table.size).mean())
        assert abs(mean - 0.37) <= 1 / 25 + 4 * math.sqrt(mean * (1 - mean) / mc.trials)

    @pytest.mark.parametrize(
        "family,metric,x,y",
        [
            # a universe of 8 is above the enumeration limit: Monte Carlo only
            (MinHashFamily(8), JaccardDistance(),
             (1, 1, 1, 0, 1, 0, 0, 1), (0, 1, 1, 1, 1, 0, 1, 0)),
            (SimHashFamily(8), Angular(), (0.9, -0.2, 0.4, 0.1, -0.7, 0.3, 0.5, 0.2),
             (0.1, 0.3, 0.8, -0.4, -0.6, 0.2, 0.1, 0.9)),
        ],
    )
    def test_monte_carlo_pairwise_gap_matches_closed_form(self, family, metric, x, y):
        # a shared bucket (probability p = 1 - d) gives the same threshold;
        # distinct buckets give independent uniform thresholds
        k = 11
        px, py = dataset_of({"x": x}), dataset_of({"y": y})
        scorer = TabularScorer({"x": "0.3", "y": "0.75"})
        tx, ty = (reference_threshold_count(reference_score(scorer, p), k) for p in (px, py))
        p = 1 - float(reference_distance(metric, px, py))
        expected = p * abs(tx - ty) / k + (1 - p) * (tx * (k - ty) + ty * (k - tx)) / k**2
        mc = EstimatorConfig(mode="mc", trials=200_000, seed=13)
        est = split_share(prediction_table(Derandomizer(scorer, family, k), joined(px, py), mc), 0, 1)
        assert abs(est - expected) <= 4 * math.sqrt(est * (1 - est) / mc.trials)

    def test_exact_mode_rejects_simhash(self):
        derand = Derandomizer(ConstantScorer(0.5), SimHashFamily(2), 5)
        with pytest.raises(NotEnumerableError):
            prediction_table(derand, dataset_of({"x": (1.0, 0.0)}), EXACT)


class TestBias:
    def test_rt_grid_aligned_bias_zero(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0.3, "x2": 0.7, "x3": 1.0})
        assert aggregate_bias(prediction_table(Derandomizer.rt(scorer, 10), ds, EXACT))["value"] == 0

    def test_pi_bias_exact_example(self):
        ds = binary_dataset()
        derand = Derandomizer.pi(ConstantScorer(0.5), ds, IdentityBucketer(), 5)
        assert brute_mean(derand, point_of(ds, 0)) - Fraction(1, 2) == Fraction(-1, 10)
        assert aggregate_bias(prediction_table(derand, ds, EXACT))["value"] == Fraction(-1, 10)

    def test_constant_one_family_zero_bias(self):
        ds = binary_dataset()
        derand = Derandomizer.rt(ConstantScorer(1), 5)
        assert brute_mean(derand, point_of(ds, 0)) == 1
        assert aggregate_bias(prediction_table(derand, ds, EXACT))["value"] == 0

    def test_singleton_dataset_aggregate_equals_pointwise(self):
        ds = dataset_of({"only": (0.0, 1.0)})
        derand = Derandomizer.rt(TabularScorer({"only": 0.41}), 7)
        table = prediction_table(derand, ds, EXACT)
        assert aggregate_bias(table)["value"] == brute_mean(derand, ds) - reference_score(derand.scorer, ds)

    def test_mc_mean_score_is_one_rounding(self):
        # 0.1 + 0.2 + 0.3 left to right is 0.6000000000000001, and 0.6 right
        # to left; the correctly rounded sum is 0.6 in every order
        scorer, values = TabularScorer({"a": "0.1", "b": "0.2", "c": "0.3"}), []
        for ids in itertools.permutations("abc"):
            ds = dataset_of({i: (0.0,) for i in ids})
            table = prediction_table(Derandomizer.rt(scorer, 10), ds, EstimatorConfig(mode="mc", trials=50, seed=3))
            values.append(aggregate_bias(table)["value"])
            assert values[-1] == float(table.sums.mean() / 3) - 0.6 / 3
        assert len(set(values)) == 1

    def test_bias_bound_holds_exactly_on_random_configs(self, py_rng):
        for _ in range(5):
            ds = random_binary_dataset(py_rng, 5, 3)
            scorer = random_scorer(py_rng, ds)
            for k in (5, 7, 11):  # the hashed scheme needs k >= bucket count
                for derand in (
                    Derandomizer.pi(scorer, ds, IdentityBucketer(), k),
                    Derandomizer(scorer, BitSamplingFamily(3), k),
                ):
                    value = aggregate_bias(prediction_table(derand, ds, EXACT))["value"]
                    assert abs(value) <= bias_bound(k)


class TestVariance:
    def test_deterministic_scores_give_zero_rt_variance(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0, "x2": 1, "x3": 1})
        assert aggregate_variance(prediction_table(Derandomizer.rt(scorer, 9), ds, EXACT))["value"] == 0

    def test_half_score_single_point(self):
        ds = dataset_of({"q": (0.0,)})
        derand = Derandomizer.rt(TabularScorer({"q": 0.5}), 10)
        assert aggregate_variance(prediction_table(derand, ds, EXACT))["value"] == Fraction(1, 4)

    def test_pi_variance_bound_separating_bucketer(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 4)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer.pi(scorer, ds, IdentityBucketer(), 11)
        value = aggregate_variance(prediction_table(derand, ds, EXACT))["value"]
        mean_fvar = sum((s := reference_score(scorer, p)) * (1 - s) for p in each_point(ds)) / len(ds)
        # separating bucketer: max bucket mass is 1/|B|
        assert value <= pi_variance_bound(Fraction(1, len(ds)), mean_fvar, 11)

    def test_ls_variance_bound(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 3)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer(scorer, BitSamplingFamily(3), 11)
        value = aggregate_variance(prediction_table(derand, ds, EXACT))["value"]
        mean_fvar = sum((s := reference_score(scorer, p)) * (1 - s) for p in each_point(ds)) / len(ds)
        # mean over members of the max bucket mass, exact
        members = [reference_member(derand.bucketing, key) for key in derand.bucketing.all_keys()]
        masses = []
        for m in members:
            counts: dict = {}
            for p in each_point(ds):
                b = m.bucket(p)
                counts[b] = counts.get(b, 0) + 1
            masses.append(Fraction(max(counts.values()), len(ds)))
        mean_mass = sum(masses) / len(masses)
        assert value <= ls_variance_bound(mean_mass, mean_fvar, 11)

    def test_rt_variance_bound_with_grid_slack(self, py_rng):
        for _ in range(5):
            ds = random_binary_dataset(py_rng, 5, 3)
            scorer = random_scorer(py_rng, ds)
            derand = Derandomizer.rt(scorer, 13)
            value = aggregate_variance(prediction_table(derand, ds, EXACT))["value"]
            mean_fvar = sum((s := reference_score(scorer, p)) * (1 - s) for p in each_point(ds)) / len(ds)
            assert value <= rt_variance_bound(mean_fvar) + Fraction(1, 13)

    @pytest.mark.parametrize("family,bounded", [
        (lambda scorer, ds: Derandomizer.rt(scorer, 11), True),
        (lambda scorer, ds: Derandomizer.pi(scorer, ds, GridBucketer(10.0), 11), True),  # one realized cell
        (lambda scorer, ds: Derandomizer(scorer, BitSamplingFamily(2), 11), False),
        (lambda scorer, ds: Derandomizer.pi(scorer, ds, GridBucketer(0.5), 11), False),  # three cells
    ], ids=["rt", "pi-one-cell", "ls-bit-sampling", "pi-three-cells"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_one_bucket_families_carry_the_score_variance_bound(self, family, bounded, mode):
        # the shared-threshold family, whichever scheme built it, is set
        # against the mean score variance plus 1/k; bias always against 1/k
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        table = prediction_table(family(scorer, ds), ds, EstimatorConfig(mode=mode, trials=200, seed=1))
        bias, variance = aggregate_bias(table), aggregate_variance(table)
        assert (bias["bound"], bias["bound_source"]) == (Fraction(1, 11), "family bias budget 1/k")
        assert ("stderr" in variance) is (mode == "mc")
        if not bounded:
            assert not {"bound", "bound_source", "satisfied"} & set(variance)
            return
        mean_fvar = sum(s * (1 - s) for s in scores_of(scorer, ds)) / len(ds)
        assert variance["bound"] == float(mean_fvar) + 1 / 11
        assert variance["bound_source"] == "mean score variance budget (grid slack 1/k)"
        assert variance["satisfied"] is True


class TestPairwiseUnfairness:
    def test_identical_degenerate_scores(self):
        ds = binary_dataset()
        derand = Derandomizer.rt(ConstantScorer(1), 5)
        assert split_share(prediction_table(derand, ds, EXACT), 0, 1) == 0

    def test_ls_worked_example(self):
        ds = dataset_of({"x1": (0.0, 0.0), "x2": (0.0, 1.0)})
        scorer = TabularScorer({"x1": 0.2, "x2": 0.6})
        derand = Derandomizer(scorer, BitSamplingFamily(2), 5)
        value = split_share(prediction_table(derand, ds, EXACT), 0, 1)
        assert value == Fraction(12, 25)
        # the exact-expectation band: |fx - fy| + 2*min(1-max)*d, plus or minus 2/k
        fx, fy, d, k = Fraction(1, 5), Fraction(3, 5), Fraction(1, 2), 5
        center = (fy - fx) + 2 * fx * (1 - fy) * d
        assert center - Fraction(2, k) <= value <= center + Fraction(2, k)

    def test_rt_pairwise_is_threshold_count_gap(self, py_rng):
        ds = binary_dataset()
        for _ in range(10):
            scorer = random_scorer(py_rng, ds)
            table, scores = prediction_table(Derandomizer.rt(scorer, 10), ds, EXACT), scores_of(scorer, ds)
            for i, j in itertools.combinations(range(len(ds)), 2):
                value = split_share(table, i, j)
                gap = abs(scores[i] - scores[j])
                assert abs(value - gap) <= Fraction(1, 10)


class TestScorerBeta:
    """The one-pass scorer_beta (the largest numerator gap per distance)
    equals the pair-by-pair maximum, in value and in type: an int 0, a
    Fraction from exact distances, a float from float ones or a float alpha."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["hamming", "jaccard", "euclidean", "angular"]),
        n_points=st.integers(1, 14),
        denominator=st.sampled_from([1, 2, 7, 1000]),
        alpha=st.sampled_from([0, 1, Fraction(1, 3), 2, 0.5, 1.5]),
    )
    def test_equals_pair_by_pair(self, seed, kind, n_points, denominator, alpha):
        rng = random.Random(seed)
        if kind in ("hamming", "jaccard"):
            ds = random_binary_dataset(rng, n_points, 4)
            metric = NormalizedHamming(4) if kind == "hamming" else JaccardDistance()
        else:
            ds = random_real_dataset(rng, n_points, 3)
            metric = ScaledEuclidean(1.5) if kind == "euclidean" else Angular()
        scorer = random_scorer(rng, ds, denominator)
        got, expected = scorer_beta(scorer, ds, metric, alpha), reference_scorer_beta(scorer, ds, metric, alpha)
        assert got == expected and type(got) is type(expected)

    def test_huge_denominators_stay_exact(self):
        ds = dataset_of({"a": (0.0,), "b": (1.0,), "c": (0.5,)})
        scorer = TabularScorer({"a": Fraction(1, 3), "b": Fraction(2**70 - 1, 2**70), "c": 0})
        assert scorer.scores(ds)[0].dtype == object
        for alpha in (0, 1, Fraction(1, 7)):
            got = scorer_beta(scorer, ds, ScaledEuclidean(1.0), alpha)
            assert got == reference_scorer_beta(scorer, ds, ScaledEuclidean(1.0), alpha)


class TestRtOnGridScores:
    """When every score is a multiple of 1/k, t = score * k, so exact RT's
    gap at each pair is |s_i - s_j|: the family is exactly as fair as the
    scorer, with no grid slack (the paper's RT preservation), and its
    certified beta is the scorer's in value and in type."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["hamming", "jaccard", "euclidean"]),
        n_points=st.integers(1, 12),
        k=st.sampled_from([1, 2, 7, 10, 101]),
        alpha=st.sampled_from([0, 1, Fraction(1, 3), 1.5]),
    )
    def test_family_beta_equals_scorer_beta(self, seed, kind, n_points, k, alpha):
        rng = random.Random(seed)
        if kind == "euclidean":
            ds, metric = random_real_dataset(rng, n_points, 3), ScaledEuclidean(1.5)
        else:
            ds = random_binary_dataset(rng, n_points, 4)
            metric = NormalizedHamming(4) if kind == "hamming" else JaccardDistance()
        scorer = random_scorer(rng, ds, k)  # every score i/k
        got = family_beta(prediction_table(Derandomizer.rt(scorer, k), ds, EXACT), metric, alpha)
        expected = scorer_beta(scorer, ds, metric, alpha)
        assert got == expected and type(got) is type(expected)


class TestMetricFairnessCheck:
    def test_rt_preserves_fairness_with_grid_slack(self, py_rng):
        metric = NormalizedHamming(3)
        for _ in range(5):
            ds = random_binary_dataset(py_rng, 5, 3)
            scorer = random_scorer(py_rng, ds)
            k = 10
            alpha = 1
            beta = scorer_beta(scorer, ds, metric, alpha)
            report = metric_fairness_check(
                prediction_table(Derandomizer.rt(scorer, k), ds, EXACT), metric, alpha,
                beta + Fraction(1, k),
            )
            assert report["fairness_violations"]["value"] == 0

    def test_ls_worst_case_parameters(self, py_rng):
        metric = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 5, 3)
        scorer = random_scorer(py_rng, ds)
        k = 11
        alpha = 1
        beta = scorer_beta(scorer, ds, metric, alpha)
        derand = Derandomizer(scorer, BitSamplingFamily(3), k)
        report = metric_fairness_check(
            prediction_table(derand, ds, EXACT), metric,
            alpha + Fraction(1, 2), beta + Fraction(2, k),
        )
        assert report["fairness_violations"]["value"] == 0
        assert all(entry.get("satisfied", True) for entry in report.values())

    def test_constant_family_never_violates(self):
        ds = binary_dataset()
        report = metric_fairness_check(
            prediction_table(Derandomizer.rt(ConstantScorer(0.5), 4), ds, EXACT), NormalizedHamming(2), 1, 0
        )
        assert report["fairness_violations"]["value"] == 0

    def test_single_point_has_no_pairs_to_check(self):
        ds = dataset_of({"a": (0.0, 1.0)})
        with pytest.raises(EmptyPairSetError):
            metric_fairness_check(
                prediction_table(Derandomizer.rt(ConstantScorer(0.5), 4), ds, EXACT), NormalizedHamming(2), 1, 0
            )

    def test_capped_check_after_the_pass_over_every_pair(self, py_rng):
        # the table's pass over every pair must not stand in for the capped selection
        metric = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        derand = Derandomizer(random_scorer(py_rng, ds), BitSamplingFamily(3), 11)
        table = prediction_table(derand, ds, EstimatorConfig(mode="exact", pairs_cap=4, seed=3))
        beta = family_beta(table, metric, 1)
        report = metric_fairness_check(table, metric, 1, 0)
        assert report["pairs_checked"]["value"] == 4 and report["pair_sample_seed"]["value"] == 3
        assert family_beta(table, metric, 1) == beta


PARAMETERS = [1, 2, Fraction(3, 2), Fraction(1, 20), 1.25, 0.05, 0]


class TestPairPathMatchesReferenceLoop:
    """The array pair path equals the per-pair loops in conftest: same
    counts, same values and the same int, Fraction or float type."""

    @staticmethod
    def family(kind, scorer, dataset, k):
        if kind == "rt":
            return Derandomizer.rt(scorer, k), NormalizedHamming(3)
        if kind == "pi":
            return Derandomizer.pi(scorer, dataset, IdentityBucketer(), 11), NormalizedHamming(3)
        if kind == "bit_sampling":
            return Derandomizer(scorer, BitSamplingFamily(3), k), NormalizedHamming(3)
        return Derandomizer(scorer, MinHashFamily(3), k), JaccardDistance()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_points=st.integers(2, 7),
        kind=st.sampled_from(["rt", "pi", "bit_sampling", "minhash"]),
        k=st.sampled_from([5, 7]),
        mc=st.booleans(),
        alpha=st.sampled_from([a for a in PARAMETERS if a >= 1]),
        beta=st.sampled_from(PARAMETERS),
        pairs_cap=st.sampled_from([4, 200_000]),
    )
    def test_fairness_check_and_family_beta(self, seed, n_points, kind, k, mc, alpha, beta, pairs_cap):
        rng = random.Random(seed)
        ds = random_binary_dataset(rng, n_points, 3)
        derand, metric = self.family(kind, random_scorer(rng, ds, 20), ds, k)
        cfg = EstimatorConfig(mode="mc" if mc else "exact", trials=300, seed=seed, pairs_cap=pairs_cap)
        i, j, _ = select_pairs(len(ds), cfg.pairs_cap, cfg.seed)
        violations, worst = reference_fairness_check(
            derand, ds, metric, alpha, beta, cfg, zip(i.tolist(), j.tolist())
        )
        table = prediction_table(derand, ds, cfg)
        report = metric_fairness_check(table, metric, alpha, beta)
        assert report["fairness_violations"]["value"] == violations
        got = report["worst_excess"]["value"]
        assert got == worst and type(got) is type(worst)

        got = family_beta(table, metric, alpha)
        expected = reference_family_beta(derand, ds, metric, alpha, cfg)
        assert got == expected and type(got) is type(expected)


@st.composite
def synthetic_classes(draw):
    """(size, exact, classes, budgets): sorted distinct (distance code,
    split count) classes of a table of ``size`` members (exact) or trials (MC),
    up to 60 a code, and per distance a budget: an int, a Fraction, a
    float, or a class's own gap (a tie), exact or as a float.  As Jaccard's
    codes do, two codes may decode to one distance, which has one budget."""
    exact = draw(st.booleans())
    size = draw(st.sampled_from([1, 7, 300, 2**53 + 1, 2**63 - 1] if exact else [1, 7, 300, 2000]))
    value = st.fractions(0, 1, max_denominator=6) if draw(st.booleans()) else st.sampled_from([0.0, 0.25, 1 / 3, 1.0])
    values = draw(st.lists(value, max_size=6))
    codes, counts, budgets = [], [], {}
    for code, d in enumerate(values):
        ns = sorted(draw(st.sets(st.integers(0, size), min_size=1, max_size=60)))
        codes += [code] * len(ns)
        counts += ns
        if d not in budgets:
            tie = draw(st.sampled_from(ns))
            budgets[d] = draw(st.sampled_from([0, 1, Fraction(tie, size), tie / size, float(Fraction(tie, size))])
                              | st.fractions(-1, 2, max_denominator=10**6) | st.floats(-1, 2))
    weights = draw(st.lists(st.integers(1, 10**6), min_size=len(counts), max_size=len(counts)))
    arrays = (np.array(a, dtype=np.int64) for a in (codes, counts, weights))
    return size, exact, PairClasses(None, values, None, *arrays), budgets


class TestExcesses:
    """``_excesses`` reads the class arrays in place and equals the list
    form of conftest: same violations and, per distance, the same top
    excess, value and int, Fraction or float type."""

    @settings(max_examples=200, deadline=None)
    @given(case=synthetic_classes())
    def test_equals_list_reference(self, case):
        size, exact, classes, budgets = case
        violations, tops = _excesses(size, exact, classes, budgets.__getitem__)
        expected = reference_excesses(size, exact, classes, budgets.__getitem__)
        assert type(violations) is int and violations == expected[0]
        assert [repr(t) for t in tops] == [repr(t) for t in expected[1]]
        # a class counts when its gap is above the budget, both exact; a tie does not count
        classes_of = zip(classes.class_codes.tolist(), classes.class_counts.tolist(), classes.weights.tolist())
        assert violations == sum(w for c, n, w in classes_of if Fraction(n, size) > Fraction(budgets[classes.values[c]]))

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_tie_does_not_count(self, exact):
        size = 2**63 - 1 if exact else 300
        classes = PairClasses(None, [Fraction(1, 4)], None, *(np.array(a, dtype=np.int64) for a in
                                                               ([0, 0, 0], [5, 9, 12], [3, 4, 2])))
        top, nine = Fraction(12, size) if exact else 12 / size, Fraction(9, size)
        assert repr(_excesses(size, exact, classes, lambda d: top)) == repr((0, [top - top]))
        assert repr(_excesses(size, exact, classes, lambda d: nine)) == repr((2, [top - nine]))

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_gap_exceeds_an_infinite_budget(self, exact):
        # alpha * d + beta overflows to inf under a float metric with alpha and beta near 1e308
        classes = PairClasses(None, [0.5], None, *(np.array(a, dtype=np.int64) for a in ([0, 0], [0, 7], [1, 2])))
        assert repr(_excesses(7, exact, classes, lambda d: math.inf)) == repr((0, [-math.inf]))

    def test_verdicts_hold_no_object_per_class(self):
        # 400 points in MC mode: 37,046 (distance, split count) classes over
        # 73 distance codes; both verdicts over the pass form a few numbers
        # per code, and their traced peak does not grow with the classes
        rng = random.Random(5)
        ds = random_binary_dataset(rng, 400, 12)
        derand = Derandomizer(random_scorer(rng, ds, 1000), MinHashFamily(12), 101)
        table, metric = prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=2000, seed=1)), JaccardDistance()
        classes = table.pair_classes(metric, capped=True)  # every pair, so family_beta reads it too
        assert classes.pair_seed is None and classes.class_counts.size >= 10**4
        tracemalloc.start()
        try:
            report, beta = metric_fairness_check(table, metric, 1, 0), family_beta(table, metric, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << 10) + 256 * len(classes.values)
        violations, tops = reference_excesses(table.size, table.cfg.exact, classes, lambda d: 1 * d + 0)
        assert report["fairness_violations"]["value"] == violations and report["worst_excess"]["value"] == max(tops)
        assert beta == max([0, *tops])


class TestThresholdFairnessCheck:
    """Each family reports the threshold-fairness guarantee the paper gives
    it: a one-bucket family (RT, or Pi over one realized bucket) the 1/k
    grid bound, LS with k >= 4/sigma the sigma + tau bound, Pi over several
    buckets neither."""

    SIGMA, TAU = 0.5, 0.5

    def check(self, derand):
        ds = binary_dataset()
        return threshold_fairness_check(
            prediction_table(derand, ds, EXACT), NormalizedHamming(2), self.SIGMA, self.TAU
        )

    def test_rt_reports_grid_guarantee(self):
        derand = Derandomizer.rt(TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9}), 11)
        report = self.check(derand)
        pts = each_point(binary_dataset())
        gaps = [brute_pairwise(derand, pts[i], pts[j]) for i, j in ((0, 2), (1, 2))]  # the pairs within sigma
        assert report["pairs_within_sigma"]["value"] == 2
        assert report["max_gap"]["value"] == max(gaps)
        assert report["max_gap_vs_grid_guarantee"]["bound"] == self.TAU + Fraction(1, 11)
        assert "max_gap_vs_preserved_guarantee" not in report

    def test_ls_reports_preserved_guarantee_when_k_is_large(self):
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        report = self.check(Derandomizer(scorer, BitSamplingFamily(2), 11))  # 11 >= 4/0.5
        assert report["max_gap_vs_preserved_guarantee"]["bound"] == self.SIGMA + self.TAU
        assert "max_gap_vs_grid_guarantee" not in report
        small_k = self.check(Derandomizer(scorer, BitSamplingFamily(2), 7))
        assert "max_gap_vs_preserved_guarantee" not in small_k

    def test_monte_carlo_max_gap_is_max_of_pairwise_estimates(self, py_rng):
        ds = random_binary_dataset(py_rng, 8, 4)
        derand = Derandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 11)
        metric = NormalizedHamming(4)
        mc = EstimatorConfig(mode="mc", trials=500, seed=4)
        report = threshold_fairness_check(prediction_table(derand, ds, mc), metric, 0.3, 0.5)
        gaps = [
            split_share(prediction_table(derand, joined(x, y), mc), 0, 1)
            for x, y in itertools.combinations(each_point(ds), 2)
            if reference_distance(metric, x, y) <= 0.3
        ]
        assert report["pairs_within_sigma"]["value"] == len(gaps)
        assert report["max_gap"]["value"] == max(gaps)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_points=st.integers(2, 7),
        kind=st.sampled_from(["rt", "pi", "bit_sampling", "minhash"]),
        mc=st.booleans(),
        sigma=st.sampled_from([0.3, 0.34, 0.5, 0.67, 0.9]),
    )
    def test_equals_pairwise_references(self, seed, n_points, kind, mc, sigma):
        # max_gap and pairs_within_sigma, pair by pair: the brute-force gap
        # (exact) or the batch's split share (Monte Carlo), with its int 0
        rng = random.Random(seed)
        ds = random_binary_dataset(rng, n_points, 3)
        derand, metric = TestPairPathMatchesReferenceLoop.family(kind, random_scorer(rng, ds, 20), ds, 5)
        table = prediction_table(derand, ds, EstimatorConfig(mode="mc" if mc else "exact", trials=300, seed=seed))
        pts = each_point(ds)
        close = [(a, b) for a, b in itertools.combinations(range(n_points), 2) if reference_distance(metric, pts[a], pts[b]) <= sigma]
        if not close:
            with pytest.raises(EmptyPairSetError):
                threshold_fairness_check(table, metric, sigma, self.TAU)
            return
        report = threshold_fairness_check(table, metric, sigma, self.TAU)
        expected = max([0, *(split_share(table, a, b) if mc else brute_pairwise(derand, pts[a], pts[b]) for a, b in close)])
        assert report["pairs_within_sigma"]["value"] == len(close)
        got = report["max_gap"]["value"]
        assert got == expected and type(got) is type(expected)

    def test_no_pair_within_sigma_raises(self):
        # no pair within sigma leaves nothing to check, not a vacuous pass
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        table = prediction_table(Derandomizer.rt(scorer, 11), binary_dataset(), EXACT)
        with pytest.raises(EmptyPairSetError):
            threshold_fairness_check(table, NormalizedHamming(2), 0.01, self.TAU)

    def test_pi_reports_neither(self):
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        derand = Derandomizer.pi(scorer, binary_dataset(), IdentityBucketer(), 11)
        report = self.check(derand)
        assert "max_gap" in report
        assert "max_gap_vs_grid_guarantee" not in report
        assert "max_gap_vs_preserved_guarantee" not in report

    def test_pi_over_one_bucket_reports_as_rt(self):
        # one realized grid cell: the family is exactly RT's k shared thresholds
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        one_cell = Derandomizer.pi(scorer, binary_dataset(), GridBucketer(10.0), 11)
        assert self.check(one_cell) == self.check(Derandomizer.rt(scorer, 11))


class TestAggregateFairness:
    def test_constant_classifier(self):
        ds = binary_dataset()
        clf = IdBits({p: 1 for p in ds.ids})
        assert aggregate_fairness(clf, ds, NormalizedHamming(2), 1.0) == 0

    def test_two_point_split(self):
        ds = dataset_of({"a": (0.0,), "b": (1.0,)})
        clf = IdBits({"a": 0, "b": 1})
        assert aggregate_fairness(clf, ds, NormalizedHamming(1), 1.0) == 1

    def test_empty_pair_set(self):
        ds = dataset_of({"a": (0.0, 0.0), "b": (1.0, 1.0)})
        clf = IdBits({"a": 0, "b": 1})
        with pytest.raises(EmptyPairSetError):
            aggregate_fairness(clf, ds, NormalizedHamming(2), 0.25)

    def test_tail_check_on_fair_family(self, py_rng):
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer(scorer, BitSamplingFamily(3), 11)
        report = aggregate_fairness_tail_check(
            prediction_table(derand, ds, EXACT), NormalizedHamming(3),
            alpha=Fraction(3, 2), tau=0.4, delta=0.25,
            n_classifiers=400, rng=CountingRng(5),
        )
        assert report["violating_classifier_fraction"]["satisfied"]

    @pytest.mark.parametrize("n_classifiers", [0, -3])
    def test_tail_check_needs_a_classifier(self, py_rng, n_classifiers):
        ds = random_binary_dataset(py_rng, 6, 3)
        derand = Derandomizer(random_scorer(py_rng, ds), BitSamplingFamily(3), 11)
        with pytest.raises(InvalidParameterError):
            aggregate_fairness_tail_check(
                prediction_table(derand, ds, EXACT), NormalizedHamming(3), alpha=1, tau=0.4,
                delta=0.25, n_classifiers=n_classifiers, rng=CountingRng(5),
            )

    @pytest.mark.parametrize(
        "dim,family,metric,mode",
        [
            (5, BitSamplingFamily(5), NormalizedHamming(5), "exact"),
            (5, MinHashFamily(5), JaccardDistance(), "exact"),
            (16, MinHashFamily(16), JaccardDistance(), "mc"),
            (5, SimHashFamily(5), Angular(), "mc"),
            (5, FixedFamily(SharedBucketer(), (0,)), NormalizedHamming(5), "exact"),
        ],
    )
    def test_sampled_fractions_equal_per_classifier_predictions(self, py_rng, dim, family, metric, mode):
        ds = random_binary_dataset(py_rng, 20, dim)
        derand = Derandomizer(random_scorer(py_rng, ds), family, 17)
        table = prediction_table(derand, ds, EstimatorConfig(mode=mode, trials=200))
        got = sampled_aggregate_fairness(table, metric, 0.5, 15, CountingRng(9))
        keys, a, c, _ = derand.draw(CountingRng(9), 15)
        classifiers = [
            ReferenceClassifier(derand, reference_member(family, key), ai, ci)
            for key, ai, ci in zip(keys, a.tolist(), c.tolist())
        ]
        assert got == [aggregate_fairness(clf, ds, metric, 0.5) for clf in classifiers]


class TestSplitCounts:
    @pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 2000])
    def test_equals_bytewise_popcount(self, size):
        rng = random.Random(size)
        ds = random_binary_dataset(rng, 12, 4)
        derand = Derandomizer(random_scorer(rng, ds, 20), BitSamplingFamily(4), 7)
        table = prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=size, seed=size))
        i, j = np.triu_indices(len(ds), 1)
        rows = [np.packbits(np.unpackbits(table.rows[r], count=table.size)) for r in range(len(ds))]
        expected = [int(np.bitwise_count(rows[a] ^ rows[b]).sum()) for a, b in zip(i, j)]
        words = table._split_rows()
        assert table._splits(words[i], words[j]).tolist() == expected


def per_point_mc_bits(derand, data, trials, seed):
    """The per-point Monte Carlo oracle, drawn by scalar CountingRng calls
    in the order of ``Derandomizer.draw`` (the bucketing members of every
    trial, then every a, then every c), then one point at a time."""
    rng = CountingRng(seed)
    pi, family = derand.pi_family, derand.bucketing
    if isinstance(family, FixedFamily):
        def embeds(point):
            return reference_member(family, 0).bucket(point)
    elif isinstance(family, SimHashFamily):
        count = trials * family.dim
        normals = np.array([v for _ in range((count + 1) // 2) for v in normal_pair(rng)][:count])
        normals = normals.reshape(trials, family.dim)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)

        def embeds(point):
            return np.where(normals @ np.asarray(vector_of(point)) >= 0.0, 1, 0)
    elif isinstance(family, MinHashFamily):
        ranks = [list(range(family.universe_size)) for _ in range(trials)]
        for i in range(family.universe_size - 1, 0, -1):  # Fisher-Yates, one step of every trial at a time
            for items in ranks:
                j = uniform_int(rng, i + 1)
                items[i], items[j] = items[j], items[i]
        ranks = np.array(ranks, dtype=np.int64).reshape(trials, family.universe_size)

        def embeds(point):
            support = sorted(binary_support(vector_of(point)))
            if not support:
                raise NotBinaryError("min-wise hashing is undefined on the empty set")
            return np.array(support, dtype=np.int64)[np.argmin(ranks[:, support], axis=1)]
    else:
        members = [reference_member(family, key) for key in family.all_keys()]
        idx = [uniform_int(rng, len(members)) for _ in range(trials)]

        def embeds(point):
            return np.array([m.bucket(point) for m in members], dtype=np.int64)[idx]
    a = np.array([uniform_int(rng, pi.a_range) for _ in range(trials)], dtype=np.int64)
    c = np.array([uniform_int(rng, pi.k) for _ in range(trials)], dtype=np.int64)

    rows = []
    for point in each_point(data):
        t = reference_threshold_count(reference_score(derand.scorer, point), derand.k)
        rows.append((a * embeds(point) + c) % pi.k < t)
    return np.array(rows, dtype=bool).reshape(len(data), trials)


def outcome(fn):
    """fn's value, or the class and message of the FairderandError it raises."""
    try:
        return fn()
    except FairderandError as exc:
        return type(exc), str(exc)


class TestBlockOracle:
    """The table is built a block of points at a time; with a byte budget
    small enough for several blocks and a partial last one, its closed
    forms equal the per-member predictions (exact) and its rows the
    per-point oracle on the same seed (Monte Carlo)."""

    @staticmethod
    def derandomizer(kind, rng, n_points):
        if kind in ("grid", "one_bucket"):
            ds = dataset_of({f"p{i}": (rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in range(n_points)})
            bucketer = GridBucketer(0.5 if kind == "grid" else 100.0)
            return ds, Derandomizer.pi(random_scorer(rng, ds, 20), ds, bucketer, 11)
        if kind == "simhash":
            ds = dataset_of({f"p{i}": tuple(rng.uniform(-1, 1) for _ in range(3)) for i in range(n_points)})
            return ds, Derandomizer(random_scorer(rng, ds, 20), SimHashFamily(3), 7)
        dim = 16 if kind == "minhash16" else 5
        ds = random_binary_dataset(rng, n_points, dim)
        scorer = random_scorer(rng, ds, 20)
        if kind == "rt":
            return ds, Derandomizer.rt(scorer, 7)
        if kind == "identity":
            return ds, Derandomizer.pi(scorer, ds, IdentityBucketer(), 13)
        family = BitSamplingFamily(dim) if kind == "bit_sampling" else MinHashFamily(dim)
        return ds, Derandomizer(scorer, family, {"minhash5": 5, "minhash16": 17}.get(kind, 11))

    EXACT_KINDS = ["rt", "grid", "identity", "one_bucket", "bit_sampling", "minhash5"]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(EXACT_KINDS),
        seed=st.integers(0, 10**6),
        n_points=st.integers(4, 9),
        per_block=st.integers(1, 3),
    )
    def test_exact_closed_form_equals_member_predictions(self, kind, seed, n_points, per_block):
        rng = random.Random(seed)
        ds, derand = self.derandomizer(kind, rng, n_points)
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", per_block * len(derand.bucketing.all_keys())):
            table = prediction_table(derand, ds, EXACT)
            variance = aggregate_variance(table)
        members = enumerate_members(derand)
        predictions = [[c.predict(point) for c in members] for point in each_point(ds)]
        assert table.size == len(members)
        assert [sum(row) * derand.k for row in predictions] == [int(t) * len(members) for t in table.t]
        i, j = np.triu_indices(len(ds), 1)
        expected = [sum(x != y for x, y in zip(predictions[a], predictions[b])) for a, b in zip(i, j)]
        assert table._splits(table.rows[i], table.rows[j]).tolist() == expected
        scores = scores_of(derand.scorer, ds)
        mean_bias = sum(Fraction(sum(row), len(members)) - s for row, s in zip(predictions, scores)) / len(ds)
        assert aggregate_bias(table)["value"] == mean_bias
        assert variance["value"] == brute_aggregate_variance(derand, ds)

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_exact_table_calls_no_residues(self, kind, monkeypatch):
        # the exact oracle averages the affine layer: no hash value is formed
        ds, derand = self.derandomizer(kind, random.Random(kind), 9)

        def residues(*args):
            raise AssertionError("an exact audit formed hash values")

        monkeypatch.setattr(PiFamily, "residues", residues)
        table = prediction_table(derand, ds, EXACT)
        aggregate_bias(table), aggregate_variance(table)
        report = metric_fairness_check(table, NormalizedHamming(ds.features.shape[1]), 1, 0)
        assert report["pairs_checked"]["value"] == 36
        with pytest.raises(AssertionError, match="hash values"):
            prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=5))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(
            ["rt", "grid", "identity", "one_bucket", "bit_sampling", "minhash5", "minhash16", "simhash"]
        ),
        seed=st.integers(0, 10**6),
        n_points=st.integers(4, 12),
        per_block=st.integers(1, 3),
        trials=st.sampled_from([1, 37, 200]),
    )
    def test_mc_rows_equal_per_point_oracle(self, kind, seed, n_points, per_block, trials):
        rng = random.Random(seed)
        ds, derand = self.derandomizer(kind, rng, n_points)
        cfg = EstimatorConfig(mode="mc", trials=trials, seed=seed)
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", 8 * per_block * trials):  # 8 bytes per (point, trial)
            table = prediction_table(derand, ds, cfg)
        expected = per_point_mc_bits(derand, ds, trials, seed)
        assert np.array_equal([np.unpackbits(table.rows[r], count=trials) for r in range(len(ds))], expected)
        assert table.sums.tolist() == expected.sum(axis=0).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["bit_sampling", "minhash5", "minhash16"]),
        mode=st.sampled_from(["exact", "mc"]),
        seed=st.integers(0, 10**6),
        bad=st.lists(st.sampled_from(["empty", "half"]), min_size=1, max_size=2),
        at=st.lists(st.integers(0, 9), min_size=2, max_size=2),
    )
    def test_bad_point_raises_as_per_point_oracle(self, kind, mode, seed, bad, at):
        # an empty set, or a non-0/1 feature; with two bad points, the
        # first in dataset order decides the error
        rng = random.Random(seed)
        ds, derand = self.derandomizer(kind, rng, 8)
        if mode == "exact" and kind == "minhash16":
            return  # not enumerable
        dim = ds.features.shape[1]
        points = each_point(ds)
        for kind_of_bad, where in zip(bad, at):
            vector = (0.0,) * dim if kind_of_bad == "empty" else (1.0, 0.5) + (0.0,) * (dim - 2)
            points.insert(where % (len(points) + 1), dataset_of({f"bad{len(points)}": vector}))
        points = joined(*points)
        scorer = TabularScorer({p: Fraction(rng.randint(0, 20), 20) for p in points.ids})
        derand = Derandomizer(scorer, derand.bucketing, derand.k)
        cfg = EstimatorConfig(mode=mode, trials=37, seed=seed)
        per_point = len(derand.bucketing.all_keys()) if mode == "exact" else 8 * 37  # a block's bytes per point
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", 3 * per_point):
            table = outcome(lambda: prediction_table(derand, points, cfg))
        if mode == "exact":  # the members that predict 1, point by point
            got = table if isinstance(table, tuple) else [int(t) * table.size // derand.k for t in table.t]
            members = enumerate_members(derand)
            expected = outcome(lambda: [sum(c.predict(p) for c in members) for p in each_point(points)])
        else:
            got = table if isinstance(table, tuple) else np.unpackbits(table.rows[0], count=37).tolist()
            expected = outcome(lambda: per_point_mc_bits(derand, points, 37, seed)[0].tolist())
        assert got == expected


GRID_KS = [1, 2, 4, 5, 8, 10, 20, 25, 100]  # each u/k a short decimal, which a float reads back exactly
TERMS = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, -0.1, -0.3]))


@st.composite
def scored_columns(draw):
    """(scorer, rows, k): an affine scorer whose weights may cancel, clamp
    at 0 or 1, or hit the grid u/k exactly, or a constant scorer."""
    k = draw(st.sampled_from(GRID_KS))
    kind = draw(st.sampled_from(["affine", "cancelling", "on_grid", "constant"]))
    n = draw(st.integers(1, 6))
    if kind == "constant":
        on_grid = st.integers(0, k).map(lambda u: Fraction(u, k))
        value = draw(st.one_of(on_grid, st.fractions(0, 1, max_denominator=997)))
        return ConstantScorer(value), [(0.0,)] * n, k
    if kind == "on_grid":  # score = x = u/k exactly
        return AffineScorer((1.0,)), [(draw(st.integers(0, k)) / k,) for _ in range(n)], k
    if kind == "cancelling":  # w . x = 1 exactly, which a left-to-right sum loses against 1e16
        weights, bias = [1e16, 1.0, -1e16], draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25]))
        return AffineScorer(weights, bias), [(1.0, draw(TERMS), 1.0) for _ in range(n)], k
    dim = draw(st.integers(1, 4))  # with a bias in [-3, 3], many scores clamp at 0 or 1
    weights, bias = draw(st.lists(TERMS, min_size=dim, max_size=dim)), draw(st.floats(-3, 3))
    rows = draw(st.lists(st.lists(TERMS, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return AffineScorer(weights, bias), rows, k


class TestColumnsEqualScalarReferences:
    """A scorer's ``scores``, ``family_mean`` and ``decomposition_check``
    answer every point of a dataset at once; point by point they equal
    conftest's scalar references."""

    @settings(max_examples=200, deadline=None)
    @given(case=scored_columns())
    def test_point_by_point(self, case):
        scorer, rows, k = case
        ds = dataset_of({f"p{r}": row for r, row in enumerate(rows)})
        derand = Derandomizer.rt(scorer, k)
        numerators, den = scorer.scores(ds)
        means, reports = family_mean(derand, ds), decomposition_check(derand, ds)
        for point, n, mean, report in zip(each_point(ds), numerators.tolist(), means, reports, strict=True):
            assert Fraction(n, den) == reference_score(scorer, point)
            assert mean == reference_family_mean(derand, point)
            assert report == reference_decomposition(derand, point)


class TestSinglePointClosedForm:
    """c is uniform on [k], so under every family a member predicts 1 at x
    for t = floor(score * k) of every k values: the single-point quantities
    are t/k, checked here against the per-member oracles."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(TestBlockOracle.EXACT_KINDS), seed=st.integers(0, 10**6), n_points=st.integers(4, 9))
    def test_members_predicting_one_number_t_of_every_k(self, kind, seed, n_points):
        ds, derand = TestBlockOracle.derandomizer(kind, random.Random(seed), n_points)
        members, means = enumerate_members(derand), family_mean(derand, ds)
        for point, mean in zip(each_point(ds), means, strict=True):
            t = reference_threshold_count(reference_score(derand.scorer, point), derand.k)
            assert sum(c.predict(point) for c in members) * derand.k == t * len(members)
            assert mean == Fraction(t, derand.k)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(TestBlockOracle.EXACT_KINDS), seed=st.integers(0, 10**6))
    def test_decomposition_equals_brute_force(self, kind, seed):
        # the expected gap between a member and a Bernoulli(s) draw, member by member
        ds, derand = TestBlockOracle.derandomizer(kind, random.Random(seed), 4)
        members, reports = enumerate_members(derand), decomposition_check(derand, ds)
        for point, report in zip(each_point(ds), reports, strict=True):
            s, bits = reference_score(derand.scorer, point), [c.predict(point) for c in members]
            mean = Fraction(sum(bits), len(bits))
            assert report["expected_gap"]["value"] == sum(b * (1 - s) + (1 - b) * s for b in bits) / len(bits)
            assert report["expected_gap"]["satisfied"]
            assert report["bias_abs"]["value"] == abs(mean - s)
            assert report["family_variance"]["value"] == mean * (1 - mean)

    @pytest.mark.parametrize("kind", ["simhash", "minhash16"])
    def test_mc_row_means_lie_within_four_se_of_t_over_k(self, kind):
        ds, derand = TestBlockOracle.derandomizer(kind, random.Random(kind), 12)
        table = prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=20_000, seed=7))
        for r, p in enumerate(map(float, family_mean(derand, ds))):
            mean = float(np.unpackbits(table.rows[r], count=table.size).mean())
            assert abs(mean - p) <= 4 * math.sqrt(p * (1 - p) / table.size)


class TestMinHashOverSevenElements:
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_table_size(self, py_rng, mode):
        ds = random_binary_dataset(py_rng, 12, 7)
        derand = Derandomizer(random_scorer(py_rng, ds), MinHashFamily(7), 7)
        table = prediction_table(derand, ds, EstimatorConfig(mode=mode, trials=300))
        assert table.size == (derand.family_size if mode == "exact" else 300)


class TestClosePairs:
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_equals_triu_indices_under_the_mask(self, n):
        total = n * (n - 1) // 2
        values = [Fraction(0), Fraction(1, 2), Fraction(1)]
        ti, tj = np.triu_indices(n, 1)
        masks = [np.random.default_rng(n).integers(0, 3, size=total), np.zeros(total, dtype=np.int64)]
        for codes in masks + [np.full(total, 2)]:  # the last: no close pair
            classes = PairClasses(None, values, codes, np.arange(3), np.zeros(3), np.ones(3))
            table = types.SimpleNamespace(dataset=range(n), pair_classes=lambda metric, classes=classes: classes)
            close = codes <= 1
            for chunk_bytes in (8, 72, 1 << 18):  # blocks of 1 and 9 codes, and one block
                with mock.patch.object(measure, "PAIR_CHUNK_BYTES", chunk_bytes):
                    if not close.any():
                        with pytest.raises(EmptyPairSetError, match="no pairs within distance 1/2"):
                            measure._close_pairs(table, None, Fraction(1, 2))
                        continue
                    got, i, j = measure._close_pairs(table, None, Fraction(1, 2))
                assert got is classes and (i.tolist(), j.tolist()) == (ti[close].tolist(), tj[close].tolist())


class TestLossApproximation:
    """The paper's loss approximation: for every binary loss table l, the
    family's loss bias and variance at a labeled point are at most its
    output bias and variance.  A member that predicts b loses l(b, y)."""

    MISCLASSIFICATION = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}

    @staticmethod
    def loss_moments(derand, point, y, loss):
        """(|E[L(family)] - L(scorer)|, Var[L(family)]), exact, by brute
        force over the members."""
        members = enumerate_members(derand)
        ones = sum(c.predict(point) for c in members)
        mean = Fraction(ones * loss[1, y] + (len(members) - ones) * loss[0, y], len(members))
        score = reference_score(derand.scorer, point)
        return abs(mean - (score * loss[1, y] + (1 - score) * loss[0, y])), mean * (1 - mean)

    def test_all_sixteen_tables_bounded_by_output_moments(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        derand = Derandomizer.rt(scorer, 10)
        p = point_of(ds, 0)
        (report,) = decomposition_check(derand, p)
        out_bias, out_var = report["bias_abs"]["value"], report["family_variance"]["value"]
        for bits in itertools.product((0, 1), repeat=4):
            table = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], bits))
            for y in (0, 1):
                lbias, lvar = self.loss_moments(derand, p, y, table)
                assert lbias <= out_bias
                assert lvar <= out_var

    def test_constant_table_gives_zero_moments(self):
        derand = Derandomizer.rt(TabularScorer({"x1": 0.3}), 10)
        p = dataset_of({"x1": (0.0,)})
        table = {key: 1 for key in self.MISCLASSIFICATION}
        assert self.loss_moments(derand, p, 1, table) == (0, 0)

    def test_unit_slope_loss_matches_output_bias(self):
        derand = Derandomizer.rt(TabularScorer({"x1": 0.33}), 7)
        p = dataset_of({"x1": (0.0,)})
        lbias, _ = self.loss_moments(derand, p, 1, self.MISCLASSIFICATION)
        assert lbias == decomposition_check(derand, p)[0]["bias_abs"]["value"]


class TestDecomposition:
    def test_zero_variance_family(self):
        # deterministic score and a constant family: the gap equals |bias|
        ds = dataset_of({"x": (0.0,)})
        derand = Derandomizer.rt(TabularScorer({"x": 1.0}), 5)
        report = decomposition_check(derand, ds)[0]
        assert report["expected_gap"]["satisfied"]
        assert report["expected_gap"]["value"] == 0

    def test_half_score_rt(self):
        ds = dataset_of({"x": (0.0,)})
        derand = Derandomizer.rt(TabularScorer({"x": 0.5}), 10)
        report = decomposition_check(derand, ds)[0]
        assert report["score_variance"]["value"] == Fraction(1, 4)
        assert report["family_variance"]["value"] == Fraction(1, 4)
        assert report["expected_gap"]["value"] == Fraction(1, 2)  # 1/4 + 1/4, no bias
        assert report["expected_gap"]["bound"] == pytest.approx(2 * 0.5 ** (2 / 3))
        assert report["expected_gap"]["satisfied"]

    def test_family_above_the_old_enumeration_cap_is_exact(self):
        # 1009**2 = 1,018,081 members, above the 10**6 cap that once sent this to Monte Carlo
        ds = dataset_of({f"x{i}": (float(i),) for i in range(3)})
        derand = Derandomizer.pi(TabularScorer({"x0": 0.3, "x1": 0.6, "x2": 0.9}), ds, IdentityBucketer(), 1009)
        assert derand.family_size == 1_018_081
        report = decomposition_check(derand, ds)[0]
        t = 302  # floor(0.3 * 1009)
        assert report["family_variance"]["value"] == Fraction(t, 1009) * Fraction(1009 - t, 1009)
        assert report["expected_gap"]["satisfied"]

    def test_family_that_cannot_be_listed_is_exact(self):
        # SimHash members cannot be listed, yet each predicts 1 with probability t/k = 3/11
        ds = dataset_of({"x": (1.0, 0.0)})
        derand = Derandomizer(TabularScorer({"x": 0.3}), SimHashFamily(2), 11)
        report = decomposition_check(derand, ds)[0]
        assert report["family_variance"]["value"] == Fraction(3, 11) * Fraction(8, 11)
        assert report["bias_abs"]["value"] == Fraction(3, 10) - Fraction(3, 11)
        assert "stderr" not in report["expected_gap"]
        assert report["expected_gap"]["satisfied"]

    def test_ls_small_instance(self):
        ds = dataset_of({"x": (0.0, 1.0)})
        derand = Derandomizer(TabularScorer({"x": 0.9}), BitSamplingFamily(2), 5)
        report = decomposition_check(derand, ds)[0]
        assert report["expected_gap"]["satisfied"]


class TestFairnessCurve:
    def test_constant_scorer_flat_zero(self):
        ds = binary_dataset()
        table = prediction_table(Derandomizer.rt(ConstantScorer(0.5), 10), ds, EXACT)
        curve = empirical_fairness_curve(table, NormalizedHamming(2), [0.0, 0.5, 1.0])
        assert all(b == 0.0 for _, b in curve)

    def test_zero_alpha_gives_mean_gap(self):
        # a shared threshold splits the two points with chance |t_a - t_b|/k = 7/10
        ds = dataset_of({"a": (0.0,), "b": (1.0,)})
        table = prediction_table(Derandomizer.rt(TabularScorer({"a": 0.2, "b": 0.9}), 10), ds, EXACT)
        curve = empirical_fairness_curve(table, NormalizedHamming(1), [0.0])
        assert curve[0][1] == pytest.approx(0.7)

    def test_monotone_nonincreasing(self, py_rng):
        ds = random_binary_dataset(py_rng, 6, 4)
        derand = Derandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 11)
        alphas = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        curve = empirical_fairness_curve(prediction_table(derand, ds, EXACT), NormalizedHamming(4), alphas)
        betas = [b for _, b in curve]
        assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))

    def test_family_version_runs(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 3)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer.rt(scorer, 5)
        curve = empirical_fairness_curve(prediction_table(derand, ds, EXACT), NormalizedHamming(3), [0.0, 1.0])
        assert len(curve) == 2

    METRICS = {"rt": NormalizedHamming(5), "grid": ScaledEuclidean(1.0), "bit_sampling": NormalizedHamming(5),
               "minhash5": JaccardDistance()}

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(METRICS)),
        seed=st.integers(0, 10**6),
        n_points=st.integers(2, 6),
        alphas=st.lists(st.floats(0, 4), min_size=1, max_size=4),
        cap=st.one_of(st.none(), st.integers(1, 14)),
    )
    def test_equals_brute_force(self, kind, seed, n_points, alphas, cap):
        """Each beta_hat(a) is the mean, over the table's (capped) pairs, of
        max(gap - a * d, 0), with each gap from every member's predictions."""
        ds, derand = TestBlockOracle.derandomizer(kind, random.Random(seed), n_points)
        metric, cfg = self.METRICS[kind], EstimatorConfig(mode="exact", seed=seed, pairs_cap=cap or 10**6)
        curve = empirical_fairness_curve(prediction_table(derand, ds, cfg), metric, alphas)
        i, j, _ = select_pairs(len(ds), cfg.pairs_cap, seed)
        pts = each_point(ds)
        pairs = [(pts[a], pts[b]) for a, b in zip(i.tolist(), j.tolist())]
        gaps = [(float(brute_pairwise(derand, x, y)), float(reference_distance(metric, x, y))) for x, y in pairs]
        for (alpha, beta), a in zip(curve, alphas):
            expected = math.fsum(max(g - a * d, 0.0) for g, d in gaps) / len(gaps)
            assert alpha == a and math.isclose(beta, expected, rel_tol=1e-12)


class TestPairSelection:
    def test_under_cap_returns_all(self):
        i, j, seed = select_pairs(5, cap=100, seed=9)
        assert len(i) == len(j) == 10
        assert seed is None

    def test_over_cap_samples_deterministically(self):
        i_a, j_a, seed_a = select_pairs(100, cap=50, seed=9)
        i_b, j_b, seed_b = select_pairs(100, cap=50, seed=9)
        assert (i_a == i_b).all() and (j_a == j_b).all()
        assert seed_a == seed_b == 9
        assert len(i_a) == len(j_a) == 50
        assert (i_a < j_a).all()

    def test_under_cap_is_row_order(self):
        i, j, _ = select_pairs(6, cap=15, seed=0)
        assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(6) for b in range(a + 1, 6)]

    @staticmethod
    def rejection_loop(n_points, cap, seed):
        """The scalar rejection sampler that the array draws must reproduce."""
        rng = CountingRng(seed)
        chosen = set()
        while len(chosen) < cap:
            i = uniform_int(rng, n_points)
            j = uniform_int(rng, n_points)
            if i != j:
                chosen.add((min(i, j), max(i, j)))
        return sorted(chosen)

    @pytest.mark.parametrize(
        "n_points,cap,seed",
        [
            (n_points, cap, seed)
            for n_points, cap in [(3, 1), (3, 2), (10, 1), (10, 20), (10, 44), (70, 20), (70, 2000), (300, 2000)]
            for seed in (0, 1, 7)
        ]
        # the benchmark's shape; and 10**9 points, where key * draws + position
        # would overflow int64, so the first occurrences come from a stable argsort
        + [(2000, 200_000, 1), (10**9, 20, 0)],
    )
    def test_over_cap_equals_rejection_loop(self, n_points, cap, seed):
        i, j, used_seed = select_pairs(n_points, cap=cap, seed=seed)
        assert used_seed == seed
        keys = sample_pairs(n_points, cap=cap, seed=seed)[0].keys
        # uint32 from 256 to 65,535 points, uint64 for 10**9
        assert keys.dtype == np.min_scalar_type(n_points * n_points)
        assert list(zip(i.tolist(), j.tolist())) == self.rejection_loop(n_points, cap, seed)

    def test_holds_its_keys_and_one_block_of_draws(self):
        # the benchmark's shape: the keys take 0.76 MiB; a sampler that held a
        # cap + block buffer and cap-long bool arrays peaked at 2.70 MiB
        tracemalloc.start()
        try:
            keys = sample_pairs(2000, 200_000, 1)[0].keys
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= keys.nbytes + (512 << 10)

    def test_second_round_of_draws_equals_rejection_loop(self, monkeypatch):
        # 2400 of the 2415 pairs of 70 points: the first block of 2400
        # pairs of draws falls short, so the sampler draws again
        uniform_ints, calls = CountingRng.uniform_ints, []

        def counting(rng, n, size):
            calls.append(size)
            return uniform_ints(rng, n, size)

        monkeypatch.setattr(CountingRng, "uniform_ints", counting)
        i, j, _ = select_pairs(70, cap=2400, seed=4)
        monkeypatch.undo()
        assert len(calls) > 1  # one array call per block of pairs
        assert list(zip(i.tolist(), j.tolist())) == self.rejection_loop(70, 2400, 4)


class TestClassHistogram:
    @pytest.mark.parametrize("width", [1, 2, 7, 256, 70_000, 2**33, 2**63])
    def test_equals_unique_reference(self, width, monkeypatch):
        # the keys code * width + count of the top split counts below width: 2**33 needs
        # 64-bit keys, and at 2**63 they pass 2**64 and are Python ints; an 8-key buffer
        # merges many sorted runs, and blocks of up to 11 keys cross its bound
        rng = np.random.default_rng(width % 2**32)
        codes = rng.integers(0, 5, size=500)
        counts = width - 1 - rng.integers(0, min(width, 9), size=500)
        dtype = np.min_scalar_type(5 * width)
        keys = [c * width + n for c, n in zip(codes.tolist(), counts.tolist())]
        blocks, s = [], 0
        while s < len(keys):
            size = int(rng.integers(1, 12))
            blocks.append(np.array(keys[s : s + size], dtype=dtype))
            s += size
        monkeypatch.setattr(measure, "PAIR_CHUNK_BYTES", 64)
        got, weights = measure._histogram(iter(blocks), dtype)
        assert got.dtype == (np.dtype(object) if width == 2**63 else dtype)
        assert list(zip(got.tolist(), weights.tolist())) == sorted(collections.Counter(keys).items())

    def test_empty(self):
        keys, weights = measure._histogram(iter([]), np.uint8)
        assert keys.size == weights.size == 0


class TestSameBucketSum:
    def test_beyond_int64(self):
        # one member and one bucket: with 60,000 points near k = 3 * 10**9 the
        # sum of min(t_i, t_j) over ordered pairs passes 2**63
        k, n = 3 * 10**9, 60_000
        t = np.random.default_rng(0).integers(k - 1000, k + 1, size=n)
        rows = np.zeros((n, 2), dtype=np.min_scalar_type(k))
        rows[:, 0] = t
        ts = sorted(t.tolist())
        mins = sum(v * (2 * (n - i) - 1) for i, v in enumerate(ts))
        assert mins > 2**63
        assert measure._same_bucket_sum(rows, k) == k * mins - sum(ts) ** 2


class TestStreamedPairPass:
    """The block pass of ``pair_classes`` equals a reference built pair by
    pair from ``select_pairs``, ``split_share`` and ``reference_distance``."""

    CASES = [(scheme, "hamming") for scheme in ("rt", "pi", "bit_sampling")] + [
        (scheme, "jaccard") for scheme in ("rt", "minhash")
    ] + [(scheme, kind) for scheme in ("rt", "pi") for kind in ("graded", "angular")]

    @staticmethod
    def setup(scheme, kind, rng, n_points):
        if kind == "angular":
            ds = random_real_dataset(rng, n_points, 3)
        elif kind == "graded":  # not 0/1: Hamming compares the floats
            ds = dataset_of({f"g{i}": tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(4))
                             for i in range(n_points)})
        else:
            ds = random_binary_dataset(rng, n_points, 6)
        metric = {"hamming": NormalizedHamming(6), "graded": NormalizedHamming(4),
                  "jaccard": JaccardDistance(), "angular": Angular()}[kind]
        scorer = random_scorer(rng, ds, 20)
        if scheme == "rt":
            return ds, Derandomizer.rt(scorer, 7), metric
        if scheme == "pi":
            return ds, Derandomizer.pi(scorer, ds, IdentityBucketer(), 41), metric
        family = BitSamplingFamily(6) if scheme == "bit_sampling" else MinHashFamily(6)
        return ds, Derandomizer(scorer, family, 7), metric

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        seed=st.integers(0, 10**6),
        n_points=st.integers(2, 40),
        mc=st.booleans(),
        cap=st.sampled_from(["all", "one", "inside", "all but one"]),
        chunk_bytes=st.sampled_from([72, 400, 1 << 18]),
        every_pair_first=st.booleans(),
    )
    def test_equals_per_pair_reference(self, case, seed, n_points, mc, cap, chunk_bytes, every_pair_first):
        # 72-byte chunks read one pair a block and buffer 9 histogram keys;
        # 400-byte chunks read up to 5 pairs a block (64 bytes a pair besides
        # its rows), so a cap of 7 can end inside one; below the cap the
        # capped classes are the pass over every pair
        rng = random.Random(seed)
        ds, derand, metric = self.setup(*case, rng, n_points)
        total = n_points * (n_points - 1) // 2
        pairs_cap = {"all": 10**6, "one": 1, "inside": min(7, total), "all but one": max(total - 1, 1)}[cap]
        cfg = EstimatorConfig(mode="mc" if mc else "exact", trials=37, seed=seed, pairs_cap=pairs_cap)
        table = prediction_table(derand, ds, cfg)
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(metrics, "PAIR_CHUNK_BYTES", chunk_bytes):
            every = table.pair_classes(metric) if every_pair_first else None
            classes = table.pair_classes(metric, capped=True)
        assert every is None or (classes is every) == (classes.pair_seed is None)

        i, j, pair_seed = select_pairs(n_points, pairs_cap, seed)
        if pairs_cap >= total:
            assert (i.tolist(), j.tolist()) == tuple(t.tolist() for t in np.triu_indices(n_points, 1))
        pts = each_point(ds)
        distances = [reference_distance(metric, pts[a], pts[b]) for a, b in zip(i.tolist(), j.tolist())]
        counts = [round(split_share(table, a, b) * table.size) for a, b in zip(i.tolist(), j.tolist())]
        assert classes.pair_seed == pair_seed
        if pair_seed is None:  # a pass over every pair keeps each pair's code
            got = [classes.values[c] for c in classes.codes.tolist()]
            assert got == distances and [type(d) for d in got] == [type(d) for d in distances]
        else:
            assert classes.codes is None
        classes_in_order = list(zip(classes.class_codes.tolist(), classes.class_counts.tolist()))
        assert classes_in_order == sorted(set(classes_in_order))  # sorted and distinct
        assert sorted(set(classes.class_codes.tolist())) == list(range(len(classes.values)))  # every value occurs
        histogram = collections.Counter()
        for (c, n), w in zip(classes_in_order, classes.weights.tolist()):
            histogram[type(classes.values[c]), classes.values[c], n] += w
        assert histogram == collections.Counter((type(d), d, n) for d, n in zip(distances, counts))
        assert int(classes.weights.sum()) == len(i)  # pairs_checked

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CASES), seed=st.integers(0, 10**6), n_points=st.integers(2, 12),
           mc=st.booleans(), every_pair_first=st.booleans())
    def test_capped_pass_reads_the_sample(self, case, seed, n_points, mc, every_pair_first):
        # at every cap the capped classes are one pass over sample_pairs,
        # field by field, whether or not the pass over every pair ran first;
        # below the cap they are that pass itself
        rng = random.Random(seed)
        ds, derand, metric = self.setup(*case, rng, n_points)
        for cap in range(1, n_points * (n_points - 1) // 2 + 1):
            cfg = EstimatorConfig(mode="mc" if mc else "exact", trials=37, seed=seed, pairs_cap=cap)
            table = prediction_table(derand, ds, cfg)
            every = table.pair_classes(metric) if every_pair_first else None
            classes = table.pair_classes(metric, capped=True)
            every = table.pair_classes(metric) if every is None else every
            pairs, pair_seed = sample_pairs(n_points, cap, seed)
            alone = measure.pair_classes(ds, metric, pairs, table._split_rows(), table._splits, table.size,
                                         codes=pair_seed is None)
            assert (classes is every) == (pair_seed is None)
            assert classes.pair_seed == pair_seed
            for name in ("values", "codes", "class_codes", "class_counts", "weights"):
                got, want = getattr(classes, name), getattr(alone, name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
                else:
                    assert got == want and [type(v) for v in got or []] == [type(v) for v in want or []], name

    def test_memory_is_a_few_bytes_per_pair(self):
        # every pair of 1,500 points: the pass keeps one byte per pair, its
        # code, and the block temporaries take a constant; a subsampled pass
        # keeps no array of its pairs
        rng = random.Random(3)
        ds = dataset_of({f"p{r}": tuple(float(rng.getrandbits(1)) for _ in range(16)) for r in range(1500)})
        table = prediction_table(Derandomizer.rt(random_scorer(rng, ds, 100), 101), ds, EXACT)
        tracemalloc.start()
        try:
            classes = table.pair_classes(NormalizedHamming(16))
            peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            sampled = table.pair_classes(NormalizedHamming(16), capped=True)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pairs = 1500 * 1499 // 2
        assert classes.codes.size == pairs and classes.codes.dtype == np.uint8
        assert peak < pairs + (4 << 20)
        assert sampled.pair_seed is not None and sampled.codes is None
        assert int(sampled.weights.sum()) == EXACT.pairs_cap
        assert kept < EXACT.pairs_cap  # the class arrays only: no byte per pair


class TestMonteCarloBitsPinned:
    """SHA-256 digests of the Monte Carlo table's integer arrays and of the
    tail check's drawn-classifier bits, recorded before the classifier
    evaluation became ``Derandomizer.predict``: a refactor of the
    evaluation must leave every bit where it was.  They are integers, so
    they read the same on every numpy build; SimHash, whose signs follow
    float rounding, is left out.  The bits of the tail check are its one
    batch's residues (every drawn classifier goes through
    ``PiFamily.residues``) below each point's t."""

    DIGESTS = {
        "minhash16": ("ccf14831d6ec8fb150f8adddab30b58452a03c73442839f3c8e97780d1c591ff",
                      "40ae125bdaf687a732f5ecf918433e3f71eede038d06b2281af558a9dc2d79f9",
                      "4725c5a1630d951cc09c7a502b55691e63fbdd9702b29d5e22f55a78387a1b7c"),
        "bit_sampling": ("d0da172e00b9a8f02266e8adabb0fa9b70932d755846fa7a681f0c29e400bbd4",
                         "7a9131d13d94b08066fde25d329af1d83e36adc553e8bba4e6f2d02fc11af4d4",
                         "26a0afd4ccc3a450bb24509295a04e5f201fcb14eba9197cb2e07d70927d614e"),
    }

    @staticmethod
    def sha(array: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_digests(self, kind, monkeypatch):
        rng = random.Random(kind)
        dim, family, metric = (16, MinHashFamily(16), JaccardDistance()) if kind == "minhash16" else (
            8, BitSamplingFamily(8), NormalizedHamming(8))
        ds = random_binary_dataset(rng, 120, dim)  # 120 points: sums fit uint8, so the bytes have no byte order
        derand = Derandomizer(random_scorer(rng, ds, 20), family, 17)
        table = prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=2000, seed=5))  # 8 blocks
        assert table.rows.dtype == table.sums.dtype == np.uint8
        residues, recorded = PiFamily.residues, []

        def recording(*args):
            recorded.append(residues(*args))
            return recorded[-1]

        monkeypatch.setattr(PiFamily, "residues", recording)
        aggregate_fairness_tail_check(table, metric, 1, 0.5, 0.1, 300, CountingRng(9))
        (tail,) = recorded
        bits = tail < table.t[:, None]
        assert bits.shape == (120, 300)
        assert (self.sha(table.rows), self.sha(table.sums), self.sha(bits)) == self.DIGESTS[kind]


class TestOneTrial:
    """A ddof=1 variance over one Monte Carlo trial is undefined: every
    quantity that takes one raises."""

    @pytest.fixture
    def table(self, py_rng):
        ds = random_binary_dataset(py_rng, 5, 4)
        derand = Derandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 7)
        return prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=1))

    @pytest.mark.parametrize("quantity_of", [
        aggregate_variance, aggregate_bias,
    ], ids=["aggregate_variance", "aggregate_bias"])
    def test_variance_needs_two_trials(self, table, quantity_of):
        with pytest.raises(InvalidParameterError, match="needs at least 2 trials"):
            quantity_of(table)


class TestBounds:
    def test_aggregate_tail_example(self):
        assert aggregate_tail_bound(1, 0, 0.05, 0.25) == pytest.approx(0.15)

    def test_worst_case_pairwise_example(self):
        value = worst_case_pairwise_bound(1, 0, Fraction(1, 10), Fraction(2, 500))
        assert value == Fraction(154, 1000)

    def test_bias_bound_example(self):
        assert bias_bound(100) == Fraction(1, 100)

    def test_worked_aggregate_example(self):
        value = worst_case_aggregate_bound(1, 0, 0.05, 0.25, Fraction(2, 500))
        assert value == pytest.approx(0.237)

    def test_registry_dispatch(self):
        assert compute_bound("bias", k=4) == Fraction(1, 4)
        with pytest.raises(InvalidParameterError):
            compute_bound("no_such_bound")

    @pytest.mark.parametrize("name,inputs", [
        ("aggregate_tail", dict(alpha=1, beta=1e308, tau=0.1, delta=0.25)),
        ("worst_case_aggregate", dict(alpha=1, beta=1e308, tau=0.1, delta=0.25, epsilon=0.1)),
        ("worst_case_aggregate", dict(alpha=1, beta=0, tau=0.1, delta=0.25, epsilon=1e308)),
        ("manipulation_gain", dict(alpha=10**400, beta=0, cost=2)),
    ])
    def test_overflow_raises_naming_the_bound(self, name, inputs):
        with pytest.raises(InvalidParameterError, match=f"bound '{name}' overflows a float"):
            compute_bound(name, **inputs)

    @pytest.mark.parametrize("fx,fy", [(1.5, -2), (-1e308, 0.5), (0.5, -1e308)])
    def test_ls_pairwise_scores_lie_in_unit_interval(self, fx, fy):
        with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\], in bound 'ls_pairwise'"):
            compute_bound("ls_pairwise", alpha=1, beta=0, d=0.5, k=10, fx=fx, fy=fy)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            aggregate_tail_bound(0.5, 0, 0.1, 0.25)  # alpha below 1
        with pytest.raises(InvalidParameterError):
            aggregate_tail_bound(1, 0, 0.1, 1.5)  # delta outside (0,1)
        with pytest.raises(InvalidParameterError):
            worst_case_pairwise_bound(1, 0, 2.0, 0.01)  # distance above 1
        with pytest.raises(InvalidParameterError):
            bias_bound(0)


def test_estimator_config_validation():
    with pytest.raises(InvalidParameterError):
        EstimatorConfig(mode="bogus")
    with pytest.raises(InvalidParameterError):
        EstimatorConfig(trials=0)
