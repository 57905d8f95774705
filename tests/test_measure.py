import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import (
    BitSamplingFamily,
    ConstantScorer,
    Dataset,
    EstimatorConfig,
    GridBucketer,
    IdentityBucketer,
    LsDerandomizer,
    MinHashFamily,
    PiDerandomizer,
    Point,
    RtDerandomizer,
    SimHashFamily,
    TabularScorer,
    threshold_count,
)
from fairderand import measure
from fairderand.core import DeterministicClassifier
from fairderand.errors import (
    EmptyPairSetError,
    FairderandError,
    InvalidParameterError,
    NotEnumerableError,
)
from fairderand.measure import (
    aggregate_bias,
    aggregate_fairness_tail_check,
    aggregate_tail_bound,
    aggregate_variance,
    bias_bound,
    compute_bound,
    decomposition_check,
    empirical_fairness_curve,
    family_beta,
    ls_variance_bound,
    metric_fairness_check,
    pi_variance_bound,
    prediction_table,
    quantity,
    rt_variance_bound,
    sampled_aggregate_fairness,
    scorer_beta,
    select_pairs,
    threshold_fairness_check,
    worst_case_aggregate_bound,
    worst_case_pairwise_bound,
)
from fairderand.derandomize import SharedBucketer
from fairderand.hashing import MINHASH_ENUM_MAX, FixedFamily, MinHashMember
from fairderand import metrics
from fairderand.metrics import Angular, JaccardDistance, NormalizedHamming, binary_support
from fairderand.rng import CountingRng

from conftest import (
    aggregate_fairness,
    brute_aggregate_variance,
    brute_mean,
    brute_pairwise,
    random_binary_dataset,
    random_real_dataset,
    random_scorer,
    reference_fairness_check,
    reference_family_beta,
    split_share,
)

EXACT = EstimatorConfig(mode="exact")


class IdBits(DeterministicClassifier):
    """An explicit id -> bit table."""

    def __init__(self, table):
        self.table = table

    def predict(self, point):
        return self.table[point.id]


def binary_dataset():
    return Dataset(
        [
            Point("x1", (1.0, 0.0)),
            Point("x2", (0.0, 1.0)),
            Point("x3", (1.0, 1.0)),
        ]
    )


def small_families(dataset, scorer, k=5):
    return [
        RtDerandomizer(scorer, k),
        PiDerandomizer.build(scorer, dataset, IdentityBucketer(), k),
        PiDerandomizer.build(scorer, dataset, GridBucketer(10.0), k),  # one bucket
        LsDerandomizer(scorer, BitSamplingFamily(2), k),
        LsDerandomizer(scorer, MinHashFamily(2), k),
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
            table = prediction_table(derand, ds, EXACT)
            for r, p in enumerate(ds):
                assert table.bias(r).value == brute_mean(derand, p) - scorer.score(p)
            assert aggregate_variance(table).value == brute_aggregate_variance(derand, ds)
            assert split_share(table, 0, 1) == brute_pairwise(derand, ds[0], ds[1])

    def test_monte_carlo_within_four_sigma_of_exact(self, py_rng):
        ds = binary_dataset()
        scorer = random_scorer(py_rng, ds)
        mc = EstimatorConfig(mode="mc", trials=100_000, seed=11)
        for derand in small_families(ds, scorer, k=7):
            exact_bias = aggregate_bias(prediction_table(derand, ds, EXACT)).value
            est = aggregate_bias(prediction_table(derand, ds, mc))
            assert abs(est.value - float(exact_bias)) <= 4 * est.stderr + 1e-12

            exact_var = aggregate_variance(prediction_table(derand, ds, EXACT)).value
            est = aggregate_variance(prediction_table(derand, ds, mc))
            assert abs(est.value - float(exact_var)) <= 4 * est.stderr + 1e-12

            exact_pair = split_share(prediction_table(derand, ds, EXACT), 0, 2)
            est = split_share(prediction_table(derand, ds, mc), 0, 2)
            stderr = math.sqrt(est * (1 - est) / mc.trials)
            assert abs(est - float(exact_pair)) <= 4 * stderr + 1e-12

    def test_monte_carlo_simhash_matches_score(self):
        # non-enumerable family: sampled mean still lands within 1/k of the
        # score, up to Monte Carlo noise
        ds = Dataset([Point("x", (0.6, 0.8))])
        scorer = TabularScorer({"x": 0.37})
        derand = LsDerandomizer(scorer, SimHashFamily(2), 25)
        mc = EstimatorConfig(mode="mc", trials=200_000, seed=3)
        est = prediction_table(derand, ds, mc).bias(0)
        assert abs(est.value) <= 1 / 25 + 4 * est.stderr

    @pytest.mark.parametrize(
        "family,metric,x,y",
        [
            # universe of 8 > MINHASH_ENUM_MAX: the batch draws rank rows
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
        px, py = Point("x", tuple(map(float, x))), Point("y", tuple(map(float, y)))
        scorer = TabularScorer({"x": "0.3", "y": "0.75"})
        tx, ty = threshold_count(scorer.score(px), k), threshold_count(scorer.score(py), k)
        p = 1 - float(metric.distance(px, py))
        expected = p * abs(tx - ty) / k + (1 - p) * (tx * (k - ty) + ty * (k - tx)) / k**2
        mc = EstimatorConfig(mode="mc", trials=200_000, seed=13)
        est = split_share(prediction_table(LsDerandomizer(scorer, family, k), (px, py), mc), 0, 1)
        assert abs(est - expected) <= 4 * math.sqrt(est * (1 - est) / mc.trials)

    def test_exact_mode_rejects_simhash(self):
        derand = LsDerandomizer(ConstantScorer(0.5), SimHashFamily(2), 5)
        with pytest.raises(NotEnumerableError):
            prediction_table(derand, (Point("x", (1.0, 0.0)),), EXACT)


class TestBias:
    def test_rt_grid_aligned_bias_zero(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0.3, "x2": 0.7, "x3": 1.0})
        assert aggregate_bias(prediction_table(RtDerandomizer(scorer, 10), ds, EXACT)).value == 0

    def test_pi_bias_exact_example(self):
        ds = binary_dataset()
        derand = PiDerandomizer.build(ConstantScorer(0.5), ds, IdentityBucketer(), 5)
        assert prediction_table(derand, ds, EXACT).bias(0).value == Fraction(-1, 10)

    def test_constant_one_family_zero_bias(self):
        ds = binary_dataset()
        derand = RtDerandomizer(ConstantScorer(1), 5)
        assert prediction_table(derand, ds, EXACT).bias(0).value == 0

    def test_singleton_dataset_aggregate_equals_pointwise(self):
        ds = Dataset([Point("only", (0.0, 1.0))])
        derand = RtDerandomizer(TabularScorer({"only": 0.41}), 7)
        table = prediction_table(derand, ds, EXACT)
        assert aggregate_bias(table).value == table.bias(0).value

    def test_bias_bound_holds_exactly_on_random_configs(self, py_rng):
        for _ in range(5):
            ds = random_binary_dataset(py_rng, 5, 3)
            scorer = random_scorer(py_rng, ds)
            for k in (5, 7, 11):  # the hashed scheme needs k >= bucket count
                for derand in (
                    PiDerandomizer.build(scorer, ds, IdentityBucketer(), k),
                    LsDerandomizer(scorer, BitSamplingFamily(3), k),
                ):
                    value = aggregate_bias(prediction_table(derand, ds, EXACT)).value
                    assert abs(value) <= bias_bound(k)


class TestVariance:
    def test_deterministic_scores_give_zero_rt_variance(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0, "x2": 1, "x3": 1})
        assert aggregate_variance(prediction_table(RtDerandomizer(scorer, 9), ds, EXACT)).value == 0

    def test_half_score_single_point(self):
        ds = Dataset([Point("q", (0.0,))])
        derand = RtDerandomizer(TabularScorer({"q": 0.5}), 10)
        assert aggregate_variance(prediction_table(derand, ds, EXACT)).value == Fraction(1, 4)

    def test_pi_variance_bound_separating_bucketer(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 4)
        scorer = random_scorer(py_rng, ds)
        derand = PiDerandomizer.build(scorer, ds, IdentityBucketer(), 11)
        value = aggregate_variance(prediction_table(derand, ds, EXACT)).value
        mean_fvar = sum((s := scorer.score(p)) * (1 - s) for p in ds) / len(ds)
        # separating bucketer: max bucket mass is 1/|B|
        assert value <= pi_variance_bound(Fraction(1, len(ds)), mean_fvar, 11)

    def test_ls_variance_bound(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 3)
        scorer = random_scorer(py_rng, ds)
        derand = LsDerandomizer(scorer, BitSamplingFamily(3), 11)
        value = aggregate_variance(prediction_table(derand, ds, EXACT)).value
        mean_fvar = sum((s := scorer.score(p)) * (1 - s) for p in ds) / len(ds)
        # mean over members of the max bucket mass, exact
        members = derand.bucketing.enumerate()
        masses = []
        for m in members:
            counts: dict = {}
            for p in ds:
                b = m.apply(p)
                counts[b] = counts.get(b, 0) + 1
            masses.append(Fraction(max(counts.values()), len(ds)))
        mean_mass = sum(masses) / len(masses)
        assert value <= ls_variance_bound(mean_mass, mean_fvar, 11)

    def test_rt_variance_bound_with_grid_slack(self, py_rng):
        for _ in range(5):
            ds = random_binary_dataset(py_rng, 5, 3)
            scorer = random_scorer(py_rng, ds)
            derand = RtDerandomizer(scorer, 13)
            value = aggregate_variance(prediction_table(derand, ds, EXACT)).value
            mean_fvar = sum((s := scorer.score(p)) * (1 - s) for p in ds) / len(ds)
            assert value <= rt_variance_bound(mean_fvar) + Fraction(1, 13)


class TestPairwiseUnfairness:
    def test_identical_degenerate_scores(self):
        ds = binary_dataset()
        derand = RtDerandomizer(ConstantScorer(1), 5)
        assert split_share(prediction_table(derand, ds, EXACT), 0, 1) == 0

    def test_ls_worked_example(self):
        ds = Dataset([Point("x1", (0.0, 0.0)), Point("x2", (0.0, 1.0))])
        scorer = TabularScorer({"x1": 0.2, "x2": 0.6})
        derand = LsDerandomizer(scorer, BitSamplingFamily(2), 5)
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
            table = prediction_table(RtDerandomizer(scorer, 10), ds, EXACT)
            for i, j in itertools.combinations(range(len(ds)), 2):
                value = split_share(table, i, j)
                gap = abs(scorer.score(ds[i]) - scorer.score(ds[j]))
                assert abs(value - gap) <= Fraction(1, 10)


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
                prediction_table(RtDerandomizer(scorer, k), ds, EXACT), metric, alpha,
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
        derand = LsDerandomizer(scorer, BitSamplingFamily(3), k)
        report = metric_fairness_check(
            prediction_table(derand, ds, EXACT), metric,
            alpha + Fraction(1, 2), beta + Fraction(2, k),
        )
        assert report["fairness_violations"]["value"] == 0
        assert all(entry.get("satisfied", True) for entry in report.values())

    def test_constant_family_never_violates(self):
        ds = binary_dataset()
        report = metric_fairness_check(
            prediction_table(RtDerandomizer(ConstantScorer(0.5), 4), ds, EXACT), NormalizedHamming(2), 1, 0
        )
        assert report["fairness_violations"]["value"] == 0

    def test_single_point_has_no_pairs_to_check(self):
        ds = Dataset([Point("a", (0.0, 1.0))])
        with pytest.raises(EmptyPairSetError):
            metric_fairness_check(
                prediction_table(RtDerandomizer(ConstantScorer(0.5), 4), ds, EXACT), NormalizedHamming(2), 1, 0
            )

    def test_capped_check_after_the_pass_over_every_pair(self, py_rng):
        # the table's pass over every pair must not stand in for the capped selection
        metric = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        derand = LsDerandomizer(random_scorer(py_rng, ds), BitSamplingFamily(3), 11)
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
            return RtDerandomizer(scorer, k), NormalizedHamming(3)
        if kind == "pi":
            return PiDerandomizer.build(scorer, dataset, IdentityBucketer(), 11), NormalizedHamming(3)
        if kind == "bit_sampling":
            return LsDerandomizer(scorer, BitSamplingFamily(3), k), NormalizedHamming(3)
        return LsDerandomizer(scorer, MinHashFamily(3), k), JaccardDistance()

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


class TestThresholdFairnessCheck:
    """Each scheme reports the threshold-fairness guarantee the paper gives
    it: RT the 1/k grid bound, LS with k >= 4/sigma the sigma + tau bound,
    Pi neither."""

    SIGMA, TAU = 0.5, 0.5

    def check(self, derand):
        ds = binary_dataset()
        return threshold_fairness_check(
            prediction_table(derand, ds, EXACT), NormalizedHamming(2), self.SIGMA, self.TAU
        )

    def test_rt_reports_grid_guarantee(self):
        derand = RtDerandomizer(TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9}), 11)
        report = self.check(derand)
        ds = binary_dataset()
        gaps = [brute_pairwise(derand, ds[i], ds[j]) for i, j in ((0, 2), (1, 2))]  # the pairs within sigma
        assert report["pairs_within_sigma"]["value"] == 2
        assert report["max_gap"]["value"] == max(gaps)
        assert report["max_gap_vs_grid_guarantee"]["bound"] == self.TAU + Fraction(1, 11)
        assert "max_gap_vs_preserved_guarantee" not in report

    def test_ls_reports_preserved_guarantee_when_k_is_large(self):
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        report = self.check(LsDerandomizer(scorer, BitSamplingFamily(2), 11))  # 11 >= 4/0.5
        assert report["max_gap_vs_preserved_guarantee"]["bound"] == self.SIGMA + self.TAU
        assert "max_gap_vs_grid_guarantee" not in report
        small_k = self.check(LsDerandomizer(scorer, BitSamplingFamily(2), 7))
        assert "max_gap_vs_preserved_guarantee" not in small_k

    def test_monte_carlo_max_gap_is_max_of_pairwise_estimates(self, py_rng):
        ds = random_binary_dataset(py_rng, 8, 4)
        derand = LsDerandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 11)
        metric = NormalizedHamming(4)
        mc = EstimatorConfig(mode="mc", trials=500, seed=4)
        report = threshold_fairness_check(prediction_table(derand, ds, mc), metric, 0.3, 0.5)
        gaps = [
            split_share(prediction_table(derand, (ds[i], ds[j]), mc), 0, 1)
            for i, j in itertools.combinations(range(len(ds)), 2)
            if metric.distance(ds[i], ds[j]) <= 0.3
        ]
        assert report["pairs_within_sigma"]["value"] == len(gaps)
        assert report["max_gap"]["value"] == max(gaps)

    def test_no_pair_within_sigma_raises(self):
        # no pair within sigma leaves nothing to check, not a vacuous pass
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        table = prediction_table(RtDerandomizer(scorer, 11), binary_dataset(), EXACT)
        with pytest.raises(EmptyPairSetError):
            threshold_fairness_check(table, NormalizedHamming(2), 0.01, self.TAU)

    def test_pi_reports_neither(self):
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        derand = PiDerandomizer.build(scorer, binary_dataset(), IdentityBucketer(), 11)
        report = self.check(derand)
        assert "max_gap" in report
        assert "max_gap_vs_grid_guarantee" not in report
        assert "max_gap_vs_preserved_guarantee" not in report


class TestAggregateFairness:
    def test_constant_classifier(self):
        ds = binary_dataset()
        clf = IdBits({p.id: 1 for p in ds})
        assert aggregate_fairness(clf, ds, NormalizedHamming(2), 1.0) == 0

    def test_two_point_split(self):
        ds = Dataset([Point("a", (0.0,)), Point("b", (1.0,))])
        clf = IdBits({"a": 0, "b": 1})
        assert aggregate_fairness(clf, ds, NormalizedHamming(1), 1.0) == 1

    def test_empty_pair_set(self):
        ds = Dataset([Point("a", (0.0, 0.0)), Point("b", (1.0, 1.0))])
        clf = IdBits({"a": 0, "b": 1})
        with pytest.raises(EmptyPairSetError):
            aggregate_fairness(clf, ds, NormalizedHamming(2), 0.25)

    def test_tail_check_on_fair_family(self, py_rng):
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        derand = LsDerandomizer(scorer, BitSamplingFamily(3), 11)
        report = aggregate_fairness_tail_check(
            prediction_table(derand, ds, EXACT), NormalizedHamming(3),
            alpha=Fraction(3, 2), tau=0.4, delta=0.25,
            n_classifiers=400, rng=CountingRng(5),
        )
        assert report["violating_classifier_fraction"]["satisfied"]

    @pytest.mark.parametrize("n_classifiers", [0, -3])
    def test_tail_check_needs_a_classifier(self, py_rng, n_classifiers):
        ds = random_binary_dataset(py_rng, 6, 3)
        derand = LsDerandomizer(random_scorer(py_rng, ds), BitSamplingFamily(3), 11)
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
        derand = LsDerandomizer(random_scorer(py_rng, ds), family, 17)
        table = prediction_table(derand, ds, EstimatorConfig(mode=mode, trials=200))
        got = sampled_aggregate_fairness(table, metric, 0.5, 15, CountingRng(9))
        rng = CountingRng(9)
        assert got == [aggregate_fairness(derand.sample(rng), ds, metric, 0.5) for _ in range(15)]


class TestSplitCounts:
    @pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 2000])
    def test_equals_bytewise_popcount(self, size):
        rng = random.Random(size)
        ds = random_binary_dataset(rng, 12, 4)
        derand = LsDerandomizer(random_scorer(rng, ds, 20), BitSamplingFamily(4), 7)
        table = prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=size, seed=size))
        i, j = np.triu_indices(len(ds), 1)
        rows = [np.packbits(table.bits(r)) for r in range(len(ds))]
        expected = [int(np.bitwise_count(rows[a] ^ rows[b]).sum()) for a, b in zip(i, j)]
        assert table.split_counts(i, j).tolist() == expected


def per_point_mc_bits(derand, points, trials, seed):
    """The per-point Monte Carlo oracle the block oracle replaced, drawn by
    scalar CountingRng calls: every a, then every c, then the bucketings,
    then one point at a time."""
    rng = CountingRng(seed)
    pi, family = derand.pi_family, derand.bucketing
    a = np.array([rng.uniform_int(pi.a_range) for _ in range(trials)], dtype=np.int64)
    c = np.array([rng.uniform_int(pi.k) for _ in range(trials)], dtype=np.int64)
    if isinstance(family, FixedFamily):
        def embeds(point):
            return pi.embed_value(family.member.apply(point))
    elif isinstance(family, SimHashFamily):
        count = trials * family.dim
        normals = np.array([v for _ in range((count + 1) // 2) for v in rng.normal_pair()][:count])
        normals = normals.reshape(trials, family.dim)

        def embeds(point):
            return np.where(normals @ np.asarray(point.fairness_vector) >= 0.0, pi.embed_value(1), pi.embed_value(0))
    elif isinstance(family, MinHashFamily) and family.universe_size > MINHASH_ENUM_MAX:
        draws = [rng.draw_bits(53) for _ in range(trials * family.universe_size)]
        ranks = np.argsort(np.reshape(draws, (trials, -1)), axis=1).argsort(axis=1)

        def embeds(point):
            support = sorted(binary_support(point.fairness_vector))
            if not support:
                raise InvalidParameterError("min-wise hashing is undefined on the empty set")
            values = np.array([pi.embed_value(e) for e in support], dtype=np.int64)
            return values[np.argmin(ranks[:, support], axis=1)]
    else:
        members = family.enumerate()
        idx = [rng.uniform_int(len(members)) for _ in range(trials)]

        def embeds(point):
            return np.array([pi.embed_value(m.apply(point)) for m in members], dtype=np.int64)[idx]

    rows = []
    for point in points:
        t = threshold_count(derand.scorer.score(point), derand.k)
        rows.append((a * embeds(point) + c) % pi.k < t)
    return np.array(rows, dtype=bool).reshape(len(points), trials)


def outcome(fn):
    """fn's value, or the class and message of the FairderandError it raises."""
    try:
        return fn()
    except FairderandError as exc:
        return type(exc), str(exc)


class TestBlockOracle:
    """The table is built a block of points at a time; with a byte budget
    small enough for several blocks and a partial last one, its rows equal
    the per-member predictions (exact) and the per-point oracle on the
    same seed (Monte Carlo)."""

    @staticmethod
    def derandomizer(kind, rng, n_points):
        if kind in ("grid", "one_bucket"):
            ds = Dataset([Point(f"p{i}", (rng.uniform(-1, 1), rng.uniform(-1, 1))) for i in range(n_points)])
            bucketer = GridBucketer(0.5 if kind == "grid" else 100.0)
            return ds, PiDerandomizer.build(random_scorer(rng, ds, 20), ds, bucketer, 11)
        if kind == "simhash":
            ds = Dataset([Point(f"p{i}", tuple(rng.uniform(-1, 1) for _ in range(3))) for i in range(n_points)])
            return ds, LsDerandomizer(random_scorer(rng, ds, 20), SimHashFamily(3), 7)
        dim = 16 if kind == "minhash16" else 5
        ds = random_binary_dataset(rng, n_points, dim)
        scorer = random_scorer(rng, ds, 20)
        if kind == "rt":
            return ds, RtDerandomizer(scorer, 7)
        if kind == "identity":
            return ds, PiDerandomizer.build(scorer, ds, IdentityBucketer(), 13)
        family = BitSamplingFamily(dim) if kind == "bit_sampling" else MinHashFamily(dim)
        return ds, LsDerandomizer(scorer, family, {"minhash5": 5, "minhash16": 17}.get(kind, 11))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rt", "grid", "identity", "one_bucket", "bit_sampling", "minhash5"]),
        seed=st.integers(0, 10**6),
        n_points=st.integers(4, 9),
        per_block=st.integers(1, 3),
    )
    def test_exact_rows_equal_member_predictions(self, kind, seed, n_points, per_block):
        rng = random.Random(seed)
        ds, derand = self.derandomizer(kind, rng, n_points)
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", per_block * derand.family_size):
            table = prediction_table(derand, ds, EXACT)
        members = derand.enumerate_members()
        for r, point in enumerate(ds):
            assert table.bits(r).tolist() == [c.predict(point) for c in members]
        assert aggregate_variance(table).value == brute_aggregate_variance(derand, ds)

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
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", per_block * trials):
            table = prediction_table(derand, ds, cfg)
        expected = per_point_mc_bits(derand, ds, trials, seed)
        assert np.array_equal([table.bits(r) for r in range(len(ds))], expected)
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
        dim = len(ds[0].features)
        points = list(ds)
        for kind_of_bad, where in zip(bad, at):
            vector = (0.0,) * dim if kind_of_bad == "empty" else (1.0, 0.5) + (0.0,) * (dim - 2)
            points.insert(where % (len(points) + 1), Point(f"bad{where}", vector))
        scorer = TabularScorer({p.id: Fraction(rng.randint(0, 20), 20) for p in points})
        derand = LsDerandomizer(scorer, derand.bucketing, derand.k)
        cfg = EstimatorConfig(mode=mode, trials=37, seed=seed)
        size = derand.family_size if mode == "exact" else 37
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", 3 * size):
            got = outcome(lambda: prediction_table(derand, points, cfg).bits(0).tolist())
        if mode == "exact":
            members = derand.enumerate_members()
            expected = outcome(lambda: [[c.predict(p) for c in members] for p in points][0])
        else:
            expected = outcome(lambda: per_point_mc_bits(derand, points, 37, seed)[0].tolist())
        assert got == expected


class TestMinHashOverSevenElements:
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_table_makes_no_apply_calls(self, py_rng, mode):
        ds = random_binary_dataset(py_rng, 12, 7)
        derand = LsDerandomizer(random_scorer(py_rng, ds), MinHashFamily(7), 7)
        calls = []
        apply = MinHashMember.apply
        with mock.patch.object(MinHashMember, "apply", lambda self, p: calls.append(p) or apply(self, p)):
            table = prediction_table(derand, ds, EstimatorConfig(mode=mode, trials=300))
        assert calls == []
        assert table.size == (derand.family_size if mode == "exact" else 300)


class TestClosePairs:
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_equals_triu_indices_under_the_mask(self, n):
        total = n * (n - 1) // 2
        values = [Fraction(0), Fraction(1, 2), Fraction(1)]
        ti, tj = np.triu_indices(n, 1)
        masks = [np.random.default_rng(n).integers(0, 3, size=total), np.zeros(total, dtype=np.int64)]
        for codes in masks + [np.full(total, 2)]:  # the last: no close pair
            i, j, close = measure._close_pairs(n, codes, values, Fraction(1, 2))
            assert close.tolist() == (codes <= 1).tolist()
            assert (i.tolist(), j.tolist()) == (ti[close].tolist(), tj[close].tolist())


class TestLossApproximation:
    """The paper's loss approximation: for every binary loss table l, the
    family's loss bias and variance at a labeled point are at most its
    output bias and variance.  A member that predicts b loses l(b, y)."""

    MISCLASSIFICATION = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}

    @staticmethod
    def loss_moments(derand, point, y, loss):
        """(|E[L(family)] - L(scorer)|, Var[L(family)]), exact, from the
        point's prediction table."""
        table = prediction_table(derand, (point,), EXACT)
        ones = table.ones(0)
        mean = Fraction(ones * loss[1, y] + (table.size - ones) * loss[0, y], table.size)
        score = derand.scorer.score(point)
        return abs(mean - (score * loss[1, y] + (1 - score) * loss[0, y])), mean * (1 - mean)

    def test_all_sixteen_tables_bounded_by_output_moments(self):
        ds = binary_dataset()
        scorer = TabularScorer({"x1": 0.3, "x2": 0.55, "x3": 0.9})
        derand = RtDerandomizer(scorer, 10)
        p = ds[0]
        table = prediction_table(derand, (p,), EXACT)
        out_bias, out_var = abs(table.bias(0).value), table.variance(0).value
        for bits in itertools.product((0, 1), repeat=4):
            table = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], bits))
            for y in (0, 1):
                lbias, lvar = self.loss_moments(derand, p, y, table)
                assert lbias <= out_bias
                assert lvar <= out_var

    def test_constant_table_gives_zero_moments(self):
        derand = RtDerandomizer(TabularScorer({"x1": 0.3}), 10)
        p = Point("x1", (0.0,))
        table = {key: 1 for key in self.MISCLASSIFICATION}
        assert self.loss_moments(derand, p, 1, table) == (0, 0)

    def test_unit_slope_loss_matches_output_bias(self):
        derand = RtDerandomizer(TabularScorer({"x1": 0.33}), 7)
        p = Point("x1", (0.0,))
        lbias, _ = self.loss_moments(derand, p, 1, self.MISCLASSIFICATION)
        assert lbias == abs(prediction_table(derand, (p,), EXACT).bias(0).value)


class TestDecomposition:
    def test_zero_variance_family(self):
        # deterministic score and a constant family: the gap equals |bias|
        ds = Dataset([Point("x", (0.0,))])
        derand = RtDerandomizer(TabularScorer({"x": 1.0}), 5)
        report = decomposition_check(derand, ds[0], EstimatorConfig(mode="mc", trials=2000, seed=1))
        assert report["expected_gap"]["satisfied"]
        assert report["expected_gap"]["value"] == 0.0

    def test_half_score_rt(self):
        ds = Dataset([Point("x", (0.0,))])
        derand = RtDerandomizer(TabularScorer({"x": 0.5}), 10)
        report = decomposition_check(derand, ds[0], EstimatorConfig(mode="mc", trials=50_000, seed=2))
        assert report["score_variance"]["value"] == Fraction(1, 4)
        assert report["family_variance"]["value"] == Fraction(1, 4)
        assert report["expected_gap"]["bound"] == pytest.approx(2 * 0.5 ** (2 / 3))
        assert report["expected_gap"]["satisfied"]

    def test_family_above_the_enumeration_cap_falls_back_to_monte_carlo(self):
        # 1009**2 = 1,018,081 members, above the enumeration cap
        ds = Dataset([Point(f"x{i}", (float(i),)) for i in range(3)])
        derand = PiDerandomizer.build(TabularScorer({"x0": 0.3, "x1": 0.6, "x2": 0.9}), ds, IdentityBucketer(), 1009)
        assert derand.family_size == 1_018_081
        report = decomposition_check(derand, ds[0], EstimatorConfig(mode="mc", trials=2000, seed=5))
        assert isinstance(report["family_variance"]["value"], float)
        assert report["expected_gap"]["satisfied"]

    def test_ls_small_instance(self):
        ds = Dataset([Point("x", (0.0, 1.0))])
        derand = LsDerandomizer(TabularScorer({"x": 0.9}), BitSamplingFamily(2), 5)
        report = decomposition_check(derand, ds[0], EstimatorConfig(mode="mc", trials=100_000, seed=3))
        assert report["expected_gap"]["satisfied"]


class TestFairnessCurve:
    def test_constant_scorer_flat_zero(self):
        ds = binary_dataset()
        table = prediction_table(RtDerandomizer(ConstantScorer(0.5), 10), ds, EXACT)
        curve = empirical_fairness_curve(table, NormalizedHamming(2), [0.0, 0.5, 1.0])
        assert all(b == 0.0 for _, b in curve)

    def test_zero_alpha_gives_mean_gap(self):
        # a shared threshold splits the two points with chance |t_a - t_b|/k = 7/10
        ds = Dataset([Point("a", (0.0,)), Point("b", (1.0,))])
        table = prediction_table(RtDerandomizer(TabularScorer({"a": 0.2, "b": 0.9}), 10), ds, EXACT)
        curve = empirical_fairness_curve(table, NormalizedHamming(1), [0.0])
        assert curve[0][1] == pytest.approx(0.7)

    def test_monotone_nonincreasing(self, py_rng):
        ds = random_binary_dataset(py_rng, 6, 4)
        derand = LsDerandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 11)
        alphas = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        curve = empirical_fairness_curve(prediction_table(derand, ds, EXACT), NormalizedHamming(4), alphas)
        betas = [b for _, b in curve]
        assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))

    def test_family_version_runs(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 3)
        scorer = random_scorer(py_rng, ds)
        derand = RtDerandomizer(scorer, 5)
        curve = empirical_fairness_curve(prediction_table(derand, ds, EXACT), NormalizedHamming(3), [0.0, 1.0])
        assert len(curve) == 2


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
            i = rng.uniform_int(n_points)
            j = rng.uniform_int(n_points)
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
        assert list(zip(i.tolist(), j.tolist())) == self.rejection_loop(n_points, cap, seed)

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


class TestStreamedPairPass:
    """The block pass of ``pair_classes`` equals a reference built pair by
    pair from ``select_pairs``, ``split_share`` and ``metric.distance``."""

    CASES = [(scheme, "hamming") for scheme in ("rt", "pi", "bit_sampling")] + [
        (scheme, "jaccard") for scheme in ("rt", "minhash")
    ] + [(scheme, kind) for scheme in ("rt", "pi") for kind in ("graded", "angular")]

    @staticmethod
    def setup(scheme, kind, rng, n_points):
        if kind == "angular":
            ds = random_real_dataset(rng, n_points, 3)
        elif kind == "graded":  # not 0/1: Hamming compares the floats
            ds = Dataset([Point(f"g{i}", tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(4)))
                          for i in range(n_points)])
        else:
            ds = random_binary_dataset(rng, n_points, 6)
        metric = {"hamming": NormalizedHamming(6), "graded": NormalizedHamming(4),
                  "jaccard": JaccardDistance(), "angular": Angular()}[kind]
        scorer = random_scorer(rng, ds, 20)
        if scheme == "rt":
            return ds, RtDerandomizer(scorer, 7), metric
        if scheme == "pi":
            return ds, PiDerandomizer.build(scorer, ds, IdentityBucketer(), 41), metric
        family = BitSamplingFamily(6) if scheme == "bit_sampling" else MinHashFamily(6)
        return ds, LsDerandomizer(scorer, family, 7), metric

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        seed=st.integers(0, 10**6),
        n_points=st.integers(2, 40),
        mc=st.booleans(),
        cap=st.sampled_from(["all", "one", "inside", "all but one"]),
        chunk_bytes=st.sampled_from([72, 1 << 18]),
    )
    def test_equals_per_pair_reference(self, case, seed, n_points, mc, cap, chunk_bytes):
        # 72-byte chunks read 8-byte rows (and two int64 indices) 3 pairs to a
        # block, so a cap of 7 ends inside one
        rng = random.Random(seed)
        ds, derand, metric = self.setup(*case, rng, n_points)
        total = n_points * (n_points - 1) // 2
        pairs_cap = {"all": 10**6, "one": 1, "inside": min(7, total), "all but one": max(total - 1, 1)}[cap]
        cfg = EstimatorConfig(mode="mc" if mc else "exact", trials=37, seed=seed, pairs_cap=pairs_cap)
        table = prediction_table(derand, ds, cfg)
        with mock.patch.object(measure, "PAIR_CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(metrics, "PAIR_CHUNK_BYTES", chunk_bytes):
            classes = table.pair_classes(metric, capped=True)

        i, j, pair_seed = select_pairs(n_points, pairs_cap, seed)
        if pairs_cap >= total:
            assert (i.tolist(), j.tolist()) == tuple(t.tolist() for t in np.triu_indices(n_points, 1))
        distances = [metric.distance(ds[a], ds[b]) for a, b in zip(i.tolist(), j.tolist())]
        counts = [round(split_share(table, a, b) * table.size) for a, b in zip(i.tolist(), j.tolist())]
        assert classes.pair_seed == pair_seed
        got = [classes.values[c] for c in classes.codes.tolist()]
        assert got == distances and [type(d) for d in got] == [type(d) for d in distances]
        assert classes.counts.tolist() == counts
        assert sorted(set(classes.codes.tolist())) == list(range(len(classes.values)))  # every value occurs
        reference = sorted(collections.Counter(zip(classes.codes.tolist(), counts)).items())
        assert [(c, n) for c, n in zip(classes.class_codes.tolist(), classes.class_counts.tolist())] == [
            key for key, _ in reference]
        assert classes.weights.tolist() == [w for _, w in reference]

    def test_memory_is_a_few_bytes_per_pair(self):
        # every pair of 1,500 points: the per-pair arrays take a byte each,
        # and the block temporaries a constant
        rng = random.Random(3)
        ds = Dataset([Point(f"p{r}", tuple(float(rng.getrandbits(1)) for _ in range(16))) for r in range(1500)])
        table = prediction_table(RtDerandomizer(random_scorer(rng, ds, 100), 101), ds, EXACT)
        tracemalloc.start()
        try:
            classes = table.pair_classes(NormalizedHamming(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = 1500 * 1499 // 2
        assert classes.codes.size == pairs
        assert peak < 4 * pairs + (4 << 20)


class TestOneTrial:
    """A ddof=1 variance over one Monte Carlo trial is undefined: every
    quantity that takes one raises, and the means still read."""

    @pytest.fixture
    def table(self, py_rng):
        ds = random_binary_dataset(py_rng, 5, 4)
        derand = LsDerandomizer(random_scorer(py_rng, ds), BitSamplingFamily(4), 7)
        return prediction_table(derand, ds, EstimatorConfig(mode="mc", trials=1))

    @pytest.mark.parametrize("quantity_of", [
        aggregate_variance, aggregate_bias, lambda table: table.variance(0),
    ], ids=["aggregate_variance", "aggregate_bias", "point_variance"])
    def test_variance_needs_two_trials(self, table, quantity_of):
        with pytest.raises(InvalidParameterError, match="needs at least 2 trials"):
            quantity_of(table)

    def test_means_still_read(self, table):
        assert table.mean(0).value in (0.0, 1.0)

    def test_decomposition_check_needs_two_trials(self, py_rng):
        # a SimHash family is not enumerable: its variance came from one trial, nan
        ds = random_real_dataset(py_rng, 2, 3)
        derand = LsDerandomizer(random_scorer(py_rng, ds), SimHashFamily(3), 11)
        with pytest.raises(InvalidParameterError, match="needs at least 2 trials"):
            decomposition_check(derand, ds[0], EstimatorConfig(mode="mc", trials=1))


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
