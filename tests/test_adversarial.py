import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fairderand import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    EstimatorConfig,
    GridBucketer,
    IdentityBucketer,
    PiDerandomizer,
    Point,
    RtDerandomizer,
)
from fairderand.adversarial import (
    SphereConstruction,
    finite_family_violation_search,
    sphere_counterexample,
    verify_sphere_counterexample,
)
from fairderand.errors import FairderandError, GridTooCoarseError, InvalidParameterError
from fairderand.measure import prediction_table, scorer_beta
from fairderand.metrics import NormalizedHamming, ScaledEuclidean

from conftest import brute_violation_search, split_share

EXACT = EstimatorConfig(mode="exact")


def mean_gap(family, x, y):
    """Family-average |prediction(x) - prediction(y)|, member by member."""
    return Fraction(sum(abs(c.predict(x) - c.predict(y)) for c in family), len(family))


def small_construction(n_points=6, k=101, alpha=1.0, beta=0.1):
    return SphereConstruction(
        n_points=n_points,
        dimension=2,
        delta_sphere=0.15,
        eps_gap=0.05,
        k=k,
        alpha=alpha,
        beta=beta,
    )


class TestConstructionValidation:
    def test_odd_point_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_construction(n_points=5)

    def test_beta_ceiling(self):
        with pytest.raises(InvalidParameterError):
            small_construction(beta=0.5)
        with pytest.raises(InvalidParameterError):
            SphereConstruction(6, 2, 0.15, 0.05, k=101, beta=0.5 - 1 / 202)

    def test_eps_gap_window(self):
        with pytest.raises(InvalidParameterError):
            SphereConstruction(6, 2, 0.15, 0.45, k=101, beta=0.1)

    def test_radius_cap(self):
        with pytest.raises(InvalidParameterError):
            SphereConstruction(6, 2, 0.2, 0.05, k=101, alpha=1.0, beta=0.1)

    def test_arc_must_fit_half_circle(self):
        # many points with a large minimum chord cannot fit
        with pytest.raises(InvalidParameterError):
            SphereConstruction(20, 2, 0.15, 0.05, k=101, beta=0.1)


class TestSphereCounterexample:
    def test_scorer_is_perfectly_fair(self):
        cfg = small_construction()
        dataset, scorer, metric = sphere_counterexample(cfg)
        assert scorer_beta(scorer, dataset, metric, 1) == 0

    def test_points_on_sphere_with_min_gap(self):
        cfg = small_construction()
        dataset, scorer, metric = sphere_counterexample(cfg)
        origin = Point("origin", (0.0, 0.0))
        for p in dataset:
            assert metric.distance(p, origin) == pytest.approx(cfg.delta_sphere)
        min_d = min(
            metric.distance(dataset[i], dataset[j]) for i, j in itertools.combinations(range(len(dataset)), 2)
        )
        assert min_d == pytest.approx(cfg.eps_gap, rel=1e-9)

    def test_scores_split_half_and_half(self):
        dataset, scorer, _ = sphere_counterexample(small_construction())
        highs = sum(scorer.score(p) > Fraction(1, 2) for p in dataset)
        assert highs == len(dataset) // 2

    def test_every_pair_unfair_under_hashed_thresholds(self):
        cfg = small_construction()
        dataset, scorer, metric = sphere_counterexample(cfg)
        derand = PiDerandomizer.build(scorer, dataset, IdentityBucketer(), cfg.k)
        floor_value = (
            Fraction(1, 2) - Fraction(str(cfg.eps_gap)) - Fraction(1, 2 * cfg.k)
        )
        table = prediction_table(derand, dataset, EXACT)
        for i, j in itertools.combinations(range(len(dataset)), 2):
            gap = split_share(table, i, j)
            assert gap >= floor_value
            d = metric.distance(dataset[i], dataset[j])
            assert gap > cfg.alpha * d + Fraction(str(cfg.beta))

    def test_verification_report(self):
        cfg = small_construction()
        dataset, scorer, metric = sphere_counterexample(cfg)
        report = verify_sphere_counterexample(cfg, dataset, scorer, metric)
        assert report.all_satisfied
        assert report["pairs_checked"]["value"] == 15

    def test_minimal_two_point_case(self):
        cfg = small_construction(n_points=2)
        dataset, scorer, metric = sphere_counterexample(cfg)
        report = verify_sphere_counterexample(cfg, dataset, scorer, metric)
        assert report.all_satisfied
        assert report["pairs_checked"]["value"] == 1


def unit_interval_grid(steps=1001):
    return [Point(f"g{i:05d}", (i / (steps - 1),)) for i in range(steps)]


class TestViolationSearch:
    def test_constant_family_returns_none(self):
        # score 1/2 at k = 2: the member u = 1 predicts 1 everywhere, u = 2 predicts 0
        derand = RtDerandomizer(ConstantScorer(0.5), 2)
        found = finite_family_violation_search(
            derand, ScaledEuclidean(1.0), unit_interval_grid(), alpha=1.0, beta=0.1
        )
        assert found is None

    def test_single_step_classifier(self):
        # the classifier 1{x >= 0.5} on [0, 1]: the one member at k = 1 on the score min(2x, 1)
        derand = RtDerandomizer(AffineScorer((2.0,)), 1)
        family = derand.enumerate_members()
        assert len(family) == 1 and family[0].h.c + 1 == 1  # u = c + 1
        grid = unit_interval_grid(1001)
        found = finite_family_violation_search(
            derand, ScaledEuclidean(1.0), grid, alpha=1.0, beta=0.1
        )
        assert found is not None
        x, y = found
        assert x.features[0] < 0.5 <= y.features[0]
        gap = mean_gap(family, x, y)
        assert gap == 1
        assert gap > 1.0 * ScaledEuclidean(1.0).distance(x, y) + 0.1

    def test_ten_threshold_family(self):
        derand = RtDerandomizer(AffineScorer((1.0,)), 10)
        found = finite_family_violation_search(
            derand, ScaledEuclidean(1.0), unit_interval_grid(2001), alpha=1.0, beta=0.05
        )
        assert found is not None
        x, y = found
        gap = mean_gap(derand.enumerate_members(), x, y)
        assert gap > 1.0 * ScaledEuclidean(1.0).distance(x, y) + 0.05

    def test_beta_must_be_below_one_over_family_size(self):
        derand = RtDerandomizer(AffineScorer((1.0,)), 10)
        with pytest.raises(InvalidParameterError):
            finite_family_violation_search(
                derand, ScaledEuclidean(1.0), unit_interval_grid(), 1.0, 0.2
            )

    def test_grid_too_coarse(self):
        derand = RtDerandomizer(AffineScorer((1.0,)), 10)
        coarse = unit_interval_grid(6)  # spacing 0.2 >= (1/10 - 0.05) / 1
        with pytest.raises(GridTooCoarseError):
            finite_family_violation_search(
                derand, ScaledEuclidean(1.0), coarse, 1.0, 0.05
            )

    def test_found_pair_verifiably_violates(self):
        derand = RtDerandomizer(AffineScorer((1.0,)), 4)
        grid = unit_interval_grid(4001)
        found = finite_family_violation_search(
            derand, ScaledEuclidean(1.0), grid, 1.0, 0.1
        )
        x, y = found
        metric = ScaledEuclidean(1.0)
        assert float(mean_gap(derand.enumerate_members(), x, y)) > 1.0 * metric.distance(x, y) + 0.1


def outcome(fn):
    """The ids of the pair fn returns, None, or the class of the
    FairderandError it raises."""
    try:
        found = fn()
    except FairderandError as exc:
        return type(exc)
    return None if found is None else (found[0].id, found[1].id)


class TestViolationSearchEqualsScan:
    """The search over one prediction table returns what the per-member
    scan of conftest returns: the same pair, None, or the same error."""

    @settings(max_examples=80, deadline=None)
    @given(
        scheme=st.sampled_from(["rt", "pi"]),
        k=st.sampled_from([1, 2, 5, 7, 11]),
        steps=st.sampled_from([0, 2, 11, 101, 401, 801]),
        slope=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
        resolution=st.sampled_from([0.25, 0.5, 1.0]),
        drop_top=st.booleans(),  # the grid's last point then lies in no realized bucket
        metric=st.sampled_from([ScaledEuclidean(1.0), ScaledEuclidean(0.25), NormalizedHamming(1)]),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
        beta=st.sampled_from([0.0, 0.0, 0.005, 0.05, 0.3]),
    )
    def test_search_equals_scan(self, scheme, k, steps, slope, resolution, drop_top, metric, alpha, beta):
        scorer = AffineScorer((slope,), 0.1)
        if scheme == "rt":
            derand = RtDerandomizer(scorer, k)
        else:
            top = int(1 / resolution)  # the bucket of the grid's last point, 1.0
            centers = [(b + 0.5) * resolution for b in range(top)] + ([] if drop_top else [1.0])
            dataset = Dataset([Point(f"d{b}", (x,)) for b, x in enumerate(centers)])
            assume(k >= len(centers))  # every k drawn is 1 or a prime: the affine family exists
            derand = PiDerandomizer.build(scorer, dataset, GridBucketer(resolution), k)
        grid = unit_interval_grid(steps)
        got = outcome(lambda: finite_family_violation_search(derand, metric, grid, alpha, beta))
        assert got == outcome(lambda: brute_violation_search(derand, metric, grid, alpha, beta))
