from fractions import Fraction

import pytest

from fairderand import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    EstimatorConfig,
    IdentityBucketer,
    PiDerandomizer,
    Point,
    RtDerandomizer,
)
from fairderand.adversarial import (
    SphereConstruction,
    family_mean_gap,
    finite_family_violation_search,
    sphere_counterexample,
    verify_sphere_counterexample,
)
from fairderand.errors import GridTooCoarseError, InvalidParameterError
from fairderand.measure import pairwise_unfairness, scorer_beta
from fairderand.metrics import ScaledEuclidean

EXACT = EstimatorConfig(mode="exact")


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
            metric.distance(dataset[i], dataset[j]) for i, j in dataset.index_pairs()
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
        for i, j in dataset.index_pairs():
            gap = pairwise_unfairness(derand, dataset[i], dataset[j], EXACT).value
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
        family = [
            RtDerandomizer(ConstantScorer(0), 1).enumerate_members()[0],
            RtDerandomizer(ConstantScorer(1), 1).enumerate_members()[0],
        ]
        found = finite_family_violation_search(
            family, ScaledEuclidean(1.0), unit_interval_grid(), alpha=1.0, beta=0.1
        )
        assert found is None

    def test_single_step_classifier(self):
        # the classifier 1{x >= 0.5} on [0, 1]
        family = [RtDerandomizer(AffineScorer((1.0,)), 2).enumerate_members()[0]]
        assert family[0].h.c + 1 == 1 and family[0].family.k == 2  # u = c + 1
        grid = unit_interval_grid(1001)
        found = finite_family_violation_search(
            family, ScaledEuclidean(1.0), grid, alpha=1.0, beta=0.1
        )
        assert found is not None
        x, y = found
        assert x.features[0] < 0.5 <= y.features[0]
        gap = family_mean_gap(family, x, y)
        assert gap == 1
        assert gap > 1.0 * ScaledEuclidean(1.0).distance(x, y) + 0.1

    def test_ten_threshold_family(self):
        family = RtDerandomizer(AffineScorer((1.0,)), 10).enumerate_members()
        found = finite_family_violation_search(
            family, ScaledEuclidean(1.0), unit_interval_grid(2001), alpha=1.0, beta=0.05
        )
        assert found is not None
        x, y = found
        gap = family_mean_gap(family, x, y)
        assert gap > 1.0 * ScaledEuclidean(1.0).distance(x, y) + 0.05

    def test_beta_must_be_below_one_over_family_size(self):
        family = RtDerandomizer(AffineScorer((1.0,)), 10).enumerate_members()
        with pytest.raises(InvalidParameterError):
            finite_family_violation_search(
                family, ScaledEuclidean(1.0), unit_interval_grid(), 1.0, 0.2
            )

    def test_grid_too_coarse(self):
        family = RtDerandomizer(AffineScorer((1.0,)), 10).enumerate_members()
        coarse = unit_interval_grid(6)  # spacing 0.2 >= (1/10 - 0.05) / 1
        with pytest.raises(GridTooCoarseError):
            finite_family_violation_search(
                family, ScaledEuclidean(1.0), coarse, 1.0, 0.05
            )

    def test_found_pair_verifiably_violates(self):
        family = RtDerandomizer(AffineScorer((1.0,)), 4).enumerate_members()
        grid = unit_interval_grid(4001)
        found = finite_family_violation_search(
            family, ScaledEuclidean(1.0), grid, 1.0, 0.1
        )
        x, y = found
        metric = ScaledEuclidean(1.0)
        assert float(family_mean_gap(family, x, y)) > 1.0 * metric.distance(x, y) + 0.1
