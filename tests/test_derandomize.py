import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairderand import (
    BitSamplingFamily,
    ConstantScorer,
    Dataset,
    Derandomizer,
    GridBucketer,
    IdentityBucketer,
    MinHashFamily,
    SimHashFamily,
    TabularScorer,
)
from fairderand.hashing import FixedFamily
from fairderand.errors import InvalidParameterError, NotEnumerableError
from fairderand.measure import sample_classifier
from fairderand.rng import CountingRng

from conftest import (
    brute_mean,
    dataset_of,
    each_point,
    enumerate_members,
    point_of,
    random_binary_dataset,
    random_scorer,
    reference_member,
    scalar_sample,
)


def two_point_dataset():
    return dataset_of({"x1": (0.0, 0.0), "x2": (0.0, 1.0)})


class TestBucketers:
    def test_grid_groups_by_cell(self):
        ds = dataset_of({"a": (0.2, 0.3), "b": (0.4, 0.9)})
        first, second = GridBucketer(1.0).buckets(ds)
        assert first == second
        first, second = GridBucketer(0.5).buckets(ds)
        assert first != second

    def test_fine_grid_separates_distinct_points(self):
        first, second = GridBucketer(0.001).buckets(dataset_of({"a": (0.2, 0.3), "b": (0.21, 0.3)}))
        assert first != second

    def test_identity_bucketer(self):
        assert IdentityBucketer().buckets(dataset_of({"a": (0.0,), "b": (0.0,)})) == ["a", "b"]

    def test_realized_buckets_first_seen_order(self):
        ds = dataset_of({"a": (0.2,), "b": (5.3,), "c": (0.7,)})
        family = FixedFamily(GridBucketer(1.0), GridBucketer(1.0).buckets(ds))
        assert family.n_buckets == 2
        assert family.embed(family.all_keys(), family.vectors(ds)).tolist() == [[0], [1], [0]]

    def test_resolution_validation(self):
        with pytest.raises(InvalidParameterError):
            GridBucketer(0.0)


class TestDegenerateScorers:
    @pytest.mark.parametrize("value,expected", [(1, 1), (0, 0)])
    def test_all_schemes(self, value, expected):
        ds = two_point_dataset()
        scorer = ConstantScorer(value)
        families = [
            Derandomizer.rt(scorer, 7),
            Derandomizer.pi(scorer, ds, IdentityBucketer(), 7),
            Derandomizer(scorer, BitSamplingFamily(2), 7),
        ]
        rng = CountingRng(2)
        for derand in families:
            assert sample_classifier(derand, ds, rng)[2].tolist() == [expected] * len(ds)
            for member in enumerate_members(derand):
                assert all(member.predict(p) == expected for p in each_point(ds))


class TestFamilySizes:
    def test_rt(self):
        assert len(enumerate_members(Derandomizer.rt(ConstantScorer(0), 10))) == 10

    def test_pi(self):
        ds = two_point_dataset()
        derand = Derandomizer.pi(ConstantScorer(0), ds, IdentityBucketer(), 3)
        assert len(enumerate_members(derand)) == 9

    def test_ls(self):
        derand = Derandomizer(ConstantScorer(0), BitSamplingFamily(2), 5)
        assert len(enumerate_members(derand)) == 50

    def test_ls_minhash(self):
        derand = Derandomizer(ConstantScorer(0), MinHashFamily(3), 7)
        assert derand.family_size == 6 * 49

    def test_simhash_not_enumerable(self):
        derand = Derandomizer(ConstantScorer(0), SimHashFamily(2), 5)
        with pytest.raises(NotEnumerableError):
            derand.family_size
        with pytest.raises(NotEnumerableError):
            enumerate_members(derand)


class TestRtScheme:
    def test_monotone_in_threshold(self):
        ds = two_point_dataset()
        scorer = TabularScorer({"x1": 0.35, "x2": 0.8})
        members = enumerate_members(Derandomizer.rt(scorer, 10))
        for p in each_point(ds):
            bits = [m.predict(p) for m in members]  # ordered by u
            assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))

    def test_top_threshold_fires_only_on_score_one(self):
        scorer = TabularScorer({"x1": 1.0, "x2": 0.999})
        members = enumerate_members(Derandomizer.rt(scorer, 4))
        top = members[-1]
        assert top.c + 1 == 4  # the shared threshold u = c + 1
        assert top.predict(dataset_of({"x1": (0.0,)})) == 1
        assert top.predict(dataset_of({"x2": (0.0,)})) == 0

    def test_exact_mean_is_grid_floor(self):
        # scores on the grid reproduce exactly; off-grid floor down
        scorer = TabularScorer({"a": 0.3, "b": 0.25})
        derand = Derandomizer.rt(scorer, 10)
        assert brute_mean(derand, dataset_of({"a": (0.0,)})) == Fraction(3, 10)
        assert brute_mean(derand, dataset_of({"b": (0.0,)})) == Fraction(2, 10)

    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            Derandomizer.rt(ConstantScorer(0), 0)


class TestSeedDeterminism:
    def test_equal_seeds_give_equal_classifiers(self):
        ds = two_point_dataset()
        scorer = TabularScorer({"x1": 0.2, "x2": 0.6})
        for build in (
            lambda: Derandomizer.rt(scorer, 11),
            lambda: Derandomizer.pi(scorer, ds, IdentityBucketer(), 11),
            lambda: Derandomizer(scorer, BitSamplingFamily(2), 11),
            lambda: Derandomizer(scorer, SimHashFamily(2), 11),
        ):
            first = sample_classifier(build(), ds, CountingRng(77))
            second = sample_classifier(build(), ds, CountingRng(77))
            assert first[0] == second[0] and first[2].tolist() == second[2].tolist()


class TestBitBudgets:
    def test_ls_budget_totals(self):
        derand = Derandomizer(ConstantScorer(0.5), BitSamplingFamily(4), 5)
        rng = CountingRng(3)
        *_, budget = derand.draw(rng, 1)
        assert budget.total == budget.pi_bits + budget.lsh_bits
        assert budget.total == rng.bits_consumed
        assert budget.lsh_bits >= 2  # at least one 2-bit coordinate draw

    def test_average_pi_bits_within_budget(self):
        ds = two_point_dataset()
        derand = Derandomizer.pi(ConstantScorer(0.5), ds, IdentityBucketer(), 5)
        rng = CountingRng(5)
        n = 10_000
        total = 0
        for _ in range(n):
            total += derand.draw(rng, 1)[3].pi_bits
        assert total / n <= 4 * 3  # ceil(log2 5) = 3

    def test_rt_budget_is_logarithmic(self):
        derand = Derandomizer.rt(ConstantScorer(0.5), 1024)
        assert derand.draw(CountingRng(9), 1)[3].pi_bits == 10  # exactly log2(k) for a power of two


class TestSampleEqualsScalarReference:
    """The one-trial ``draw`` equals the scalar reference: the bucketing
    member by Fisher-Yates, ``normal_pair`` or ``uniform_int``, then a,
    then c, with the same bits spent on each; ``sample_classifier``
    reports that draw."""

    KINDS = ["rt", "pi_grid", "pi_identity", "bit_sampling", "minhash5", "minhash16", "simhash"]

    @staticmethod
    def points(kind) -> Dataset:
        """Points the family's members can bucket: real pairs for RT and Pi,
        non-empty 0/1 vectors of the bucketing family's width for LS."""
        gen = random.Random(kind)
        if kind in ("rt", "pi_grid", "pi_identity"):
            return dataset_of({f"r{i}": (gen.uniform(0, 2), gen.uniform(0, 2)) for i in range(12)})
        return random_binary_dataset(gen, 12, {"bit_sampling": 10, "minhash5": 5, "minhash16": 16, "simhash": 7}[kind])

    @classmethod
    def derandomizer(cls, kind):
        scorer, points = ConstantScorer(Fraction(1, 2)), cls.points(kind)
        return {
            "rt": lambda: Derandomizer.rt(scorer, 101),
            "pi_grid": lambda: Derandomizer.pi(scorer, points, GridBucketer(0.5), 17),
            "pi_identity": lambda: Derandomizer.pi(scorer, points, IdentityBucketer(), 13),
            "bit_sampling": lambda: Derandomizer(scorer, BitSamplingFamily(10), 11),
            "minhash5": lambda: Derandomizer(scorer, MinHashFamily(5), 11),
            "minhash16": lambda: Derandomizer(scorer, MinHashFamily(16), 17),
            "simhash": lambda: Derandomizer(scorer, SimHashFamily(7), 11),
        }[kind]()

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**64 - 1))
    def test_sample_equals_scalar_reference(self, kind, seed):
        derand = self.derandomizer(kind)
        rng, scalar = CountingRng(seed), CountingRng(seed)
        (key,), (a,), (c,), budget = derand.draw(rng, 1)
        ref, ref_budget = scalar_sample(derand, scalar)
        assert budget == ref_budget
        assert rng.bits_consumed == scalar.bits_consumed == budget.total
        assert (int(a), int(c)) == (ref.a, ref.c)
        member = reference_member(derand.bucketing, key)
        if kind == "simhash":  # numpy and Python round the norm differently
            assert member.normal == pytest.approx(ref.member.normal, rel=0, abs=1e-12)
        else:
            assert member == ref.member
        params, sampled_budget, _ = sample_classifier(derand, self.points(kind), CountingRng(seed))
        assert sampled_budget == budget
        assert params == {**derand.pi_family.params(a, c), **derand.bucketing.params(key)}


class TestFamilyMeanConsistency:
    """The enumerated family mean at any point is within 1/k of the score."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 996), st.sampled_from([2, 3, 5, 7, 11]))
    def test_all_schemes(self, numerator, k):
        score = Fraction(numerator, 997)
        ds = two_point_dataset()
        scorer = TabularScorer({"x1": score, "x2": score})
        point = point_of(ds, 0)
        for derand in (
            Derandomizer.rt(scorer, k),
            Derandomizer.pi(scorer, ds, IdentityBucketer(), k),
            Derandomizer(scorer, BitSamplingFamily(2), k),
        ):
            mean = brute_mean(derand, point)
            assert abs(mean - score) <= Fraction(1, k)


class TestFairnessProjection:
    def test_lsh_reads_fairness_features(self):
        # inference features are identical; fairness features differ, so
        # the sampled hash must be able to split the pair
        ds = dataset_of({"a": (0.5,), "b": (0.5,)}, fairness=[(0.0, 0.0), (1.0, 1.0)])
        scorer = TabularScorer({"a": 0.4, "b": 0.6})
        derand = Derandomizer(scorer, BitSamplingFamily(2), 5)
        x = derand.bucketing.vectors(ds)
        assert derand.bucketing.embed(derand.bucketing.all_keys(), x).tolist() == [[0, 0], [1, 1]]


class TestValidation:
    def test_pi_k_must_cover_realized_buckets(self):
        ds = dataset_of({str(i): (float(i),) for i in range(5)})
        with pytest.raises(InvalidParameterError):
            Derandomizer.pi(ConstantScorer(0), ds, IdentityBucketer(), 3)

    def test_random_configs_agree_with_oracle(self, py_rng):
        ds = random_binary_dataset(py_rng, 4, 3)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer(scorer, BitSamplingFamily(3), 7)
        for p in each_point(ds):
            assert brute_mean(derand, p) is not None  # smoke: oracle runs
