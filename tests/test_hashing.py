import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairderand import (
    BitSamplingFamily,
    ConstantScorer,
    Derandomizer,
    EstimatorConfig,
    GridBucketer,
    IdentityBucketer,
    MinHashFamily,
    PiFamily,
    SimHashFamily,
    TabularScorer,
)
from fairderand.derandomize import Bucketer, SharedBucketer
from fairderand.errors import (
    DimensionMismatchError,
    FairderandError,
    FamilyTooLargeError,
    InvalidParameterError,
    NotBinaryError,
    NotEnumerableError,
    UnknownBucketError,
)
from fairderand.hashing import FixedFamily
from fairderand.measure import prediction_table
from fairderand.metrics import Angular, JaccardDistance, NormalizedHamming
from fairderand.rng import CountingRng

from conftest import brute_collision, dataset_of, each_point, reference_distance, reference_member, split_share


def every_coefficient(fam: PiFamily) -> tuple[np.ndarray, np.ndarray]:
    """(a, c) of every member of the affine family, a-major."""
    a, c = np.meshgrid(np.arange(fam.a_range), np.arange(fam.k), indexing="ij")
    return a.ravel(), c.ravel()


class TestPiEval:
    def test_constant_hash(self):
        fam = PiFamily(5, 3)
        assert fam.residues(np.zeros(1, np.int64), np.zeros(1, np.int64), np.arange(3)).tolist() == [0, 0, 0]

    def test_direct_arithmetic(self):
        fam = PiFamily(5, 5)
        a, c = np.array([1, 2]), np.array([0, 4])
        assert fam.residues(a, c, np.array([3, 3])).tolist() == [3, 0]  # ((6 + 4) mod 5) for the second

    def test_unknown_bucket(self):
        # the fixed bucketing numbers only the buckets it was built on
        fam = FixedFamily(IdentityBucketer(), ["a"])
        with pytest.raises(UnknownBucketError, match="no hash value for bucket 'zzz'"):
            fam.vectors(dataset_of({"zzz": (0.0,)}))


class TestFamilyValidation:
    def test_k_must_cover_buckets(self):
        with pytest.raises(InvalidParameterError):
            PiFamily(2, 3)

    def test_non_prime_k_rejected_when_differences_collide(self):
        with pytest.raises(InvalidParameterError):
            PiFamily(4, 3)  # difference 2 shares a factor with 4

    def test_non_prime_k_fine_for_two_buckets(self):
        PiFamily(500, 2)

    def test_prime_k_always_fine(self):
        PiFamily(13, 13)


class TestExactPairwiseIndependence:
    @pytest.mark.parametrize("k", [2, 3, 5, 7, 11, 13])
    def test_every_joint_cell_hit_exactly_once(self, k):
        fam = PiFamily(k, min(k, 4))
        a, c = every_coefficient(fam)
        assert a.size == k * k
        for b1, b2 in itertools.combinations(range(min(k, 4)), 2):
            e1, e2 = (np.full(a.size, b) for b in (b1, b2))
            cells = collections.Counter(zip(fam.residues(a, c, e1).tolist(), fam.residues(a, c, e2).tolist()))
            assert len(cells) == k * k
            assert set(cells.values()) == {1}

    @pytest.mark.parametrize("k", [2, 5, 13])
    def test_marginals_exactly_uniform(self, k):
        fam = PiFamily(k, min(k, 3))
        a, c = every_coefficient(fam)
        for b in range(min(k, 3)):
            counts = np.bincount(fam.residues(a, c, np.full(a.size, b)), minlength=k)
            assert counts.tolist() == [fam.a_range] * k

    def test_enumeration_cap(self):
        # no cap on the family size: over two buckets the family has k * k members, and the
        # exact table counts them in int64, so up to 3037000499**2 < 2**63 <= 3037000500**2
        points = dataset_of({"x": (0.0,), "y": (1.0,)})
        scorer = TabularScorer({"x": "0.25", "y": "0.75"})
        for k in (1009, 3_037_000_499):
            derand = Derandomizer(scorer, FixedFamily(SharedBucketer(), (0, 1)), k)
            table = prediction_table(derand, points, EstimatorConfig(mode="exact"))
            assert table.size == derand.family_size == k * k
            assert split_share(table, 0, 1) == Fraction(3 * k // 4 - k // 4, k)  # one shared bucket
        derand = Derandomizer(scorer, FixedFamily(SharedBucketer(), (0, 1)), 3_037_000_500)
        with pytest.raises(FamilyTooLargeError, match=r"below 2\*\*63"):
            prediction_table(derand, points, EstimatorConfig(mode="exact"))


class TestPiSampling:
    def test_k2_four_equiprobable_hashes(self):
        fam = PiFamily(2, 2)
        n = 10_000
        counts = collections.Counter(zip(*(v.tolist() for v in fam.draw(CountingRng(31), n))))
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.02

    def test_k5_joint_cells_pairwise_independent(self):
        fam = PiFamily(5, 2)
        counts = np.zeros((5, 5))
        n = 100_000
        a, c = fam.draw(CountingRng(37), n)
        np.add.at(counts, (fam.residues(a, c, np.zeros(n)), fam.residues(a, c, np.ones(n))), 1)
        assert np.all(np.abs(counts / n - 0.04) < 0.005)

    def test_sampling_is_seed_deterministic(self):
        fam = PiFamily(3, 3)
        first = fam.draw(CountingRng(123), 5)
        second = fam.draw(CountingRng(123), 5)
        assert [v.tolist() for v in first] == [v.tolist() for v in second]

    def test_average_bits_within_budget(self):
        for k in (2, 5, 13, 17):
            fam = PiFamily(k, 2)
            rng = CountingRng(41)
            n = 10_000
            fam.draw(rng, n)
            width = (k - 1).bit_length()
            assert rng.bits_consumed / n <= 4 * width


class TestBitSampling:
    def test_enumerates_one_member_per_coordinate(self):
        fam = BitSamplingFamily(3)
        assert [fam.params(key)["lsh_member"]["index"] for key in fam.all_keys()] == [0, 1, 2]

    def test_exact_collision_matches_hamming(self):
        fam = BitSamplingFamily(2)
        x, y = dataset_of({"x": (0.0, 0.0)}), dataset_of({"y": (0.0, 1.0)})
        assert brute_collision(fam, x, y) == Fraction(1, 2)
        assert 1 - reference_distance(NormalizedHamming(2), x, y) == Fraction(1, 2)

    def test_exact_collision_matches_hamming_randomized(self):
        rng = random.Random(5)
        metric = NormalizedHamming(6)
        fam = BitSamplingFamily(6)
        for _ in range(50):
            x = dataset_of({"x": tuple(float(rng.randint(0, 1)) for _ in range(6))})
            y = dataset_of({"y": tuple(float(rng.randint(0, 1)) for _ in range(6))})
            assert brute_collision(fam, x, y) == 1 - reference_distance(metric, x, y)

    def test_sampled_coordinate_uniform(self):
        fam = BitSamplingFamily(4)
        n = 10_000
        counts = np.bincount(fam.draw(CountingRng(43), n), minlength=4).tolist()
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_requires_binary_features(self):
        with pytest.raises(NotBinaryError, match="^bit sampling requires 0/1 features$"):
            BitSamplingFamily(2).vectors(dataset_of({"x": (0.0, 1.0), "y": (0.5, 0.0)}))

    def test_wider_than_the_data_is_a_dimension_mismatch(self):
        fam = BitSamplingFamily(5)
        points = dataset_of({"x": (0.0, 1.0, 1.0), "y": (1.0, 1.0, 0.0)})
        with pytest.raises(DimensionMismatchError, match="^bit sampling reads coordinate 3 of a 3-dimensional point$"):
            fam.vectors(points)
        with pytest.raises(NotBinaryError):  # the first point is not 0/1 before it is too narrow
            fam.vectors(dataset_of({"x": (0.0, 0.5, 1.0)}))
        wider = dataset_of({"z": (1.0, 0.0, 0.0, 1.0, 1.0, 0.0)})  # reads the first 5 coordinates
        assert fam.vectors(wider).tolist() == [[True, False, False, True, True]]


class TestMinHash:
    def test_six_permutations_of_three(self):
        keys = MinHashFamily(3).all_keys().tolist()
        assert len(keys) == 6
        assert len(set(map(tuple, keys))) == 6

    def test_exact_collision_is_jaccard_similarity(self):
        fam = MinHashFamily(3)
        a = dataset_of({"a": (1.0, 0.0, 0.0)})  # {0}
        b = dataset_of({"b": (1.0, 1.0, 0.0)})  # {0, 1}
        assert brute_collision(fam, a, b) == Fraction(1, 2)

    def test_exact_collision_randomized(self):
        rng = random.Random(6)
        fam = MinHashFamily(5)
        metric = JaccardDistance()
        for _ in range(30):
            a = dataset_of({"a": tuple(float(rng.randint(0, 1)) for _ in range(5))})
            b = dataset_of({"b": tuple(float(rng.randint(0, 1)) for _ in range(5))})
            if not a.features.any() or not b.features.any():
                continue
            assert brute_collision(fam, a, b) == 1 - reference_distance(metric, a, b)

    def test_large_universe_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            MinHashFamily(8).all_keys()

    def test_empty_set_rejected(self):
        points = dataset_of({"x": (1.0, 0.0), "y": (0.0, 0.0), "z": (0.5, 0.0)})
        with pytest.raises(NotBinaryError, match="^min-wise hashing is undefined on the empty set$"):
            MinHashFamily(2).vectors(points)

    def test_sampled_member_is_valid_permutation(self):
        fam = MinHashFamily(5)
        (key,) = fam.draw(CountingRng(47), 1)
        assert sorted(key.tolist()) == list(range(5))
        assert fam.params(key) == {"lsh_member": {"kind": "permutation", "ranks": key.tolist()}}


class TestSimHash:
    def test_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            SimHashFamily(2).all_keys()

    def test_right_angle_collision_frequency(self):
        fam = SimHashFamily(2)
        points = dataset_of({"x": (1.0, 0.0), "y": (0.0, 1.0)})
        n = 100_000
        sides = fam.embed(fam.draw(CountingRng(53), n), fam.vectors(points))
        assert abs(float((sides[0] == sides[1]).mean()) - 0.5) < 0.01

    def test_collision_matches_angle_on_random_pairs(self):
        """Shared sample of members, 20 random pairs, 3-sigma acceptance."""
        fam = SimHashFamily(3)
        rng = CountingRng(59)
        n = 100_000
        normals = fam.draw(rng, n)
        angular = Angular()
        gen = random.Random(8)
        for _ in range(20):
            x = dataset_of({"x": tuple(gen.uniform(-1, 1) for _ in range(3))})
            y = dataset_of({"y": tuple(gen.uniform(-1, 1) for _ in range(3))})
            expected = 1 - reference_distance(angular, x, y)
            side_x = normals @ x.features[0] >= 0
            side_y = normals @ y.features[0] >= 0
            freq = float((side_x == side_y).mean())
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(freq - expected) <= max(3 * sigma, 1e-3)

    def test_member_is_unit_normal(self):
        (normal,) = SimHashFamily(4).draw(CountingRng(61), 1).tolist()
        assert math.isclose(sum(v * v for v in normal), 1.0, rel_tol=1e-12)

    def test_dimension_mismatch_is_a_data_error(self):
        family, point = SimHashFamily(4), dataset_of({"x": (1.0, 0.0, 1.0)})
        with pytest.raises(DimensionMismatchError, match="dimension mismatch in hyperplane hash"):
            family.vectors(point)


class TestAllKeys:
    """``all_keys`` is each family's one list of members."""

    def test_lists_every_member(self):
        assert FixedFamily(SharedBucketer(), (0,)).all_keys().tolist() == [0]
        assert BitSamplingFamily(3).all_keys().tolist() == [0, 1, 2]
        for size in (3, 4):
            assert list(map(tuple, MinHashFamily(size).all_keys().tolist())) == list(itertools.permutations(range(size)))

    @pytest.mark.parametrize(
        "family,why", [(SimHashFamily(3), "continuous"), (MinHashFamily(8), "too many permutations")],
        ids=["simhash", "minhash8"],
    )
    def test_no_finite_list(self, family, why):
        with pytest.raises(NotEnumerableError, match=why):
            family.all_keys()

    @pytest.mark.parametrize("family", [BitSamplingFamily(5), FixedFamily(SharedBucketer(), (0,))])
    def test_default_draw_indexes_all_keys(self, family):
        keys = family.all_keys()
        expected = keys[CountingRng(3).uniform_ints(len(keys), 50)]
        assert family.draw(CountingRng(3), 50).tolist() == expected.tolist()


class TestEmbedAll:
    """A family's one ``embed``, over its members' keys and the points'
    vectors, equals the integer bucket of p under the reference members
    point by point and member by member, and raises the error class and
    message that the reference raises at the first bad point.  The members
    are those of ``all_keys`` when it lists at most 8, else two sampled
    members."""

    FAMILIES = {
        "bit_sampling": (5, BitSamplingFamily(5)),
        "bit_sampling_too_wide": (5, BitSamplingFamily(7)),
        "minhash5": (5, MinHashFamily(5)),
        "minhash7": (7, MinHashFamily(7)),
        "minhash16": (16, MinHashFamily(16)),
        "minhash_too_narrow": (7, MinHashFamily(5)),
        "simhash": (5, SimHashFamily(5)),
        "grid": (5, GridBucketer(0.5)),
        "identity": (5, IdentityBucketer()),
        "shared": (5, SharedBucketer()),
    }

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except FairderandError as exc:
            return type(exc), str(exc)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 10**6),
        n_points=st.integers(0, 12),
        bad=st.sampled_from([None, 0.0, 0.5]),  # an empty set, or a non-0/1 point
        at=st.integers(0, 12),
    )
    def test_matches_reference_point_by_point(self, kind, seed, n_points, bad, at):
        rng = random.Random(seed)
        dim, family = self.FAMILIES[kind]
        vectors = [tuple(float(rng.randint(0, 1)) for _ in range(dim)) for _ in range(n_points)]
        vectors = [v if any(v) else (1.0,) * dim for v in vectors]
        if bad is not None:
            vectors.insert(at % (n_points + 1), (bad,) * dim)
        assume(vectors)  # a dataset holds at least one point
        points = dataset_of({f"p{r}": v for r, v in enumerate(vectors)})
        if isinstance(family, Bucketer):
            family = FixedFamily(family, family.buckets(points))
        try:
            keys = family.all_keys()
        except NotEnumerableError:
            keys = None
        if keys is None or len(keys) > 8:
            keys = family.draw(CountingRng(seed), 2)
        members = [reference_member(family, key) for key in keys]
        expected = self.outcome(lambda: [[m.bucket(p) for m in members] for p in each_point(points)])
        got = self.outcome(lambda: family.embed(keys, family.vectors(points)).tolist())
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 10**6), n_points=st.integers(1, 12))
    def test_buckets_are_integers_below_n_buckets(self, kind, seed, n_points):
        # for the listed members, where the family lists them, and for drawn ones
        rng = random.Random(seed)
        dim, family = self.FAMILIES[kind]
        vectors = [tuple(float(rng.randint(0, 1)) for _ in range(dim)) for _ in range(n_points)]
        points = dataset_of({f"p{r}": v if any(v) else (1.0,) * dim for r, v in enumerate(vectors)})
        if isinstance(family, Bucketer):
            family = FixedFamily(family, family.buckets(points))
        try:
            listed = [family.all_keys()]
        except NotEnumerableError:
            listed = []
        for keys in [*listed, family.draw(CountingRng(seed), 3)]:
            got = self.outcome(lambda: family.embed(keys, family.vectors(points)))
            if isinstance(got, tuple):  # a family too narrow or too wide for the points raises
                continue
            assert got.shape == (n_points, 1 if isinstance(family, FixedFamily) else len(keys))
            assert np.issubdtype(got.dtype, np.integer)
            assert 0 <= got.min() and got.max() < family.n_buckets
