import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import (
    BitSamplingFamily,
    GridBucketer,
    IdentityBucketer,
    MinHashFamily,
    PiFamily,
    PiHash,
    Point,
    SimHashFamily,
)
from fairderand.derandomize import Bucketer, SharedBucketer, realized_buckets
from fairderand.errors import (
    DimensionMismatchError,
    FairderandError,
    FamilyTooLargeError,
    InvalidParameterError,
    NotEnumerableError,
    UnknownBucketError,
)
from fairderand.hashing import FixedFamily
from fairderand.metrics import Angular, JaccardDistance, NormalizedHamming
from fairderand.rng import CountingRng

from conftest import brute_collision


class TestPiEval:
    def test_constant_hash(self):
        fam = PiFamily(5, ["b0", "b1", "b2"])
        for b in fam.buckets:
            assert fam.value(PiHash(0, 0), b) == 1

    def test_direct_arithmetic(self):
        fam = PiFamily(5, list(range(5)))  # embeds are the buckets themselves
        assert fam.value(PiHash(1, 0), 3) == 4
        assert fam.value(PiHash(2, 4), 3) == 1  # ((6 + 4) mod 5) + 1

    def test_unknown_bucket(self):
        fam = PiFamily(3, ["a"])
        with pytest.raises(UnknownBucketError):
            fam.value(PiHash(0, 0), "zzz")


class TestFamilyValidation:
    def test_k_must_cover_buckets(self):
        with pytest.raises(InvalidParameterError):
            PiFamily(2, ["a", "b", "c"])

    def test_non_prime_k_rejected_when_differences_collide(self):
        with pytest.raises(InvalidParameterError):
            PiFamily(4, ["a", "b", "c"])  # difference 2 shares a factor with 4

    def test_non_prime_k_fine_for_two_buckets(self):
        PiFamily(500, ["a", "b"])

    def test_prime_k_always_fine(self):
        PiFamily(13, list(range(13)))


class TestExactPairwiseIndependence:
    @pytest.mark.parametrize("k", [2, 3, 5, 7, 11, 13])
    def test_every_joint_cell_hit_exactly_once(self, k):
        buckets = list(range(min(k, 4)))
        fam = PiFamily(k, buckets)
        hashes = fam.enumerate()
        assert len(hashes) == k * k
        for b1, b2 in itertools.combinations(buckets, 2):
            cells = {}
            for h in hashes:
                cell = (fam.value(h, b1), fam.value(h, b2))
                cells[cell] = cells.get(cell, 0) + 1
            assert len(cells) == k * k
            assert set(cells.values()) == {1}

    @pytest.mark.parametrize("k", [2, 5, 13])
    def test_marginals_exactly_uniform(self, k):
        fam = PiFamily(k, list(range(min(k, 3))))
        hashes = fam.enumerate()
        for b in fam.buckets:
            counts = [0] * k
            for h in hashes:
                counts[fam.value(h, b) - 1] += 1
            assert counts == [k] * k

    def test_enumeration_cap(self):
        with pytest.raises(FamilyTooLargeError):
            PiFamily(1009, [0, 1]).enumerate()


class TestPiSampling:
    def test_k2_four_equiprobable_hashes(self):
        fam = PiFamily(2, [0, 1])
        rng = CountingRng(31)
        counts = {}
        n = 10_000
        for _ in range(n):
            h = fam.sample(rng)
            counts[(h.a, h.c)] = counts.get((h.a, h.c), 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.02

    def test_k5_joint_cells_pairwise_independent(self):
        fam = PiFamily(5, [0, 1])
        rng = CountingRng(37)
        counts = np.zeros((5, 5))
        n = 100_000
        for _ in range(n):
            h = fam.sample(rng)
            counts[fam.value(h, 0) - 1, fam.value(h, 1) - 1] += 1
        assert np.all(np.abs(counts / n - 0.04) < 0.005)

    def test_sampling_is_seed_deterministic(self):
        fam = PiFamily(3, [0, 1, 2])
        first = fam.sample(CountingRng(123))
        second = fam.sample(CountingRng(123))
        assert first == second

    def test_average_bits_within_budget(self):
        for k in (2, 5, 13, 17):
            fam = PiFamily(k, [0, 1])
            rng = CountingRng(41)
            n = 10_000
            for _ in range(n):
                fam.sample(rng)
            width = (k - 1).bit_length()
            assert rng.bits_consumed / n <= 4 * width


class TestBitSampling:
    def test_enumerates_one_member_per_coordinate(self):
        members = BitSamplingFamily(3).enumerate()
        assert [m.index for m in members] == [0, 1, 2]

    def test_exact_collision_matches_hamming(self):
        fam = BitSamplingFamily(2)
        x, y = Point("x", (0.0, 0.0)), Point("y", (0.0, 1.0))
        assert brute_collision(fam, x, y) == Fraction(1, 2)
        assert 1 - NormalizedHamming(2).distance(x, y) == Fraction(1, 2)

    def test_exact_collision_matches_hamming_randomized(self):
        rng = random.Random(5)
        metric = NormalizedHamming(6)
        fam = BitSamplingFamily(6)
        for _ in range(50):
            x = Point("x", tuple(float(rng.randint(0, 1)) for _ in range(6)))
            y = Point("y", tuple(float(rng.randint(0, 1)) for _ in range(6)))
            assert brute_collision(fam, x, y) == 1 - metric.distance(x, y)

    def test_sampled_coordinate_uniform(self):
        fam = BitSamplingFamily(4)
        rng = CountingRng(43)
        counts = [0] * 4
        n = 10_000
        for _ in range(n):
            counts[fam.sample(rng).index] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_requires_binary_features(self):
        member = BitSamplingFamily(2).enumerate()[0]
        with pytest.raises(InvalidParameterError):
            member.apply(Point("x", (0.5, 0.0)))

    def test_wider_than_the_data_is_a_dimension_mismatch(self):
        fam = BitSamplingFamily(5)
        points = [Point("x", (0.0, 1.0, 1.0)), Point("y", (1.0, 1.0, 0.0))]
        assert fam.enumerate()[2].apply(points[0]) == 1
        with pytest.raises(DimensionMismatchError) as by_member:
            fam.enumerate()[3].apply(points[0])
        with pytest.raises(DimensionMismatchError) as by_family:
            fam.vectors(points)
        assert str(by_family.value) == str(by_member.value)
        wider = Point("z", (1.0, 0.0, 0.0, 1.0, 1.0, 0.0))  # reads the first 5 coordinates
        assert fam.vectors([wider]).tolist() == [[True, False, False, True, True]]


class TestMinHash:
    def test_six_permutations_of_three(self):
        members = MinHashFamily(3).enumerate()
        assert len(members) == 6
        assert len({m.ranks for m in members}) == 6

    def test_exact_collision_is_jaccard_similarity(self):
        fam = MinHashFamily(3)
        a = Point("a", (1.0, 0.0, 0.0))  # {0}
        b = Point("b", (1.0, 1.0, 0.0))  # {0, 1}
        assert brute_collision(fam, a, b) == Fraction(1, 2)

    def test_exact_collision_randomized(self):
        rng = random.Random(6)
        fam = MinHashFamily(5)
        metric = JaccardDistance()
        for _ in range(30):
            a = Point("a", tuple(float(rng.randint(0, 1)) for _ in range(5)))
            b = Point("b", tuple(float(rng.randint(0, 1)) for _ in range(5)))
            if not any(a.features) or not any(b.features):
                continue
            assert brute_collision(fam, a, b) == 1 - metric.distance(a, b)

    def test_large_universe_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            MinHashFamily(8).enumerate()
        assert MinHashFamily(8).enumerable_size is None

    def test_empty_set_rejected(self):
        member = MinHashFamily(2).enumerate()[0]
        with pytest.raises(InvalidParameterError):
            member.apply(Point("x", (0.0, 0.0)))

    def test_sampled_member_is_valid_permutation(self):
        fam = MinHashFamily(5)
        member = fam.sample(CountingRng(47))
        assert sorted(member.ranks) == list(range(5))


class TestSimHash:
    def test_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            SimHashFamily(2).enumerate()

    def test_right_angle_collision_frequency(self):
        fam = SimHashFamily(2)
        rng = CountingRng(53)
        x, y = Point("x", (1.0, 0.0)), Point("y", (0.0, 1.0))
        n = 100_000
        hits = sum(
            (m := fam.sample(rng)).apply(x) == m.apply(y) for _ in range(n)
        )
        assert abs(hits / n - 0.5) < 0.01

    def test_collision_matches_angle_on_random_pairs(self):
        """Shared sample of members, 20 random pairs, 3-sigma acceptance."""
        fam = SimHashFamily(3)
        rng = CountingRng(59)
        n = 100_000
        members = [fam.sample(rng) for _ in range(n)]
        normals = np.array([m.normal for m in members])
        angular = Angular()
        gen = random.Random(8)
        for _ in range(20):
            x = Point("x", tuple(gen.uniform(-1, 1) for _ in range(3)))
            y = Point("y", tuple(gen.uniform(-1, 1) for _ in range(3)))
            expected = 1 - angular.distance(x, y)
            side_x = normals @ np.array(x.features) >= 0
            side_y = normals @ np.array(y.features) >= 0
            freq = float((side_x == side_y).mean())
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(freq - expected) <= max(3 * sigma, 1e-3)

    def test_member_is_unit_normal(self):
        member = SimHashFamily(4).sample(CountingRng(61))
        assert math.isclose(sum(v * v for v in member.normal), 1.0, rel_tol=1e-12)


class TestEmbedAll:
    """A family's one embedder, over its members' keys and the points'
    vectors, equals embed(apply(p)) point by point and member by member,
    and raises the error class and message that apply raises at the first
    bad point.  The members are the whole family when it has at most 8,
    else one sampled member."""

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
    def test_matches_apply_point_by_point(self, kind, seed, n_points, bad, at):
        rng = random.Random(seed)
        dim, family = self.FAMILIES[kind]
        vectors = [tuple(float(rng.randint(0, 1)) for _ in range(dim)) for _ in range(n_points)]
        vectors = [v if any(v) else (1.0,) * dim for v in vectors]
        if bad is not None:
            vectors.insert(at % (n_points + 1), (bad,) * dim)
        points = [Point(f"p{r}", v) for r, v in enumerate(vectors)]
        if isinstance(family, Bucketer):
            family = FixedFamily(family, realized_buckets(family, points) or (0,))
        size = family.enumerable_size
        members = family.enumerate() if size is not None and size <= 8 else [family.sample(CountingRng(seed))]
        embed = PiFamily(101, family.bucket_values).embed_value
        expected = self.outcome(lambda: [[embed(m.apply(p)) for m in members] for p in points])
        embedder = family.embedder(family.keys(members), embed)
        got = self.outcome(lambda: embedder(points, family.vectors(points)).tolist())
        assert got == expected
