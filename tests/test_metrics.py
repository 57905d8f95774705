import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import Angular, JaccardDistance, NormalizedHamming, ScaledEuclidean
from fairderand.errors import DimensionMismatchError, NotBinaryError, ZeroVectorError
from fairderand.measure import pair_classes
from fairderand.metrics import PairSet

from conftest import dataset_of, joined, pairs_of, random_real_dataset, reference_distance


_IDS = itertools.count()


def pt(*coords):
    """A one-point dataset at the coordinates."""
    return dataset_of({f"x{next(_IDS)}": coords})


def pass_of(metric, data, pairs):
    """(codes, values) of the one pass over the pairs that keeps their
    codes: values[codes[p]] is the distance of the points of pair p."""
    classes = pair_classes(data, metric, pairs, codes=True)
    return classes.codes, classes.values


def distances(metric, points, pairs):
    """The metric's distance at each (a, b) of pairs of the points, from one pass."""
    i, j = zip(*pairs)
    codes, values = pass_of(metric, joined(*points), pairs_of(len(points), i, j))
    return [values[c] for c in codes.tolist()]


def dist(metric, x, y):
    return distances(metric, [x, y], [(0, 1)])[0]


class TestValues:
    def test_hamming(self):
        d = NormalizedHamming(4)
        assert dist(d, pt(0, 0, 1, 1), pt(0, 1, 1, 0)) == Fraction(1, 2)

    def test_angular_right_angle(self):
        assert dist(Angular(), pt(1, 0), pt(0, 1)) == pytest.approx(0.5)

    def test_jaccard(self):
        # indicator vectors of {1,2,3} and {2,3,4} over a 5-element universe
        a = pt(0, 1, 1, 1, 0)
        b = pt(0, 0, 1, 1, 1)
        assert dist(JaccardDistance(), a, b) == Fraction(1, 2)

    def test_jaccard_empty_union_is_zero(self):
        assert dist(JaccardDistance(), pt(0, 0), pt(0, 0)) == 0

    def test_scaled_euclidean_clamps(self):
        d = ScaledEuclidean(2.0)
        assert dist(d, pt(0, 0), pt(0, 1)) == pytest.approx(0.5)
        assert dist(d, pt(0, 0), pt(0, 100)) == 1.0

    def test_scaled_euclidean_difference_past_the_largest_double(self):
        # 1e308 - (-1e308) is no double; the distance is past any scale, and no overflow warning is raised
        assert dist(ScaledEuclidean(1e308), pt(1e308, 0), pt(-1e308, 0)) == 1.0
        points = [pt(1e308, 0), pt(-1e308, 0), pt(0, 0)]  # the other pairs of the block keep their values
        expected = [1.0, 1e308 / 1.5e308, 1e308 / 1.5e308]
        assert distances(ScaledEuclidean(1.5e308), points, [(0, 1), (0, 2), (1, 2)]) == expected

    def test_float_distances_round_each_sum_once(self):
        # each sum is the float nearest the exact sum of its float terms, in
        # every coordinate order; a left-to-right sum moves the last digit
        def rounded(terms):
            return float(sum(map(Fraction, terms)))

        u, v = (0.6, 0.7, 0.9), (0.2, 0.1, 0.7)
        nu, nv = (math.sqrt(rounded([a * a for a in w])) for w in (u, v))
        cos = rounded([a * b for a, b in zip(u, v)]) / (nu * nv)
        norm = math.sqrt(rounded([(a - b) * (a - b) for a, b in zip(u, v)]))
        for order in itertools.permutations(range(3)):
            x, y = pt(*(u[i] for i in order)), pt(*(v[i] for i in order))
            assert dist(Angular(), x, y) == math.acos(cos) / math.pi
            assert dist(ScaledEuclidean(2.0), x, y) == norm / 2.0


    def test_euclidean_squares_are_correctly_rounded(self):
        # glibc 2.36's pow, behind x ** 2, rounds the square of the second
        # difference, 1.423631728183919, one ulp off, and so the distance
        u = (0.7951266720802579, 0.8170688363502763, 0.405727277160324, -0.048295234616553495)
        v = (0.9552211705868472, -0.6065628918336428, 0.2396864481942107, 0.3203940516074528)
        squares = [Fraction(float(Fraction(a - b) ** 2)) for a, b in zip(u, v)]
        assert dist(ScaledEuclidean(4.0), pt(*u), pt(*v)) == math.sqrt(float(sum(squares))) / 4.0


    @pytest.mark.parametrize(
        "metric,x,y,expected",
        [
            (Angular(), (1e200, 0.0), (1e200, 1e200), 0.25),  # the squares overflow
            (Angular(), (1e-200, 0.0), (0.0, 1e-200), 0.5),  # the squares underflow to 0
            (ScaledEuclidean(1e300), (0.0, 0.0), (3e299, 4e299), 0.5),
            (ScaledEuclidean(1e-300), (0.0, 0.0), (3e-301, 4e-301), 0.5),
        ],
        ids=["angular-huge", "angular-tiny", "euclidean-huge", "euclidean-tiny"],
    )
    def test_float_distances_neither_overflow_nor_underflow(self, metric, x, y, expected):
        # rows (or differences) are scaled by a power of two first; warnings are errors here
        assert dist(metric, pt(*x), pt(*y)) == expected


class TestErrors:
    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            dist(Angular(), pt(0, 0), pt(1, 0))

    def test_hamming_wrong_width(self):
        with pytest.raises(DimensionMismatchError, match="expected dimension 3, got 2"):
            dist(NormalizedHamming(3), pt(0, 1), pt(0, 1))


def test_metric_reads_fairness_features_when_present():
    d = NormalizedHamming(2)
    a = dataset_of({"a": (9.0, 9.0, 9.0)}, fairness=[(0.0, 1.0)])
    b = dataset_of({"b": (9.0, 9.0, 9.0)}, fairness=[(1.0, 1.0)])
    assert dist(d, a, b) == Fraction(1, 2)


class TestAxioms:
    """Symmetry, identity, range, and triangle inequality on random triples,
    all from one pass over the pairs they need."""

    N_TRIPLES = 10_000
    FLOAT_SLACK = 1e-9

    def _check(self, metric, make_point):
        rng = random.Random(1729)
        points = [make_point(rng) for _ in range(3 * self.N_TRIPLES)]
        triples = [(x, x + 1, x + 2) for x in range(0, len(points), 3)]
        d = iter(distances(metric, points, [p for x, y, z in triples for p in ((x, y), (x, x), (y, x), (x, z), (z, y))]))
        for _ in triples:
            dxy, dxx, dyx, dxz, dzy = itertools.islice(d, 5)
            assert dxx == 0
            assert dxy == dyx
            assert 0 <= dxy <= 1
            assert dxy <= dxz + dzy + self.FLOAT_SLACK

    def test_hamming_axioms(self):
        self._check(
            NormalizedHamming(6),
            lambda rng: pt(*[rng.randint(0, 1) for _ in range(6)]),
        )

    def test_jaccard_axioms(self):
        self._check(
            JaccardDistance(),
            lambda rng: pt(*[rng.randint(0, 1) for _ in range(6)]),
        )

    def test_angular_axioms(self):
        def nonzero(rng):
            while True:
                v = [rng.uniform(-1, 1) for _ in range(3)]
                if math.sqrt(sum(c * c for c in v)) > 1e-6:
                    return pt(*v)

        self._check(Angular(), nonzero)

    def test_scaled_euclidean_axioms(self):
        self._check(
            ScaledEuclidean(4.0),
            lambda rng: pt(*[rng.uniform(-1, 1) for _ in range(3)]),
        )


def binary_points(rng, n, dim):
    """n random 0/1 points and the empty set."""
    return [pt(*[rng.randint(0, 1) for _ in range(dim)]) for _ in range(n)] + [pt(*[0] * dim)]


def real_points(rng, n, dim):
    return [pt(*[rng.uniform(-1, 1) for _ in range(dim)]) for _ in range(n)]


def binary_points_70(rng, n, dim):
    """Binary points two uint64 words wide."""
    return binary_points(rng, n, 70)


def graded_points(rng, n, dim):
    """Points with entries other than 0 and 1, compared as floats."""
    return [pt(*[rng.choice((0.0, 0.5, 1.0, 2.0, -1.0)) for _ in range(dim)]) for _ in range(n)]


def one_graded_point(rng, n, dim):
    """0/1 points, some zeros written -0.0, and one point that is not 0/1."""
    points = [pt(*[rng.choice((0.0, -0.0, 1.0)) for _ in range(dim)]) for _ in range(n)]
    return [pt(*[-0.0] * dim), pt(*[0.0] * (dim - 1), 0.5)] + points


class TestPairDistances:
    """The pass gives, pair by pair, the value and type of the scalar
    reference distance."""

    @pytest.mark.parametrize(
        "metric,make",
        [
            (NormalizedHamming(6), binary_points),
            (JaccardDistance(), binary_points),
            (Angular(), real_points),
            (ScaledEuclidean(1.5), real_points),
            (JaccardDistance(), lambda rng, n, dim: binary_points(rng, n, 70)),  # two words per set
            (NormalizedHamming(70), binary_points_70),
            (NormalizedHamming(6), graded_points),
            (NormalizedHamming(6), one_graded_point),
        ],
    )
    def test_equals_per_pair_distance(self, metric, make):
        rng = random.Random(42)
        points = make(rng, 30, 6)
        i, j = np.triu_indices(len(points), 1)
        i, j = np.concatenate([i, [3, 0]]), np.concatenate([j, [3, 0]])  # and x == y
        codes, values = pass_of(metric, joined(*points), pairs_of(len(points), i, j))
        assert len(codes) == len(i)
        for p, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            expected = reference_distance(metric, points[a], points[b])
            got = values[codes[p]]
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "metric", [NormalizedHamming(2), JaccardDistance(), Angular(), ScaledEuclidean()]
    )
    def test_mixed_dimensions_raise_like_distance(self, metric):
        points = [pt(1, 0), pt(0, 1), pt(1, 1, 0)]
        with pytest.raises(DimensionMismatchError):
            reference_distance(metric, points[1], points[2])
        with pytest.raises(DimensionMismatchError):
            pass_of(metric, joined(*points), pairs_of(len(points), [0, 1], [1, 2]))

    def test_non_binary_jaccard_raises_like_distance(self):
        points = [pt(1, 0), pt(0, 1), pt(0.5, 1)]
        with pytest.raises(NotBinaryError):
            reference_distance(JaccardDistance(), points[0], points[2])
        with pytest.raises(NotBinaryError):
            pass_of(JaccardDistance(), joined(*points), pairs_of(len(points), [0, 0], [1, 2]))
        # the whole matrix is checked: a point in no pair fails the pass too
        with pytest.raises(NotBinaryError, match="set-valued features must be 0/1"):
            pass_of(JaccardDistance(), joined(*points), pairs_of(len(points), [0], [1]))


class TestWholeMatrixChecks:
    """A metric undefined on some point fails every pass over the dataset,
    with one error, whichever pairs (if any) the pass reads."""

    @pytest.mark.parametrize(
        "metric,odd,error,message",
        [
            (Angular(), (0.0, -0.0, 0.0), ZeroVectorError, "angular distance undefined on the zero vector"),
            (JaccardDistance(), (0.0, 0.5, 1.0), NotBinaryError, "set-valued features must be 0/1"),
            (NormalizedHamming(4), None, DimensionMismatchError, "expected dimension 4, got 3"),
        ],
    )
    @pytest.mark.parametrize("pairs", [[(0, 1)], [(1, 2), (0, 2)], []])
    def test_point_outside_the_pairs_fails_the_pass(self, metric, odd, error, message, pairs):
        points = [pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 0)] + ([pt(*odd)] if odd else [])
        i, j = (list(side) for side in zip(*pairs)) if pairs else ([], [])
        with pytest.raises(error, match=message):
            pass_of(metric, joined(*points), pairs_of(len(points), i, j))

    def test_one_point_pass_checks_the_point(self):
        with pytest.raises(DimensionMismatchError, match="expected dimension 3, got 2"):
            pass_of(NormalizedHamming(3), pt(0, 1), PairSet(1))


MAGNITUDES = st.floats(min_value=1e-8, max_value=1e8)
DECIMALS = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 0.9])  # whose products and sums round
REALS = st.one_of(st.just(0.0), st.just(-0.0), MAGNITUDES, DECIMALS).flatmap(lambda m: st.sampled_from([m, -m]))
BINARY = st.sampled_from([0.0, -0.0, 1.0])
GRADED = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0])


@st.composite
def matrices(draw, entries, factors):
    """Rows of entries, with some rows repeated (identical) or scaled by
    factors (parallel)."""
    dim = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=8))
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(factors)), max_size=4))
    return rows + [[c * f for c in rows[r]] for r, f in copies]


class TestMatchesReference:
    """Property: on any matrix, the pass's distance is the scalar reference in
    value and type at every pair of a full or keyed PairSet, or, where the
    reference is undefined on some point, raises its error."""

    @pytest.mark.parametrize(
        "make_metric,entries,factors",
        [
            (NormalizedHamming, BINARY, [1.0]),
            (NormalizedHamming, GRADED, [1.0, -1.0, 2.0]),
            (lambda dim: JaccardDistance(), BINARY, [1.0]),
            (lambda dim: JaccardDistance(), GRADED, [1.0]),
            (lambda dim: Angular(), REALS, [1.0, -1.0, 2.0, 0.5, 3.0, 1e-8, 1e8]),
            (lambda dim: Angular(), BINARY, [1.0]),
            (lambda dim: ScaledEuclidean(1.5), REALS, [1.0, -1.0, 2.0, 0.5, 3.0, 1e-8, 1e8]),
            (lambda dim: ScaledEuclidean(1e-3), GRADED, [1.0, 0.5]),
        ],
        ids=["hamming-binary", "hamming-graded", "jaccard-binary", "jaccard-graded",
             "angular-real", "angular-binary", "euclidean-real", "euclidean-graded"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pair_distances_equal_reference(self, make_metric, entries, factors, data):
        rows = data.draw(matrices(entries, factors))
        points, n = [pt(*row) for row in rows], len(rows)
        metric = make_metric(len(rows[0]))
        if data.draw(st.booleans()):
            i, j = (side.tolist() for side in np.triu_indices(n, 1))
            pairs = PairSet(n)
        else:
            keyed = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
            i, j = ([p[0] for p in keyed], [p[1] for p in keyed])
            pairs = pairs_of(n, i, j)
        try:
            for p in points:
                reference_distance(metric, p, p)
        except (ZeroVectorError, NotBinaryError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                pass_of(metric, joined(*points), pairs)
            return
        codes, values = pass_of(metric, joined(*points), pairs)
        assert len(codes) == len(i)
        for p, (a, b) in enumerate(zip(i, j)):
            expected, got = reference_distance(metric, points[a], points[b]), values[codes[p]]
            assert got == expected and type(got) is type(expected), (rows[a], rows[b])


class TestScaleInvariance:
    """Rows scaled by 2**k, far outside the range where their squares stay
    normal doubles, are at the angles of the unscaled rows, and at their
    scaled Euclidean distances over a scale times 2**k, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(rows=matrices(REALS, [1.0, -1.0, 2.0, 1e-8, 1e8]),
           k=st.one_of(st.integers(-900, -600), st.integers(600, 900)))
    def test_power_of_two_scaling_keeps_every_distance(self, rows, k):
        n = len(rows)
        scaled = [[math.ldexp(c, k) for c in row] for row in rows]
        for metric, scaled_metric in ((Angular(), Angular()),
                                      (ScaledEuclidean(1.5), ScaledEuclidean(math.ldexp(1.5, k)))):
            try:
                expected = pass_of(metric, joined(*(pt(*row) for row in rows)), PairSet(n))
            except ZeroVectorError:
                with pytest.raises(ZeroVectorError):
                    pass_of(scaled_metric, joined(*(pt(*row) for row in scaled)), PairSet(n))
                continue
            codes, values = pass_of(scaled_metric, joined(*(pt(*row) for row in scaled)), PairSet(n))
            assert [values[c] for c in codes.tolist()] == [expected[1][c] for c in expected[0].tolist()]


def test_float_pass_makes_no_python_call_per_pair():
    """Python code in the metrics module runs once per block, not once per pair."""
    dataset, calls = random_real_dataset(random.Random(3), 300, 4), 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_globals.get("__name__") == "fairderand.metrics"

    pairs = PairSet(len(dataset))
    n_blocks = sum(1 for _ in pairs.blocks(np.zeros((len(dataset), 6))))  # each row, its exponent and its norm
    sys.setprofile(profile)
    try:
        pass_of(Angular(), dataset, pairs)
    finally:
        sys.setprofile(None)
    assert calls <= 8 * n_blocks < len(pairs)
