"""Closed-arc arithmetic on the circle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_range.arcs import ArcSet, TWO_PI

PI = math.pi


def test_normalization_merges_touching_arcs():
    s = ArcSet.from_intervals([(0.0, 1.0), (1.0, 2.0)])
    assert s.arcs == ((0.0, 2.0),)


def test_seam_crossing_arc():
    s = ArcSet.from_intervals([(5.5, 0.5 + TWO_PI)])
    assert s.contains(6.0)
    assert s.contains(0.2)
    assert not s.contains(3.0)
    assert abs(s.measure() - (TWO_PI - 5.0)) < 1e-12


def test_union_and_intersection():
    a = ArcSet.from_intervals([(0.0, 1.0)])
    b = ArcSet.from_intervals([(0.5, 2.0)])
    assert a.union(b).arcs == ((0.0, 2.0),)
    assert a.intersect(b).arcs == ((0.5, 1.0),)


def test_intersection_across_seam():
    a = ArcSet.from_intervals([(6.0, 0.5 + TWO_PI)])
    b = ArcSet.from_intervals([(0.2, 1.0)])
    inter = a.intersect(b)
    assert abs(inter.measure() - 0.3) < 1e-12


def test_complement_roundtrip():
    s = ArcSet.from_intervals([(0.5, 1.5), (3.0, 4.0)])
    c = s.complement()
    assert abs(s.measure() + c.measure() - TWO_PI) < 1e-12
    assert s.complement().complement().measure() == pytest.approx(s.measure())


def test_complement_of_seam_arc():
    s = ArcSet.from_intervals([(5.0, 1.0 + TWO_PI)])
    c = s.complement()
    assert abs(c.measure() - 4.0) < 1e-12
    assert c.contains(3.0)
    assert not c.contains(0.5)


def test_rotation_preserves_measure():
    s = ArcSet.from_intervals([(0.0, 1.0), (2.0, 2.5)])
    for phi in (0.3, PI, 5.9):
        r = s.rotate(phi)
        assert r.measure() == pytest.approx(s.measure())
        assert r.contains((0.5 + phi) % TWO_PI)


@pytest.mark.parametrize("make", [
    lambda: ArcSet.from_intervals([(0.0, math.nan)]),
    lambda: ArcSet.from_intervals([(math.inf, 1.0)]),
    lambda: ArcSet.from_intervals([(0.0, 1.0), (-math.inf, 2.0)]),
    lambda: ArcSet.from_points([0.5, math.nan]),
    lambda: ArcSet.from_dict({"arcs": [[0.0, float("nan")]]}),
    lambda: ArcSet.from_intervals([(0.0, 1.0)]).fatten(math.inf),
    lambda: ArcSet.from_intervals([(0.0, 1.0)]).fatten(math.nan),
], ids=["nan-hi", "inf-lo", "minus-inf-lo", "nan-point", "nan-dict",
        "fatten-inf", "fatten-nan"])
def test_nonfinite_endpoints_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_fatten_and_subset():
    s = ArcSet.from_points([1.0, 4.0])
    fat = s.fatten(0.25)
    assert fat.measure() == pytest.approx(1.0)
    assert s.subset_of(fat)
    assert not fat.subset_of(s)


def test_subset_of_sees_a_narrow_gap():
    # the gap of 1e-5 falls between sample points at step 1e-4
    assert not ArcSet.from_intervals([(0.0, 1.0)]).subset_of(
        ArcSet.from_intervals([(0.0, 0.5), (0.50001, 1.0)]))


def test_subset_of_seam_and_full_circle():
    seam = ArcSet.from_intervals([(6.0, 0.5 + TWO_PI)])
    assert seam.subset_of(ArcSet.full())
    assert seam.subset_of(ArcSet.from_intervals([(5.9, 0.6 + TWO_PI)]))
    assert not seam.subset_of(ArcSet.from_intervals([(0.0, 0.4), (5.9, TWO_PI)]))
    assert ArcSet.full().subset_of(ArcSet.full())
    assert not ArcSet.full().subset_of(seam)
    assert ArcSet.empty().subset_of(ArcSet.empty())


def test_fatten_covers_circle():
    s = ArcSet.from_points([0.0, PI])
    assert s.fatten(2.0).measure() == pytest.approx(TWO_PI)


def test_distance_to_point_set():
    s = ArcSet.from_points([0.0])
    assert s.distance(0.1) == pytest.approx(0.1)
    assert s.distance(TWO_PI - 0.1) == pytest.approx(0.1)
    assert s.distance(PI) == pytest.approx(PI)


def test_hausdorff_symmetric_pair():
    a = ArcSet.from_points([0.0])
    b = ArcSet.from_points([0.25])
    assert a.hausdorff(b) == pytest.approx(0.25, abs=1e-3)
    assert b.hausdorff(a) == pytest.approx(0.25, abs=1e-3)


def test_hausdorff_peaks_at_a_gap_midpoint():
    # the farthest point of the arc from {0, 1.0003} is 0.50015, which a
    # sample grid of step 5e-4 on [0, 1.0003] steps over
    arc = ArcSet.from_intervals([(0.0, 1.0003)])
    ends = ArcSet.from_points([0.0, 1.0003])
    assert arc.hausdorff(ends) == pytest.approx(0.50015, abs=1e-12)
    assert ends.hausdorff(arc) == pytest.approx(0.50015, abs=1e-12)


def test_hausdorff_of_equal_sets_is_zero():
    s = ArcSet.from_intervals([(0.0, 1.0), (3.0, 3.5)])
    assert s.hausdorff(s) <= 1e-3


def test_full_and_empty():
    assert ArcSet.full().measure() == pytest.approx(TWO_PI)
    assert ArcSet.empty().is_empty
    assert ArcSet.full().complement().is_empty


def test_serialization_roundtrip():
    s = ArcSet.from_intervals([(0.1, 0.9), (5.9, 0.3 + TWO_PI)])
    assert ArcSet.from_dict(s.to_dict()).arcs == s.arcs


# ---- reference oracles: the sampling versions these routines replaced ----

def _sample_points(arcs, step):
    for lo, hi in arcs.arcs:
        if hi == lo:
            yield lo
            continue
        n = max(2, int(math.ceil((hi - lo) / step)) + 1)
        for k in range(n):
            yield lo + (hi - lo) * k / (n - 1)


def _sampled_subset_of(a, b):
    if a.is_empty:
        return True
    return bool(np.all(b.contains(np.array(list(_sample_points(a, 1e-4))))))


def _sampled_hausdorff(a, b):
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return math.pi

    def directed(x, y, step=5e-4):
        return float(np.max(y.distance(np.array(list(_sample_points(x, step))))))
    return max(directed(a, b), directed(b, a))


def _random_arcs(rng, max_arcs=4, mean_len=0.2):
    """Point arcs, arcs across the 0 == 2*pi seam and ordinary arcs."""
    out = []
    for _ in range(rng.randint(0, max_arcs)):
        kind = rng.random()
        if kind < 0.3:
            lo = rng.uniform(-1.0, 8.0)
            out.append((lo, lo))
        elif kind < 0.5:
            lo = TWO_PI - rng.uniform(0.0, mean_len)
            out.append((lo, lo + rng.uniform(0.0, 3.0 * mean_len)))
        else:
            lo = rng.uniform(-1.0, 8.0)
            out.append((lo, lo + rng.expovariate(1.0 / mean_len)))
    return ArcSet.from_intervals(out)


def test_subset_of_matches_sampled_oracle():
    rng = random.Random(20261018)
    for _ in range(100):
        b = _random_arcs(rng)
        # a fattening of b lies in b when it widens nothing
        d = rng.choice([0.0, 0.003])
        for a in (b.fatten(d), _random_arcs(rng), b.intersect(_random_arcs(rng))):
            assert a.subset_of(b) == _sampled_subset_of(a, b), (a, b)


def test_hausdorff_within_sampling_error_of_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a, b = _random_arcs(rng), _random_arcs(rng)
        exact, sampled = a.hausdorff(b), _sampled_hausdorff(a, b)
        assert sampled <= exact <= sampled + 2.5e-4, (a, b)


_angles = st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI)


def _arc_sets(min_len=0.0):
    return st.lists(st.tuples(_angles, st.floats(min_value=min_len, max_value=TWO_PI)),
                    max_size=5).map(
        lambda pairs: ArcSet.from_intervals([(lo, lo + n) for lo, n in pairs]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_arc_sets())
def test_measure_of_complement_adds_to_circle(a):
    assert a.measure() + a.complement().measure() == pytest.approx(TWO_PI, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_arc_sets(), _arc_sets())
def test_de_morgan_for_intersection(a, b):
    lhs = a.intersect(b).complement()
    rhs = a.complement().union(b.complement())
    assert lhs.hausdorff(rhs) <= 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_arc_sets(min_len=1e-3), _arc_sets(min_len=1e-3))
def test_de_morgan_for_union(a, b):
    # complement() is a closure: an isolated point of the complements'
    # intersection (where a and b touch) is dropped again, so the law is
    # checked in the form that holds for arcs of positive length
    lhs = a.union(b)
    rhs = a.complement().intersect(b.complement()).complement()
    assert lhs.hausdorff(rhs) <= 1e-12


# ---- reference oracle: the per-angle loop that the array distance replaced ----

def _scalar_distance(arcs, theta):
    if not arcs.arcs:
        return math.pi
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t -= TWO_PI
    best = math.inf
    for lo, hi in arcs.arcs:
        for shift in (0.0, TWO_PI, -TWO_PI):
            ts = t + shift
            if lo <= ts <= hi:
                return 0.0
            best = min(best, abs(ts - lo), abs(ts - hi))
    return min(best, TWO_PI - best) if best <= TWO_PI else best


@st.composite
def _sets_and_angles(draw):
    """An arc set and angles that include its endpoints (and their turns by
    +-2*pi), 0, -0, +-2*pi and angles far outside [0, 2*pi)."""
    arcs = draw(_arc_sets())
    ends = [t for arc in arcs.arcs for t in arc]
    special = ends + [e + k * TWO_PI for e in ends for k in (-1, 1)]
    special += [0.0, -0.0, TWO_PI, -TWO_PI, PI]
    angle = st.one_of(st.sampled_from(special),
                      st.floats(min_value=-20.0, max_value=20.0),
                      st.floats(min_value=-1e6, max_value=1e6))
    return arcs, draw(st.lists(angle, min_size=1, max_size=40))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_sets_and_angles())
def test_array_distance_is_the_scalar_loop_bit_for_bit(case):
    arcs, angles = case
    want = np.array([_scalar_distance(arcs, t) for t in angles])
    got = arcs.distance(np.array(angles))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (arcs, angles)
    assert np.array_equal(arcs.contains(np.array(angles)), want == 0.0)
    for t in angles[:3]:
        d, ref = arcs.distance(t), _scalar_distance(arcs, t)
        assert type(d) is float and type(arcs.contains(t)) is bool
        assert np.array([d]).view(np.uint64) == np.array([ref]).view(np.uint64)


def test_distance_keeps_the_shape_of_its_input():
    s = ArcSet.from_intervals([(0.0, 1.0), (3.0, 3.5)])
    grid = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
    got = s.distance(grid)
    assert got.shape == (3, 4)
    assert got.tolist() == [[s.distance(float(t)) for t in row] for row in grid]
    assert ArcSet.empty().distance(grid).tolist() == [[PI] * 4] * 3
    assert s.distance(np.array([])).shape == (0,)


def test_nonfinite_angle_is_infinitely_far():
    s = ArcSet.from_intervals([(0.0, 1.0)])
    assert s.distance(math.nan) == math.inf
    assert s.distance(np.array([math.nan, math.inf, -math.inf])).tolist() == [math.inf] * 3
