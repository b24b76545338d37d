"""Hypothesis/conclusion checkers on concrete instances."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmonic_range.ranges as ranges
import harmonic_range.theorems as theorems
from harmonic_range.catalog import get_entry
from harmonic_range.expressions import parse_map
from harmonic_range.arcs import ArcSet
from harmonic_range.ranges import (DirectionEstimate, RangeSample,
                                   estimate_directions, sample_range,
                                   sobol_points)
from harmonic_range.theorems import (CONSTANT_TOL, ExcludedPointError,
                                     check_antipodal_theorem, check_cor_alpha,
                                     check_halfplane_theorem,
                                     check_lewis_region,
                                     check_log2_inequalities,
                                     check_murdoch_kuran, is_constant_proxy,
                                     log2_sample_points)


def _sampled(src, R=10.0, n_grid=64, seed=0):
    f = parse_map(src)
    return f, sample_range(f, R, n_grid=n_grid, seed=seed)


def test_lewis_region_constant_map():
    f, s = _sampled("u=re(3); v=im(0-7*i)")
    v = check_lewis_region(f, 10.0, s)
    assert v.hypothesis_holds and v.conclusion_holds and v.consistent


def test_lewis_region_diagonal_hypothesis_fails():
    # u = v = x: the positive parts agree, but max(u, v) = x drops below -C
    f, s = _sampled("u=re(z); v=re(z)")
    v = check_lewis_region(f, 1.0, s)
    assert not v.hypothesis_holds
    assert v.hypothesis_witnesses
    assert v.consistent


def test_lewis_region_identity_hypothesis_fails_with_witness():
    f, s = _sampled("u=re(z); v=im(z)")
    v = check_lewis_region(f, 1.0, s)
    assert not v.hypothesis_holds
    w = v.hypothesis_witnesses[0]
    # the witness re-evaluates to a genuine violation
    z = complex(*w["z"])
    wv = f.value(z)
    up, vp = max(wv.real, 0.0), max(wv.imag, 0.0)
    assert abs(up - vp) > 1.0 or max(wv.real, wv.imag) < -1.0


def test_antipodal_identity_map():
    f, s = _sampled("u=re(z); v=im(z)", R=100.0, n_grid=256)
    est = estimate_directions(s)
    v = check_antipodal_theorem(f, est, s)
    assert v.hypothesis_holds
    assert v.conclusion_holds
    assert v.params["tol_rad"] == math.radians(1.0)


def test_antipodal_constant_map_vacuous():
    f, s = _sampled("u=re(3); v=im(0-7*i)")
    est = estimate_directions(s)
    v = check_antipodal_theorem(f, est, s)
    assert not v.hypothesis_holds
    assert v.consistent
    assert v.params == {"tol_rad": math.radians(1.0)}


def test_halfplane_vertical_line():
    # u constant 5: directions {pi/2, 3pi/2} sit in the half circle about 0
    f, s = _sampled("u=re(5); v=im(z)", R=100.0, n_grid=256)
    est = estimate_directions(s)
    v = check_halfplane_theorem(f, 0.0, est, s)
    assert v.hypothesis_holds
    assert v.conclusion_holds
    assert v.params["c"] == pytest.approx(5.0, abs=1e-9)
    assert v.params["tol_rad"] == math.radians(1.0)
    assert v.params["margin"] > 0.0


def test_halfplane_boundary_case_flagged():
    # directions of (x, 2x) are the two endpoints of the half circle
    # about their perpendicular
    f, s = _sampled("u=re(z); v=im(2*i*z)", R=100.0, n_grid=256)
    est = estimate_directions(s)
    alpha = math.atan2(2.0, 1.0) + math.pi / 2
    v = check_halfplane_theorem(f, alpha, est, s)
    assert v.hypothesis_holds
    assert v.params["boundary_case"]
    # conclusion: -sin(beta) u + cos(beta) v times sign = 2u - v = 0
    assert v.conclusion_holds


def test_halfplane_full_circle_fails():
    f, s = _sampled("u=re(z); v=im(z)", R=100.0, n_grid=256)
    est = estimate_directions(s)
    v = check_halfplane_theorem(f, 0.0, est, s)
    assert not v.hypothesis_holds
    assert v.params["margin"] < 0.0
    assert v.consistent


def test_halfplane_margin_shows_a_tie():
    # the estimate of the catalog horizontal line reaches 1 deg past the
    # half circle about pi/2 up to rounding, so the hypothesis holds by
    # a margin of one rounding error
    entry = get_entry("horizontal-line")
    s = entry.sample()
    v = check_halfplane_theorem(entry.harmonic_map(), math.pi / 2,
                                entry.directions(s), s)
    assert v.hypothesis_holds
    assert 0.0 < v.params["margin"] < 1e-15


def test_halfplane_margin_is_none_for_an_empty_estimate():
    f, s = _sampled("u=re(0*z); v=im(0*z)")
    est = estimate_directions(s)
    assert est.arcs.is_empty
    v = check_halfplane_theorem(f, 0.0, est, s)
    assert v.hypothesis_holds
    assert v.params["margin"] is None


def test_halfplane_constancy_is_the_oscillation_test():
    # u spreads 1.5e-9 about its median 0: within the tolerance of the
    # median, but an oscillation past it, so u is not constant
    u = np.array([-0.75, 0.0, 0.75]) * CONSTANT_TOL
    s = RangeSample(z=np.zeros(3, dtype=complex), w=u + 0j, radius=1.0,
                    n_grid=1, seed=0)
    est = DirectionEstimate(arcs=ArcSet.empty(), bins=1)
    v = check_halfplane_theorem(None, 0.0, est, s)
    assert not is_constant_proxy(u)
    assert not v.conclusion_holds
    assert v.params["c"] == 0.0


# |u|, |v| up to 1.2e308: g stays finite for every alpha, but hi - lo
# and hi + lo of two such values overflow
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.2e308, -1.2e308]),
                   st.floats(-1.2e308, 1.2e308))


@st.composite
def _column(draw, n):
    """n values: any finite ones, or a few values repeated (ties, or a
    constant column)."""
    pool = draw(st.lists(_VALUE, min_size=1, max_size=3))
    return draw(st.one_of(st.lists(_VALUE, min_size=n, max_size=n),
                          st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@st.composite
def _halfplane_case(draw):
    n = draw(st.integers(1, 9))
    alpha = draw(st.sampled_from([0.0, math.pi / 2, 0.3, -2.0, 3 * math.pi / 4]))
    return draw(_column(n)), draw(_column(n)), alpha, draw(st.sampled_from([1, 2, 3, 4096]))


def _halfplane_of(w: np.ndarray, alpha: float = 0.0):
    """The half-plane verdict on the range values w, with an empty estimate."""
    s = RangeSample(z=np.zeros(w.size, dtype=complex), w=w, radius=1.0,
                    n_grid=1, seed=0)
    est = DirectionEstimate(arcs=ArcSet.empty(), bins=1)
    return check_halfplane_theorem(None, alpha, est, s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_halfplane_case())
def test_halfplane_c_and_max_dev_are_the_midpoint_and_half_oscillation(case):
    u, v, alpha, block = case
    w = np.empty(len(u), dtype=complex)
    w.real, w.imag = u, v
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranges, "POINT_BLOCK", block)
        verdict = _halfplane_of(w, alpha)
    g = math.cos(alpha) * w.real + math.sin(alpha) * w.imag
    lo, hi = float(np.min(g)), float(np.max(g))
    assert verdict.params["c"] == 0.5 * lo + 0.5 * hi
    assert math.isfinite(verdict.params["c"])
    assert verdict.conclusion_holds == theorems._constant_between(lo, hi)
    if verdict.conclusion_holds:
        assert verdict.conclusion_witnesses == []
    else:
        max_dev = verdict.conclusion_witnesses[0]["max_dev"]
        assert max_dev == 0.5 * hi - 0.5 * lo
        assert math.isfinite(max_dev)


def test_halfplane_c_of_an_exp_sample():
    # the midpoint of the combination's extremes; the median was -1.54e-18
    f, s = _sampled("u=re(z); v=im(exp(0.93*z))", R=12.9, n_grid=512, seed=5)
    v = check_halfplane_theorem(f, 0.0, estimate_directions(s), s)
    lo, hi = float(s.w.real.min()), float(s.w.real.max())
    assert (v.params["c"], v.conclusion_witnesses[0]["max_dev"]) == (0.0, hi)
    assert lo == -hi


def test_halfplane_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="^the sample is empty"):
        _halfplane_of(np.zeros(0, dtype=complex))


def test_cor_alpha_bounded_v():
    f, s = _sampled("u=re(z); v=im(2*i*0)")
    v = check_cor_alpha(f, 1.0, 0.5, 1.0, s)
    assert v.hypothesis_holds and v.conclusion_holds


def test_cor_alpha_identity_fails_hypothesis():
    f, s = _sampled("u=re(z); v=im(z)", R=50.0)
    v = check_cor_alpha(f, 1.0, 0.5, 10.0, s)
    assert not v.hypothesis_holds
    assert v.hypothesis_witnesses
    assert v.consistent


def test_cor_alpha_rejects_alpha_one():
    f, s = _sampled("u=re(z); v=im(z)")
    with pytest.raises(ValueError):
        check_cor_alpha(f, 1.0, 1.0, 0.0, s)


@pytest.mark.parametrize("check, name", [
    (lambda f, s, x: check_lewis_region(f, x, s), "C"),
    (lambda f, s, x: check_cor_alpha(f, x, 0.5, 0.1, s), "a"),
    (lambda f, s, x: check_cor_alpha(f, 1.0, 0.5, x, s), "b"),
    (lambda f, s, x: check_murdoch_kuran(f, x, 1.0, s), "a"),
    (lambda f, s, x: check_murdoch_kuran(f, 1.0, x, s), "R"),
    # u is not a polynomial, so R is never used; it is still echoed
    (lambda f, s, x: check_murdoch_kuran(parse_map("u=re(exp(z)); v=im(z)"),
                                         1.0, x, s), "R"),
    (lambda f, s, x: check_halfplane_theorem(f, x, estimate_directions(s), s),
     "alpha"),
], ids=["lewis-C", "cor-alpha-a", "cor-alpha-b", "murdoch-kuran-a",
        "murdoch-kuran-R", "murdoch-kuran-inapplicable-R", "halfplane-alpha"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_a_non_finite_parameter_is_named(check, name, x):
    # a NaN once decided the verdict: every witness test x > nan is false
    f, s = _sampled("u=re(z); v=im(z)", R=8.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {x}$"):
        check(f, s, x)


def test_murdoch_kuran_exact_multiple():
    f, s = _sampled("u=re(z); v=im(3*i*z)", R=50.0, n_grid=128)
    v = check_murdoch_kuran(f, 1.0, 1.0, s)
    assert v.hypothesis_holds
    assert v.conclusion_holds
    assert v.params["b"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_murdoch_kuran_nonpolynomial_inapplicable():
    f, s = _sampled("u=im(exp(z)); v=im(0-exp(0-z))", R=30.0, n_grid=128)
    v = check_murdoch_kuran(f, 1e6, 1.0, s)
    assert not v.hypothesis_holds
    assert "inapplicable" in v.hypothesis_witnesses[0]["note"]
    assert v.consistent


def test_murdoch_kuran_same_component():
    f, s = _sampled("u=re(z^2); v=im(i*z^2)", R=20.0, n_grid=128)
    # v = Re z^2 as well, so u = v exactly and b = 1
    v = check_murdoch_kuran(f, 2.0, 1.0, s)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.params["b"] == pytest.approx(1.0, abs=1e-12)


def test_log2_inequalities_known_points():
    v = check_log2_inequalities(np.array([0.5 + 0j, 10.0 + 0j, 2.0 + 3.0j]))
    assert v.conclusion_holds
    # z = 10 gives |log 10 - log 9| which is comfortably below log 2
    assert abs(math.log(10) - math.log(9)) < math.log(2)


def test_log2_equality_point_half():
    # z = 1/2 attains max(log|z|, log|z-1|) = -log 2 exactly
    v = check_log2_inequalities(np.array([0.5 + 0j]))
    assert v.conclusion_holds


def test_log2_excludes_punctures():
    with pytest.raises(ExcludedPointError):
        check_log2_inequalities(np.array([1.0 + 1e-15j]))


def test_log2_bulk_samples():
    z = log2_sample_points(4096, seed=11)
    v = check_log2_inequalities(z)
    assert v.conclusion_holds
    assert not v.conclusion_witnesses
    assert v.params == {"slack": 1e-12}


@pytest.mark.parametrize("n, seed, radius", [(4096, 11, 100.0), (1 << 18, 5, 100.0),
                                             (1000, 2**31 - 1, 1.0)])
def test_log2_sample_points_are_the_complex_exponential_bit_for_bit(n, seed, radius,
                                                                   monkeypatch):
    monkeypatch.setattr(theorems, "LOG2_RADIUS", radius)
    pts = sobol_points(n, seed)
    r = radius * np.sqrt(pts[:, 0])
    t = 2.0 * math.pi * pts[:, 1]
    z = r * np.exp(1j * t)
    want = z[(np.abs(z) > 1e-9) & (np.abs(z - 1.0) > 1e-9)]
    assert log2_sample_points(n, seed).tobytes() == want.tobytes()


def test_log2_sample_points_drop_the_punctures(monkeypatch):
    # radius 1e-9: every point lies within 1e-9 of 0
    monkeypatch.setattr(theorems, "LOG2_RADIUS", 1e-9)
    assert log2_sample_points(64, seed=0).size == 0


@pytest.mark.parametrize("n", [0, -3])
def test_log2_sample_points_rejects_bad_input(n):
    with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
        log2_sample_points(n, seed=0)


LOG2_CASES = [
    (1, 0, 100.0),
    # not a multiple of POINT_BLOCK, at either block size below
    (65_537, 3, 100.0),
    (200_001, 4, 3.0),
    # about a quarter of the points lie within 1e-9 of 0 and are dropped
    (70_000, 5, 2e-9),
    # every point does: every block is empty, and the count is 0
    (1000, 2, 1e-9),
]


@pytest.mark.parametrize("n, seed, radius", LOG2_CASES)
# a tighter slack turns points near z = 2 and z = 1/2 into witnesses
@pytest.mark.parametrize("slack", [None, -0.01])
def test_the_generated_log2_check_is_the_check_of_the_array(n, seed, radius, slack,
                                                           monkeypatch):
    if slack is not None:
        monkeypatch.setattr(theorems, "LOG2_SLACK", slack)
    monkeypatch.setattr(theorems, "LOG2_RADIUS", radius)
    for block in (ranges.POINT_BLOCK, 4097):
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        z = log2_sample_points(n, seed)
        want = json.dumps(check_log2_inequalities(z).to_dict())
        made = theorems._Log2Points(n, seed)
        assert json.dumps(check_log2_inequalities(made).to_dict()) == want, block
    verdict = json.loads(want)
    assert verdict["sampling"]["count"] == z.size
    assert (z.size == 0) == (radius == 1e-9)
    if slack is not None and radius == 3.0:
        # four of each kind, across several blocks
        assert len(verdict["conclusion"]["witnesses"]) == 8


def test_the_generated_log2_check_names_the_same_excluded_point(monkeypatch):
    # with no gap, the points within 1e-12 of 0 are kept, and refused
    monkeypatch.setattr(theorems, "PUNCTURE_GAP", 0.0)
    monkeypatch.setattr(theorems, "LOG2_RADIUS", 2e-12)
    messages = []
    for points in (log2_sample_points(70_000, 5),
                   theorems._Log2Points(70_000, 5)):
        with pytest.raises(ExcludedPointError) as err:
            check_log2_inequalities(points)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("sample too close to a puncture: (")
