"""Zero-set tracing, local structure, tracts, and dependence detection."""

import math

import numpy as np
import pytest

from harmonic_range.circles import NonFiniteError
from harmonic_range.expressions import parse_map
from harmonic_range.ranges import sample_range
from harmonic_range.zeros import (BISECT_HALVINGS, NotPolynomialError,
                                  RadiusTooSmallError, Rect, _bisect,
                                  _newton_to_zero, cleaning_check,
                                  detect_dependence, find_zero,
                                  local_structure, trace_zero_set,
                                  tract_report)


def _u(src):
    return parse_map(src).u


def test_trace_zero_set_line():
    curves = trace_zero_set(_u("u=re(z); v=im(z)"), Rect(-1, 1, -1, 1), 0.05)
    assert len(curves) == 1
    pts = curves[0].points
    assert float(np.max(np.abs(pts.real))) < 1e-6
    assert curves[0].arc_length == pytest.approx(2.0, rel=0.1)


def test_trace_zero_set_quadratic_two_diagonals():
    curves = trace_zero_set(_u("u=re(z^2); v=im(z)"), Rect(-1, 1, -1, 1), 0.05)
    assert len(curves) == 2
    for c in curves:
        # each traced branch lies on |x| = |y|
        assert float(np.max(np.abs(np.abs(c.points.real)
                                   - np.abs(c.points.imag)))) < 1e-6


def test_trace_zero_points_on_curve():
    u = _u("u=im(exp(z)); v=im(z)")
    curves = trace_zero_set(u, Rect(-2, 2, -4, 4), 0.05)
    assert curves
    for c in curves:
        vals = np.abs(np.asarray(u.value(c.points), dtype=float))
        assert float(np.max(vals)) < 1e-8


def test_newton_reports_a_vanishing_gradient_as_not_converged():
    # the gradient of re(z^2 + 1) vanishes at 0, where u = 1: no step
    # can be taken, and the start point is no zero
    u = _u("u=re(z^2+1); v=im(z)")
    z, converged = _newton_to_zero(u, 0j, 1e-12)
    assert not converged
    assert float(u.value(z)) == 1.0


def _bisect_one(g, a, b):
    """Reference: the scalar bisection loop, one bracket at a time."""
    fa = g(a)
    for _ in range(BISECT_HALVINGS):
        m = 0.5 * (a + b)
        fm = g(m)
        if fm == 0.0:
            return m
        if (fa > 0) == (fm > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


@pytest.mark.parametrize("g,a,b", [
    # the bracket (-1, 1) freezes at once: its first midpoint 0 is a zero
    (lambda x: x * x * x - 2.0 * x, [-2.0, -1.0, 1.0, -0.7], [-1.0, 1.0, 2.0, 0.6]),
    (lambda w: (w * w).real - 1.0, [0.0, 0.5j - 2.0], [2.0 + 1.0j, -0.5 + 0.1j]),
], ids=["real", "complex"])
def test_bisect_runs_every_bracket_as_the_scalar_loop_would(g, a, b):
    a, b = np.array(a), np.array(b)
    want = [_bisect_one(lambda w: g(np.array([w]))[0], x, y)
            for x, y in zip(a, b)]
    assert _bisect(g, a, b).tolist() == want


def _two_mask_bisect(g, a, b):
    """_bisect as it was: a fresh midpoint array and both masks per halving."""
    pos = g(a) > 0
    dtype = np.result_type(a, b)
    a, b = np.array(a, dtype=dtype), np.array(b, dtype=dtype)
    for _ in range(BISECT_HALVINGS):
        m = a + b
        m *= 0.5
        fm = g(m)
        hit = fm == 0.0
        same = (fm > 0) == pos
        np.copyto(a, m, where=hit | same)
        np.copyto(b, m, where=hit | ~same)
    return 0.5 * (a + b)


def _cubic(x):
    return x * (x - 1.0) * (x + 2.0)


@pytest.mark.parametrize("g,dtype", [
    (_cubic, float),
    # NaN counts as not positive, in both loops
    (lambda x: np.where((x > 0.3) & (x < 0.4), np.nan, _cubic(x)), float),
    (lambda w: (w * w).real - 1.0, complex),
], ids=["real", "real-nan", "complex"])
def test_bisect_moves_the_ends_as_the_two_mask_loop_did(g, dtype):
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-3.0, 3.0, size=(2, 400))
    if dtype is complex:
        a, b = (a, b) + 1j * rng.uniform(-3.0, 3.0, size=(2, 400))
    keep = g(a) * g(b) < 0
    # brackets whose first midpoint is the zero 1, either way round, and one
    # whose second midpoint is
    tilt = 0.5j if dtype is complex else 0.0
    ends = np.array([0.5 + tilt, 1.5 - tilt, 0.5])
    a = np.concatenate([a[keep], ends])
    b = np.concatenate([b[keep], np.array([1.5 - tilt, 0.5 + tilt, 2.5])])
    got, want = _bisect(g, a, b), _two_mask_bisect(g, a, b)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got[-3:].tolist() == [1.0, 1.0, 1.0]


class _Counting:
    """A harmonic component that counts its evaluations."""

    def __init__(self, u):
        self.u = u
        self.values = 0
        self.gradients = 0

    def value(self, z):
        self.values += 1
        return self.u.value(z)

    def gradient(self, z):
        self.gradients += 1
        return self.u.gradient(z)


@pytest.mark.parametrize("z0,calls", [
    (10 + 0j, (1, 0)),            # exp(exp(10)) overflows: u is inf
    (math.log(700.0), (1, 1)),    # u ~ 1e304 is finite, |grad u|^2 is not
], ids=["value-overflows", "gradient-overflows"])
def test_newton_stops_at_the_first_nonfinite_value(z0, calls):
    u = _Counting(_u("u=re(exp(exp(z))); v=im(exp(exp(z)))"))
    z, converged = _newton_to_zero(u, z0, 1e-10)
    assert not converged
    assert z == z0
    assert (u.values, u.gradients) == calls


@pytest.mark.parametrize("src,run", [
    # NaN samples of the trace mesh once gave no curves or 3-point ones
    ("u=re(exp(exp(z))); v=im(exp(exp(z)))",
     lambda u: trace_zero_set(u, Rect(-8, 8, -8, 8), 0.1)),
    ("u=re(exp(z^3)); v=im(z)", lambda u: trace_zero_set(u, Rect(-8, 8, -8, 8), 0.1)),
    # inf - inf once counted 4675 components for degree 300
    ("u=re(z^300-z^299); v=im(z)", lambda u: tract_report(u, 40.0)),
    # inf on the probe circle once raised a bare OverflowError
    ("u=re(z^400); v=im(z)", lambda u: local_structure(u, 0.0, probe_radius=8.0)),
    # NaN on the search grid once dropped its sign-change edges unseen
    ("u=re(exp(exp(z))-exp(exp(z))+z); v=im(z)",
     lambda u: find_zero(u, Rect(-8, 8, -8, 8))),
], ids=["trace-exp-exp", "trace-exp-cube", "tracts", "local-structure",
        "find-zero"])
def test_overflow_is_a_nonfinite_error(src, run):
    with pytest.raises(NonFiniteError, match="the map overflows"):
        run(_u(src))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_structure_pure_powers(n):
    res = local_structure(_u(f"u=re(z^{n}); v=im(z)"), 0.0)
    assert res["n"] == n
    assert len(res["ray_angles"]) == 2 * n
    want = [(2 * k + 1) * math.pi / (2 * n) for k in range(2 * n)]
    err = max(abs(a - b) for a, b in zip(sorted(res["ray_angles"]), want))
    assert err < 1e-6
    # signs alternate around the point
    signs = res["sector_signs"]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:] + signs[:1]))


@pytest.mark.parametrize("src,deg", [
    ("u=re(z); v=im(z)", 1),
    ("u=re(z^2); v=im(z)", 2),
    ("u=re(z^3+z); v=im(z)", 3),
    ("u=re(z^4-5*z^2+1); v=im(z)", 4),
])
def test_tract_count_twice_degree(src, deg):
    rep = tract_report(_u(src), 10.0)
    assert rep.degree == deg
    assert rep.components == 2 * deg


@pytest.mark.parametrize("box,step", [
    (Rect(-1, 1, -1, 1), math.nan),
    (Rect(-1, 1, -1, 1), math.inf),
    (Rect(-1, 1, -1, math.nan), 0.05),
    (Rect(-1, math.inf, -1, 1), 0.05),
    (Rect(1, -1, -1, 1), 0.05),           # reversed
    (Rect(-1, 1, 1, -1), 0.05),
    (Rect(-1, 1, 0.5, 0.5), 0.05),        # empty
])
def test_trace_zero_set_refuses_inputs_that_give_no_curves(box, step):
    # each of these once returned [] without a word
    with pytest.raises(ValueError, match="must be finite"):
        trace_zero_set(_u("u=re(z); v=im(z)"), box, step)


@pytest.mark.parametrize("R", [math.nan, math.inf, 0.0, -1.0])
def test_tract_report_refuses_a_radius_not_finite_and_positive(R):
    with pytest.raises(ValueError, match="finite and positive"):
        tract_report(_u("u=re(z^2); v=im(z)"), R)


@pytest.mark.parametrize("z0", [1j * math.inf, complex(math.nan, 0.0)],
                         ids=["inf-imag", "nan"])
def test_local_structure_refuses_a_non_finite_center(z0):
    # on i inf re(z) is finite: once n 1 with two rays; a NaN z0 once
    # raised NonFiniteError, blaming the map
    with pytest.raises(ValueError, match="^z0 must be finite, got "):
        local_structure(_u("u=re(z); v=im(z)"), z0)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1e-2])
def test_local_structure_refuses_a_probe_radius_not_finite_and_positive(r):
    with pytest.raises(ValueError, match="^probe_radius must be finite and "
                       "positive, got "):
        local_structure(_u("u=re(z); v=im(z)"), 0.0, probe_radius=r)


def test_tract_report_rejects_transcendental():
    with pytest.raises(NotPolynomialError):
        tract_report(_u("u=im(exp(z)); v=im(z)"), 10.0)


def test_tract_report_detects_unstable_radius():
    # zeros of Re(z^2) + small perturbation move; tiny R must be refused
    u = _u("u=re(z^2-25); v=im(z)")
    with pytest.raises(RadiusTooSmallError):
        tract_report(u, 3.0)


def test_dependence_exact_multiple():
    f = parse_map("u=re(z); v=im(3*i*z)")
    s = sample_range(f, 50.0, n_grid=128, seed=0)
    rep = detect_dependence(s, a=1.0, R=1.0)
    assert rep.dependent
    assert rep.b == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.residual < 1e-12


def test_dependence_rejects_exponential_pair():
    f = parse_map("u=im(exp(z)); v=im(0-exp(0-z))")
    s = sample_range(f, 30.0, n_grid=128, seed=0)
    rep = detect_dependence(s, a=1e6, R=1.0)
    assert not rep.dependent
    assert rep.residual >= 1e-2


def test_dependence_degenerate_v():
    f = parse_map("u=re(z); v=im(0)")
    s = sample_range(f, 10.0, n_grid=64, seed=0)
    rep = detect_dependence(s, a=1.0, R=1.0)
    assert rep.degenerate
    assert not rep.dependent


def test_cleaning_check_dependent_pair():
    f = parse_map("u=re(z); v=im(2*i*z)")
    verdict = cleaning_check(f.u.value, f.v.value, 1.0)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.params["tol"] == 1e-6
    assert verdict.sampling == {"grid_n": 201}


def test_cleaning_check_flags_mismatched_zero_sets():
    f = parse_map("u=re(z); v=im(z)")
    verdict = cleaning_check(f.u.value, f.v.value, 1.0)
    assert not (verdict.hypothesis_holds and verdict.conclusion_holds)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_dependence_refuses_a_non_finite_cone_bound(a):
    # with a = nan it once reported the cone hypothesis holding
    s = sample_range(parse_map("u=re(z); v=im(0.5*i*z)"), 8.0, n_grid=64, seed=0)
    with pytest.raises(ValueError, match=f"^a must be finite, got {a}$"):
        detect_dependence(s, a=a, R=1.0)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_dependence_refuses_a_non_finite_radius(R):
    # R = nan once said "samples do not cover |z| > R"
    s = sample_range(parse_map("u=re(z); v=im(0.5*i*z)"), 8.0, n_grid=64, seed=0)
    with pytest.raises(ValueError, match=f"^R must be finite, got {R}$"):
        detect_dependence(s, a=1.0, R=R)
