"""Circle maxima, Fourier profiles, growth bounds, and multiplicity."""

import math

import numpy as np
import pytest

from harmonic_range.circles import (DEFAULT_SAMPLES, FOURIER_SAMPLES,
                                    FOURIER_TERMS, REFINE_PEAKS, ZOOM_LEVELS,
                                    ZOOM_POINTS, CenterNotZeroError,
                                    NonFiniteError, PositivityError, _max_from,
                                    _ring, circle_max, circle_values,
                                    fourier_profile, harnack_bound_check,
                                    lemma_abs_check, multiplicity)
from harmonic_range.expressions import parse_map


def _comp(src):
    return parse_map(src).u


def brute_circle_max(u, z, r, absolute=False, n=400000):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    vals = np.asarray(u.value(z + r * np.exp(1j * theta)), dtype=float)
    if absolute:
        vals = np.abs(vals)
    return float(np.max(vals))


@pytest.mark.parametrize("src,z,r", [
    ("u=re(z); v=im(z)", 0.0, 2.0),
    ("u=re(z^3+z); v=im(z)", 0.5 + 0.5j, 1.5),
    ("u=im(exp(z)); v=im(z)", 1.0 + 0.2j, 3.0),
])
def test_circle_max_matches_dense_grid(src, z, r):
    u = _comp(src)
    got = circle_max(u, z, r)
    want = brute_circle_max(u, z, r)
    assert got >= want - 1e-10
    assert abs(got - want) < 1e-8


def test_circle_max_closed_form():
    # max of Re z on |z| = r is exactly r
    u = _comp("u=re(z); v=im(z)")
    assert circle_max(u, 0.0, 3.0) == pytest.approx(3.0, abs=1e-12)


def test_circle_max_absolute():
    u = _comp("u=re(z); v=im(z)")
    # min of Re z is -r, so the absolute max ties at both ends
    assert circle_max(u, 1.0, 2.0, absolute=True) == pytest.approx(3.0, abs=1e-12)


def test_circle_values_shape():
    u = _comp("u=re(z^2); v=im(z)")
    vals = circle_values(u, 0.0, 1.0, 128)
    assert vals.shape == (128,)
    assert np.max(vals) == pytest.approx(1.0, abs=1e-3)


def test_fourier_profile_reconstructs():
    u = _comp("u=re(z^3+2*z); v=im(z)")
    c = fourier_profile(u, 0.3 + 0.1j, 1.2)
    theta = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
    direct = np.asarray(u.value(0.3 + 0.1j + 1.2 * np.exp(1j * theta)),
                        dtype=float)
    # u = sum_k Re(c_k e^{i k t}) on the circle
    series = (c * np.exp(1j * np.outer(theta, np.arange(c.size)))).real.sum(axis=1)
    assert np.max(np.abs(series - direct)) < 1e-10


def test_harnack_factor_five_at_two_thirds():
    # (r + s)/(r - s) with s = 2r/3 is exactly 5
    u = _comp("u=re(z+10); v=im(z)")
    res = harnack_bound_check(u, 0.0, 3.0, 2.0)
    assert res["holds"]
    assert res["rhs"] == pytest.approx(5.0 * u.value(0.0), rel=1e-12)


def test_harnack_rejects_sign_changing_function():
    u = _comp("u=re(z); v=im(z)")
    with pytest.raises(PositivityError):
        harnack_bound_check(u, 0.0, 3.0, 2.0)


def test_positivity_is_decided_on_the_boundary_circle():
    # re(z + 0.5) is least at -1 on the unit circle (minimum principle);
    # the witness once lay at -0.5, where it first reaches 0
    u = _comp("u=re(z+0.5); v=im(z)")
    with pytest.raises(PositivityError) as err:
        harnack_bound_check(u, 0.0, 1.0, 0.5)
    w = err.value.witness
    assert abs(w) == pytest.approx(1.0, abs=1e-15)
    assert w.real == pytest.approx(-1.0, abs=1e-15)
    assert err.value.value == float(u.value(w)) <= 0.0


def test_a_map_positive_on_the_boundary_circle_passes():
    # re(z + 1) + 1e-6 is least, 1e-6, at -1 on the unit circle
    u = _comp("u=re(z+1.000001); v=im(z)")
    res = harnack_bound_check(u, 0.0, 1.0, 0.5)
    assert res["holds"]
    assert res["rhs"] == pytest.approx(3.0 * 1.000001, rel=1e-12)


_CENTER_CHECKS = {
    "circle-values": lambda u, c: circle_values(u, c, 1.0),
    "circle-max": lambda u, c: circle_max(u, c, 1.0),
    "fourier-profile": lambda u, c: fourier_profile(u, c, 1.0),
    "multiplicity": lambda u, c: multiplicity(u, c, 0.5),
    "lemma-abs": lambda u, c: lemma_abs_check(u, c, 1.0),
    "harnack": lambda u, c: harnack_bound_check(u, c, 3.0, 2.0),
}


@pytest.mark.parametrize("center", [1j * math.inf, complex(math.nan, 0.0),
                                    complex(0.0, -math.inf)],
                         ids=["inf-imag", "nan", "minus-inf-imag"])
@pytest.mark.parametrize("name", _CENTER_CHECKS)
def test_a_non_finite_center_is_named(name, center):
    # re(w) is finite on a circle about i inf: circle_max once gave 1.0,
    # multiplicity 1, and the lemma and Harnack checks held
    with pytest.raises(ValueError, match="^center must be finite, got "):
        _CENTER_CHECKS[name](_comp("u=re(z); v=im(z)"), center)


@pytest.mark.parametrize("run", [
    *(lambda u, r=r: circle_values(u, 0.0, r) for r in (math.nan, math.inf, 0.0, -1.0)),
    *(lambda u, r=r: fourier_profile(u, 0.0, r) for r in (math.nan, math.inf)),
    # s < r holds for r = inf
    lambda u: harnack_bound_check(u, 0.0, math.inf, 1.0),
], ids=["values-nan", "values-inf", "values-0", "values-minus-1",
        "fourier-nan", "fourier-inf", "harnack-inf"])
def test_a_radius_not_finite_and_positive_is_named(run):
    # a NaN or inf radius once raised NonFiniteError, blaming the map; a
    # radius 0 or -1 was sampled
    with pytest.raises(ValueError, match="^radius must be finite and positive, got "):
        run(_comp("u=re(z+10); v=im(z)"))


def test_lemma_abs_bound_holds():
    for src in ("u=re(z); v=im(z)", "u=re(z^2+z); v=im(z)",
                "u=im(exp(z)); v=im(z)"):
        u = _comp(src)
        res = lemma_abs_check(u, 0.0, 2.0)
        assert res["holds"]
        assert res["lhs"] <= res["rhs"] * (1.0 + 1e-9)


def test_lemma_abs_requires_zero_center():
    u = _comp("u=re(z+5); v=im(z)")
    with pytest.raises(CenterNotZeroError):
        lemma_abs_check(u, 0.0, 1.0)


def test_a_center_zero_is_relative_to_the_circle_scale():
    # u(0) = -3e-13 is 23 % of the largest |u| on the unit circle: not a
    # zero, though it once passed an absolute 1e-9
    u = _comp("u=re(1e-12*(z-0.3)); v=im(z)")
    with pytest.raises(CenterNotZeroError):
        lemma_abs_check(u, 0.0, 1.0)
    with pytest.raises(CenterNotZeroError):
        multiplicity(u, 0.0, 1.0)
    # a true zero at the same scale still counts
    cube = _comp("u=re(1e-12*z^3); v=im(z)")
    assert multiplicity(cube, 0.0, 1.0) == 3
    assert lemma_abs_check(cube, 0.0, 1.0)["holds"]


@pytest.mark.parametrize("src,z0,r", [
    ("u=re(z); v=im(z)", 0.0, 2.0),
    ("u=re(z^3-z); v=im(z)", 1.0, 0.7),
    ("u=im(exp(z)); v=im(z)", 0.0, 2.0),
])
def test_lemma_abs_samples_its_r_circle_once(monkeypatch, src, z0, r):
    u = _comp(src)
    want = {"lhs": circle_max(u, z0, 2.0 * r / 3.0, absolute=True),
            "rhs": 4.0 * circle_max(u, z0, r)}
    grids = []
    value = type(u).value

    def counting(self, z):
        if np.shape(z) == (DEFAULT_SAMPLES,):
            grids.append(np.array(z))
        return value(self, z)
    monkeypatch.setattr(type(u), "value", counting)
    res = lemma_abs_check(u, z0, r)
    assert (res["lhs"], res["rhs"]) == (want["lhs"], want["rhs"])
    ring = _ring(DEFAULT_SAMPLES)
    assert len(grids) == 2
    assert np.array_equal(grids[0], z0 + r * ring)
    assert np.array_equal(grids[1], z0 + (2.0 * r / 3.0) * ring)


@pytest.mark.parametrize("src,z0,want", [
    ("u=re(z); v=im(z)", 0.0, 1),
    ("u=re(z^2); v=im(z)", 0.0, 2),
    ("u=re(z^3); v=im(z)", 0.0, 3),
    ("u=im(exp(z)); v=im(z)", 0.0, 1),
    ("u=re(z^2+0.001*z^3); v=im(z)", 0.0, 2),
])
def test_multiplicity(src, z0, want):
    assert multiplicity(_comp(src), z0, 0.5) == want


def test_multiplicity_off_center_zero():
    # Re(z^2) vanishes along the diagonal; simple zero away from 0
    u = _comp("u=re(z^2); v=im(z)")
    z0 = (1.0 + 1.0j) / math.sqrt(2.0)
    assert multiplicity(u, z0, 0.1) == 1


def test_circle_max_raises_on_nan_samples():
    # exp(exp(z)) overflows on part of |z| = 7, and inf - inf is NaN there;
    # argmax would skip the NaN samples and report 0.0
    u = _comp("u=re(exp(exp(z))-exp(exp(z))); v=im(z)")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="153 of 4096 samples of u on "
                           "the circle of radius 7 about 0 are not finite"):
            circle_max(u, 0.0, 7.0)
        with pytest.raises(NonFiniteError):
            circle_max(u, 0.0, 7.0, absolute=True)


@pytest.mark.parametrize("run", [
    # once M(u, 0, 8) = inf and the |u|-lemma held on rhs = inf
    lambda: circle_max(_comp("u=re(z^400); v=im(z)"), 0.0, 8.0),
    lambda: lemma_abs_check(_comp("u=re(z^400); v=im(z)"), 0.0, 8.0),
    # once the NaN samples on the outer positivity circles passed as positive
    lambda: harnack_bound_check(
        _comp("u=re(exp(exp(z))-exp(exp(z))+1); v=im(z)"), 0.0, 7.5, 5.0),
], ids=["circle-max", "lemma-abs", "harnack"])
def test_an_overflowing_circle_is_a_nonfinite_error(run):
    with pytest.raises(NonFiniteError, match="the map overflows"):
        run()


class _InfBetweenSamples:
    """cos t on the 4096-point sample grid of the unit circle, inf at every
    other point."""

    def value(self, z):
        return np.where(np.isin(z, _ring(4096)), z.real, math.inf)


def test_circle_max_refuses_a_refinement_point_that_overflows():
    with pytest.raises(NonFiniteError, match="radius 1 about 0"):
        circle_max(_InfBetweenSamples(), 0.0, 1.0)


def test_rings_are_shared_and_read_only():
    ring = _ring(64, 0.5)
    assert ring is _ring(64, 0.5)
    assert not ring.flags.writeable
    theta = (np.arange(64) + 0.5) * (2.0 * math.pi / 64)
    assert np.array_equal(ring, np.exp(1j * theta))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(g, lo, hi):
    """The golden-section search that circle_max once ran per grid peak,
    one scalar evaluation per step: the reference for the zoom."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    theta = 0.5 * (a + b)
    return theta, g(theta)


def _golden_circle_max(u, z, r, absolute, vals):
    """The best golden-section maximum over the brackets of the 3 top peaks
    of vals, 4096 grid samples, as circle_max computed it before the zoom."""
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    top = np.nonzero(is_peak)[0]
    top = top[np.lexsort((top, -vals[top]))][:3]
    step = 2.0 * math.pi / 4096

    def g(theta):
        w = float(u.value(z + r * complex(math.cos(theta), math.sin(theta))))
        return abs(w) if absolute else w
    return max(_golden_max(g, (k - 1) * step, (k + 1) * step)[1] for k in top)


def _seeded_circles(seed=5):
    rng = np.random.default_rng(seed)
    maps = ["u=re(z^2); v=im(z)", "u=im(z^4-3*z^2+z); v=im(z)",
            "u=re(exp(z)+z^2); v=im(z)", "u=im(exp(z)); v=im(z)",
            "u=re((1+2*i)*z^3-exp(-z)); v=im(z)"]
    for src in maps:
        for _ in range(6):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            yield _comp(src), z, float(rng.uniform(0.1, 3.0))


@pytest.mark.parametrize("absolute", [False, True])
def test_the_zoom_agrees_with_golden_section(absolute):
    for u, z, r in _seeded_circles():
        vals = circle_values(u, z, r)
        if absolute:
            vals = np.abs(vals)
        got = circle_max(u, z, r, absolute=absolute)
        want = _golden_circle_max(u, z, r, absolute, vals)
        assert got >= vals.max()
        assert abs(got - want) <= 1e-13 * np.abs(vals).max(), (u, z, r)


def _rolled_circle_max(u, z, r, absolute, n):
    """circle_max as it was before it took the maximum from given samples:
    grid peaks by two np.roll copies, then the zoom."""
    vals = circle_values(u, z, r, n)
    if absolute:
        vals = np.abs(vals)
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.nonzero(is_peak)[0]
    top = peaks[np.lexsort((peaks, -vals[peaks]))][:REFINE_PEAKS]
    step = 2.0 * math.pi / n
    h, theta = step, top * step
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    rows = np.arange(len(top))
    for _ in range(ZOOM_LEVELS):
        angles = theta[:, None] + h * offsets
        g = np.asarray(u.value(z + r * (np.cos(angles) + 1j * np.sin(angles))),
                       dtype=float)
        if absolute:
            g = np.abs(g)
        best = np.argmax(g, axis=1)
        theta, peak = angles[rows, best], g[rows, best]
        h *= 2.0 / (ZOOM_POINTS - 1)
    best_val = float(peak[np.lexsort((theta, -peak))[0]])
    k0 = int(np.argmax(vals))
    if vals[k0] > best_val:
        best_val = float(vals[k0])
    return best_val


@pytest.mark.parametrize("n", [1, 2, DEFAULT_SAMPLES])
@pytest.mark.parametrize("absolute", [False, True])
def test_the_maximum_of_given_samples_is_circle_max(n, absolute):
    for u, z, r in _seeded_circles():
        got = _max_from(u, z, r, circle_values(u, z, r, n), absolute)
        assert got == circle_max(u, z, r, absolute=absolute, n=n), (u, z, r)
        assert got == _rolled_circle_max(u, z, r, absolute, n), (u, z, r)


@pytest.mark.parametrize("n", [0, -3])
def test_a_sample_count_below_one_is_refused(n):
    u = _comp("u=re(z); v=im(z)")
    for call in (lambda: circle_values(u, 0.0, 1.0, n),
                 lambda: circle_max(u, 0.0, 1.0, n=n),
                 lambda: circle_max(u, 0.0, 1.0, absolute=True, n=n)):
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            call()


def test_a_fourier_profile_takes_only_unaliased_terms():
    # the samples alias c_k with k >= FOURIER_SAMPLES // 2
    assert FOURIER_TERMS < FOURIER_SAMPLES // 2
    u = _comp("u=re(z^3+2*z); v=im(z)")
    c = fourier_profile(u, 0.0, 1.0)
    assert c[[1, 3]] == pytest.approx([2.0, 1.0], abs=1e-12)
    assert np.abs(np.delete(c, [1, 3])).max() < 1e-12
    # the coefficients as they were taken one at a time, bit for bit
    n = FOURIER_SAMPLES
    fft = np.fft.fft(circle_values(u, 0.0, 1.0, n))
    want = [complex(fft[0].real / n, 0.0)]
    want += [complex(2.0 * fft[k] / n) for k in range(1, FOURIER_TERMS + 1)]
    assert c.tobytes() == np.array(want).tobytes()
