"""Circle maxima, Fourier profiles, growth bounds, and multiplicity."""

import math

import numpy as np
import pytest

from harmonic_range.circles import (CenterNotZeroError, NonFiniteError,
                                    PositivityError, _ring, circle_max,
                                    circle_values, fourier_profile,
                                    harnack_bound_check, lemma_abs_check,
                                    multiplicity)
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
    got = circle_max(u, z, r).value
    want = brute_circle_max(u, z, r)
    assert got >= want - 1e-10
    assert abs(got - want) < 1e-8


def test_circle_max_closed_form():
    # max of Re z on |z| = r is exactly r
    u = _comp("u=re(z); v=im(z)")
    res = circle_max(u, 0.0, 3.0)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    wrapped = min(res.argmax_angle % (2.0 * math.pi),
                  2.0 * math.pi - res.argmax_angle % (2.0 * math.pi))
    assert wrapped == pytest.approx(0.0, abs=1e-7)


def test_circle_max_absolute():
    u = _comp("u=re(z); v=im(z)")
    # min of Re z is -r, so the absolute max ties at both ends
    res = circle_max(u, 1.0, 2.0, absolute=True)
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_circle_values_shape():
    u = _comp("u=re(z^2); v=im(z)")
    vals = circle_values(u, 0.0, 1.0, 128)
    assert vals.shape == (128,)
    assert np.max(vals) == pytest.approx(1.0, abs=1e-3)


def test_fourier_profile_reconstructs():
    u = _comp("u=re(z^3+2*z); v=im(z)")
    prof = fourier_profile(u, 0.3 + 0.1j, 1.2, n_terms=12)
    theta = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
    direct = np.asarray(u.value(0.3 + 0.1j + 1.2 * np.exp(1j * theta)),
                        dtype=float)
    assert np.max(np.abs(prof.reconstruct(theta) - direct)) < 1e-10


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
    """cos t on the sample grid of the unit circle, inf anywhere else."""

    def value(self, z):
        return z.real.copy() if isinstance(z, np.ndarray) else math.inf


def test_circle_max_refuses_a_refinement_point_that_overflows():
    with pytest.raises(NonFiniteError, match="radius 1 about 0"):
        circle_max(_InfBetweenSamples(), 0.0, 1.0)


def test_rings_are_shared_and_read_only():
    ring = _ring(64, 0.5)
    assert ring is _ring(64, 0.5)
    assert not ring.flags.writeable
    theta = (np.arange(64) + 0.5) * (2.0 * math.pi / 64)
    assert np.array_equal(ring, np.exp(1j * theta))
