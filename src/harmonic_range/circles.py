"""Circle-based functionals on harmonic functions.

The central quantity is M(u, z, r): the maximum of u over the circle
|w - z| = r.  Sampling is dense and deterministic, and the brackets of
the best grid peaks are then refined by a zoom of array evaluations, so
results are reproducible bit-for-bit.  Every sample and every maximum is
finite, or the call raises NonFiniteError.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from .expressions import HarmonicComponent, NonFiniteError

__all__ = [
    "PositivityError",
    "CenterNotZeroError",
    "DegenerateZeroError",
    "NonFiniteError",
    "circle_max",
    "circle_values",
    "fourier_profile",
    "harnack_bound_check",
    "lemma_abs_check",
    "multiplicity",
]

DEFAULT_SAMPLES = 4096
REFINE_PEAKS = 3          # grid peaks refined by the zoom, all in one array
MULTIPLICITY_TOL = 1e-8   # relative size of a dominant Fourier harmonic
MAX_SHRINK = 8            # radius halvings before multiplicity gives up
ZOOM_POINTS = 129         # samples across a bracket at each zoom level ...
ZOOM_LEVELS = 3           # ... which then narrows 64-fold about its best one
FOURIER_SAMPLES = 1024    # circle samples behind a Fourier profile ...
FOURIER_TERMS = 64        # ... of c_0 .. c_64, none aliased (k < 512)


class PositivityError(ValueError):
    """u fails to be positive on the disc; carries a witness point."""

    def __init__(self, witness: complex, value: float):
        super().__init__(f"u({witness}) = {value} <= 0 violates positivity")
        self.witness = witness
        self.value = value


class CenterNotZeroError(ValueError):
    pass


class DegenerateZeroError(ValueError):
    """u appears to vanish identically on the disc."""


def _require_finite(values: np.ndarray, what: str) -> None:
    """NonFiniteError if any of values, the samples named by what, is inf or NaN."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NonFiniteError(f"{bad} of {values.size} {what} are not finite: "
                             "the map overflows")


def _require_finite_number(value: complex, name: str) -> None:
    """ValueError unless the input called name, real or complex, is
    finite: a NaN or inf parameter would decide every comparison of a
    check by itself."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(value: float, name: str) -> None:
    """ValueError unless the input called name is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@cache
def _ring(n: int, offset: float = 0.0) -> np.ndarray:
    """e^{i (k + offset) 2 pi / n} for k < n: built once, shared, read-only."""
    ring = np.exp(1j * ((np.arange(n) + offset) * (2.0 * math.pi / n)))
    ring.flags.writeable = False
    return ring


def _finite_values(u: HarmonicComponent, z: np.ndarray, what: str) -> np.ndarray:
    """u at the points z, all finite: NaN has no sign and no order."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        vals = np.asarray(u.value(z), dtype=float)
    _require_finite(vals, what)
    return vals


def _finite(value: float, z: complex, r: float) -> float:
    """value, a sample or extreme of u on |w - z| = r, unless inf or NaN."""
    if not math.isfinite(value):
        raise NonFiniteError(f"u is not finite on the circle of radius {r:g} "
                             f"about {z:g}: the map overflows")
    return value


def circle_values(u: HarmonicComponent, center: complex, radius: float,
                  n: int = DEFAULT_SAMPLES) -> np.ndarray:
    """u at n >= 1 equally spaced points of |w - center| = radius, from
    angle 0."""
    _require_finite_number(center, "center")
    _require_positive(radius, "radius")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _finite_values(u, center + radius * _ring(n),
                          f"samples of u on the circle of radius {radius:g} "
                          f"about {center:g}")


def circle_max(u: HarmonicComponent, z: complex, r: float,
               absolute: bool = False, n: int = DEFAULT_SAMPLES) -> float:
    """M(u, z, r) (or M(|u|, z, r) with absolute=True), always finite: a
    grid sample or a zoom sample that is not raises NonFiniteError."""
    return _max_from(u, z, r, circle_values(u, z, r, n), absolute)


@np.errstate(over="ignore", invalid="ignore")  # overflow is a NonFiniteError
def _max_from(u: HarmonicComponent, z: complex, r: float, vals: np.ndarray,
              absolute: bool = False) -> float:
    """circle_max from vals, the samples circle_values(u, z, r, n) already
    took: one grid gives both M(u, z, r) and M(|u|, z, r)."""
    n = len(vals)
    if absolute:
        vals = np.abs(vals)
    # local maxima on the cyclic grid: no less than either neighbour
    is_peak = np.empty(n, dtype=bool)
    is_peak[0] = vals[0] >= vals[-1]
    np.greater_equal(vals[1:], vals[:-1], out=is_peak[1:])
    is_peak[:-1] &= vals[:-1] >= vals[1:]
    is_peak[-1] &= vals[-1] >= vals[0]
    # never empty: the samples are finite, so the largest is a peak
    peaks = np.nonzero(is_peak)[0]
    order = np.lexsort((peaks, -vals[peaks]))  # by value desc, then smaller angle
    top = peaks[order][:REFINE_PEAKS]
    # each peak's bracket [theta - h, theta + h] is sampled at ZOOM_POINTS
    # angles, all brackets in one array, and then narrows to one spacing
    # either side of its best sample: at n = 4096 the last spacing is
    # about 5.9e-9
    step = 2.0 * math.pi / n
    h, theta = step, top * step
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    rows = np.arange(len(top))
    for _ in range(ZOOM_LEVELS):
        angles = theta[:, None] + h * offsets
        g = np.asarray(u.value(z + r * (np.cos(angles) + 1j * np.sin(angles))),
                       dtype=float)
        mag = np.abs(g)
        # the largest |g| is inf or NaN when any sample is
        _finite(float(mag.max()), z, r)
        if absolute:
            g = mag
        best = np.argmax(g, axis=1)  # the first, the smaller angle, on ties
        theta, peak = angles[rows, best], g[rows, best]
        h *= 2.0 / (ZOOM_POINTS - 1)
    # the best zoom peak, by value desc, then smaller angle; never worse
    # than the raw grid
    return max(float(peak[np.lexsort((theta, -peak))[0]]), float(vals.max()))


def fourier_profile(u: HarmonicComponent, center: complex,
                    radius: float) -> np.ndarray:
    """c_0, ..., c_FOURIER_TERMS of u(center + radius e^{i t}) = sum_k
    Re(c_k e^{i k t}): trapezoidal-rule coefficients (spectrally accurate
    here) of the FOURIER_SAMPLES samples, which alias c_k with k >=
    FOURIER_SAMPLES // 2."""
    n = FOURIER_SAMPLES
    fft = np.fft.fft(circle_values(u, center, radius, n))
    coeffs = 2.0 * fft[:FOURIER_TERMS + 1] / n
    coeffs[0] = fft[0].real / n
    return coeffs


def _check_positive(u: HarmonicComponent, z0: complex, r: float):
    """PositivityError unless u > 0 on the closed disc |w - z0| <= r.  u
    is harmonic, so by the minimum principle its least value on the
    disc is taken on the boundary circle: the samples there decide, and
    the witness is the boundary sample where u is least."""
    vals = circle_values(u, z0, r)
    k = int(np.argmin(vals))
    if vals[k] <= 0.0:
        raise PositivityError(complex(z0 + r * _ring(DEFAULT_SAMPLES)[k]),
                              float(vals[k]))


def harnack_bound_check(u: HarmonicComponent, z0: complex, r: float,
                        s: float) -> dict:
    """Harnack inequality M(u,z0,s) <= ((r+s)/(r-s)) u(z0) for u positive
    on the disc |w - z0| <= r, which the boundary circle decides (minimum
    principle); PositivityError where it is not.

    With s = 2r/3 the right-hand factor is exactly 5.
    """
    if not (0.0 < s < r):
        raise ValueError("need 0 < s < r")
    _check_positive(u, z0, r)
    lhs = circle_max(u, z0, s)
    rhs = (r + s) / (r - s) * float(u.value(z0))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-9)}


def lemma_abs_check(u: HarmonicComponent, z0: complex, r: float) -> dict:
    """M(|u|, z0, 2r/3) <= 4 M(u, z0, r) for u vanishing at the center:
    |u(z0)| at most 1e-9 times the largest |u| on the circle."""
    vals = circle_values(u, z0, r)
    scale = _max_from(u, z0, r, vals, absolute=True)
    u0 = float(u.value(z0))
    if abs(u0) > 1e-9 * scale:
        raise CenterNotZeroError(f"u({z0}) = {u0} is not zero")
    lhs = circle_max(u, z0, 2.0 * r / 3.0, absolute=True)
    rhs = 4.0 * _max_from(u, z0, r, vals)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-9)}


def multiplicity(u: HarmonicComponent, z0: complex, r: float) -> int:
    """Order of the zero of u at z0: index of the first dominant harmonic.

    The radius is halved until the answer agrees on two consecutive radii.
    The center is a zero when |u(z0)| is at most MULTIPLICITY_TOL times
    the largest |u| on the circle of radius r.
    """
    scale = circle_max(u, z0, r, absolute=True)
    if abs(float(u.value(z0))) > MULTIPLICITY_TOL * scale:
        raise CenterNotZeroError(
            f"u({z0}) is not zero at tolerance {MULTIPLICITY_TOL}")

    def first_index(rho: float) -> int | None:
        mags = np.abs(fourier_profile(u, z0, rho))
        mags[0] = 0.0
        top = mags.max()
        if top <= 1e-300:
            return None
        idx = np.nonzero(mags > MULTIPLICITY_TOL * top)[0]
        return int(idx[0]) if idx.size else None

    prev = None
    rho = r
    for _ in range(MAX_SHRINK + 1):
        k = first_index(rho)
        if k is None:
            raise DegenerateZeroError("no dominant harmonic; u may vanish on the disc")
        if prev is not None and k == prev:
            return k
        prev = k
        rho *= 0.5
    raise DegenerateZeroError("multiplicity did not stabilize across radii")
