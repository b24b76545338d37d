"""Zero curves, local petal structure, tract counting, and dependence.

Zero thresholds here are always relative to a local oscillation scale;
the underlying sets are exact, floating point is not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .circles import (_finite_values, _require_finite_number, _require_positive,
                      _ring, circle_max, multiplicity)
from .expressions import HarmonicComponent
from .ranges import RangeSample, _blocks

__all__ = [
    "Rect",
    "ZeroCurve",
    "TractReport",
    "DependenceReport",
    "NoSignChangeError",
    "RadiusTooSmallError",
    "NotPolynomialError",
    "trace_zero_set",
    "local_structure",
    "tract_report",
    "detect_dependence",
]

BISECT_HALVINGS = 60
NEWTON_MAX_ITER = 60
TRACE_GRID_N = 48
TRACE_MAX_STEPS = 4000
CIRCLE_SCAN_N = 8192      # samples of the sign scans on a circle
RESIDUAL_TOL = 1e-6       # relative misfit of u = b v still called dependent


class NoSignChangeError(ValueError):
    """u has no sign change on the search grid."""


class RadiusTooSmallError(ValueError):
    """Sign-change count did not stabilize between R and 2R."""


class NotPolynomialError(ValueError):
    pass


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def grid(self, n: int) -> np.ndarray:
        """The n x n complex mesh over the box, indexed [x, y]."""
        xs = np.linspace(self.x0, self.x1, n)
        ys = np.linspace(self.y0, self.y1, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return X + 1j * Y

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1


@dataclass
class ZeroCurve:
    points: np.ndarray  # complex polyline vertices
    source_id: int = 0

    @property
    def arc_length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.points))))


def _bisect(g, a, b) -> np.ndarray:
    """Midpoints of sign brackets of g after BISECT_HALVINGS halvings, all
    brackets at once: a and b are arrays of real or complex ends with g(a),
    g(b) of opposite signs, and g maps an array of points to real values.
    A bracket whose midpoint is an exact zero freezes there."""
    # an end moves only to a midpoint of its own sign, so the sign of g at
    # the a ends is read once: hi holds the ends where g > 0, lo the others
    # (NaN included), and a midpoint where g = 0 moves both
    pos = g(a) > 0
    hi, lo = np.where(pos, a, b), np.where(pos, b, a)
    m = np.empty_like(hi)
    for _ in range(BISECT_HALVINGS):
        np.add(lo, hi, out=m)
        m *= 0.5
        fm = g(m)
        np.copyto(hi, m, where=fm >= 0)
        np.copyto(lo, m, where=~(fm > 0))
    return 0.5 * (lo + hi)


def _newton_to_zero(u: HarmonicComponent, z: complex,
                    target: float) -> tuple[complex, bool]:
    """Steepest-descent Newton steps onto the zero level set of u.

    Returns the last point and whether |u| reached target there; it stops
    unconverged where u or its gradient is not finite, where the gradient
    vanishes, or when the steps run out.  Overflow is one of those stops,
    so numpy's overflow warning is silenced here."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            val = float(u.value(z))
            if not math.isfinite(val):
                break  # overflow: no step can recover from NaN
            if abs(val) <= target:
                return z, True
            g = u.gradient(z)
            g2 = g.real * g.real + g.imag * g.imag
            if not math.isfinite(g2) or g2 < 1e-300:
                break
            z = z - val * g / g2
    return z, False


def _sign_change_edges(Z: np.ndarray, V: np.ndarray):
    """Both ends, as two arrays, of the edges of the mesh Z across which
    the values V change sign: horizontal edges first, then vertical ones."""
    sx = np.sign(V)
    h = sx[:-1, :] * sx[1:, :] < 0
    v = sx[:, :-1] * sx[:, 1:] < 0
    return (np.concatenate([Z[:-1, :][h], Z[:, :-1][v]]),
            np.concatenate([Z[1:, :][h], Z[:, 1:][v]]))


def _seed_zeros(u: HarmonicComponent, box: Rect) -> list[complex]:
    """Converged zeros polished from each sign-change edge of the grid."""
    Z = box.grid(TRACE_GRID_N)
    V = _finite_values(u, Z, "samples of u on the trace mesh")
    target = 1e-10 * max(float(np.max(np.abs(V))), 1e-300)
    seeds = []
    for z in _bisect(u.value, *_sign_change_edges(Z, V)).tolist():
        z, converged = _newton_to_zero(u, z, target)
        if converged:
            seeds.append(z)
    return seeds


def trace_zero_set(u: HarmonicComponent, box: Rect,
                   step: float) -> list[ZeroCurve]:
    """Predictor-corrector marching along the zero level set of u; a branch
    also ends where the corrector does not converge."""
    _require_positive(step, "step")
    # chained comparisons are false for NaN as well
    if not (-math.inf < box.x0 < box.x1 < math.inf
            and -math.inf < box.y0 < box.y1 < math.inf):
        raise ValueError(f"box must be finite with x0 < x1 and y0 < y1, "
                         f"got {box}")
    seeds = _seed_zeros(u, box)
    if not seeds:
        return []
    scale = max(circle_max(u, complex((box.x0 + box.x1) / 2,
                                      (box.y0 + box.y1) / 2),
                           max(box.x1 - box.x0, box.y1 - box.y0) / 2,
                           absolute=True, n=512), 1e-300)
    target = 1e-10 * scale
    curves: list[ZeroCurve] = []

    def covered(z: complex) -> bool:
        for c in curves:
            if np.min(np.abs(c.points - z)) < 2.0 * step:
                return True
        return False

    seeds = sorted(seeds, key=lambda z: (z.real, z.imag))
    for sid, seed in enumerate(seeds):
        if covered(seed):
            continue
        halves = []
        for direction in (1.0, -1.0):
            pts = [seed]
            z = seed
            prev_tangent = None
            for _ in range(TRACE_MAX_STEPS):
                g = u.gradient(z)
                g2 = abs(g)
                if g2 < 1e-12 * scale:
                    break  # near-critical point; stop this branch
                tangent = 1j * g / g2
                if prev_tangent is None:
                    tangent *= direction
                elif (tangent * prev_tangent.conjugate()).real < 0:
                    tangent = -tangent  # keep a consistent orientation
                prev_tangent = tangent
                z_new, converged = _newton_to_zero(u, z + step * tangent, target)
                if not converged or not box.contains(z_new):
                    break
                if abs(z_new - z) > 3.0 * step:
                    break
                pts.append(z_new)
                z = z_new
                if len(pts) > 3 and abs(z - seed) < 0.5 * step:
                    break  # closed loop
            halves.append(pts)
        backward = list(reversed(halves[1][1:]))
        poly = np.array(backward + halves[0], dtype=complex)
        if len(poly) >= 2:
            curves.append(ZeroCurve(points=poly, source_id=sid))
    return curves


def local_structure(u: HarmonicComponent, z0: complex,
                    probe_radius: float = 1e-2) -> dict:
    """Multiplicity n, the 2n zero-ray angles on a small circle, and the
    alternating sector signs between them."""
    _require_finite_number(z0, "z0")
    _require_positive(probe_radius, "probe_radius")
    m = CIRCLE_SCAN_N
    # half-step offset keeps symmetric zero rays off the sample grid
    sx = np.sign(_finite_values(u, z0 + probe_radius * _ring(m, 0.5),
                                "samples of u on the probe circle"))
    n = multiplicity(u, z0, probe_radius)

    def on_ray(t):
        return u.value(z0 + probe_radius * np.exp(1j * t))

    flips = np.nonzero(sx * np.roll(sx, -1) < 0)[0]
    lo = (flips + 0.5) * (2.0 * math.pi / m)
    ends = _bisect(on_ray, lo, lo + 2.0 * math.pi / m)
    rays = sorted((ends % (2.0 * math.pi)).tolist())
    signs = [1 if on_ray(0.5 * (a + b)) > 0 else -1
             for a, b in zip(rays, rays[1:] + [rays[0] + 2.0 * math.pi])]
    return {"n": n, "ray_angles": rays, "sector_signs": signs}


@dataclass
class TractReport:
    degree: int
    radius: float
    sign_changes: int
    components: int

    def to_dict(self) -> dict:
        return asdict(self)


def _sign_changes_on_circle(u: HarmonicComponent, R: float) -> int:
    vals = _finite_values(u, R * _ring(CIRCLE_SCAN_N, 0.5),
                          f"samples of u on |z| = {R:g}")
    sx = np.sign(vals)
    nz = sx[sx != 0]
    if nz.size == 0:
        return 0
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def tract_report(u: HarmonicComponent, R: float) -> TractReport:
    """Count unbounded sign components of a harmonic polynomial outside a
    large disc via boundary sign changes; 2n of them for degree n."""
    _require_positive(R, "radius R")
    deg = u.degree()
    if deg is None:
        raise NotPolynomialError("component is not polynomial")
    if deg == 0:
        raise NotPolynomialError("component is constant")
    c1 = _sign_changes_on_circle(u, R)
    c2 = _sign_changes_on_circle(u, 2.0 * R)
    if c1 != c2:
        raise RadiusTooSmallError(
            f"sign changes differ at R={R} ({c1}) and 2R ({c2}); increase R")
    return TractReport(degree=deg, radius=R, sign_changes=c1, components=c1)


@dataclass
class DependenceReport:
    b: float
    residual: float
    dependent: bool
    bound_a: float
    hypothesis_holds: bool = True
    hypothesis_witness: dict | None = None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def detect_dependence(samples: RangeSample, a: float,
                      R: float) -> DependenceReport:
    """Check the cone hypothesis |u| <= a|v| beyond radius R and fit the
    least-squares coefficient b in u = b v, on a sample that is finite,
    as every RangeSample is.

    The points beyond R are decided by RangeSample.beyond: a generated
    point is beyond R when the radius it is generated at exceeds R, and
    no point is computed for it (a point on the circle |z| = R is not
    beyond R); an explicit point when np.abs(z) > R.  A sample with no
    point beyond R is refused.  The elementwise passes run in blocks.  The
    values u and v beyond R are held whole (16 bytes a far point), and so
    is each of the products v*v and u*v in turn (8 more): numpy's
    pairwise sum over a whole product has a fixed order, while np.dot's
    BLAS sums, and so b and the residual, change with its thread count."""
    _require_finite_number(a, "a")
    _require_finite_number(R, "R")
    blocks = list(_blocks(samples.count))
    masks = [samples.beyond(R, blk) for blk in blocks]
    counts = [int(np.count_nonzero(mask)) for mask in masks]
    n_far = sum(counts)
    if not n_far:
        raise ValueError("samples do not cover |z| > R")
    u, v = np.empty(n_far), np.empty(n_far)  # the values beyond R
    scale, k = 1e-300, 0
    for blk, mask, count in zip(blocks, masks, counts):
        if count:
            fu, fv = u[k:k + count], v[k:k + count]
            fu[:], fv[:] = samples.w.real[blk][mask], samples.w.imag[blk][mask]
            scale = max(scale, float(np.maximum(np.abs(fu), np.abs(fv)).max()))
            k += count
    slack = 1e-9 * scale

    vv = float(np.add.reduce(v * v))
    degenerate = vv <= (1e-12 * scale) ** 2 * n_far
    b = 0.0 if degenerate else float(np.add.reduce(u * v) / vv)
    hyp, residual = True, 0.0
    for fb in _blocks(n_far):
        hyp = hyp and not bool(np.any(np.abs(u[fb]) > a * np.abs(v[fb]) + slack))
        if not degenerate:
            residual = max(residual, float(np.max(np.abs(u[fb] - b * v[fb]))))
    witness = None
    if not hyp:
        # the first far point where |u| - a|v| is largest, over all blocks
        worst = None
        for fb in _blocks(n_far):
            excess = np.abs(u[fb]) - a * np.abs(v[fb])
            j = int(np.argmax(excess))
            if worst is None or excess[j] > worst[0]:
                worst = (excess[j], fb.start + j)
        k = j = worst[1]
        for blk, mask, count in zip(blocks, masks, counts):
            if j < count:
                break
            j -= count
        at = blk.start + int(np.flatnonzero(mask)[j])
        zf = samples.points(slice(at, at + 1))[0]
        witness = {"z": [zf.real, zf.imag], "u": float(u[k]), "v": float(v[k])}
    if degenerate:
        return DependenceReport(b=0.0, residual=math.inf, dependent=False,
                                bound_a=a, hypothesis_holds=hyp,
                                hypothesis_witness=witness, degenerate=True)
    residual /= scale
    return DependenceReport(b=b, residual=residual,
                            dependent=hyp and residual <= RESIDUAL_TOL,
                            bound_a=a, hypothesis_holds=hyp,
                            hypothesis_witness=witness)
