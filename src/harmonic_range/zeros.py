"""Zero curves, local petal structure, tract counting, and dependence.

Zero thresholds here are always relative to a local oscillation scale;
the underlying sets are exact, floating point is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circles import circle_max, multiplicity
from .expressions import HarmonicComponent, HarmonicMap
from .lewis import Rect, _newton_to_zero
from .ranges import RangeSample
from .reports import TheoremVerdict

__all__ = [
    "ZeroCurve",
    "TractReport",
    "DependenceReport",
    "RadiusTooSmallError",
    "NotPolynomialError",
    "trace_zero_set",
    "local_structure",
    "cleaning_check",
    "tract_report",
    "detect_dependence",
]


class RadiusTooSmallError(ValueError):
    """Sign-change count did not stabilize between R and 2R."""


class NotPolynomialError(ValueError):
    pass


@dataclass
class ZeroCurve:
    points: np.ndarray  # complex polyline vertices
    source_id: int = 0

    @property
    def arc_length(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return float(np.sum(np.abs(np.diff(self.points))))


def _seed_zeros(u: HarmonicComponent, box: Rect, grid_n: int) -> list[complex]:
    xs, ys = box.grid(grid_n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = X + 1j * Y
    V = np.asarray(u.value(Z), dtype=float)
    scale = max(float(np.max(np.abs(V))), 1e-300)
    target = 1e-10 * scale
    seeds = []
    sx = np.sign(V)
    for (i0, j0, i1, j1) in _sign_change_edges(sx):
        a, b = complex(Z[i0, j0]), complex(Z[i1, j1])
        fa = float(u.value(a))
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(u.value(m))
            if fm == 0.0:
                a = b = m
                break
            if (fa > 0) == (fm > 0):
                a, fa = m, fm
            else:
                b = m
        seeds.append(_newton_to_zero(u, 0.5 * (a + b), target))
    return seeds


def _sign_change_edges(sx: np.ndarray):
    n, m = sx.shape
    h = np.nonzero(sx[:-1, :] * sx[1:, :] < 0)
    for i, j in zip(*h):
        yield (int(i), int(j), int(i) + 1, int(j))
    v = np.nonzero(sx[:, :-1] * sx[:, 1:] < 0)
    for i, j in zip(*v):
        yield (int(i), int(j), int(i), int(j) + 1)


def trace_zero_set(u: HarmonicComponent, box: Rect, step: float,
                   grid_n: int = 48, max_steps: int = 4000,
                   merge_dist: float | None = None) -> list[ZeroCurve]:
    """Predictor-corrector marching along the zero level set of u."""
    if step <= 0:
        raise ValueError("step must be positive")
    seeds = _seed_zeros(u, box, grid_n)
    if not seeds:
        return []
    scale = max(circle_max(u, complex((box.x0 + box.x1) / 2,
                                      (box.y0 + box.y1) / 2),
                           max(box.x1 - box.x0, box.y1 - box.y0) / 2,
                           absolute=True, n=512).value, 1e-300)
    target = 1e-10 * scale
    if merge_dist is None:
        merge_dist = 2.0 * step

    curves: list[ZeroCurve] = []

    def covered(z: complex) -> bool:
        for c in curves:
            if np.min(np.abs(c.points - z)) < merge_dist:
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
            for _ in range(max_steps):
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
                z_pred = z + step * tangent
                z_new = _newton_to_zero(u, z_pred, target)
                if not box.contains(z_new):
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
    n = multiplicity(u, z0, probe_radius)
    m = 8192
    # half-step offset keeps symmetric zero rays off the sample grid
    theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    vals = np.asarray(u.value(z0 + probe_radius * np.exp(1j * theta)),
                      dtype=float)
    sx = np.sign(vals)
    rays = []
    for k in range(m):
        a, b = sx[k], sx[(k + 1) % m]
        if a * b < 0:
            # bisect the angle bracket
            lo, hi = theta[k], theta[k] + 2.0 * math.pi / m
            flo = float(u.value(z0 + probe_radius * np.exp(1j * lo)))
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = float(u.value(z0 + probe_radius * np.exp(1j * mid)))
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (flo > 0) == (fm > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            rays.append(0.5 * (lo + hi) % (2.0 * math.pi))
    rays.sort()
    signs = []
    for a, b in zip(rays, rays[1:] + [rays[0] + 2.0 * math.pi]):
        mid = 0.5 * (a + b)
        signs.append(1 if float(u.value(z0 + probe_radius * np.exp(1j * mid))) > 0 else -1)
    return {"n": n, "ray_angles": rays, "sector_signs": signs}


def cleaning_check(U, V, r: float, tol: float = 1e-6,
                   grid_n: int = 201) -> TheoremVerdict:
    """On D(0,r): zero sets of U and V coincide and U*V has constant sign.

    U, V are callables (harmonic components or rescaled accessors).
    """
    xs = np.linspace(-r, r, grid_n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = (X + 1j * Y).ravel()
    Z = Z[np.abs(Z) <= r]
    Uv = np.asarray(U(Z), dtype=float)
    Vv = np.asarray(V(Z), dtype=float)
    sU = max(float(np.max(np.abs(Uv))), 1e-300)
    sV = max(float(np.max(np.abs(Vv))), 1e-300)
    u0 = abs(float(np.asarray(U(np.array(0.0j))).ravel()[0]))
    v0 = abs(float(np.asarray(V(np.array(0.0j))).ravel()[0]))
    if u0 > tol * sU or v0 > tol * sV:
        raise ValueError("U and V must both vanish at the origin")

    # matched-resolution zero bands: |.| below a grid-scale threshold
    band = 4.0 * r / grid_n
    gU = np.abs(np.asarray(_grad_mag(U, Z, band), dtype=float))
    tU = band * np.maximum(gU, tol * sU / band)
    zU = np.abs(Uv) <= tU
    gV = np.abs(np.asarray(_grad_mag(V, Z, band), dtype=float))
    tV = band * np.maximum(gV, tol * sV / band)
    zV = np.abs(Vv) <= tV

    witnesses = []
    for bad, kind in ((zU & ~zV, "zeroU-not-zeroV"), (zV & ~zU, "zeroV-not-zeroU")):
        for k in np.nonzero(bad)[0][:8]:
            witnesses.append({"z": [Z[k].real, Z[k].imag],
                              "U": float(Uv[k]), "V": float(Vv[k]), "kind": kind})
    coincide = not witnesses

    prod = Uv * Vv
    sig = tol * sU * sV
    pos = bool(np.any(prod > sig))
    neg = bool(np.any(prod < -sig))
    sign_const = not (pos and neg)
    if not sign_const:
        kp = int(np.argmax(prod))
        kn = int(np.argmin(prod))
        for k in (kp, kn):
            witnesses.append({"z": [Z[k].real, Z[k].imag],
                              "U": float(Uv[k]), "V": float(Vv[k]),
                              "kind": "sign-flip"})

    sign = "UV>=0" if pos and sign_const else ("UV<=0" if neg and sign_const else "degenerate")
    return TheoremVerdict(
        theorem="cleaning",
        hypothesis_holds=True,
        conclusion_holds=coincide and sign_const,
        conclusion_witnesses=witnesses,
        params={"r": r, "tol": tol, "sign": sign},
        sampling={"grid_n": grid_n},
    )


def _grad_mag(func, Z: np.ndarray, h: float) -> np.ndarray:
    """Crude finite-difference gradient magnitude for threshold scaling."""
    f0 = np.asarray(func(Z), dtype=float)
    fx = np.asarray(func(Z + h), dtype=float)
    fy = np.asarray(func(Z + 1j * h), dtype=float)
    return np.sqrt((fx - f0) ** 2 + (fy - f0) ** 2) / h


@dataclass
class TractReport:
    degree: int
    radius: float
    sign_changes: int
    components: int

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "radius": self.radius,
            "sign_changes": self.sign_changes,
            "components": self.components,
        }


def _sign_changes_on_circle(u: HarmonicComponent, R: float,
                            n: int = 8192) -> int:
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    vals = np.asarray(u.value(R * np.exp(1j * theta)), dtype=float)
    sx = np.sign(vals)
    nz = sx[sx != 0]
    if nz.size == 0:
        return 0
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def tract_report(u: HarmonicComponent, R: float) -> TractReport:
    """Count unbounded sign components of a harmonic polynomial outside a
    large disc via boundary sign changes; 2n of them for degree n."""
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
        return {
            "b": self.b,
            "residual": self.residual,
            "dependent": self.dependent,
            "bound_a": self.bound_a,
            "hypothesis_holds": self.hypothesis_holds,
            "hypothesis_witness": self.hypothesis_witness,
            "degenerate": self.degenerate,
        }


def detect_dependence(f: HarmonicMap, samples: RangeSample, a: float,
                      R: float, residual_tol: float = 1e-6) -> DependenceReport:
    """Check the cone hypothesis |u| <= a|v| beyond radius R and fit the
    least-squares coefficient b in u = b v."""
    far = np.abs(samples.z) > R
    if not np.any(far):
        raise ValueError("samples do not cover |z| > R")
    u = samples.w.real[far]
    v = samples.w.imag[far]
    scale = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1e-300)
    slack = 1e-9 * scale

    bad = np.abs(u) > a * np.abs(v) + slack
    hyp = not bool(np.any(bad))
    witness = None
    if not hyp:
        k = int(np.argmax(np.abs(u) - a * np.abs(v)))
        zf = samples.z[far][k]
        witness = {"z": [zf.real, zf.imag], "u": float(u[k]), "v": float(v[k])}

    vv = float(np.dot(v, v))
    if vv <= (1e-12 * scale) ** 2 * v.size:
        return DependenceReport(b=0.0, residual=math.inf, dependent=False,
                                bound_a=a, hypothesis_holds=hyp,
                                hypothesis_witness=witness, degenerate=True)
    b = float(np.dot(u, v) / vv)
    residual = float(np.max(np.abs(u - b * v))) / scale
    return DependenceReport(b=b, residual=residual,
                            dependent=hyp and residual <= residual_tol,
                            bound_a=a, hypothesis_holds=hyp,
                            hypothesis_witness=witness)
