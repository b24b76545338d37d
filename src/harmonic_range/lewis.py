"""Lewis discs and the rescaling construction.

A Lewis disc for a harmonic function u is a disc D(z, r) with u(z) = 0
whose oscillation is controlled in two ways: the maximum of |u| on the
disc boundary is comparable to the maximum of u on the 3/4 circle
(doubling), and the growth of u from the origin is captured on the disc
(growth).  Rescaling u and its partner v by the disc produces harmonic
functions on the unit disc with normalized oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circles import NonFiniteError, circle_max
from .expressions import HarmonicComponent, HarmonicMap
from .reports import TheoremVerdict
from .zeros import NoSignChangeError, Rect, _bisect, _sign_change_edges

__all__ = [
    "LewisDisc",
    "RescaledMap",
    "ConstantComponentError",
    "lewis_disc_search",
    "rescaled_sequence",
    "rescaled_range_check",
]

CENTER_GRID_N = 96
SEARCH_SAMPLES = 1024
PRUNE_MARGIN = 1.05       # the sampled circle maximum is only nearly monotone
# the certificates and the range check of a rescaled map use one mesh
CHECK_GRID_N = 101
CHECK_EPS = 1e-3
# rescaled directions may stray this far from the cone over D_f ...
RESCALED_ANGLE_TOL = math.radians(5.0)
# ... and values below this fraction of the largest count as zero
RESCALED_ZERO_TOL = 1e-2


class ConstantComponentError(ValueError):
    """The component is (numerically) constant."""


@dataclass
class LewisDisc:
    center: complex
    radius: float
    M: float                  # M(|u|, center, radius)
    growth_ratio: float       # M(u, 0, R/2) / M(u, center, radius)
    doubling_ratio: float     # M(|u|, center, radius) / M(u, center, 3r/4)
    domain_radius: float
    budget_met: bool = True

    @property
    def empirical_C0(self) -> float:
        return max(self.growth_ratio, self.doubling_ratio)

    def to_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "M": self.M,
            "growth_ratio": self.growth_ratio,
            "doubling_ratio": self.doubling_ratio,
            "empirical_C0": self.empirical_C0,
            "domain_radius": self.domain_radius,
            "budget_met": self.budget_met,
        }


def _check_points() -> np.ndarray:
    """The points of the CHECK_GRID_N mesh in |z| <= 1 - CHECK_EPS."""
    r = 1.0 - CHECK_EPS
    Z = Rect(-r, r, -r, r).grid(CHECK_GRID_N).ravel()
    return Z[np.abs(Z) <= r]


def _candidate_centers(u: HarmonicComponent, R: float) -> list[complex]:
    """Points of {u = 0} spread over the box inscribed in D(0, R): one
    zero bisected on every sign-change edge of a CENTER_GRID_N mesh, all
    edges at once."""
    half = R / math.sqrt(2.0)
    Z = Rect(-half, half, -half, half).grid(CENTER_GRID_N)
    return _bisect(u.value, *_sign_change_edges(Z, u.value(Z))).tolist()


def lewis_disc_search(u: HarmonicComponent, R: float,
                      C0_budget: float = 100.0) -> LewisDisc:
    """Search discs centered on the zero set with dyadic radii; return the
    one minimizing max(doubling_ratio, growth_ratio)."""
    if R <= 0:
        raise ValueError("R must be positive")
    M_half = circle_max(u, 0.0, R / 2.0).value
    osc = circle_max(u, 0.0, R / 2.0, absolute=True).value
    if not (math.isfinite(M_half) and math.isfinite(osc)):
        raise NonFiniteError(
            f"u overflows on |z| = {R / 2.0:g}: M(u) = {M_half}, "
            f"M(|u|) = {osc}")
    if osc <= 1e-14:
        raise ConstantComponentError("u is constant at this scale")

    centers = _candidate_centers(u, R)
    theta = np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES)
    ring = np.exp(1j * theta)

    best = None  # ((score, r, center key), center, r)
    for z in centers:
        zval = abs(float(u.value(z)))
        max_r = R - abs(z)
        for j in range(1, 21):
            r = R * 2.0 ** (-j)
            if r > max_r:
                continue
            circ = z + r * ring
            vals = np.asarray(u.value(circ), dtype=float)
            M_u = float(vals.max())
            # maximum principle: M(u, z, r) does not grow as r shrinks, so
            # once the growth ratio alone loses, no smaller radius can win
            if (best is not None and M_u > 0
                    and M_half / M_u > PRUNE_MARGIN * best[0][0]):
                break
            M_abs = max(M_u, -float(vals.min()))
            if M_abs <= 0 or zval > 1e-9 * M_abs:
                continue
            vals34 = np.asarray(u.value(z + 0.75 * r * ring), dtype=float)
            M_34 = float(vals34.max())
            if M_34 <= 0 or M_u <= 0:
                continue
            doubling = M_abs / M_34
            growth = M_half / M_u
            score = max(doubling, growth)
            key = (score, r, (z.real, z.imag))
            if best is None or key < best[0]:
                best = (key, z, r)
    if best is None:
        raise NoSignChangeError("no admissible disc found on the zero set")
    _, z, r = best
    # refine the winner with the precise circle maximum
    M_abs = circle_max(u, z, r, absolute=True).value
    M_34 = circle_max(u, z, 0.75 * r).value
    M_u = circle_max(u, z, r).value
    doubling = M_abs / M_34
    growth = M_half / M_u
    return LewisDisc(center=z, radius=r, M=M_abs,
                     growth_ratio=growth, doubling_ratio=doubling,
                     domain_radius=R,
                     budget_met=max(doubling, growth) <= C0_budget)


@dataclass
class RescaledMap:
    """Unit-disc harmonic pair built from a Lewis disc of the source map."""

    source: HarmonicMap
    disc: LewisDisc

    def U(self, z):
        w = self.disc.center + self.disc.radius * np.asarray(z, dtype=complex)
        return self.source.u.value(w) / self.disc.M

    def V(self, z):
        w = self.disc.center + self.disc.radius * np.asarray(z, dtype=complex)
        return self.source.v.value(w) / self.disc.M

    def value(self, z):
        return self.U(z) + 1j * self.V(z)

    def certify(self) -> dict:
        """Check the three rescaling certificates on a grid."""
        Uv = np.asarray(self.U(_check_points()), dtype=float)
        u0 = abs(float(np.asarray(self.U(np.array(0.0j))).ravel()[0]))
        sup_abs = float(np.max(np.abs(Uv)))
        m34 = circle_max(self.source.u, self.disc.center,
                         0.75 * self.disc.radius).value / self.disc.M
        C0 = self.disc.empirical_C0
        return {
            "center_zero": u0,
            "center_zero_ok": u0 <= 1e-9,
            "sup_abs": sup_abs,
            "sup_abs_ok": sup_abs <= 1.0 + 1e-6,
            "M_three_quarters": m34,
            "lower_bound_ok": m34 >= 1.0 / C0 - 1e-12,
            "empirical_C0": C0,
        }

    def to_dict(self) -> dict:
        return {"disc": self.disc.to_dict(), "certificates": self.certify()}


def rescaled_sequence(f: HarmonicMap, R_schedule,
                      C0_budget: float = 100.0) -> list[RescaledMap]:
    """One rescaled map per domain radius; M_n is nondecreasing along an
    increasing schedule for nonconstant u."""
    R_schedule = list(R_schedule)
    if any(b <= a for a, b in zip(R_schedule, R_schedule[1:])):
        raise ValueError("R_schedule must be increasing")
    out = []
    for R in R_schedule:
        disc = lewis_disc_search(f.u, R, C0_budget=C0_budget)
        out.append(RescaledMap(source=f, disc=disc))
    return out


def rescaled_range_check(rm: RescaledMap, D_f) -> TheoremVerdict:
    """Directions of the rescaled range must lie in the cone over D_f, and
    the zero-set inclusions {U=0} within {V=0} within {U>=0} must hold."""
    Z = _check_points()
    Uv = np.asarray(rm.U(Z), dtype=float)
    Vv = np.asarray(rm.V(Z), dtype=float)
    W = Uv + 1j * Vv
    mods = np.abs(W)
    top = float(mods.max()) if mods.size else 0.0
    witnesses = []

    nz = mods > RESCALED_ZERO_TOL * max(top, 1e-300)
    astray = np.zeros(Z.shape, dtype=bool)
    astray[nz] = D_f.distance(np.angle(W[nz])) > RESCALED_ANGLE_TOL

    tU = RESCALED_ZERO_TOL * max(float(np.max(np.abs(Uv))), 1e-300)
    tV = RESCALED_ZERO_TOL * max(float(np.max(np.abs(Vv))), 1e-300)
    zU = np.abs(Uv) <= tU
    zV = np.abs(Vv) <= tV
    incl1 = zU & ~zV          # {U=0} not within {V=0}
    incl2 = zV & (Uv < -tU)   # {V=0} not within {U>=0}
    for bad, kind, cap in ((astray, "direction", 16),
                           (incl1, "zeroU-not-zeroV", 8),
                           (incl2, "zeroV-not-Upos", 8)):
        for k in np.nonzero(bad)[0][:cap]:
            witnesses.append({"z": [Z[k].real, Z[k].imag],
                              "w": [W[k].real, W[k].imag], "kind": kind})

    holds = not witnesses
    return TheoremVerdict(
        theorem="rescaled_range",
        hypothesis_holds=True,
        hypothesis_witnesses=[],
        conclusion_holds=holds,
        conclusion_witnesses=witnesses,
        params={"angle_tol": RESCALED_ANGLE_TOL, "zero_tol": RESCALED_ZERO_TOL,
                "disc": rm.disc.to_dict()},
        sampling={"grid_n": CHECK_GRID_N, "eps": CHECK_EPS},
    )
