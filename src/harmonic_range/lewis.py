"""Lewis discs and the rescaling construction.

A Lewis disc for a harmonic function u is a disc D(z, r) with u(z) = 0
whose oscillation is controlled in two ways: the maximum of |u| on the
disc boundary is comparable to the maximum of u on the 3/4 circle
(doubling), and the growth of u from the origin is captured on the disc
(growth).  Rescaling u and its partner v by the disc produces harmonic
functions on the unit disc with normalized oscillation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circles import (_finite, _finite_values, _max_from, _require_positive,
                      _ring, circle_max, circle_values)
from .expressions import HarmonicComponent, HarmonicMap, _terms
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
# exponential polynomials of at most this many plus one Taylor coefficients
# in all (polynomials up to this degree) are sampled on the scan circles from
# a term table of at most (2 * 64 + 2) x SEARCH_SAMPLES doubles, about 1 MB
TAYLOR_MAX_DEGREE = 64
# per term, the factors e^{L(c)} and e^{alpha r e^{it}} of a scan circle stay
# within e^{+-700}, normal floats (the float range ends near e^{+-709})
EXP_FACTOR_MAX = 700.0
# the sampled circle maximum is only nearly monotone in r: a disc whose
# growth ratio alone exceeds PRUNE_MARGIN times the best score is pruned
# with every smaller radius about its center.  Under that near-monotonicity
# each pruned disc scores above the best disc found so far, so the winner
# is the least _pick_key over all admissible discs, in whatever order the
# discs are scanned
PRUNE_MARGIN = 1.05
# centers sampled as one block of the radius scan, one (k, SEARCH_SAMPLES)
# array: the first k rows of the sampler's one scan buffer
SCAN_BLOCK = 64
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
    V = _finite_values(u, Z, "samples of u on the center mesh")
    return _bisect(u.value, *_sign_change_edges(Z, V)).tolist()


def _scan_sampler(u: HarmonicComponent, centers: list[complex]):
    """A function of (idx, r): the values of u on the circles of radius r
    about centers[idx], one row of SEARCH_SAMPLES values per index of the
    index array idx (one index gives one row), at the angles
    2 pi n / SEARCH_SAMPLES.  A block of circles is one array operation.
    The term table writes a block of 2 to SCAN_BLOCK rows into one
    (SCAN_BLOCK, SEARCH_SAMPLES) buffer of the sampler and returns a view
    of it, valid until the next call: a search makes one sampler, so its
    products fault their pages in once.  One row is a fresh array.

    Two samplers.  Term table, when _terms splits F into terms
    P_j(z) e^{alpha_j z}, polynomials (alpha = 0) and exp(alpha z + beta)
    among them: F(c + r e^{it}) sums b_jk r^k e^{ikt} e^{alpha_j r e^{it}},
    with b_jk the Taylor coefficients of P_j at c and e^{L(c)} of its exp
    factors folded in.  A block is one matrix product of the reals
    Re b_jk r^k, Im b_jk r^k of its centers with [Re; Im] of
    e^{ikt} e^{alpha_j r e^{it}}: e^{ikt} fixed, times one wave per radius.
    The rounding is relative to the sum of the terms' sizes; for a
    polynomial |b_k| r^k <= max |F| on the circle (Cauchy), so a sum
    overflows only where F comes within a factor 2d+2 of the float range.
    A radius where a wave, and a row where a folded e^{L(c)}, leaves
    e^{+-EXP_FACTOR_MAX} (normal floats) is evaluated directly.

    Direct evaluation of the tree, for everything else: exp of other
    arguments, and more than TAYLOR_MAX_DEGREE + 1 coefficients.
    """
    C = np.array(centers, dtype=complex)
    ring = _ring(SEARCH_SAMPLES)

    def direct(idx, r: float) -> np.ndarray:
        return np.asarray(u.value(C[idx, None] + r * ring), dtype=float)

    terms = _terms(u.expr, C, TAYLOR_MAX_DEGREE)
    if terms is None:
        return direct
    # per center, the reals that multiply a table [Re e; Im e] into the part
    # of u of sum_k b_k e_k: Re(b e) = Re b Re e - Im b Im e and
    # Im(b e) = Im b Re e + Re b Im e
    b = np.concatenate([c for c, _ in terms.values()])
    parts = (b.real, -b.imag) if u.part == "real" else (b.imag, b.real)
    rows = np.ascontiguousarray(np.concatenate(parts).T)
    kk = np.tile(np.concatenate([np.arange(len(c)) for c, _ in terms.values()]), 2)
    normal = np.max([np.broadcast_to(m, C.shape) for _, m in terms.values()],
                    axis=0) <= EXP_FACTOR_MAX
    top = max(abs(alpha) for alpha in terms)
    # e^{ikt} from the ring's own entries: k n reduced mod SEARCH_SAMPLES
    powers = {alpha: ring[np.outer(np.arange(len(c)), np.arange(SEARCH_SAMPLES))
                          % SEARCH_SAMPLES] for alpha, (c, _) in terms.items()}

    out = np.empty((SCAN_BLOCK, SEARCH_SAMPLES))

    @functools.lru_cache(maxsize=2)
    def table(r: float) -> np.ndarray:
        # the terms' e^{ikt} e^{alpha r e^{it}}; the same at every r if alpha = 0
        e = np.concatenate([p * np.exp(alpha * r * ring) if alpha else p
                            for alpha, p in powers.items()])
        return np.concatenate([e.real, e.imag])

    def from_table(idx, r: float) -> np.ndarray:
        if top * r > EXP_FACTOR_MAX:
            return direct(idx, r)
        k = np.size(idx)
        dst = out[:k] if 1 < k <= len(out) else None
        vals = np.matmul(rows[idx] * r ** kk, table(r if top else 0.0), out=dst)
        off = ~normal[idx]
        if off.any():
            vals[off] = direct(np.asarray(idx)[off], r)
        return vals
    return from_table


def _finite_rows(centers: np.ndarray, r: float, *extremes: np.ndarray) -> None:
    """_finite for a block of circles of radius r about centers, given the
    extremes of their samples: the first circle with an extreme that is inf
    or NaN raises NonFiniteError."""
    ok = np.isfinite(extremes).all(axis=0)
    if not ok.all():
        _finite(math.nan, complex(centers[np.argmin(ok)]), r)  # raises


def _pick_key(score: float, r: float, z: complex) -> tuple:
    """The order in which the scan prefers a disc: by its score rounded to
    12 significant digits, then by smaller radius, then by center.  Discs
    that tie in exact arithmetic (the translates of a disc of im(exp z)
    along its zero lines, every disc of radius R/2 of a linear map, the
    mirror twins of re(z^2)) then tie in the key too, and the pick does
    not depend on the last bits of a sampler's rounding: the products of
    the term table may sum in another order than direct evaluation, or at
    another BLAS thread count; the reported values come from direct
    evaluation, in a fixed order."""
    return (float(f"{score:.11e}"), r, (z.real, z.imag))


# overflow is reported by NonFiniteError, not by numpy warnings, and a
# ratio over a maximum <= 0 is masked out where it is formed
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def lewis_disc_search(u: HarmonicComponent, R: float,
                      C0_budget: float = 100.0) -> LewisDisc:
    """Search discs centered on the zero set with dyadic radii; return the
    one minimizing max(doubling_ratio, growth_ratio).

    The scan samples each circle at SEARCH_SAMPLES points, with the sampler
    _scan_sampler picks for u: an exponential polynomial (a polynomial or
    exp(alpha z + beta) among them) from the Taylor coefficients of its
    terms at the center times a table per radius, any other component by
    direct evaluation.  It walks the 20 dyadic radii from large to small;
    at each radius the centers where the disc fits and that are not yet
    pruned are sampled in blocks of at most SCAN_BLOCK, into one scan
    buffer, and each block is pruned against the best disc of the blocks
    before it.  A circle that is not finite raises NonFiniteError, the
    first one in (radius, block) order.  Of the scanned discs the least
    _pick_key wins: ties in the score to 12 significant digits go to the
    smaller radius, then to the smaller center.  The winner is refined as
    circle_max refines, by direct evaluation, and every reported value
    comes from that refinement.  Each refined circle is sampled once:
    |z| = R/2 for the constancy test and M(u, 0, R/2), the winner's circle
    for M(|u|, z, r) and M(u, z, r).
    """
    _require_positive(R, "R")
    _require_positive(C0_budget, "C0_budget")
    half = circle_values(u, 0.0, R / 2.0)
    # relative to the samples' size, so that the test does not change when
    # u is scaled; u == 0 is constant too
    if np.ptp(half) <= 1e-12 * np.max(np.abs(half)):
        raise ConstantComponentError("u is constant at this scale")
    M_half = _max_from(u, 0.0, R / 2.0, half).value

    centers = _candidate_centers(u, R)
    C = np.array(centers, dtype=complex)
    zvals = np.abs(_finite_values(u, C, "values of u at the candidate centers"))
    sample = _scan_sampler(u, centers)
    room = R - np.abs(C)                  # the largest radius that fits
    alive = np.ones(len(centers), dtype=bool)   # not pruned

    best = None  # the least _pick_key so far
    for j in range(1, 21):
        r = R * 2.0 ** (-j)
        level = np.flatnonzero(alive & (r <= room))
        for start in range(0, len(level), SCAN_BLOCK):
            idx = level[start:start + SCAN_BLOCK]
            vals = sample(idx, r)
            M_u, M_lo = vals.max(axis=1), vals.min(axis=1)
            _finite_rows(C[idx], r, M_u, M_lo)
            # maximum principle: M(u, z, r) does not grow as r shrinks, so
            # once the growth ratio alone loses, no smaller radius can win
            keep = np.ones(len(idx), dtype=bool)
            if best is not None:
                keep = ~((M_u > 0) & (M_half / M_u > PRUNE_MARGIN * best[0]))
                alive[idx[~keep]] = False
            M_abs = np.maximum(M_u, -M_lo)
            ok = keep & (M_abs > 0) & (zvals[idx] <= 1e-9 * M_abs)
            if not ok.any():
                continue
            idx, M_u, M_abs = idx[ok], M_u[ok], M_abs[ok]
            M_34 = sample(idx, 0.75 * r).max(axis=1)
            _finite_rows(C[idx], 0.75 * r, M_34)
            ok = (M_34 > 0) & (M_u > 0)
            if not ok.any():
                continue
            idx = idx[ok]
            score = np.maximum(M_abs[ok] / M_34[ok], M_half / M_u[ok])
            # a score above the least by this much rounds to a larger key,
            # so the pick among the rest is exact
            near = score <= score.min() * (1.0 + 1e-10)
            key = min(_pick_key(float(s), r, centers[i])
                      for s, i in zip(score[near], idx[near]))
            if best is None or key < best:
                best = key
    if best is None:
        raise NoSignChangeError("no admissible disc found on the zero set")
    _, r, (x, y) = best
    z = complex(x, y)
    # refine the winner with the precise circle maximum, signed and absolute
    # from one grid
    vals = circle_values(u, z, r)
    M_abs = _max_from(u, z, r, vals, absolute=True).value
    M_34 = circle_max(u, z, 0.75 * r).value
    M_u = _max_from(u, z, r, vals).value
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

    def certify(self) -> dict:
        """Check the three rescaling certificates on a grid."""
        Uv = np.asarray(self.U(_check_points()), dtype=float)
        u0 = abs(float(self.U(0j)))
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
