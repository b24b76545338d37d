"""Hypothesis/conclusion checkers for the main statements.

Each checker evaluates the hypothesis of one statement on a concrete map
(at desk scale) and tests whether the mandated conclusion is observed.
"Constant" always means: the sampled oscillation max - min is at most
CONSTANT_TOL * (1 + max|values|), CONSTANT_TOL = 1e-9.  That is not a
relative rule: the 1 makes it absolute below about 1e-9, where every map
counts as constant (ROADMAP item 4).  Checked, not proved.
"""

from __future__ import annotations

import math

import numpy as np

from .arcs import ArcSet
from .circles import _require_finite_number, _require_positive
from .expressions import HarmonicMap
from .ranges import (DirectionEstimate, RangeSample, _blocks,
                     _sobol_disc_fill, antipodal_pairs)
from .reports import TheoremVerdict
from .zeros import detect_dependence

__all__ = [
    "CONSTANT_TOL",
    "ExcludedPointError",
    "oscillation",
    "is_constant_proxy",
    "check_lewis_region",
    "check_antipodal_theorem",
    "check_halfplane_theorem",
    "check_cor_alpha",
    "check_murdoch_kuran",
    "check_log2_inequalities",
    "log2_sample_points",
]

CONSTANT_TOL = 1e-9
# how far an estimated direction may stray: antipodal pairs, half circles
DIRECTION_TOL_RAD = math.radians(1.0)
# largest relative distance of the range from the line u = b v
LINE_TOL = 1e-6
# rounding allowance on both sides of the log 2 inequalities
LOG2_SLACK = 1e-12


class ExcludedPointError(ValueError):
    pass


def oscillation(values: np.ndarray) -> float:
    return float(np.max(values) - np.min(values))


def _constant_between(lo: float, hi: float) -> bool:
    """The constancy rule for values from lo to hi: max|values| is
    max(|lo|, |hi|) exactly."""
    return hi - lo <= CONSTANT_TOL * (1.0 + max(abs(lo), abs(hi)))


def is_constant_proxy(values: np.ndarray) -> bool:
    return _constant_between(float(np.min(values)), float(np.max(values)))


# every MEDIAN_STRIDE-th value goes into the subsample that places the
# window of _blocked_median.  A prime: a stride of 64 takes the same 4 or 8
# angles of every radius of a power-of-two polar grid, and such a biased
# subsample missed the middle ranks in half of 336 trial medians; 61
# missed in none
MEDIAN_STRIDE = 61


def _blocked_median(blocks, n: int) -> tuple[float, float, float]:
    """(np.median, min, max) of the n values that each call of blocks()
    yields block by block, with np.median's bits, and temporaries of a
    block plus a window of the middle values.

    Pass 1 takes the extremes and every MEDIAN_STRIDE-th value.  The order
    statistics of that subsample bracket the middle ranks by a window
    [a, b] (4 standard deviations of a random subsample's rank either
    side).  Pass 2 counts the values below a, at a and at b, and keeps
    those strictly inside; ties at the edges thus cost nothing.  When the
    middle ranks fall outside the window, or a value is NaN, np.median
    runs on all the values: exact, and rare.  Where zeros of both signs
    tie in the middle, the sign of a zero median may differ."""
    lo, hi, sub = math.inf, -math.inf, []
    for g in blocks():
        # np.minimum and np.maximum keep a NaN
        lo, hi = float(np.minimum(lo, g.min())), float(np.maximum(hi, g.max()))
        sub.append(g[::MEDIAN_STRIDE].copy())
    ranks = sorted({(n - 1) // 2, n // 2})
    if lo <= hi:  # no NaN
        sub = np.sort(np.concatenate(sub))
        m = sub.size
        margin = 2 * math.isqrt(m) + 1
        ja, jb = ranks[0] * m // n - margin, ranks[-1] * m // n + margin
        a = float(sub[ja]) if ja > 0 else lo
        b = float(sub[jb]) if jb < m - 1 else hi
        below = at_a = at_b = 0
        inside = []
        for g in blocks():
            below += int(np.count_nonzero(g < a))
            at_a += int(np.count_nonzero(g == a))
            at_b += int(np.count_nonzero(g == b)) if b > a else 0
            inside.append(g[(g > a) & (g < b)])
        inside = np.concatenate(inside)
        # ranks below+at_a .. below+at_a+inside.size-1 are inside
        first, last = below + at_a, below + at_a + inside.size
        if below <= ranks[0] and ranks[-1] < last + at_b:
            kth = [k - first for k in ranks if first <= k < last]
            if kth:
                inside.partition(kth)
            mids = [a if k < first else b if k >= last else inside[k - first]
                    for k in ranks]
            return float(np.mean(np.array(mids))), lo, hi
    return float(np.median(np.concatenate(list(blocks())))), lo, hi


def _witness(z: complex, w: complex, note: str) -> dict:
    return {"z": [z.real, z.imag], "w": [w.real, w.imag], "note": note}


def _witnesses(samples: RangeSample, notes: tuple, bads) -> list[dict]:
    """The first 4 witnesses of each kind, in index order: bads(blk) marks them."""
    found = tuple([] for _ in notes)
    for blk in _blocks(samples.count):
        for bad, idx in zip(bads(blk), found):
            idx.extend((blk.start + np.nonzero(bad)[0][:4 - len(idx)]).tolist())
    return [_witness(samples.points(slice(k, k + 1))[0], samples.w[k], note)
            for idx, note in zip(found, notes) for k in idx]


def check_lewis_region(f: HarmonicMap, C: float,
                       samples: RangeSample) -> TheoremVerdict:
    """|u+ - v+| <= C and max(u, v) >= -C force constancy."""
    _require_finite_number(C, "C")
    u = samples.w.real
    v = samples.w.imag
    slack = 1e-12 * (1.0 + C)
    witnesses = _witnesses(samples, ("|u+ - v+| > C", "max(u,v) < -C"), lambda blk: (
        np.abs(np.maximum(u[blk], 0.0) - np.maximum(v[blk], 0.0)) > C + slack,
        np.maximum(u[blk], v[blk]) < -C - slack))
    hyp = not witnesses
    concl = is_constant_proxy(u) and is_constant_proxy(v)
    cw = []
    if not concl:
        cw.append({"oscillation_u": oscillation(u), "oscillation_v": oscillation(v)})
    return TheoremVerdict(
        theorem="lewis", hypothesis_holds=hyp, hypothesis_witnesses=witnesses,
        conclusion_holds=concl, conclusion_witnesses=cw,
        params={"C": C}, sampling=samples.metadata())


def check_antipodal_theorem(f: HarmonicMap, est: DirectionEstimate,
                            samples: RangeSample) -> TheoremVerdict:
    """Contrapositive form: a nonconstant map must show an antipodal pair
    of estimated directions."""
    nonconstant = not (is_constant_proxy(samples.w.real)
                      and is_constant_proxy(samples.w.imag))
    pairs = antipodal_pairs(est.arcs, tol_rad=DIRECTION_TOL_RAD)
    if not nonconstant:
        return TheoremVerdict(
            theorem="thm_antipodal", hypothesis_holds=False,
            hypothesis_witnesses=[{"note": "map is constant; contrapositive vacuous"}],
            conclusion_holds=True,
            params={"tol_rad": DIRECTION_TOL_RAD}, sampling=samples.metadata())
    holds = not pairs.is_empty
    cw = [] if holds else [{"note": "no antipodal pair in estimated directions",
                            "arcs": est.arcs.to_dict()["arcs"]}]
    return TheoremVerdict(
        theorem="thm_antipodal", hypothesis_holds=True,
        conclusion_holds=holds, conclusion_witnesses=cw,
        params={"tol_rad": DIRECTION_TOL_RAD, "pairs": pairs.to_dict()["arcs"],
                "low_confidence": est.low_confidence},
        sampling=samples.metadata())


def check_halfplane_theorem(f: HarmonicMap, alpha: float,
                            est: DirectionEstimate,
                            samples: RangeSample) -> TheoremVerdict:
    """Directions inside the closed half circle about alpha force
    cos(alpha) u + sin(alpha) v constant.

    The reported margin is DIRECTION_TOL_RAD minus the farthest an
    estimated direction lies from the half circle (None for an empty
    estimate); the hypothesis holds when it is not negative, so a margin
    near 0 marks a verdict decided on a float tie."""
    half = ArcSet.from_intervals([(alpha - math.pi / 2, alpha + math.pi / 2)])
    margin = (None if est.arcs.is_empty
              else DIRECTION_TOL_RAD - est.arcs.directed_hausdorff(half))
    hyp = margin is None or margin >= 0.0
    witnesses = []
    boundary = False
    if hyp and not est.arcs.is_empty:
        # endpoints reached only within tolerance: flag the boundary case
        strict = est.arcs.subset_of(
            ArcSet.from_intervals([(alpha - math.pi / 2 + DIRECTION_TOL_RAD,
                                    alpha + math.pi / 2 - DIRECTION_TOL_RAD)]),
            tol=0.0)
        boundary = not strict
    if not hyp:
        witnesses.append({"note": "estimated directions leave the half circle",
                          "arcs": est.arcs.to_dict()["arcs"]})
    ca, sa, w = math.cos(alpha), math.sin(alpha), samples.w

    def combination():
        for blk in _blocks(w.size):
            yield ca * w.real[blk] + sa * w.imag[blk]

    med, lo, hi = _blocked_median(combination, w.size)
    concl = _constant_between(lo, hi)
    # |g - med| grows with g on each side of med: its maximum is at an extreme
    cw = [] if concl else [{"note": "combination not constant",
                            "max_dev": max(hi - med, med - lo)}]
    return TheoremVerdict(
        theorem="thm_halfplane", hypothesis_holds=hyp,
        hypothesis_witnesses=witnesses,
        conclusion_holds=concl, conclusion_witnesses=cw,
        params={"alpha": alpha, "c": med, "tol_rad": DIRECTION_TOL_RAD,
                "boundary_case": boundary, "margin": margin},
        sampling=samples.metadata())


def check_cor_alpha(f: HarmonicMap, a: float, alpha: float, b: float,
                    samples: RangeSample) -> TheoremVerdict:
    """v <= a|u|^alpha + b with alpha < 1 forces v constant."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    _require_finite_number(a, "a")
    _require_finite_number(b, "b")
    u = samples.w.real
    v = samples.w.imag

    def bound(blk: slice) -> np.ndarray:
        return a * np.abs(u[blk]) ** alpha + b
    slack = 1e-12 * (1.0 + max(float(np.max(np.abs(bound(blk))))
                               for blk in _blocks(u.size)))
    witnesses = _witnesses(samples, ("v > a|u|^alpha + b",),
                           lambda blk: (v[blk] > bound(blk) + slack,))
    hyp = not witnesses
    concl = is_constant_proxy(v)
    cw = [] if concl else [{"oscillation_v": oscillation(v)}]
    return TheoremVerdict(
        theorem="cor_alpha", hypothesis_holds=hyp,
        hypothesis_witnesses=witnesses,
        conclusion_holds=concl, conclusion_witnesses=cw,
        params={"a": a, "alpha": alpha, "b": b}, sampling=samples.metadata())


def check_murdoch_kuran(f: HarmonicMap, a: float, R: float,
                        samples: RangeSample) -> TheoremVerdict:
    """Polynomial u with |u| <= a|v| beyond radius R forces u = b v and a
    line-shaped range."""
    _require_finite_number(a, "a")
    deg = f.u.degree()
    if deg is None or deg == 0:
        return TheoremVerdict(
            theorem="thm_murdoch_kuran", hypothesis_holds=False,
            hypothesis_witnesses=[{"note": "u is not a nonconstant polynomial;"
                                           " hypothesis inapplicable"}],
            conclusion_holds=True,
            params={"a": a, "R": R, "degree": deg},
            sampling=samples.metadata())
    rep = detect_dependence(samples, a=a, R=R)
    hyp = rep.hypothesis_holds
    witnesses = [] if hyp else [rep.hypothesis_witness]
    concl = rep.dependent
    cw = []
    if concl:
        # the sampled range must hug the line u = b v through the origin
        w, blocks = samples.w, list(_blocks(samples.count))
        scale = max(max(float(np.max(np.abs(w[blk].real))),
                        float(np.max(np.abs(w[blk].imag)))) for blk in blocks)
        dev = max(float(np.max(np.abs(w[blk].real - rep.b * w[blk].imag)))
                  for blk in blocks) / max(scale, 1e-300)
        concl = dev <= LINE_TOL
        if not concl:
            cw.append({"note": "range not within tolerance of the line",
                       "deviation": dev})
    elif hyp:
        cw.append({"note": "no linear dependence detected",
                   "residual": rep.residual})
    return TheoremVerdict(
        theorem="thm_murdoch_kuran", hypothesis_holds=hyp,
        hypothesis_witnesses=witnesses,
        conclusion_holds=concl, conclusion_witnesses=cw,
        params={"a": a, "R": R, "b": rep.b, "residual": rep.residual,
                "degree": deg},
        sampling=samples.metadata())


def log2_sample_points(n: int, seed: int, radius: float = 100.0) -> np.ndarray:
    """Quasi-random points in D(0, radius) staying away from 0 and 1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _require_positive(radius, "radius")
    z = np.empty(n, dtype=complex)
    _sobol_disc_fill(z, radius, seed)
    keep = np.empty(n, dtype=bool)
    for blk in _blocks(n):
        zb = z[blk]
        np.logical_and(np.abs(zb) > 1e-9, np.abs(zb - 1.0) > 1e-9, out=keep[blk])
    return z if keep.all() else z[keep]


def check_log2_inequalities(z_samples: np.ndarray) -> TheoremVerdict:
    """|log+|z| - log+|z-1|| <= log 2 and max(log|z|, log|z-1|) >= -log 2
    away from the two punctures."""
    z = np.asarray(z_samples, dtype=complex)
    log2 = math.log(2.0)
    notes = ("log+ difference exceeds log 2", "max log below -log 2")
    found = ([], [])  # the first 4 indices of each kind of witness
    excluded = False
    # each block's first closest point to a puncture, and where it lies
    nearest, at = [], []
    # block by block: each temporary holds one block of POINT_BLOCK points
    # (512 KB of doubles at 2^16), whatever the size of the sample.  A
    # sample at a puncture has log -inf; it raises below
    with np.errstate(divide="ignore"):
        for blk in _blocks(z.size):
            zb = z[blk]
            az, az1 = np.abs(zb), np.abs(zb - 1.0)
            near = np.minimum(az, az1)
            excluded |= bool(np.any(near < 1e-12))
            k = int(np.argmin(near))
            nearest.append(near[k])
            at.append(blk.start + k)
            log_az, log_az1 = np.log(az, out=az), np.log(az1, out=az1)
            lp = np.maximum(log_az, 0.0)
            lp1 = np.maximum(log_az1, 0.0)
            bad1 = np.abs(lp - lp1) > log2 + LOG2_SLACK
            bad2 = np.maximum(log_az, log_az1) < -log2 - LOG2_SLACK
            for bad, idx in zip((bad1, bad2), found):
                idx.extend((blk.start + np.nonzero(bad)[0][:4 - len(idx)]).tolist())
    if excluded:
        # np.argmin over the block minima picks the first minimum overall,
        # NaN included, as it would over the whole sample
        k = at[int(np.argmin(nearest))]
        raise ExcludedPointError(f"sample too close to a puncture: {z[k]}")
    witnesses = [{"z": [z[k].real, z[k].imag], "note": note}
                 for idx, note in zip(found, notes) for k in idx]
    holds = not witnesses
    return TheoremVerdict(
        theorem="ineq_log2", hypothesis_holds=True,
        conclusion_holds=holds, conclusion_witnesses=witnesses,
        params={"slack": LOG2_SLACK}, sampling={"count": int(z.size)})
