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
from dataclasses import dataclass

import numpy as np

from .arcs import ArcSet
from .circles import _require_finite_number
from .expressions import HarmonicMap
from .ranges import (DirectionEstimate, RangeSample, _blocks, _sobol_disc,
                     antipodal_pairs)
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
# the log 2 points lie in D(0, LOG2_RADIUS), and none within PUNCTURE_GAP
# of the punctures 0 and 1
LOG2_RADIUS = 100.0
PUNCTURE_GAP = 1e-9


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
    near 0 marks a verdict decided on a float tie.

    One blocked pass takes the least and the greatest value of g =
    cos(alpha) u + sin(alpha) v, which decide its constancy.  The
    reported c is their midpoint, the constant from which g strays
    least at its farthest, and max_dev (when g is not constant) is half
    the oscillation, the farthest g strays from c."""
    _require_finite_number(alpha, "alpha")
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
                                    alpha + math.pi / 2 - DIRECTION_TOL_RAD)]))
        boundary = not strict
    if not hyp:
        witnesses.append({"note": "estimated directions leave the half circle",
                          "arcs": est.arcs.to_dict()["arcs"]})
    ca, sa, w = math.cos(alpha), math.sin(alpha), samples.w
    if not w.size:
        raise ValueError("the sample is empty: g has no extremes")
    lo, hi = math.inf, -math.inf
    for blk in _blocks(w.size):
        g = ca * w.real[blk] + sa * w.imag[blk]
        lo, hi = min(lo, float(g.min())), max(hi, float(g.max()))
    concl = _constant_between(lo, hi)
    # halves first: hi + lo and hi - lo can overflow where g does not
    c = 0.5 * lo + 0.5 * hi
    cw = [] if concl else [{"note": "combination not constant",
                            "max_dev": 0.5 * hi - 0.5 * lo}]
    return TheoremVerdict(
        theorem="thm_halfplane", hypothesis_holds=hyp,
        hypothesis_witnesses=witnesses,
        conclusion_holds=concl, conclusion_witnesses=cw,
        params={"alpha": alpha, "c": c, "tol_rad": DIRECTION_TOL_RAD,
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
    _require_finite_number(R, "R")
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


@dataclass(frozen=True)
class _Log2Points:
    """The points of log2_sample_points(n, seed), made one block at a
    time: each block of the Sobol' disc source of ranges, without its
    points within PUNCTURE_GAP of 0 or 1.  So they come in the same
    order, and a block may be empty."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")

    def blocks(self):
        for _, z in _sobol_disc(self.n, LOG2_RADIUS, self.seed):
            keep = np.abs(z) > PUNCTURE_GAP
            keep &= np.abs(z - 1.0) > PUNCTURE_GAP
            yield z if keep.all() else z[keep]


def log2_sample_points(n: int, seed: int) -> np.ndarray:
    """Quasi-random points in D(0, LOG2_RADIUS) staying away from 0 and
    1: the first n Sobol' points of seed, carried onto the disc as the
    second half of a range sample is, without those within PUNCTURE_GAP
    of 0 or 1.  The array form of the points that the CLI's log 2 check
    makes block by block."""
    points = _Log2Points(n, seed)
    z, k = np.empty(n, dtype=complex), 0
    for zb in points.blocks():
        z[k:k + zb.size] = zb
        k += zb.size
    return z if k == n else z[:k].copy()


def _log2_block(zb: np.ndarray, found: tuple) -> tuple[bool, float, complex]:
    """Check one block of the log 2 points: extend each list of found
    with the block's first points of that kind of witness, up to 4, and
    return whether a point lies within 1e-12 of a puncture, with the first
    closest distance to one and its point.  The temporaries hold a few
    doubles a point and go when it returns; a point at a puncture has log
    -inf, which the caller refuses."""
    log2 = math.log(2.0)
    az, az1 = np.abs(zb), np.abs(zb - 1.0)
    near = np.minimum(az, az1)
    excluded = bool(np.any(near < 1e-12))
    k = int(np.argmin(near))
    closest = near[k]
    log_az, log_az1 = np.log(az, out=az), np.log(az1, out=az1)
    # near is spent: its buffer takes log+|z|, then the difference
    lp = np.maximum(log_az, 0.0, out=near)
    lp1 = np.maximum(log_az1, 0.0)
    lp -= lp1
    bad1 = np.abs(lp, out=lp) > log2 + LOG2_SLACK
    bad2 = np.maximum(log_az, log_az1, out=lp1) < -log2 - LOG2_SLACK
    for bad, pts in zip((bad1, bad2), found):
        pts.extend(zb[np.nonzero(bad)[0][:4 - len(pts)]].tolist())
    return excluded, closest, zb[k]


def check_log2_inequalities(z_samples) -> TheoremVerdict:
    """|log+|z| - log+|z-1|| <= log 2 and max(log|z|, log|z-1|) >= -log 2
    away from the two punctures.

    z_samples is an array of points, or a _Log2Points, whose points are
    made block by block and never held whole.  Both are read a block of
    at most POINT_BLOCK points at a time, an empty block skipped, and
    the witnesses and the excluded point are the first in point order,
    so the same points give the same verdict either way."""
    if isinstance(z_samples, _Log2Points):
        blocks = z_samples.blocks()
    else:
        z = np.asarray(z_samples, dtype=complex)
        blocks = (z[blk] for blk in _blocks(z.size))
    notes = ("log+ difference exceeds log 2", "max log below -log 2")
    found = ([], [])  # the first 4 points of each kind of witness
    count, excluded = 0, False
    # each block's first closest distance to a puncture, and its point
    nearest, at = [], []
    with np.errstate(divide="ignore"):
        for zb in blocks:
            if zb.size:
                count += zb.size
                too_close, closest, point = _log2_block(zb, found)
                excluded |= too_close
                nearest.append(closest)
                at.append(point)
    if excluded:
        # np.argmin over the block minima picks the first minimum overall,
        # NaN included, as it would over the whole sample
        raise ExcludedPointError("sample too close to a puncture: "
                                 f"{at[int(np.argmin(nearest))]}")
    witnesses = [{"z": [p.real, p.imag], "note": note}
                 for pts, note in zip(found, notes) for p in pts]
    holds = not witnesses
    return TheoremVerdict(
        theorem="ineq_log2", hypothesis_holds=True,
        conclusion_holds=holds, conclusion_witnesses=witnesses,
        params={"slack": LOG2_SLACK}, sampling={"count": count})
