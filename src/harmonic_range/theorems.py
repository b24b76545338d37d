"""Hypothesis/conclusion checkers for the main statements.

Each checker evaluates the hypothesis of one statement on a concrete map
(at desk scale) and tests whether the mandated conclusion is observed.
"Constant" always means: sampled oscillation below 1e-9 relative to the
value scale.  Checked, not proved.
"""

from __future__ import annotations

import math

import numpy as np

from .arcs import TWO_PI, ArcSet
from .expressions import HarmonicMap
from .ranges import (DirectionEstimate, RangeSample, _polar_fill,
                     antipodal_pairs, sobol_points)
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


def is_constant_proxy(values: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(values)))
    return oscillation(values) <= CONSTANT_TOL * scale


def _witness(z: complex, w: complex, note: str) -> dict:
    return {"z": [z.real, z.imag], "w": [w.real, w.imag], "note": note}


def check_lewis_region(f: HarmonicMap, C: float,
                       samples: RangeSample) -> TheoremVerdict:
    """|u+ - v+| <= C and max(u, v) >= -C force constancy."""
    u = samples.w.real
    v = samples.w.imag
    slack = 1e-12 * (1.0 + C)
    up = np.maximum(u, 0.0)
    vp = np.maximum(v, 0.0)
    bad1 = np.abs(up - vp) > C + slack
    bad2 = np.maximum(u, v) < -C - slack
    witnesses = []
    for bad, note in ((bad1, "|u+ - v+| > C"), (bad2, "max(u,v) < -C")):
        for k in np.nonzero(bad)[0][:4]:
            witnesses.append(_witness(samples.z[k], samples.w[k], note))
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
    g = math.cos(alpha) * samples.w.real + math.sin(alpha) * samples.w.imag
    med = float(np.median(g))
    scale = 1.0 + float(np.max(np.abs(g)))
    concl = float(np.max(np.abs(g - med))) <= CONSTANT_TOL * scale
    cw = [] if concl else [{"note": "combination not constant",
                            "max_dev": float(np.max(np.abs(g - med)))}]
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
    u = samples.w.real
    v = samples.w.imag
    bound = a * np.abs(u) ** alpha + b
    slack = 1e-12 * (1.0 + float(np.max(np.abs(bound))))
    bad = v > bound + slack
    witnesses = [_witness(samples.z[k], samples.w[k], "v > a|u|^alpha + b")
                 for k in np.nonzero(bad)[0][:4]]
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
        scale = max(float(np.max(np.abs(samples.w.real))),
                    float(np.max(np.abs(samples.w.imag))), 1e-300)
        dev = float(np.max(np.abs(samples.w.real - rep.b * samples.w.imag))) / scale
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
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    pts = sobol_points(n, seed)
    z = np.empty(n, dtype=complex)
    _polar_fill(z, radius * np.sqrt(pts[:, 0]), TWO_PI * pts[:, 1])
    keep = (np.abs(z) > 1e-9) & (np.abs(z - 1.0) > 1e-9)
    return z if keep.all() else z[keep]


def check_log2_inequalities(z_samples: np.ndarray) -> TheoremVerdict:
    """|log+|z| - log+|z-1|| <= log 2 and max(log|z|, log|z-1|) >= -log 2
    away from the two punctures."""
    z = np.asarray(z_samples, dtype=complex)
    az = np.abs(z)
    az1 = np.abs(z - 1.0)
    if np.any(az < 1e-12) or np.any(az1 < 1e-12):
        k = int(np.argmin(np.minimum(az, az1)))
        raise ExcludedPointError(f"sample too close to a puncture: {z[k]}")
    log2 = math.log(2.0)
    # in place: az and az1 are not read again, and each extra array over
    # the 10^6 samples of the CLI check would add 8 MB to the peak
    log_az, log_az1 = np.log(az, out=az), np.log(az1, out=az1)
    lp = np.maximum(log_az, 0.0)
    lp1 = np.maximum(log_az1, 0.0)
    bad1 = np.abs(lp - lp1) > log2 + LOG2_SLACK
    bad2 = np.maximum(log_az, log_az1) < -log2 - LOG2_SLACK
    witnesses = []
    for bad, note in ((bad1, "log+ difference exceeds log 2"),
                      (bad2, "max log below -log 2")):
        for k in np.nonzero(bad)[0][:4]:
            witnesses.append({"z": [z[k].real, z[k].imag], "note": note})
    holds = not witnesses
    return TheoremVerdict(
        theorem="ineq_log2", hypothesis_holds=True,
        conclusion_holds=holds, conclusion_witnesses=witnesses,
        params={"slack": LOG2_SLACK}, sampling={"count": int(z.size)})
