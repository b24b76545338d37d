"""Finite unions of closed arcs on the unit circle.

Angles are radians mod 2*pi.  An ArcSet is stored as a sorted list of
disjoint closed intervals [lo, hi] with 0 <= lo < 2*pi and lo <= hi; an
arc crossing angle 0 is split internally, and merging treats 0 and 2*pi
as the same point.  Point arcs (lo == hi) are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = ["ArcSet", "TWO_PI"]


def _mod(theta: float) -> float:
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return exactly TWO_PI after the correction for tiny negatives
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def _add_piece(pieces: list[tuple[float, float]], lo: float, hi: float):
    """Append the arc [lo, hi], 0 <= lo < 2*pi, split at the seam."""
    if hi <= TWO_PI:
        pieces.append((lo, hi))
    else:
        pieces.append((lo, TWO_PI))
        pieces.append((0.0, hi - TWO_PI))


def _normalize(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Split wrap-around arcs, sort, and merge overlapping/touching arcs."""
    pieces: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if hi - lo >= TWO_PI - 1e-15:
            return [(0.0, TWO_PI)]
        lo_m = _mod(lo)
        span = hi - lo
        if span < 0:
            raise ValueError("arc with hi < lo")
        _add_piece(pieces, lo_m, lo_m + span)
    return _merge(pieces)


def _merge(pieces: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort arcs inside [0, 2*pi] and merge overlapping/touching ones."""
    if not pieces:
        return []
    pieces.sort()
    merged = [pieces[0]]
    for lo, hi in pieces[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    # merge across the 0 == 2*pi seam
    if len(merged) > 1 and merged[0][0] == 0.0 and merged[-1][1] >= TWO_PI:
        lo, hi = merged.pop()
        first_lo, first_hi = merged[0]
        merged[0] = (lo, TWO_PI + first_hi)
        # keep representative lo in [0, 2*pi)
        if merged[0][1] - merged[0][0] >= TWO_PI:
            merged = [(0.0, TWO_PI)]
        merged.sort()
    return merged


@dataclass(frozen=True)
class ArcSet:
    """Union of closed arcs; immutable after construction.

    ``distance`` and ``contains`` take one angle or a numpy array of
    angles, and answer with a float or bool, or an array of that shape."""

    arcs: tuple[tuple[float, float], ...]

    # ---- constructors ----

    @staticmethod
    def from_intervals(intervals) -> "ArcSet":
        pairs = [(float(a), float(b)) for a, b in intervals]
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in pairs):
            raise ValueError("arc endpoints must be finite")
        return ArcSet(tuple(_normalize(pairs)))

    @staticmethod
    def from_bins(keep) -> "ArcSet":
        """Union of the bins k = 0 .. n-1, the arcs [k w, (k+1) w] with
        w = 2*pi / n, where the boolean array ``keep`` of length n is true.

        The same set, bit for bit, as ``from_intervals`` over the kept bins
        one by one, built from runs of adjacent bins.  A run is handed on as
        [s w, (e+1) w], not through ``from_intervals``: that recomputes the
        end as lo + (hi - lo), which is exact for one bin but can round off
        by one ulp for a run."""
        keep = np.asarray(keep, dtype=bool)
        width = TWO_PI / keep.size
        # where keep switches on or off, with off beyond both ends: each run
        # starts at an even entry and stops before the odd one after it
        edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        pieces: list[tuple[float, float]] = []
        for lo, hi in (edges * width).reshape(-1, 2).tolist():
            _add_piece(pieces, lo, hi)
        return ArcSet(tuple(_merge(pieces)))

    @staticmethod
    def from_points(points) -> "ArcSet":
        return ArcSet.from_intervals([(p, p) for p in points])

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet(())

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet(((0.0, TWO_PI),))

    # ---- predicates ----

    @property
    def is_empty(self) -> bool:
        return not self.arcs

    @property
    def is_full(self) -> bool:
        return bool(self.arcs) and self.measure() >= TWO_PI - 1e-12

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def contains(self, theta):
        """Whether an angle, or each angle of an array, lies in the set."""
        return self.distance(theta) == 0.0

    def distance(self, theta):
        """Geodesic distance from an angle to the set (0 if inside), or from
        each angle of an array, as an array of the same shape.  A NaN or
        infinite angle is at distance inf."""
        with np.errstate(invalid="ignore"):  # fmod of +-inf is NaN
            t = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
        t = np.where(t < 0.0, t + TWO_PI, t)
        # fmod can return exactly TWO_PI after the correction for tiny negatives
        t = np.where(t >= TWO_PI, t - TWO_PI, t)
        if not self.arcs:
            d = np.full(t.shape, math.pi)
        else:
            inside = np.zeros(t.shape, dtype=bool)
            best = np.full(t.shape, math.inf)
            for lo, hi in self.arcs:
                # the arc may extend past 2*pi when it crosses the seam
                for shift in (0.0, TWO_PI, -TWO_PI):
                    ts = t + shift
                    inside |= (lo <= ts) & (ts <= hi)
                    # fmin skips NaN, so a NaN angle keeps best = inf
                    best = np.fmin(best, np.fmin(np.abs(ts - lo), np.abs(ts - hi)))
            d = np.where(inside, 0.0,
                         np.where(best <= TWO_PI, np.minimum(best, TWO_PI - best), best))
        return float(d) if d.ndim == 0 else d

    # ---- algebra ----

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet.from_intervals(list(self.arcs) + list(other.arcs))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        out = []
        for alo, ahi in self._unrolled():
            for blo, bhi in other._unrolled():
                lo = max(alo, blo)
                hi = min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        return ArcSet.from_intervals(out)

    def complement(self) -> "ArcSet":
        """Closure of the complement (endpoints shared with this set)."""
        if not self.arcs:
            return ArcSet.full()
        if self.is_full:
            return ArcSet.empty()
        gaps = []
        arcs = list(self.arcs)
        for (lo1, hi1), (lo2, hi2) in zip(arcs, arcs[1:]):
            gaps.append((hi1, lo2))
        last_hi = arcs[-1][1]
        first_lo = arcs[0][0]
        span = math.fmod(first_lo - last_hi, TWO_PI)
        # span 0: a lone point arc, whose complement is the whole circle
        if span <= 0:
            span += TWO_PI
        gaps.append((last_hi, last_hi + span))
        return ArcSet.from_intervals(gaps)

    def rotate(self, phi: float) -> "ArcSet":
        return ArcSet.from_intervals([(lo + phi, hi + phi) for lo, hi in self.arcs])

    def fatten(self, delta: float) -> "ArcSet":
        if delta < 0:
            raise ValueError("fatten requires delta >= 0")
        return ArcSet.from_intervals([(lo - delta, hi + delta) for lo, hi in self.arcs])

    def subset_of(self, other: "ArcSet") -> bool:
        """Every point of self in other: the directed Hausdorff distance
        from self to other is 0."""
        if self.is_empty:
            return True
        return not other.is_empty and self.directed_hausdorff(other) <= 0.0

    # ---- metrics ----

    def hausdorff(self, other: "ArcSet") -> float:
        """Circle Hausdorff distance between two arc sets."""
        if self.is_empty and other.is_empty:
            return 0.0
        if self.is_empty or other.is_empty:
            return math.pi
        return max(self.directed_hausdorff(other), other.directed_hausdorff(self))

    def directed_hausdorff(self, other: "ArcSet") -> float:
        """Largest distance from a point of self to other; both sets must
        be nonempty.  Inside a gap of other the distance rises linearly
        from both ends to the midpoint, so its maximum over self is at an
        endpoint of an arc of self or at a gap midpoint that self contains.
        The gaps are taken between consecutive arcs, not from complement():
        its closure merges the two gaps beside a point arc into one."""
        arcs = other.arcs
        next_los = [lo for lo, _ in arcs[1:]] + [arcs[0][0] + TWO_PI]
        mids = np.array([(hi + lo) / 2.0 for (_, hi), lo in zip(arcs, next_los)])
        probes = np.concatenate([np.ravel(self.arcs), mids[self.contains(mids)]])
        return float(np.max(other.distance(probes)))

    # ---- helpers ----

    def _unrolled(self) -> list[tuple[float, float]]:
        """Arcs plus copies shifted by +-2*pi, for interval intersection."""
        out = []
        for lo, hi in self.arcs:
            out.append((lo, hi))
            out.append((lo - TWO_PI, hi - TWO_PI))
            out.append((lo + TWO_PI, hi + TWO_PI))
        return out

    def to_dict(self) -> dict:
        return {"arcs": [[lo, hi] for lo, hi in self.arcs]}

    @staticmethod
    def from_dict(d: dict) -> "ArcSet":
        return ArcSet.from_intervals(d["arcs"])
