"""Range sampling and asymptotic-direction estimation.

The range of an entire harmonic map is sampled on a bounded disc; a
direction on the unit circle counts as asymptotic when samples keep
appearing near it at every modulus cutoff of an increasing schedule.
Estimation is inherently one-sided: directions realized only beyond the
sampling radius can be missed, so every estimate records the radius and
schedule it was computed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import ArcSet, TWO_PI
from .circles import _require_positive
from .expressions import HarmonicMap, NonFiniteError

__all__ = [
    "RangeSample",
    "DirectionEstimate",
    "PhiProfile",
    "sobol_points",
    "sample_range",
    "estimate_directions",
    "antipodal_pairs",
    "antipodal_gap_alpha",
    "cone_avoidance_normalize",
    "i_alpha_arcs",
    "i_alpha_fit",
    "phi_profile",
    "phi_sublinearity_check",
]


# passes over a whole point set go through it in blocks of this many
# points, so that their temporaries do not grow with the set; only
# elementwise work is blocked, so no result depends on the block size
POINT_BLOCK = 1 << 16


def _blocks(n: int, size: int | None = None):
    """Slices that cut indices 0 .. n-1 into runs of ``size`` indices,
    POINT_BLOCK by default."""
    size = size or POINT_BLOCK
    return (slice(s, s + size) for s in range(0, n, size))


class RangeSample:
    """Desk-scale sample of the range: pairs (z, w = f(z)), every w finite;
    a NonFiniteError, counted block by block, refuses one that overflows.

    With z None the points are those of sample_range at (radius, n_grid,
    seed), a function of the three: the sample holds w alone, 16 bytes a
    point, and points(blk) computes a block of points each time they are
    read.  A sample built by hand keeps its explicit points z.  Either
    way ``z`` is the whole array of points, computed on demand and never
    cached for a generated sample."""

    def __init__(self, z: np.ndarray | None, w: np.ndarray, radius: float,
                 n_grid: int, seed: int, grid_type: str = "polar+sobol"):
        self._z = z
        self.w = w
        self.radius = radius
        self.n_grid = n_grid
        self.seed = seed
        self.grid_type = grid_type
        bad = sum(int(np.count_nonzero(~np.isfinite(w[blk])))
                  for blk in _blocks(w.size))
        if bad:
            raise NonFiniteError(f"{bad} of {w.size} samples of the range "
                                 "are not finite: the map overflows")
        points = 2 * n_grid * n_grid if z is None else z.size
        if points != w.size:
            raise ValueError(f"{w.size} values for {points} points")

    @property
    def count(self) -> int:
        return int(self.w.size)

    @property
    def z(self) -> np.ndarray:
        return self.points(slice(None)) if self._z is None else self._z

    def _span(self, blk: slice) -> tuple[int, int]:
        start, stop, step = blk.indices(self.count)
        if step != 1:
            raise ValueError("a block of points is a run of consecutive indices")
        return start, max(start, stop)

    def points(self, blk: slice) -> np.ndarray:
        """The points of the run of indices blk."""
        if self._z is not None:
            return self._z[blk]
        return _sample_points(self.radius, self.n_grid, self.seed, *self._span(blk))

    def beyond(self, R: float, blk: slice) -> np.ndarray:
        """np.abs(self.points(blk)) > R, bit for bit.

        A generated point r e^{it} has |z| within a few ulps of r, the
        radius it is generated at (cos t and sin t are within a few ulps,
        and the products and np.abs round once each), and surely within
        the relative RADIUS_TOL of it while its coordinates are normal
        floats.  So the radii decide every point of a block, and its
        points, with their cos and sin, are computed only when one radius
        lies within d = RADIUS_TOL |R| (plus RADIUS_FLOOR, for subnormal
        coordinates) of R."""
        if self._z is None:
            r = _sample_radii(self.radius, self.n_grid, self.seed, *self._span(blk))
            d = RADIUS_TOL * abs(R) + RADIUS_FLOOR
            far = r > R - d
            # no radius in (R - d, R + d]: r > R - d exactly where r > R
            if np.count_nonzero(far) == np.count_nonzero(r > R + d):
                return far
        return np.abs(self.points(blk)) > R

    def metadata(self) -> dict:
        return {
            "radius": self.radius,
            "n_grid": self.n_grid,
            "seed": self.seed,
            "grid_type": self.grid_type,
            "count": self.count,
        }

    def to_csv(self, path: str):
        """Same bytes as csv.writer with repr of each float: the reprs hold
        no comma, quote or newline, so no field needs quoting.

        A row holds about 350 bytes of Python floats and strings while it
        is formatted, some 20 times what a point takes in array work, so
        rows are written in eighths of a block, and the points of each are
        computed then."""
        with open(path, "w", newline="") as fh:
            fh.write("z_re,z_im,w_re,w_im\r\n")
            for blk in _blocks(self.count, max(POINT_BLOCK // 8, 1)):
                z, w = self.points(blk), self.w[blk]
                cols = (z.real.tolist(), z.imag.tolist(),
                        w.real.tolist(), w.imag.tolist())
                fh.write("".join(f"{a!r},{b!r},{c!r},{d!r}\r\n"
                                 for a, b, c, d in zip(*cols)))


# a generated point's |z| lies within this relative distance of the radius
# it is generated at (RangeSample.beyond; 1.7 ulps at most were seen), and
# within RADIUS_FLOOR where its coordinates are subnormal
RADIUS_TOL = 1e-12
RADIUS_FLOOR = 1e-300


_SOBOL_BITS = 30


def _sobol_directions(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scrambled direction numbers (2, bits) and digital shift (2,) of the
    2-D Sobol' sequence, drawn from ``rng`` in the order scipy draws them."""
    bits = _SOBOL_BITS
    m = np.ones((2, bits), dtype=np.uint32)  # dim 0: van der Corput
    for j in range(1, bits):                  # dim 1: polynomial x + 1, m_1 = 1
        m[1, j] = m[1, j - 1] ^ (m[1, j - 1] << 1)
    sv = m << np.arange(bits - 1, -1, -1, dtype=np.uint32)
    shift = rng.integers(0, 2, (2, bits), dtype=np.uint32)
    ltm = np.tril(rng.integers(0, 2, (2, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # linear matrix scramble over GF(2); bit index k of a matrix row or
    # vector stands for the bit of weight 2^(bits-1-k), in and out
    weight = np.uint32(1) << np.arange(bits - 1, -1, -1, dtype=np.uint32)
    v_bits = (sv[:, None, :] & weight[None, :, None]) != 0     # (d, k, j)
    out_bits = (ltm.astype(np.int64) @ v_bits) & 1              # (d, p, j)
    sv = (out_bits.astype(np.uint32) * weight[None, :, None]).sum(
        axis=1, dtype=np.uint32)
    shift = (shift * (np.uint32(1) << np.arange(bits, dtype=np.uint32))).sum(
        axis=1, dtype=np.uint32)
    return sv, shift


def _gray_fill(q: np.ndarray, sv: np.ndarray, shift: np.ndarray) -> None:
    """Fill the (2, n) array q with the numerators of the first n Sobol'
    points of direction numbers sv and digital shift ``shift``."""
    n = q.shape[1]
    if n > 0:
        q[:, 0] = shift
    # Gray-code order by reflection: points 2^k .. 2^(k+1)-1 are points
    # 2^k-1 .. 0 with direction number k flipped in
    size, k = 1, 0
    while size < n:
        count = min(size, n - size)
        for d in range(2):
            np.bitwise_xor(q[d, size - count:size][::-1], sv[d, k],
                           out=q[d, size:size + count])
        size, k = size * 2, k + 1


def _check_sobol_count(n: int) -> None:
    if not 0 <= n <= 1 << _SOBOL_BITS:
        raise ValueError(f"can draw 0 to 2**{_SOBOL_BITS} Sobol' points, not {n}")


def _sobol_ints(n: int, seed: int) -> np.ndarray:
    """Numerators, shape (2, n) and dtype uint32, over 2^_SOBOL_BITS of
    the first ``n`` points of sobol_points."""
    _check_sobol_count(n)
    q = np.empty((2, n), dtype=np.uint32)
    _gray_fill(q, *_sobol_directions(np.random.default_rng(seed)))
    return q


def _sobol_blocks(n: int, seed: int, start: int = 0):
    """The columns start .. n-1 of _sobol_ints(n, seed), as (index, block)
    pairs cut at the multiples of B, B the largest power of two <=
    POINT_BLOCK.

    With i = hB + l and l < B = 2^b, gray(i) = (gray(h) << b) ^ gray(l),
    with bit b-1 flipped when h is odd.  So block h is block 0 XORed with
    the direction numbers of the set bits of gray(h), shifted up by b,
    and with direction number b-1 when h is odd (b > 0); only block 0 is
    built by reflection, as far as the blocks need it."""
    _check_sobol_count(n)
    sv, shift = _sobol_directions(np.random.default_rng(seed))
    b = POINT_BLOCK.bit_length() - 1
    size = 1 << b
    h0 = start // size
    first = np.empty((2, min(size, n - h0 * size)), dtype=np.uint32)
    _gray_fill(first, sv, shift)
    for h in range(h0, -(-n // size)):
        flip = np.zeros(2, dtype=np.uint32)
        gray = h ^ (h >> 1)
        for j in range(gray.bit_length()):
            if gray >> j & 1:
                flip ^= sv[:, j + b]
        if h & 1 and b:
            flip ^= sv[:, b - 1]
        lo = max(start - h * size, 0)
        cols = first[:, lo:min(size, n - h * size)]
        yield h * size + lo, cols ^ flip[:, None] if h else cols


_SOBOL_UNIT = 1.0 / (1 << _SOBOL_BITS)


def sobol_points(n: int, seed: int) -> np.ndarray:
    """First ``n`` points, shape (n, 2), of the LMS+shift scrambled 2-D
    Sobol' sequence; bit-identical to
    ``scipy.stats.qmc.Sobol(d=2, scramble=True, seed=seed).random(n)``."""
    q = _sobol_ints(n, seed)
    pts = np.empty((n, 2))
    np.multiply(q.T, _SOBOL_UNIT, out=pts)
    return pts


def _polar_fill(out: np.ndarray, r, t) -> None:
    """Write r e^{it} into the complex array ``out``, with r and t
    broadcast to its shape: r cos t into the real parts and r sin t into
    the imaginary parts.  For r > 0 this equals ``r * np.exp(1j * t)`` bit
    for bit (that product only adds exact zeros), without its complex
    temporaries."""
    np.multiply(r, np.cos(t), out=out.real)
    np.multiply(r, np.sin(t), out=out.imag)


def _sobol_disc_fill(out: np.ndarray, R: float, seed: int, start: int = 0) -> None:
    """Write Sobol' points start .. start + out.size - 1 (p0, p1), carried
    onto D(0, R) as R sqrt(p0) e^{2 pi i p1}, into the complex array
    ``out``, one block at a time."""
    for i, q in _sobol_blocks(start + out.size, seed, start):
        p = q * _SOBOL_UNIT
        _polar_fill(out[i - start:i - start + p.shape[1]], R * np.sqrt(p[0]),
                    TWO_PI * p[1])


def _grid_radii(R: float, n_grid: int) -> np.ndarray:
    return R * (np.arange(1, n_grid + 1) / n_grid)


def _sample_points(R: float, n_grid: int, seed: int, start: int,
                   stop: int) -> np.ndarray:
    """Points start .. stop-1 of sample_range at (R, n_grid, seed): the
    n_grid x n_grid polar grid row by row (radius R k / n_grid for
    k = 1 .. n_grid, angle 2 pi j / n_grid), then as many Sobol' points
    on D(0, R)."""
    z = np.empty(stop - start, dtype=complex)
    m = n_grid * n_grid
    if start < m:
        # whole rows, so that cos and sin are taken of the n_grid angles
        r0, r1 = start // n_grid, -(-min(stop, m) // n_grid)
        rows = np.empty((r1 - r0, n_grid), dtype=complex)
        _polar_fill(rows, _grid_radii(R, n_grid)[r0:r1, None],
                    TWO_PI * np.arange(n_grid) / n_grid)
        z[:m - start] = rows.ravel()[start - r0 * n_grid:min(stop, m) - r0 * n_grid]
    if stop > m:
        first = max(start, m)
        _sobol_disc_fill(z[first - start:], R, seed, first - m)
    return z


def _sample_radii(R: float, n_grid: int, seed: int, start: int,
                  stop: int) -> np.ndarray:
    """The radii that points start .. stop-1 of sample_range at (R,
    n_grid, seed) are generated at, without their angles."""
    r = np.empty(stop - start)
    m = n_grid * n_grid
    if start < m:
        r0, r1 = start // n_grid, -(-min(stop, m) // n_grid)
        r[:m - start] = np.repeat(_grid_radii(R, n_grid)[r0:r1], n_grid)[
            start - r0 * n_grid:min(stop, m) - r0 * n_grid]
    if stop > m:
        for i, q in _sobol_blocks(stop - m, seed, max(start - m, 0)):
            rq = r[i + m - start:i + m - start + q.shape[1]]
            np.sqrt(np.multiply(q[0], _SOBOL_UNIT, out=rq), out=rq)
            rq *= R
    return r


def sample_range(f: HarmonicMap, R: float, n_grid: int = 256,
                 seed: int = 0) -> RangeSample:
    """Deterministic polar grid on D(0,R) plus seeded quasi-random points.

    The sample keeps the values alone: each block of POINT_BLOCK points
    is computed from (R, n_grid, seed), evaluated and dropped, and
    RangeSample computes the points again when they are read.  The
    sample is finite: where the map overflows, RangeSample raises a
    NonFiniteError, and numpy's warning stays silent."""
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    _require_positive(R, "radius R")
    w = np.empty(2 * n_grid * n_grid, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in _blocks(w.size):
            start, stop, _ = blk.indices(w.size)
            w[blk] = f.value(_sample_points(R, n_grid, seed, start, stop))
    return RangeSample(z=None, w=w, radius=R, n_grid=n_grid, seed=seed)


@dataclass
class DirectionEstimate:
    arcs: ArcSet
    cutoffs: tuple[float, ...]
    bins: int
    occupied_bins: int = 0  # the bins the arcs are built from
    stabilization_index: int = 0
    low_confidence: bool = False
    radius: float = 0.0

    def to_dict(self) -> dict:
        return {
            "arcs": self.arcs.to_dict()["arcs"],
            "cutoffs": list(self.cutoffs),
            "bins": self.bins,
            "stabilization_index": self.stabilization_index,
            "low_confidence": self.low_confidence,
            "radius": self.radius,
            "occupied_bins": self.occupied_bins,
        }


def _quantiles(x: np.ndarray, qs) -> np.ndarray:
    """np.quantile(x, qs), linear method, bit for bit, for ascending qs in
    [0, 1]; partitions x in place.

    Each order statistic comes from a one-pivot partition of the part of x
    above the one before, and its successor from a min.  np.quantile
    partitions at all of them in one call, which takes about 5x longer."""
    n = x.size
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    below = np.floor(virtual)
    gamma = virtual - below
    lo, hi = np.empty(gamma.size), np.empty(gamma.size)
    start = 0
    for j, k in enumerate(below.astype(np.intp).tolist()):
        if k + 1 >= n:  # q = 1, or a single value
            lo[j] = hi[j] = x[start:].max()
            continue
        x[start:].partition(k - start)
        lo[j], hi[j] = x[k], x[k + 1:].min()
        start = k
    # numpy's _lerp, step for step
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _default_cutoffs(positive: np.ndarray) -> tuple[float, ...]:
    """Quantile cutoffs plus a geometric ladder of absolute floors, from
    the positive moduli (partitioned in place).

    A cutoff equal to the largest modulus leaves no sample beyond it, so it
    is dropped, unless every cutoff is: the moduli are then all equal, and
    that one cutoff leaves an empty estimate."""
    if positive.size == 0:
        return (1.0,)
    m0, *qs = _quantiles(positive, (0.5, 0.90, 0.99, 0.999)).tolist()
    top = float(positive.max())
    ladder = []
    m = max(m0, 1e-12)
    while m < top:
        ladder.append(m)
        m *= 4.0
    return tuple(sorted(c for c in set(qs + ladder) if c < top)) or (top,)


def _bin_index(w: np.ndarray, bins: int) -> np.ndarray:
    """Index of the equal direction bin of [0, 2*pi) that each value's
    angle lies in.  The angles are those of np.mod(np.angle(w), 2*pi) bit
    for bit (adding 0.0 turns -0.0 into +0.0 as np.mod does), in one array
    worked in place, at under half the cost of np.mod."""
    ang = np.arctan2(w.imag, w.real)
    ang += TWO_PI * (ang < 0.0)
    ang /= TWO_PI
    ang *= bins
    idx = ang.astype(np.intp)
    return np.minimum(idx, bins - 1, out=idx)


# estimated arcs are widened by this many bins on each side
FATTEN_BINS = 1
# fewer samples than this beyond the top cutoff flag low confidence
MIN_LARGE = 8


def estimate_directions(samples: RangeSample, bins: int = 720,
                        cutoffs=None) -> DirectionEstimate:
    """Bin sample directions and keep bins that survive every cutoff from
    the stabilization index on; merge surviving bins into closed arcs.

    The sample is finite, as every RangeSample is.  One pass in blocks
    builds the per-bin maximum modulus G, which np.maximum.at gives
    exactly in any order.  Only the default cutoffs hold the positive
    moduli of the whole sample, for their quantiles."""
    if bins < 90:
        raise ValueError("need at least 90 bins")
    w = samples.w
    if cutoffs is not None:
        cutoffs = tuple(sorted(float(c) for c in cutoffs))
    positive = np.empty(w.size) if cutoffs is None else None
    n_pos = n_large = 0  # n_large: the samples beyond the top cutoff
    G = np.zeros(bins)
    for blk in _blocks(w.size):
        wb = w[blk]
        mods = np.abs(wb)
        np.maximum.at(G, _bin_index(wb, bins), mods)
        if cutoffs is None:
            mods = mods[mods > 0]
            positive[n_pos:n_pos + mods.size] = mods
            n_pos += mods.size
        else:
            n_large += int(np.count_nonzero(mods > cutoffs[-1]))
    if cutoffs is None:
        positive = positive[:n_pos]
        cutoffs = _default_cutoffs(positive)
        # every default cutoff is positive
        n_large = int(np.count_nonzero(positive > cutoffs[-1]))

    occupied = [G > c for c in cutoffs]
    stab = len(cutoffs) - 1
    for j in range(len(cutoffs) - 1):
        if np.array_equal(occupied[j], occupied[j + 1]):
            stab = j
            break
    # occupancy is monotone in the cutoff, so the occupied set at the
    # stabilization index is the one every later cutoff agrees on up to
    # further shrinking; it is the estimate
    keep = occupied[stab]
    low_conf = n_large < MIN_LARGE

    if n_large == 0:
        arcs, n_kept = ArcSet.empty(), 0
    else:
        arcs = ArcSet.from_bins(keep).fatten(FATTEN_BINS * (TWO_PI / bins))
        n_kept = int(np.count_nonzero(keep))
    return DirectionEstimate(arcs=arcs, cutoffs=cutoffs, bins=bins,
                             occupied_bins=n_kept,
                             stabilization_index=stab,
                             low_confidence=low_conf,
                             radius=samples.radius)


def antipodal_pairs(arcs: ArcSet, tol_rad: float = 0.0) -> ArcSet:
    """Angles theta (mod pi, represented in [0, pi)) with both e^{i theta}
    and -e^{i theta} in the tol-fattened set."""
    fat = arcs.fatten(tol_rad) if tol_rad > 0 else arcs
    both = fat.intersect(fat.rotate(math.pi))
    half = both.intersect(ArcSet.from_intervals([(0.0, math.pi)]))
    # drop the duplicate representative at pi when 0 is already present
    out = list(half.arcs)
    if len(out) >= 2 and out[0][0] == 0.0 and out[-1] == (math.pi, math.pi):
        out.pop()
    return ArcSet.from_intervals(out)


# the grids of the values that antipodal_gap_alpha and i_alpha_fit report
GAP_ALPHA_STEP = 1e-3
I_ALPHA_STEPS = 200
# clearance of the antipodal gap probes, and the margin of normalization
GAP_TOL_RAD = 1e-3
# the directions that cone normalization and the three-arc fit keep clear of
CONE_AXES = (math.pi / 2, math.pi, 3 * math.pi / 2)


def antipodal_gap_alpha(E: ArcSet, tol_rad: float = GAP_TOL_RAD) -> float | None:
    """The first angle alpha = k * GAP_ALPHA_STEP, k >= 0, whose three
    probes {alpha - pi/2, alpha, alpha + pi/2} all stay at least tol away
    from E, or None.

    The allowed angles are the closed complement of E fattened by tol and
    of its copies turned by +-pi/2.  With tol 0 every angle would do."""
    if not tol_rad > 0:
        raise ValueError(f"tol_rad must be positive, got {tol_rad}")
    fat = E.fatten(tol_rad)
    allowed = fat.union(fat.rotate(math.pi / 2)).union(
        fat.rotate(-math.pi / 2)).complement()
    fits = []
    for lo, hi in allowed.arcs:
        # an arc through 2*pi holds the grid point 0
        alpha = 0.0 if hi >= TWO_PI else math.ceil(lo / GAP_ALPHA_STEP) * GAP_ALPHA_STEP
        if alpha <= hi:
            fits.append(alpha)
    return min(fits, default=None)


def cone_avoidance_normalize(arcs: ArcSet) -> dict | None:
    """Rotation normalization: returns {theta, a} such that the rotated
    arcs avoid the whole cone about the vertical axis and the half cone
    about the negative real axis with margin GAP_TOL_RAD, with a > 1."""
    alpha = antipodal_gap_alpha(arcs)
    if alpha is None:
        return None
    theta = math.pi - alpha  # sends e^{i alpha} to -1
    rotated = arcs.rotate(theta)
    gap = float(np.min(rotated.distance(CONE_AXES)))
    phi = min(gap - GAP_TOL_RAD, math.pi / 4 - 1e-6)
    if phi <= 0:
        return None
    a = 1.0 / math.tan(phi)
    if a <= 1.0:
        return None
    return {"theta": theta, "a": a}


def i_alpha_arcs(alpha: float) -> ArcSet:
    """The three-arc circle subset left after cone normalization."""
    if not (0.0 < alpha < math.pi / 4):
        raise ValueError("alpha must lie in (0, pi/4)")
    return ArcSet.from_intervals([
        (-math.pi / 2 + alpha, math.pi / 2 - alpha),
        (math.pi / 2 + alpha, math.pi - alpha),
        (math.pi + alpha, 3 * math.pi / 2 - alpha),
    ])


def i_alpha_fit(arcs: ArcSet, tol_rad: float = 1e-2) -> float | None:
    """Largest alpha = (pi/4) k / I_ALPHA_STEPS, 0 < k < I_ALPHA_STEPS, with
    arcs inside the tol-fattened three-arc set, or None when none works.

    The fattened set leaves out the open arcs of radius alpha - tol about
    pi/2, pi and 3pi/2, so alpha works up to tol plus the distance from
    arcs to the nearest of those three directions."""
    alpha_max = tol_rad + float(np.min(arcs.distance(CONE_AXES)))
    # alpha at or below the tolerance would admit sets touching the
    # excluded directions; demand a genuine margin
    alphas = [(math.pi / 4) * k / I_ALPHA_STEPS for k in range(1, I_ALPHA_STEPS)]
    return max((a for a in alphas if tol_rad < a <= alpha_max), default=None)


@dataclass
class PhiProfile:
    """Upper envelope of v over u-slabs of the sampled range, clipped at 0."""

    edges: np.ndarray
    values: np.ndarray
    occupied: np.ndarray
    radius: float

    def to_dict(self) -> dict:
        return {
            "edges": [float(x) for x in self.edges],
            "values": [float(x) for x in self.values],
            "occupied": [bool(b) for b in self.occupied],
            "radius": self.radius,
        }


def phi_profile(samples: RangeSample, bins: int = 200) -> PhiProfile:
    """The envelope of v over equal u-slabs of a (finite) range sample."""
    u = samples.w.real
    v = samples.w.imag
    lo, hi = float(u.min()), float(u.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    values = np.full(bins, -np.inf)
    for blk in _blocks(u.size):
        idx = np.minimum(((u[blk] - lo) / (hi - lo) * bins).astype(int), bins - 1)
        np.maximum.at(values, idx, v[blk])
    occupied = np.isfinite(values)
    values = np.where(occupied, np.maximum(values, 0.0), 0.0)
    return PhiProfile(edges=edges, values=values, occupied=occupied,
                      radius=samples.radius)


# u0 runs over umax / 2^k for k = PHI_DYADIC_STEPS down to 1
PHI_DYADIC_STEPS = 7
# the last tail ratio must fall to this fraction of the first
PHI_FINAL_FACTOR = 0.1


def phi_sublinearity_check(profile: PhiProfile) -> dict:
    """Does the tail ratio max_{|u| >= u0} phi(u)/|u| vanish as u0 grows?

    The profile must span at least two decades of |u|.
    """
    centers = 0.5 * (profile.edges[:-1] + profile.edges[1:])
    mask = profile.occupied & (np.abs(centers) > 0)
    if not np.any(mask):
        return {"holds": False, "error": "insufficient-span", "ratios": []}
    absu = np.abs(centers[mask])
    phi = profile.values[mask]
    umax = float(absu.max())
    if umax / max(float(absu.min()), 1e-300) < 100.0:
        return {"holds": False, "error": "insufficient-span", "ratios": []}
    # stop the schedule at umax/2: the tail at umax itself holds a single
    # bin and says nothing about the limit
    u0s = [umax / 2 ** k for k in range(PHI_DYADIC_STEPS, 0, -1)]
    ratio = phi / absu
    # no tail is empty: every u0 is at most umax / 2
    ratios = [float(np.max(ratio[absu >= u0])) for u0 in u0s]
    nonincreasing = all(b <= a * (1.0 + 1e-9) + 1e-12
                        for a, b in zip(ratios, ratios[1:]))
    if ratios[0] <= 1e-12:
        holds = all(r <= 1e-12 for r in ratios)
    else:
        holds = nonincreasing and ratios[-1] <= PHI_FINAL_FACTOR * ratios[0]
    return {"holds": holds, "ratios": ratios, "u0_schedule": u0s}
