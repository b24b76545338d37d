"""Range sampling and asymptotic-direction estimation.

The range of an entire harmonic map is sampled on a bounded disc; a
direction on the unit circle counts as asymptotic when the range, centred
on a sample, reaches farther in it from the outer part of the disc than
from the inner part.  Estimation is inherently one-sided: directions
realized only beyond the sampling radius can be missed, so every estimate
records the radius it was computed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import ArcSet, TWO_PI
from .circles import _require_finite_number, _require_positive
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
    "i_alpha_fit",
    "phi_profile",
    "phi_sublinearity_check",
]


# passes over a whole point set go through it in blocks of this many
# points, so that their temporaries do not grow with the set; only
# elementwise work is blocked, so no result depends on the block size
POINT_BLOCK = 1 << 14


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
                 n_grid: int, seed: int):
        self._z = z
        self.w = w
        self.radius = radius
        self.n_grid = n_grid
        self.seed = seed
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
        """The mask of the points of the run of indices blk that lie
        beyond R: np.abs(z) > R for explicit points; for generated ones
        r > R, r the radius that the point r e^{it} is generated at (its
        modulus, which its rounded coordinates carry to a few ulps), so
        no point is computed.  A point generated on the circle |z| = R is
        not beyond R, whatever its angle."""
        if self._z is not None:
            return np.abs(self._z[blk]) > R
        return _sample_radii(self.radius, self.n_grid, self.seed,
                             *self._span(blk)) > R

    def outer(self, blk: slice):
        """An index into the run of indices blk of its points outside the
        inner set of the growth rule: the mask |z| > INNER_FRACTION R for
        explicit points; for generated ones a slice past the polar-grid
        rings of radius <= INNER_FRACTION R, which come first in the grid
        (row by row in increasing radius), computed with no point."""
        if self._z is not None:
            return self.beyond(INNER_FRACTION * self.radius, blk)
        rings = math.floor(INNER_FRACTION * self.n_grid) * self.n_grid
        return slice(max(rings - self._span(blk)[0], 0), None)

    def metadata(self) -> dict:
        return {
            "radius": self.radius,
            "n_grid": self.n_grid,
            "seed": self.seed,
            "grid_type": "polar+sobol" if self._z is None else "explicit",
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


def _sobol_disc(n: int, R: float, seed: int, start: int = 0, out=None):
    """Sobol' points start .. n-1 (p0, p1) of seed, carried onto D(0, R)
    as R sqrt(p0) e^{2 pi i p1}, as (index, points) pairs cut as
    _sobol_blocks cuts them: the one source of generated Sobol' disc
    points, for the second half of a range sample and for the log 2
    check alike.  Each block is a new array, or, with out (room for
    points start .. n-1), a view of out that it is written into.

    The radii are made in the imaginary parts, which r sin t then
    overwrites, so that no block of radii is held beside the points:
    sqrt and products round correctly, so a strided view moves no bit,
    while cos and sin are taken of a contiguous t."""
    for i, q in _sobol_blocks(n, seed, start):
        z = (np.empty(q.shape[1], dtype=complex) if out is None
             else out[i - start:i - start + q.shape[1]])
        r, t = z.imag, q[1] * _SOBOL_UNIT
        np.sqrt(np.multiply(q[0], _SOBOL_UNIT, out=r), out=r)
        r *= R
        t *= TWO_PI
        _polar_fill(z, r, t)
        del q, t  # not held while the next block is made
        yield i, z


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
        for _ in _sobol_disc(stop - m, R, seed, first - m, out=z[first - start:]):
            pass  # each block is written into z
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
    """The arcs of estimate_directions.  Under the growth rule
    low_confidence means that fewer than MIN_LARGE samples outside the
    inner set fall in kept bins."""

    arcs: ArcSet
    bins: int
    occupied_bins: int = 0  # the bins the arcs are built from
    low_confidence: bool = False
    radius: float = 0.0

    def to_dict(self) -> dict:
        return {
            "arcs": self.arcs.to_dict()["arcs"],
            "bins": self.bins,
            "low_confidence": self.low_confidence,
            "radius": self.radius,
            "occupied_bins": self.occupied_bins,
        }


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
# fewer samples than this in the kept bins flag low confidence
MIN_LARGE = 8
# the growth rule's margin, and the radius of its inner set over R
GROWTH_RATIO = 1.5
INNER_FRACTION = 0.4


def estimate_directions(samples: RangeSample, bins: int = 720,
                        cutoffs=None) -> DirectionEstimate:
    """Bin the directions of the (finite) sample and merge the kept bins
    into closed arcs, widened by FATTEN_BINS bins; one pass in blocks
    takes the bin maxima, which np.maximum.at gives exactly in any order.

    With no cutoffs, the growth rule keeps bin b of the angle of w - w[0]
    when G(b) > GROWTH_RATIO max(Gi(b-1), Gi(b), Gi(b+1)) and G(b) > 0, G
    and Gi its largest |w - w[0]| over the sample and over the inner set
    (RangeSample.outer): a translation moves no asymptotic direction.
    Then low_confidence means fewer than MIN_LARGE samples outside the
    inner set in the kept bins.
    With cutoffs, a fixed ladder keeps the bins whose largest |w| passes
    every cutoff from the stabilization index on, and low_confidence
    means fewer than MIN_LARGE samples beyond the top one.  No front end
    passes cutoffs: the keyword and the ladder stay for the benchmark's
    exp tasks alone, until it stops passing them (ROADMAP item 1)."""
    if bins < 90:
        raise ValueError("need at least 90 bins")
    w = samples.w
    if cutoffs is None:
        # bin b of the inner set at b, and of the rest at bins + b
        centre = w[0] if w.size else 0j
        G = np.zeros(2 * bins)
        counts = np.zeros(2 * bins, dtype=np.intp)
        for blk in _blocks(w.size):
            d = w[blk] - centre
            idx = _bin_index(d, bins)
            idx[samples.outer(blk)] += bins
            np.maximum.at(G, idx, np.abs(d))
            counts += np.bincount(idx, minlength=2 * bins)
        Gi, Go = G[:bins], G[bins:]
        near = np.maximum(np.maximum(np.roll(Gi, 1), Gi), np.roll(Gi, -1))
        # G = max(Gi, Go) passes only through Go; near >= 0, so Go > 0
        keep = Go > GROWTH_RATIO * near
        n_large = int(counts[bins:][keep].sum())
    else:
        cutoffs = tuple(sorted(float(c) for c in cutoffs))
        for c in cutoffs:
            _require_finite_number(c, "cutoff")
        n_large = 0  # the samples beyond the top cutoff
        G = np.zeros(bins)
        for blk in _blocks(w.size):
            mods = np.abs(w[blk])
            np.maximum.at(G, _bin_index(w[blk], bins), mods)
            n_large += int(np.count_nonzero(mods > cutoffs[-1]))
        occupied = [G > c for c in cutoffs]
        stab = len(cutoffs) - 1
        for j in range(len(cutoffs) - 1):
            if np.array_equal(occupied[j], occupied[j + 1]):
                stab = j
                break
        # occupancy is monotone in the cutoff, so the occupied set at the
        # stabilization index is the one every later cutoff agrees on up to
        # further shrinking; it is the estimate, unless no sample lies
        # beyond the top cutoff
        keep = occupied[stab] & (n_large > 0)

    arcs = ArcSet.from_bins(keep).fatten(FATTEN_BINS * (TWO_PI / bins))
    return DirectionEstimate(arcs=arcs, bins=bins,
                             occupied_bins=int(np.count_nonzero(keep)),
                             low_confidence=n_large < MIN_LARGE,
                             radius=samples.radius)


def antipodal_pairs(arcs: ArcSet, tol_rad: float = 0.0) -> ArcSet:
    """Angles theta (mod pi, represented in [0, pi)) with both e^{i theta}
    and -e^{i theta} in the tol-fattened set."""
    if not (math.isfinite(tol_rad) and tol_rad >= 0.0):
        raise ValueError(f"tol_rad must be finite and at least 0, got {tol_rad}")
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
# the three-arc fit's tolerance, and the least alpha it reports
I_ALPHA_TOL_RAD = 1e-2
# the directions that cone normalization and the three-arc fit keep clear of
CONE_AXES = (math.pi / 2, math.pi, 3 * math.pi / 2)


def antipodal_gap_alpha(E: ArcSet, tol_rad: float = GAP_TOL_RAD) -> float | None:
    """The first angle alpha = k * GAP_ALPHA_STEP, k >= 0, whose three
    probes {alpha - pi/2, alpha, alpha + pi/2} all stay at least tol away
    from E, or None.

    The allowed angles are the closed complement of E fattened by tol and
    of its copies turned by +-pi/2.  With tol 0 every angle would do."""
    _require_positive(tol_rad, "tol_rad")
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


def i_alpha_fit(arcs: ArcSet) -> float | None:
    """Largest alpha = (pi/4) k / I_ALPHA_STEPS, 0 < k < I_ALPHA_STEPS, with
    arcs inside the three-arc set fattened by I_ALPHA_TOL_RAD, or None
    when none works.

    The fattened set leaves out the open arcs of radius alpha - tol about
    pi/2, pi and 3pi/2, so alpha works up to tol plus the distance from
    arcs to the nearest of those three directions."""
    alpha_max = I_ALPHA_TOL_RAD + float(np.min(arcs.distance(CONE_AXES)))
    # alpha at or below the tolerance would admit sets touching the
    # excluded directions; demand a genuine margin
    alphas = [(math.pi / 4) * k / I_ALPHA_STEPS for k in range(1, I_ALPHA_STEPS)]
    return max((a for a in alphas if I_ALPHA_TOL_RAD < a <= alpha_max), default=None)


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
    """The envelope of v over bins >= 1 equal u-slabs of a (finite) range
    sample."""
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
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
