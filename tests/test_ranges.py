"""Range sampling, direction estimation, cone normalization, Phi profile."""

import csv
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import harmonic_range.ranges as ranges
from harmonic_range.arcs import ArcSet, TWO_PI
from harmonic_range.expressions import NonFiniteError, parse_map
from harmonic_range.ranges import (FATTEN_BINS, GAP_TOL_RAD, RangeSample,
                                   _bin_index, _polar_fill,
                                   antipodal_gap_alpha, antipodal_pairs,
                                   cone_avoidance_normalize,
                                   estimate_directions, i_alpha_arcs,
                                   i_alpha_fit, phi_profile,
                                   phi_sublinearity_check, sample_range,
                                   sobol_points)

PI = math.pi


def test_sample_range_determinism():
    f = parse_map("u=re(z^2); v=im(z^2)")
    a = sample_range(f, 5.0, n_grid=64, seed=3)
    b = sample_range(f, 5.0, n_grid=64, seed=3)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.w, b.w)


def test_sample_range_different_seed_differs():
    f = parse_map("u=re(z); v=im(z)")
    a = sample_range(f, 5.0, n_grid=64, seed=0)
    b = sample_range(f, 5.0, n_grid=64, seed=1)
    assert not np.array_equal(a.z, b.z)


def test_sample_range_covers_axes():
    f = parse_map("u=re(z); v=im(z)")
    s = sample_range(f, 4.0, n_grid=64, seed=0)
    # the polar part of the grid includes exact rays at angles 0 and pi
    assert np.any((np.abs(s.z.imag) < 1e-12) & (s.z.real > 0))
    assert np.any((np.abs(s.z.imag) < 1e-12) & (s.z.real < 0))
    assert float(np.max(np.abs(s.z))) <= 4.0 + 1e-12


def test_sample_range_rejects_small_grid():
    f = parse_map("u=re(z); v=im(z)")
    with pytest.raises(ValueError):
        sample_range(f, 5.0, n_grid=16)


@pytest.mark.parametrize("R", [0.0, -5.0, math.nan, math.inf])
def test_sample_range_rejects_bad_radius(R):
    f = parse_map("u=re(z); v=im(z)")
    with pytest.raises(ValueError):
        sample_range(f, R, n_grid=64)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _polar(r, t) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(r), np.shape(t)), dtype=complex)
    _polar_fill(out, r, t)
    return out


@pytest.mark.parametrize("n_grid, seed", [(64, 0), (64, 9), (256, 3), (100, 2**31 - 1)])
def test_sample_range_points_are_the_complex_exponential_bit_for_bit(n_grid, seed):
    # the points as r * exp(1j * t), grid and Sobol' part concatenated
    R = 7.5
    radii = R * (np.arange(1, n_grid + 1) / n_grid)
    theta = TWO_PI * np.arange(n_grid) / n_grid
    zg = (radii[:, None] * np.exp(1j * theta[None, :])).ravel()
    pts = sobol_points(n_grid * n_grid, seed)
    r = R * np.sqrt(pts[:, 0])
    t = TWO_PI * pts[:, 1]
    want = np.concatenate([zg, r * np.exp(1j * t)])
    s = sample_range(parse_map("u=re(z); v=im(z)"), R, n_grid=n_grid, seed=seed)
    assert _bits(s.z) == _bits(want)


def test_polar_fill_is_the_complex_exponential_bit_for_bit():
    rng = np.random.default_rng(20)
    r = rng.uniform(1e-3, 1e3, 10**6)
    t = rng.uniform(-4 * PI, 4 * PI, 10**6)
    assert _bits(_polar(r, t)) == _bits(r * np.exp(1j * t))
    # the quarter turns, where one of cos and sin is (nearly) zero
    r = np.array([[1e-300], [0.5], [1.0], [3.0], [1e300]])
    t = np.arange(-8, 9) * (PI / 2)
    assert _bits(_polar(r, t)) == _bits(r * np.exp(1j * t))


def test_a_range_sample_refuses_inf_and_nan():
    z = np.array([0j, 1, 2, 3j])
    w = np.array([0j, complex(math.nan, 0.0), complex(0.0, math.inf), 1])
    with pytest.raises(NonFiniteError, match="^2 of 4 samples of the range are "
                       "not finite: the map overflows$"):
        RangeSample(z=z, w=w, radius=3.0, n_grid=64, seed=0)


@pytest.mark.parametrize("start, stop", [(0, 1), (0, 20_000), (9_999, 10_001),
                                         (10_000, 10_001), (123, 4_567),
                                         (19_999, 20_000), (15_000, None)])
def test_points_of_a_run_are_those_of_the_whole_sample(start, stop):
    # 2 * 100^2 points: the grid ends at 10,000, inside a block
    s = sample_range(parse_map("u=re(z); v=im(z)"), 6.0, n_grid=100, seed=4)
    assert _bits(s.points(slice(start, stop))) == _bits(s.z[start:stop])


def test_a_sample_built_by_hand_keeps_its_points():
    z = np.array([0j, 1, 2, 3j])
    s = RangeSample(z=z, w=z * 2, radius=3.0, n_grid=64, seed=0)
    assert s.z is z
    assert np.shares_memory(s.points(slice(1, 3)), z)
    assert s.count == 4


def test_the_metadata_names_the_points_a_sample_holds():
    # a sample built by hand once claimed the generated grid
    s = sample_range(parse_map("u=re(z); v=im(z)"), 3.0, n_grid=64, seed=2)
    by_hand = RangeSample(z=s.z, w=s.w, radius=s.radius, n_grid=s.n_grid,
                          seed=s.seed)
    assert s.metadata()["grid_type"] == "polar+sobol"
    assert by_hand.metadata() == dict(s.metadata(), grid_type="explicit")


@pytest.mark.parametrize("z, n_grid", [(np.zeros(3, dtype=complex), 64), (None, 2)])
def test_a_range_sample_needs_a_value_for_each_point(z, n_grid):
    with pytest.raises(ValueError, match="^4 values for (3|8) points$"):
        RangeSample(z=z, w=np.zeros(4, dtype=complex), radius=1.0,
                    n_grid=n_grid, seed=0)


def test_points_are_read_in_runs():
    s = sample_range(parse_map("u=re(z); v=im(z)"), 6.0, n_grid=64, seed=4)
    with pytest.raises(ValueError, match="consecutive"):
        s.points(slice(0, 10, 2))


def test_to_csv_bytes_match_csv_writer(tmp_path):
    f = parse_map("u=re(exp(z)); v=im(z^3)")
    s = sample_range(f, 3.0, n_grid=64, seed=2)
    s.w[5] = complex(math.inf, math.nan)
    s.w[7] = complex(-math.inf, -0.0)
    s.to_csv(tmp_path / "fast.csv")
    # the row-at-a-time writer that to_csv replaced
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_re", "z_im", "w_re", "w_im"])
        for z, w in zip(s.z, s.w):
            writer.writerow([repr(float(z.real)), repr(float(z.imag)),
                             repr(float(w.real)), repr(float(w.imag))])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


SOBOL_SEEDS = list(range(64)) + [2**31 - 1]


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 10000, 2**16, 2**18, 2**20])
def test_sobol_points_match_scipy(n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in SOBOL_SEEDS:
        want = qmc.Sobol(d=2, scramble=True, seed=seed).random(n)
        assert np.array_equal(sobol_points(n, seed), want), seed


def test_sobol_points_match_scipy_base2():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in (0, 7, 2**31 - 1):
        for m in range(21):
            want = qmc.Sobol(d=2, scramble=True, seed=seed).random_base2(m)
            assert np.array_equal(sobol_points(2**m, seed), want), (seed, m)


# digests of scipy 1.17 output; the points are exact multiples of 2^-30
# built by integer operations, so they hold on any platform
@pytest.mark.parametrize("n, seed, digest", [
    (1000, 0, "e3152894b84a35fc4daa100f2499d4a6b7080be4313612017f62c9673381fc67"),
    (2**16, 7, "1cad056facf05054ff764383b0246eec0d19a9aab2d749b633288f8e30682395"),
    (12345, 2**31 - 1,
     "c3414b958fd6adb4af15d0a6d66a0b3b3b7a65b579f99d2577cff1706a584c72"),
])
def test_sobol_points_pinned(n, seed, digest):
    pts = sobol_points(n, seed)
    assert pts.shape == (n, 2)
    assert hashlib.sha256(pts.astype("<f8").tobytes()).hexdigest() == digest


def test_sobol_points_rejects_too_many():
    with pytest.raises(ValueError):
        sobol_points(2**30 + 1, 0)


def test_directions_bounded_map_empty():
    f = parse_map("u=re(3); v=im(0-7*i)")
    s = sample_range(f, 10.0, n_grid=64, seed=0)
    est = estimate_directions(s)
    assert est.arcs.is_empty


def test_directions_line_map():
    f = parse_map("u=re(z); v=im(0)")
    s = sample_range(f, 100.0, n_grid=256, seed=0)
    est = estimate_directions(s)
    want = ArcSet.from_points([0.0, PI])
    assert math.degrees(est.arcs.hausdorff(want)) < 2.0


# a degree-1 map whose range is the plane, centred away from 0: the
# largest moduli lie in one narrow arc of directions
OFFSET_LINE = "u=re((1.2+0.9*i)+(0.6-0.2*i)*z); v=im((1.2+0.9*i)+(0.6-0.2*i)*z)"


@pytest.mark.parametrize("seed", range(5))
def test_an_offset_linear_map_gives_the_full_circle(seed):
    s = sample_range(parse_map(OFFSET_LINE), 30.0, n_grid=256, seed=seed)
    est = estimate_directions(s)
    assert math.degrees(est.arcs.hausdorff(ArcSet.full())) < 2.0
    assert not est.low_confidence


def _poly(coeffs) -> str:
    return "+".join(f"({c.real:.6f}{c.imag:+.6f}*i)*z^{k}"
                    for k, c in enumerate(coeffs))


def _equal_degree_maps(seed: int, count: int = 6) -> list[str]:
    """Maps u = Re P, v = Im Q with deg P = deg Q = 1 to 3, coefficients
    uniform in the unit square, every other one with its constant terms
    scaled by 50; kept when T(zeta) = Re(p zeta) + i Im(q zeta), of the
    leading coefficients p and q, has cond(T) <= 20.  T maps the unit
    circle onto an ellipse about 0, so each range reaches every direction."""
    rng = np.random.default_rng(seed)
    maps = []
    for k in range(10 * count):
        deg = int(rng.integers(1, 4))
        P, Q = ([1, 1j] @ rng.uniform(-1, 1, (2, deg + 1)) for _ in range(2))
        if k % 2:
            P[0], Q[0] = 50 * P[0], 50 * Q[0]
        T = [[P[-1].real, -P[-1].imag], [Q[-1].imag, Q[-1].real]]
        if np.linalg.cond(T) <= 20:
            maps.append(f"u=re({_poly(P)}); v=im({_poly(Q)})")
        if len(maps) == count:
            return maps
    raise AssertionError("too few well-conditioned maps")


@pytest.mark.parametrize("src", [pytest.param(src, id=f"seed5-{k}")
                                 for k, src in enumerate(_equal_degree_maps(5))])
def test_equal_degree_maps_give_the_full_circle(src):
    s = sample_range(parse_map(src), 100.0, n_grid=128, seed=1)
    est = estimate_directions(s)
    assert math.degrees(est.arcs.hausdorff(ArcSet.full())) < 2.0


@pytest.mark.parametrize("P", ["z", "0.5*i*z", "z^2-z"])
def test_a_translate_has_the_arcs_of_the_map(P):
    c = "(5-3*i)"
    f = parse_map(f"u=re(z); v=im({P})")
    g = parse_map(f"u=re(z+{c}); v=im({P}+{c})")
    a, b = (estimate_directions(sample_range(h, 12.0, n_grid=256, seed=2))
            for h in (f, g))
    assert not a.arcs.is_empty
    assert a.arcs.hausdorff(b.arcs) <= TWO_PI / a.bins


def test_a_constant_map_gives_no_direction():
    s = sample_range(parse_map("u=re(3); v=im(0-7*i)"), 10.0, n_grid=64, seed=0)
    est = estimate_directions(s)
    assert est.arcs.is_empty and est.occupied_bins == 0
    assert est.low_confidence
    assert est.cutoffs == () and est.stabilization_index == 0


def test_the_inner_rings_of_a_generated_sample_compute_no_point(monkeypatch):
    s = sample_range(parse_map("u=re(z^2); v=im(z)"), 10.0, n_grid=100, seed=4)
    calls = []
    fill = ranges._polar_fill
    monkeypatch.setattr(ranges, "_polar_fill",
                        lambda out, r, t: calls.append(out.size) or fill(out, r, t))
    # rings 1 .. 40 of 100 have radius <= 0.4 R: the first 40 rows
    want = np.arange(s.count) >= 40 * 100
    for block in (777, 4000, 10**7):
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        got = np.zeros(s.count, dtype=bool)
        for blk in ranges._blocks(s.count):
            got[blk][s.outer(blk)] = True
        assert np.array_equal(got, want), block
        estimate_directions(s)
    assert calls == []


def _bin_index_by_mod(w, bins):
    """The binning _bin_index replaced."""
    return np.minimum((np.mod(np.angle(w), TWO_PI) / TWO_PI * bins).astype(int),
                      bins - 1)


@pytest.mark.parametrize("bins", [90, 95, 100, 720, 1000])
def test_bin_index_matches_the_mod_of_the_angle(bins):
    edge = np.array([complex(1.0, 0.0), complex(1.0, -0.0),     # angle +-0
                     complex(-1.0, 0.0), complex(-1.0, -0.0),   # +-pi
                     complex(0.0, -1.0), complex(-0.0, -1.0),   # -pi/2
                     complex(0.0, 1.0), complex(0.0, 0.0), complex(-0.0, -0.0),
                     complex(1.0, -1e-300),                     # rounds up to 2 pi
                     complex(-1.0, -1e-300), complex(1e300, 1e-300)])
    rng = np.random.default_rng(bins)
    w = np.concatenate([edge, rng.normal(size=4096) + 1j * rng.normal(size=4096)])
    idx = _bin_index(w, bins)
    assert idx.dtype == np.intp
    assert np.array_equal(idx, _bin_index_by_mod(w, bins))
    assert idx[9] == bins - 1


def _estimate_per_bin(samples, bins, cutoffs):
    """estimate_directions as it was built: np.mod binning, then one
    interval per kept bin through ArcSet.from_intervals."""
    mods = np.abs(samples.w)
    cutoffs = tuple(sorted(float(c) for c in cutoffs))
    G = np.zeros(bins)
    np.maximum.at(G, _bin_index_by_mod(samples.w, bins), mods)
    occupied = [G > c for c in cutoffs]
    stab = len(cutoffs) - 1
    for j in range(len(cutoffs) - 1):
        if np.array_equal(occupied[j], occupied[j + 1]):
            stab = j
            break
    keep = np.nonzero(occupied[stab])[0]
    if not np.count_nonzero(mods > cutoffs[-1]):
        return ArcSet.empty(), 0
    width = TWO_PI / bins
    arcs = ArcSet.from_intervals([(k * width, (k + 1) * width) for k in keep])
    return arcs.fatten(FATTEN_BINS * width), len(keep)


@st.composite
def _bin_masks(draw):
    """Kept bins as a union of runs, which may wrap from the last bin to 0."""
    bins = draw(st.sampled_from([90, 95, 100, 360, 720, 721, 1000]))
    keep = np.zeros(bins, dtype=bool)
    for start, length in draw(st.lists(st.tuples(st.integers(0, bins - 1),
                                                 st.integers(1, bins)),
                                       max_size=6)):
        keep[(start + np.arange(length)) % bins] = True
    return keep


def _mask(bins, *runs):
    keep = np.zeros(bins, dtype=bool)
    for lo, hi in runs:
        keep[lo:hi] = True
    return keep


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bin_masks())
@example(_mask(720))                                  # empty
@example(_mask(720, (0, 1)))                          # one bin at the seam
@example(_mask(95, (94, 95)))                         # the last bin, past 2 pi
@example(_mask(720, (0, 720)))                        # every bin
@example(_mask(95, (0, 95)))
@example(_mask(720, (0, 4), (700, 720)))              # a run across the seam
@example(_mask(100, (0, 1), (37, 60), (99, 100)))
def test_estimate_directions_matches_the_per_bin_arcs(keep):
    # one sample at the middle of each bin, large in the kept bins
    bins = keep.size
    w = np.where(keep, 2.0, 0.5) * np.exp(1j * (np.arange(bins) + 0.5) * (TWO_PI / bins))
    samples = RangeSample(z=w.copy(), w=w, radius=1.0, n_grid=64, seed=0)
    est = estimate_directions(samples, bins=bins, cutoffs=(1.0,))
    arcs, n_kept = _estimate_per_bin(samples, bins, (1.0,))
    assert json.dumps(est.arcs.to_dict()) == json.dumps(arcs.to_dict())
    assert est.occupied_bins == n_kept == np.count_nonzero(keep)


def test_antipodal_pairs_on_line():
    arcs = ArcSet.from_points([1.0, 1.0 + PI]).fatten(0.01)
    pairs = antipodal_pairs(arcs, tol_rad=0.02)
    assert not pairs.is_empty
    assert pairs.distance(1.0) < 0.02


def test_antipodal_pairs_empty_for_cross():
    arcs = ArcSet.from_points([PI / 4, PI, 3 * PI / 2])
    assert antipodal_pairs(arcs, tol_rad=math.radians(1.0)).is_empty


def test_antipodal_gap_alpha_finds_probe():
    cross = ArcSet.from_points([PI / 4, PI, 3 * PI / 2])
    alpha = antipodal_gap_alpha(cross)
    assert alpha is not None
    for probe in (alpha, alpha + PI / 2, alpha - PI / 2):
        assert cross.distance(probe) >= 1e-3


def test_i_alpha_arcs_structure():
    alpha = 0.3
    arcs = i_alpha_arcs(alpha)
    assert len(arcs.arcs) == 3
    assert arcs.measure() == pytest.approx(2 * PI - 6 * alpha)
    assert arcs.contains(0.0)
    assert not arcs.contains(PI / 2)
    assert not arcs.contains(PI)


def test_i_alpha_fit_accepts_tilted_line():
    # directions of the pair (x, 2x) sit strictly inside the three arcs
    beta = math.atan2(2.0, 1.0)
    arcs = ArcSet.from_points([beta, beta + PI])
    alpha = i_alpha_fit(arcs)
    assert alpha is not None and alpha > 0.1


def test_i_alpha_fit_rejects_horizontal_line():
    # pi is never inside the three-arc set
    arcs = ArcSet.from_points([0.0, PI])
    assert i_alpha_fit(arcs) is None


# ---- reference oracles: the scans these routines replaced ----

def _sampled_subset_of(a, b, tol=0.0):
    if a.is_empty:
        return True
    fat = b.fatten(tol) if tol > 0 else b
    step = max(tol / 4.0, 1e-4)
    thetas = []
    for lo, hi in a.arcs:
        n = 1 if hi == lo else max(2, int(math.ceil((hi - lo) / step)) + 1)
        thetas += [lo if n == 1 else lo + (hi - lo) * k / (n - 1) for k in range(n)]
    return bool(np.all(fat.contains(np.array(thetas))))


def _scanned_i_alpha_fit(arcs, tol_rad=1e-2, grid=200):
    best = None
    for k in range(1, grid):
        alpha = (math.pi / 4) * k / grid
        if alpha <= tol_rad:
            continue
        if _sampled_subset_of(arcs, i_alpha_arcs(alpha), tol=tol_rad):
            best = alpha
    return best


def _scanned_gap_alpha(E, tol_rad=1e-3, grid_step=1e-3):
    alphas = np.arange(int(math.ceil(TWO_PI / grid_step))) * grid_step
    fits = ((E.distance(alphas) >= tol_rad)
            & (E.distance(alphas + math.pi / 2) >= tol_rad)
            & (E.distance(alphas - math.pi / 2) >= tol_rad))
    return float(alphas[fits.argmax()]) if fits.any() else None


def _random_arcs(rng, max_arcs, mean_len):
    """Point arcs, arcs across the 0 == 2*pi seam and ordinary arcs."""
    out = []
    for _ in range(rng.randint(0, max_arcs)):
        kind = rng.random()
        if kind < 0.3:
            lo = rng.uniform(-1.0, 8.0)
            out.append((lo, lo))
        elif kind < 0.5:
            lo = TWO_PI - rng.uniform(0.0, mean_len)
            out.append((lo, lo + rng.uniform(0.0, 3.0 * mean_len)))
        else:
            lo = rng.uniform(-1.0, 8.0)
            out.append((lo, lo + rng.expovariate(1.0 / mean_len)))
    return ArcSet.from_intervals(out)


def test_i_alpha_fit_matches_scan():
    rng = random.Random(4)
    for _ in range(30):
        # the scan samples at tol/4, so small sets keep it fast; at these
        # tolerances its step is shorter than the narrowest excluded arc
        # (radius alpha - tol) of every alpha it tries, so it sees them all
        arcs = _random_arcs(rng, max_arcs=3, mean_len=0.03)
        tol = rng.choice([1e-3, 1e-2])
        assert i_alpha_fit(arcs, tol_rad=tol) == _scanned_i_alpha_fit(arcs, tol), arcs


def test_i_alpha_fit_sees_an_arc_through_an_excluded_direction():
    # at tol 0.05 the scan sampled this arc at its two endpoints only and
    # reported alpha = 0.05498 for an arc that runs through pi/2
    arcs = ArcSet.from_intervals([(PI / 2 - 0.006, PI / 2 + 0.006)])
    assert _scanned_i_alpha_fit(arcs, tol_rad=0.05) == pytest.approx(0.05498, abs=1e-5)
    assert i_alpha_fit(arcs, tol_rad=0.05) is None


def test_antipodal_gap_alpha_matches_scan():
    rng = random.Random(5)
    for _ in range(100):
        arcs = _random_arcs(rng, max_arcs=6, mean_len=0.4)
        tol = rng.choice([1e-3, 1e-2, 0.1])
        assert antipodal_gap_alpha(arcs, tol_rad=tol) == _scanned_gap_alpha(arcs, tol), arcs


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_antipodal_gap_alpha_needs_positive_tolerance(tol):
    with pytest.raises(ValueError):
        antipodal_gap_alpha(ArcSet.from_points([1.0]), tol_rad=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_antipodal_tolerances_must_be_finite(tol):
    # tol nan once gave the pairs of tol 0; tol inf blamed the arc endpoints
    arcs = ArcSet.from_intervals([(0.1, 0.4), (3.3, 3.5)])
    for find in (antipodal_pairs, antipodal_gap_alpha):
        with pytest.raises(ValueError, match="^tol_rad must be finite"):
            find(arcs, tol_rad=tol)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf])
def test_explicit_cutoffs_must_be_finite(cutoff):
    # a nan cutoff once emptied the estimate: every G > nan is false
    s = sample_range(parse_map("u=re(z); v=im(z)"), 8.0, n_grid=64, seed=0)
    with pytest.raises(ValueError, match=f"^cutoff must be finite, got {cutoff}$"):
        estimate_directions(s, cutoffs=(1.0, cutoff))


def test_cone_avoidance_normalize_cross():
    cross = ArcSet.from_points([PI / 4, PI, 3 * PI / 2])
    assert cone_avoidance_normalize(cross) is not None


_cone_test_sets = st.lists(
    st.tuples(st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI),
              st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.5]) | st.floats(0.0, 2.0)),
    max_size=4).map(lambda pairs: ArcSet.from_intervals(
        [(lo, lo + n) for lo, n in pairs]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_cone_test_sets)
@example(ArcSet.from_points([PI / 4, PI, 3 * PI / 2]))
@example(ArcSet.from_points([0.3]))
def test_cone_avoidance_normalize_keeps_its_promise(arcs):
    """With a > 1, the rotated set clears the cone of half-angle atan(1/a)
    about the vertical axis, and about the negative real axis, by
    GAP_TOL_RAD."""
    norm = cone_avoidance_normalize(arcs)
    if norm is None:
        return
    assert norm["a"] > 1.0
    rotated = arcs.rotate(norm["theta"])
    clearance = float(np.min(rotated.distance(np.array([PI / 2, PI, 3 * PI / 2]))))
    assert clearance >= math.atan(1.0 / norm["a"]) + GAP_TOL_RAD - 1e-12


def test_cone_avoidance_normalize_full_circle_fails():
    assert cone_avoidance_normalize(ArcSet.full()) is None


def test_phi_profile_nonnegative_and_sublinear():
    # v = -Re z^2 is bounded above by 0 for |u| large, so the tail ratio
    # of the upper envelope decays
    f = parse_map("u=re(z); v=im(0-z^2*i)")
    s = sample_range(f, 12.0, n_grid=256, seed=0)
    prof = phi_profile(s, bins=200)
    assert prof.values.shape == (200,)
    assert np.all(prof.values >= 0.0)
    check = phi_sublinearity_check(prof)
    assert check["holds"]
    ratios = check["ratios"]
    assert ratios[-1] <= 0.1 * ratios[0]


def test_phi_sublinearity_fails_for_exponential_growth():
    # the pair (Re z, e^x sin y) has upper envelope about e^u on u > 0
    f = parse_map("u=re(z); v=im(exp(z))")
    s = sample_range(f, 12.0, n_grid=256, seed=0)
    check = phi_sublinearity_check(phi_profile(s, bins=200))
    assert not check["holds"]
