"""Whole-sample passes run in blocks of ranges.POINT_BLOCK points: the
block size moves no output bit, and the traced peak of each pass stays
near its result instead of growing with the temporaries of the sample."""

import json
import tracemalloc

import numpy as np
import pytest

import harmonic_range.cli as cli
import harmonic_range.ranges as ranges
import harmonic_range.theorems as theorems
import harmonic_range.zeros as zeros
from harmonic_range.arcs import ArcSet
from harmonic_range.expressions import NonFiniteError, parse_map
from harmonic_range.ranges import sample_range
from harmonic_range.svg import render_range_svg
from harmonic_range.theorems import (ExcludedPointError, check_log2_inequalities,
                                     log2_sample_points)

BLOCKS = [1000, 4097, 10**7]

MAPS = ["u=re(z^3-z); v=im(z^2)",
        "u=re(exp(z)); v=im(exp(z))",
        # overflows on part of the disc: the sample is refused
        "u=re(exp(exp(z))); v=im(z)"]


def _sample_bytes(src: str) -> tuple[bytes, bytes] | str:
    """The bytes of the sample, or the message that refuses it."""
    # 2 * 256^2 = 131,072 points: eight blocks at the default size
    try:
        s = sample_range(parse_map(src), 8.0, n_grid=256, seed=3)
    except NonFiniteError as err:
        return str(err)
    return s.z.tobytes(), s.w.tobytes()


@pytest.mark.parametrize("src", MAPS)
def test_sample_range_does_not_depend_on_the_block_size(src, monkeypatch):
    want = _sample_bytes(src)
    assert isinstance(want, str) == (src == MAPS[2])
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert _sample_bytes(src) == want, block


# radius 2e-9 drops the points within 1e-9 of 0, about a quarter of them
@pytest.mark.parametrize("n, seed, radius", [(200_001, 3, 100.0), (70_000, 5, 2e-9)])
def test_log2_sample_points_do_not_depend_on_the_block_size(n, seed, radius,
                                                             monkeypatch):
    monkeypatch.setattr(theorems, "LOG2_RADIUS", radius)
    want = log2_sample_points(n, seed)
    assert 0 < want.size <= n
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert log2_sample_points(n, seed).tobytes() == want.tobytes(), block


def test_to_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    s = sample_range(parse_map(MAPS[1]), 8.0, n_grid=256, seed=3)
    s.to_csv(tmp_path / "want.csv")
    want = (tmp_path / "want.csv").read_bytes()
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        s.to_csv(tmp_path / f"{block}.csv")
        assert (tmp_path / f"{block}.csv").read_bytes() == want, block


def _witness_indices(z: np.ndarray, verdict: dict) -> list[int]:
    return [int(np.flatnonzero((z.real == w["z"][0]) & (z.imag == w["z"][1]))[0])
            for w in verdict["conclusion"]["witnesses"]]


# a negative slack turns points near z = 2 and z = 1/2 into witnesses;
# at -0.01 the second kind's first four span several blocks of 4097
# points, and at -0.05 the first block of 1000 holds 11 of the first kind
@pytest.mark.parametrize("slack", [None, -0.01, -0.05])
def test_the_log2_check_does_not_depend_on_the_block_size(slack, monkeypatch):
    monkeypatch.setattr(theorems, "LOG2_RADIUS", 3.0)
    z = log2_sample_points(1 << 17, seed=4)
    if slack is not None:
        monkeypatch.setattr(theorems, "LOG2_SLACK", slack)
    want = check_log2_inequalities(z).to_dict()
    if slack is None:
        assert want["conclusion"]["holds"]
    else:
        found = _witness_indices(z, want)
        assert len(found) == 8
        # four of each kind, each kind in index order
        assert found[:4] == sorted(found[:4]) and found[4:] == sorted(found[4:])
        assert len({k // BLOCKS[1] for k in found[4:]}) > 1
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert check_log2_inequalities(z).to_dict() == want, block


@pytest.mark.parametrize("first, last, named", [
    # the closest point lies in the last block
    (5e-13, 1.0 + 1e-13j, "(1+1e-13j)"),
    # a tie goes to the first of the closest points
    (-1e-13, 1e-13j, "(-1e-13+0j)"),
])
def test_the_excluded_point_does_not_depend_on_the_block_size(first, last, named,
                                                              monkeypatch):
    z = log2_sample_points(50_000, seed=1)
    z = np.concatenate([[first], z, [last]])
    message = f"sample too close to a puncture: {named}"
    for block in [ranges.POINT_BLOCK] + BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        with pytest.raises(ExcludedPointError) as err:
            check_log2_inequalities(z)
        assert str(err.value) == message, block


def _traced_peak(fn) -> tuple[object, int]:
    """fn() and the most it allocated at once, in bytes, as traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MB = 10**6


def test_the_log2_check_peaks_in_blocks():
    z = log2_sample_points(1 << 20, seed=7)
    verdict, peak = _traced_peak(lambda: check_log2_inequalities(z))
    assert verdict.conclusion_holds
    assert peak < 8 * MB, peak


def test_the_cli_log2_check_never_holds_its_points(capsys):
    n = 1 << 20
    code, peak = _traced_peak(lambda: cli.main(["check", "--theorem", "log2",
                                                "--n", str(n)]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sampling"]["count"] == n
    # the points alone would take 16 MB
    assert peak < 8 * MB, peak


def test_log2_sample_points_peak_at_the_result_and_the_sobol_numerators():
    n = 1 << 20
    z, peak = _traced_peak(lambda: log2_sample_points(n, seed=7))
    # the uint32 numerators of the Sobol' points take 8 bytes a point
    assert peak < z.nbytes + 8 * n + 4 * MB, peak


def test_to_csv_peaks_in_blocks(tmp_path):
    s = sample_range(parse_map(MAPS[1]), 8.0, n_grid=256, seed=3)
    assert s.count == 131_072
    _, peak = _traced_peak(lambda: s.to_csv(tmp_path / "s.csv"))
    assert peak < 8 * MB, peak


def _exp_sample(n_grid: int = 256):
    # 2 * n_grid^2 points: eight blocks at the default size for n_grid 256
    return sample_range(parse_map(MAPS[1]), 4.0, n_grid=n_grid, seed=3)


def _odd(s):
    """The sample without its last point, so that it has an odd count."""
    return ranges.RangeSample(z=s.z[:-1], w=s.w[:-1], radius=s.radius,
                              n_grid=s.n_grid, seed=s.seed)


PASSES = {
    "directions-default": lambda s: ranges.estimate_directions(s),
    "directions-explicit": lambda s: ranges.estimate_directions(
        s, cutoffs=(2.0, 10.0, 40.0)),
    "phi": lambda s: ranges.phi_profile(s),
    "halfplane-even": lambda s: theorems.check_halfplane_theorem(
        None, 0.3, ranges.estimate_directions(s), s),
    "halfplane-odd": lambda s: theorems.check_halfplane_theorem(
        None, 0.3, ranges.estimate_directions(s), _odd(s)),
    "antipodal": lambda s: theorems.check_antipodal_theorem(
        None, ranges.estimate_directions(s), s),
    # four witnesses of each kind, the lewis region's second kind across
    # two blocks of 1000 points
    "lewis-region": lambda s: theorems.check_lewis_region(None, 1.0, s),
    "cor-alpha": lambda s: theorems.check_cor_alpha(None, 1.0, 0.5, 30.0, s),
}


@pytest.mark.parametrize("name", PASSES)
def test_sample_passes_do_not_depend_on_the_block_size(name, monkeypatch):
    s = _exp_sample()
    run = PASSES[name]
    want = json.dumps(run(s).to_dict())
    if name.startswith("halfplane"):
        # not constant, so max_dev is reported too
        assert '"max_dev"' in want
    if name in ("lewis-region", "cor-alpha"):
        witnesses = json.loads(want)["hypothesis"]["witnesses"]
        assert len(witnesses) == (8 if name == "lewis-region" else 4)
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert json.dumps(run(s).to_dict()) == want, block


@pytest.mark.parametrize("made_by", ["sample_range", "RangeSample"])
def test_the_nonfinite_count_does_not_depend_on_the_block_size(made_by, monkeypatch):
    f = parse_map("u=re(exp(exp(z))); v=im(exp(exp(z))-exp(exp(z)))")
    # the points of every sample at these settings, whatever the map
    z = sample_range(parse_map("u=re(z); v=im(z)"), 8.0, n_grid=256, seed=3).z
    with np.errstate(over="ignore", invalid="ignore"):
        w = f.value(z)
    assert np.isinf(w).any() and np.isnan(w).any()
    message = (f"{np.count_nonzero(~np.isfinite(w))} of {w.size} samples of "
               "the range are not finite: the map overflows")
    make = {"sample_range": lambda: sample_range(f, 8.0, n_grid=256, seed=3),
            "RangeSample": lambda: ranges.RangeSample(z=z, w=w, radius=8.0,
                                                      n_grid=256, seed=3)}
    for block in [ranges.POINT_BLOCK] + BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        with pytest.raises(NonFiniteError) as err:
            make[made_by]()
        assert str(err.value) == message, block


@pytest.mark.parametrize("block", [1, 1000, 4096, 4097, 10**7])
def test_sobol_blocks_are_the_columns_of_sobol_ints(block, monkeypatch):
    monkeypatch.setattr(ranges, "POINT_BLOCK", block)
    # block 1 takes a Python step per point: keep its counts small
    counts = [0, 1, 2, 3, 4096, 4097, 5000] + ([3 * 4096 + 5, 70_001]
                                                if block > 1 else [])
    for n in counts:
        want = ranges._sobol_ints(n, 11)
        got = np.empty_like(want)
        starts = []
        for start, q in ranges._sobol_blocks(n, 11):
            starts.append(start)
            got[:, start:start + q.shape[1]] = q
        assert np.array_equal(got, want), (block, n)
        assert starts == list(range(0, n, 1 << (block.bit_length() - 1)))


@pytest.fixture(scope="module")
def big_sample():
    # 2 * 512^2 = 2^19 points, 8 MB each of z and w, as the exp-wedge tasks
    s = _exp_sample(512)
    assert s.count == 1 << 19
    return s


@pytest.mark.parametrize("name", ["directions-default", "directions-explicit",
                                  "phi", "halfplane", "antipodal",
                                  "lewis-region", "cor-alpha"])
def test_sample_passes_peak_in_blocks(name, big_sample):
    run = PASSES.get(name)
    if name == "halfplane":
        # the estimate is made outside the traced call
        est = ranges.estimate_directions(big_sample, cutoffs=(2.0, 10.0, 40.0))
        run = lambda s: theorems.check_halfplane_theorem(None, 0.3, est, s)  # noqa: E731
    _, peak = _traced_peak(lambda: run(big_sample))
    assert peak < 1 * MB, peak


def test_render_range_svg_peaks_at_its_parts_and_one_document(big_sample):
    arcs = ArcSet.from_intervals([(0.1, 0.5)])
    svg, peak = _traced_peak(lambda: render_range_svg(big_sample, arcs))
    assert svg.count("\n") > 10_000
    # the parts, chunks of lines, take about what the document takes, and
    # the join is its one copy; one string a line took 1.7 times the
    # document, and a second copy one more
    assert peak < 2 * len(svg) + MB // 4, peak


def test_log2_sample_points_peak_in_blocks():
    n = 1 << 20
    z, peak = _traced_peak(lambda: log2_sample_points(n, seed=7))
    assert z.size == n
    assert peak < z.nbytes + 5 * MB, peak


# three maps of the range-survey kinds: a polynomial, exp and a line
PEAK_MAPS = [MAPS[0], MAPS[1], "u=re(z); v=im(0.5*i*z)"]


@pytest.mark.parametrize("src", PEAK_MAPS)
def test_sample_range_peaks_at_its_values(src):
    f = parse_map(src)
    s, peak = _traced_peak(lambda: sample_range(f, 4.0, n_grid=512, seed=3))
    assert s.count == 1 << 19
    # the points of a block are made, evaluated and dropped
    assert peak < s.w.nbytes + 6 * MB, peak


def test_a_generated_sample_holds_its_values_alone():
    s = _exp_sample()
    held = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
    assert len(held) == 1 and held[0] is s.w
    # its points are computed each time they are read
    assert s.z is not s.z
    assert s.z.tobytes() == s.z.tobytes()


def _sample_moduli():
    s = sample_range(parse_map("u=re(z); v=im(z)"), 8.0, n_grid=100, seed=5)
    p0 = ranges.sobol_points(s.n_grid ** 2, s.seed)[:, 0]
    # the modulus of each generated point r e^{it} is the radius r it is
    # generated at: ring k's R k / n_grid, or R sqrt(p0) for Sobol' point
    # j, p0 from sobol_points (which matches scipy), not from ranges' radii
    k = np.arange(1, s.n_grid + 1)
    radii = np.concatenate([np.repeat(8.0 * (k / s.n_grid), s.n_grid),
                            8.0 * np.sqrt(p0)])
    return s, radii, {
        "grid-radius": 8.0 * (3 / s.n_grid),
        # a Sobol' point's modulus, which its np.abs exceeds by one ulp
        "sobol-modulus": float(radii[s.n_grid ** 2 + 4332]),
        "half-radius": 4.0,
        "radius": 8.0,
    }


@pytest.mark.parametrize("which", ["grid-radius", "sobol-modulus",
                                   "half-radius", "radius"])
def test_the_far_mask_is_the_modulus_test(which, monkeypatch):
    s, radii, at = _sample_moduli()
    R = at[which]
    want = radii > R
    assert 0 < np.count_nonzero(want) < s.count or which == "radius"
    # a point generated on |z| = R is not beyond R, though np.abs may round
    # its modulus above R; off that circle the two tests agree
    modulus = np.abs(s.z)
    clear = np.abs(modulus - R) > 1e-12 * R
    assert np.array_equal(want[clear], (modulus > R)[clear])
    by_hand = ranges.RangeSample(z=s.z, w=s.w, radius=s.radius,
                                 n_grid=s.n_grid, seed=s.seed)
    for block in [ranges.POINT_BLOCK] + BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        for sample, mask in ((s, want), (by_hand, modulus > R)):
            got = np.concatenate([sample.beyond(R, blk)
                                  for blk in ranges._blocks(sample.count)])
            assert np.array_equal(got, mask), (which, block)


def test_the_far_mask_computes_no_point(monkeypatch):
    s = sample_range(parse_map("u=re(z); v=im(0.5*i*z)"), 100.0, n_grid=256, seed=3)
    calls = []
    fill = ranges._polar_fill
    monkeypatch.setattr(ranges, "_polar_fill",
                        lambda out, r, t: calls.append(out.size) or fill(out, r, t))
    for R in (1.0, 100.0 * (3 / 256), 100.0):
        for blk in ranges._blocks(s.count):
            s.beyond(R, blk)
    assert zeros.detect_dependence(s, a=2.5, R=100.0 * (3 / 256)).dependent
    assert calls == []


def _line_sample(n_grid: int = 256):
    return sample_range(parse_map("u=re(z); v=im(0.5*i*z)"), 100.0,
                        n_grid=n_grid, seed=3)


DEPENDENCE = {
    "holds": lambda s: zeros.detect_dependence(s, a=2.5, R=1.0),
    # the hypothesis fails: a witness, the first point of largest excess
    "witness": lambda s: zeros.detect_dependence(s, a=1.0, R=30.0),
    "degenerate": lambda s: zeros.detect_dependence(
        ranges.RangeSample(z=s.z, w=s.w.real + 0j, radius=s.radius,
                           n_grid=s.n_grid, seed=s.seed), a=1.0, R=1.0),
    "murdoch-kuran": lambda s: theorems.check_murdoch_kuran(
        parse_map("u=re(z); v=im(0.5*i*z)"), 2.5, 1.0, s),
}


@pytest.mark.parametrize("name", DEPENDENCE)
def test_dependence_does_not_depend_on_the_block_size(name, monkeypatch):
    s = _line_sample()
    run = DEPENDENCE[name]
    want = json.dumps(run(s).to_dict())
    if name == "witness":
        assert json.loads(want)["hypothesis_witness"] is not None
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert json.dumps(run(s).to_dict()) == want, block


def test_dependence_peaks_at_its_far_products():
    # 2^19 points, as the exp-wedge tasks: all but 0.01 % lie beyond R = 1
    s = _line_sample(512)
    rep, peak = _traced_peak(lambda: zeros.detect_dependence(s, a=2.5, R=1.0))
    assert rep.dependent
    n_far = int(np.count_nonzero(np.abs(s.z) > 1.0))
    assert peak < 24 * n_far + 4 * MB, peak
