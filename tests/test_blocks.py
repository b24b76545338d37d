"""Whole-sample passes run in blocks of ranges.POINT_BLOCK points: the
block size moves no output bit, and the traced peak of each pass stays
near its result instead of growing with the temporaries of the sample."""

import tracemalloc

import numpy as np
import pytest

import harmonic_range.ranges as ranges
import harmonic_range.theorems as theorems
from harmonic_range.expressions import parse_map
from harmonic_range.ranges import sample_range
from harmonic_range.theorems import (ExcludedPointError, check_log2_inequalities,
                                     log2_sample_points)

BLOCKS = [1000, 4097, 10**7]

MAPS = ["u=re(z^3-z); v=im(z^2)",
        "u=re(exp(z)); v=im(exp(z))",
        # overflows on part of the disc: inf and NaN samples are kept
        "u=re(exp(exp(z))); v=im(z)"]


def _sample_bytes(src: str) -> tuple[bytes, bytes]:
    # 2 * 256^2 = 131,072 points: two blocks at the default size
    s = sample_range(parse_map(src), 8.0, n_grid=256, seed=3)
    return s.z.tobytes(), s.w.tobytes()


@pytest.mark.parametrize("src", MAPS)
def test_sample_range_does_not_depend_on_the_block_size(src, monkeypatch):
    want = _sample_bytes(src)
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert _sample_bytes(src) == want, block


# radius 2e-9 drops the points within 1e-9 of 0, about a quarter of them
@pytest.mark.parametrize("n, seed, radius", [(200_001, 3, 100.0), (70_000, 5, 2e-9)])
def test_log2_sample_points_do_not_depend_on_the_block_size(n, seed, radius,
                                                             monkeypatch):
    want = log2_sample_points(n, seed, radius)
    assert 0 < want.size <= n
    for block in BLOCKS:
        monkeypatch.setattr(ranges, "POINT_BLOCK", block)
        assert log2_sample_points(n, seed, radius).tobytes() == want.tobytes(), block


def test_to_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    s = sample_range(parse_map(MAPS[2]), 8.0, n_grid=256, seed=3)
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
    z = log2_sample_points(1 << 17, seed=4, radius=3.0)
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
