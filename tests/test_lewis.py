"""Zero finding, disc search, and rescaled unit-disc maps."""

import math

import numpy as np
import pytest

from harmonic_range import lewis
from harmonic_range.expressions import (Add, Const, HarmonicComponent, Mul, Z,
                                        parse_map)
from harmonic_range.circles import circle_max
from harmonic_range.arcs import ArcSet
from harmonic_range.lewis import (SEARCH_SAMPLES, LewisDisc,
                                  _candidate_centers, lewis_disc_search,
                                  rescaled_range_check, rescaled_sequence)
from harmonic_range.zeros import NoSignChangeError, Rect, find_zero


def test_find_zero_on_line():
    u = parse_map("u=re(z); v=im(z)").u
    z = find_zero(u, Rect(-1.0, 1.0, -1.0, 1.0))
    assert abs(u.value(z)) < 1e-10
    assert abs(z.real) < 1e-10


def test_find_zero_quadratic():
    u = parse_map("u=re(z^2); v=im(z)").u
    z = find_zero(u, Rect(0.1, 2.0, 0.1, 2.0))
    assert abs(u.value(z)) < 1e-9


def test_find_zero_requires_sign_change():
    u = parse_map("u=re(z^2+100); v=im(z)").u
    with pytest.raises(NoSignChangeError):
        find_zero(u, Rect(-1.0, 1.0, -1.0, 1.0))


def test_disc_search_linear():
    u = parse_map("u=re(z); v=im(z)").u
    disc = lewis_disc_search(u, 8.0)
    assert abs(u.value(disc.center)) < 1e-8
    assert disc.budget_met
    assert disc.empirical_C0 <= 100.0
    # for u = x centered on the zero line the doubling ratio is exactly 4/3
    assert disc.doubling_ratio == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_disc_search_cubic_closed_form_at_origin():
    # with the center pinned at 0, M(|u|,0,r)/M(u,0,3r/4) = (4/3)^3
    u = parse_map("u=re(z^3); v=im(z)").u
    r = 1.0
    num = circle_max(u, 0.0, r, absolute=True).value
    den = circle_max(u, 0.0, 0.75 * r).value
    assert num / den == pytest.approx((4.0 / 3.0) ** 3, rel=1e-8)


def test_disc_search_exponential():
    u = parse_map("u=im(exp(z)); v=im(z)").u
    disc = lewis_disc_search(u, 20.0)
    assert abs(u.value(disc.center)) < 1e-8
    assert disc.empirical_C0 <= 100.0


def test_rescaled_sequence_certificates():
    f = parse_map("u=re(z); v=im(z)")
    seq = rescaled_sequence(f, [2.0, 4.0, 8.0])
    Ms = [rm.disc.M for rm in seq]
    assert Ms == sorted(Ms)
    for rm in seq:
        cert = rm.certify()
        assert cert["center_zero_ok"]
        assert cert["sup_abs_ok"]
        assert cert["lower_bound_ok"]


def test_rescaled_map_unit_normalization():
    f = parse_map("u=re(z); v=im(z)")
    rm = rescaled_sequence(f, [4.0])[0]
    assert abs(float(np.asarray(rm.U(np.array(0.0j))).ravel()[0])) < 1e-12
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    boundary = np.asarray(rm.U(np.exp(1j * theta)), dtype=float)
    assert float(np.max(boundary)) == pytest.approx(1.0, abs=1e-6)


def test_rescaled_range_check_of_a_line_map():
    # v = 2u: the range is the line of slope 2 and {U=0} = {V=0}
    f = parse_map("u=re(z); v=im(2*i*z)")
    slope = math.atan2(2.0, 1.0)
    rm = rescaled_sequence(f, [4.0])[0]
    verdict = rescaled_range_check(rm, ArcSet.from_points([slope, slope + math.pi]))
    assert verdict.conclusion_holds
    assert verdict.params["angle_tol"] == math.radians(5.0)
    assert verdict.params["zero_tol"] == 1e-2
    assert verdict.sampling == {"grid_n": 101, "eps": 1e-3}


def _reference_rescaled_witnesses(rm, D_f):
    """The per-point loop that rescaled_range_check replaced."""
    Z = lewis._check_points()
    Uv = np.asarray(rm.U(Z), dtype=float)
    Vv = np.asarray(rm.V(Z), dtype=float)
    W = Uv + 1j * Vv
    mods = np.abs(W)
    witnesses = []
    nz = mods > lewis.RESCALED_ZERO_TOL * max(float(mods.max()), 1e-300)
    for z0, ang, w in zip(Z[nz], np.angle(W[nz]), W[nz]):
        if D_f.distance(float(ang)) > lewis.RESCALED_ANGLE_TOL:
            witnesses.append({"z": [z0.real, z0.imag], "w": [w.real, w.imag],
                              "kind": "direction"})
            if len(witnesses) >= 16:
                break
    tU = lewis.RESCALED_ZERO_TOL * max(float(np.max(np.abs(Uv))), 1e-300)
    tV = lewis.RESCALED_ZERO_TOL * max(float(np.max(np.abs(Vv))), 1e-300)
    zU = np.abs(Uv) <= tU
    zV = np.abs(Vv) <= tV
    for bad, kind in ((zU & ~zV, "zeroU-not-zeroV"),
                      (zV & (Uv < -tU), "zeroV-not-Upos")):
        for k in np.nonzero(bad)[0][:8]:
            witnesses.append({"z": [Z[k].real, Z[k].imag],
                              "w": [W[k].real, W[k].imag], "kind": kind})
    return witnesses


@pytest.mark.parametrize("source, D_f", [
    # v = 2u: every direction lies on the line of slope 2
    ("u=re(z); v=im(2*i*z)",
     ArcSet.from_points([math.atan2(2.0, 1.0), math.atan2(2.0, 1.0) + math.pi])),
    # the identity against one direction: the 16-witness cap is hit, and
    # both zero-set inclusions fail after it
    ("u=re(z); v=im(z)", ArcSet.from_points([0.3])),
])
def test_rescaled_range_check_matches_the_per_point_loop(source, D_f):
    rm = rescaled_sequence(parse_map(source), [4.0])[0]
    verdict = rescaled_range_check(rm, D_f)
    want = _reference_rescaled_witnesses(rm, D_f)
    assert verdict.conclusion_witnesses == want
    assert verdict.conclusion_holds == (not want)
    kinds = [w["kind"] for w in want]
    if not verdict.conclusion_holds:
        assert kinds[:17].count("direction") == 16
        assert {"zeroU-not-zeroV", "zeroV-not-Upos"} <= set(kinds)


def test_rescaled_sequence_rejects_bad_schedule():
    f = parse_map("u=re(z); v=im(z)")
    with pytest.raises(ValueError):
        rescaled_sequence(f, [4.0, 2.0])


def _exhaustive_disc_search(u, R, C0_budget=100.0):
    """Oracle: the radius scan of lewis_disc_search without pruning, which
    evaluates every admissible (center, radius) on the same centers."""
    M_half = circle_max(u, 0.0, R / 2.0).value
    theta = np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES)
    ring = np.exp(1j * theta)
    best = None
    for z in _candidate_centers(u, R):
        zval = abs(float(u.value(z)))
        for j in range(1, 21):
            r = R * 2.0 ** (-j)
            if r > R - abs(z):
                continue
            vals = np.asarray(u.value(z + r * ring), dtype=float)
            M_abs = float(np.max(np.abs(vals)))
            if M_abs <= 0 or zval > 1e-9 * M_abs:
                continue
            vals34 = np.asarray(u.value(z + 0.75 * r * ring), dtype=float)
            M_u = float(np.max(vals))
            M_34 = float(np.max(vals34))
            if M_34 <= 0 or M_u <= 0:
                continue
            score = max(M_abs / M_34, M_half / M_u)
            key = (score, r, (z.real, z.imag))
            if best is None or key < best[0]:
                best = (key, z, r)
    _, z, r = best
    M_abs = circle_max(u, z, r, absolute=True).value
    doubling = M_abs / circle_max(u, z, 0.75 * r).value
    growth = M_half / circle_max(u, z, r).value
    return LewisDisc(center=z, radius=r, M=M_abs, growth_ratio=growth,
                     doubling_ratio=doubling, domain_radius=R,
                     budget_met=max(doubling, growth) <= C0_budget)


ACCEPTANCE_SEARCHES = [
    ("u=re(z); v=im(z)", 4.0), ("u=re(z); v=im(z)", 8.0),
    ("u=re(z^3); v=im(z^3)", 4.0), ("u=re(z^3); v=im(z^3)", 8.0),
    ("u=im(exp(z)); v=re(exp(z))", 10.0), ("u=im(exp(z)); v=re(exp(z))", 20.0),
    ("u=re(z^2+z); v=im(z^2+z)", 4.0), ("u=re(z^2+z); v=im(z^2+z)", 8.0),
]


def _random_polynomial_searches(n=50, seed=7):
    """(component, R) pairs: re or im of a polynomial of degree 1-4 with
    random complex coefficients, built in Horner form."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        deg = int(rng.integers(1, 5))
        coeffs = rng.uniform(-1, 1, size=deg + 1) \
            + 1j * rng.uniform(-1, 1, size=deg + 1)
        expr = Const(complex(coeffs[-1]))
        for c in coeffs[-2::-1]:
            expr = Add(Const(complex(c)), Mul(Z, expr))
        u = HarmonicComponent(expr, ("real", "imag")[k % 2])
        out.append((u, round(float(rng.uniform(4.0, 30.0)), 3)))
    return out


@pytest.mark.parametrize("src,R", ACCEPTANCE_SEARCHES)
def test_pruned_search_matches_exhaustive_scan(src, R):
    u = parse_map(src).u
    # center, radius and score, and every ratio derived from them
    assert lewis_disc_search(u, R).to_dict() == \
        _exhaustive_disc_search(u, R).to_dict()


@pytest.mark.parametrize("u,R", [
    pytest.param(u, R, id=f"poly-{k}")
    for k, (u, R) in enumerate(_random_polynomial_searches())])
def test_pruned_search_matches_exhaustive_scan_on_polynomials(monkeypatch, u, R):
    # the unpruned oracle costs ~20x the search; pruning acts on the radius
    # scan of whatever centers it is given, so a coarser center mesh, fed
    # to both sides alike, checks the same code at a fraction of the cost
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    assert lewis_disc_search(u, R).to_dict() == \
        _exhaustive_disc_search(u, R).to_dict()
