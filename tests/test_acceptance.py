"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each criterion runs at its stated tolerance; the printed summary lines
survive output capture so a full run reads as a seven-line report.
"""

import json
import math
import time

import numpy as np
import pytest

from harmonic_range.arcs import ArcSet
from harmonic_range.catalog import load_catalog
from harmonic_range.circles import harnack_bound_check, lemma_abs_check
from harmonic_range.cli import main as cli_main
from harmonic_range.expressions import (Add, Const, HarmonicComponent, Mul,
                                        Neg, Pow, Z, evaluate, parse_map)
from harmonic_range.lewis import lewis_disc_search, rescaled_range_check, \
    rescaled_sequence
from harmonic_range.ranges import (antipodal_pairs, estimate_directions,
                                   i_alpha_fit, sample_range)
from harmonic_range.theorems import (check_log2_inequalities,
                                     is_constant_proxy, log2_sample_points)
from harmonic_range.zeros import (RadiusTooSmallError, detect_dependence,
                                  local_structure, tract_report)


def _announce(capsys, num, name, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_poly(rng, max_deg=4, min_deg=1):
    """Random complex polynomial as an expression tree."""
    deg = int(rng.integers(min_deg, max_deg + 1))
    node = Const(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    for k in range(1, deg + 1):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if k == deg and abs(c) < 0.3:
            c += 0.5 * (1 if c.real >= 0 else -1)
        term = Mul(Const(c), Pow(Z, k) if k > 1 else Z)
        node = Add(node, term)
    return node


def _disc_min(expr, z0, r, part="real"):
    comp = HarmonicComponent(expr, part)
    lows = []
    for rho in np.linspace(0.0, r, 25):
        theta = np.arange(256) * (2 * math.pi / 256)
        vals = np.asarray(comp.value(z0 + rho * np.exp(1j * theta)),
                          dtype=float)
        lows.append(float(np.min(vals)))
    return min(lows)


def test_criterion_1_example_direction_sets(capsys):
    cat = load_catalog()
    ok = True
    # stored arc set: the three-point cross has no antipodal pair
    cross = cat["lewis-cross"]
    est = cross.directions()
    ok &= antipodal_pairs(est.arcs, tol_rad=math.radians(1.0)).is_empty

    for name in ("vertical-line", "exp-wedge", "exp-exp-cross"):
        entry = cat[name]
        t0 = time.monotonic()
        est = entry.directions()
        want = entry.expected_directions()
        hd = math.degrees(est.arcs.hausdorff(want))
        elapsed = time.monotonic() - t0
        ok &= hd <= 2.0 and elapsed <= 60.0
    _announce(capsys, 1, "example direction sets within 2 degrees", ok)


def test_criterion_2_inequality_suites(capsys):
    ok = True
    # (a) two-puncture log inequalities on one million quasi-random points
    z = log2_sample_points(1_000_000, seed=7)
    verdict = check_log2_inequalities(z)
    ok &= verdict.conclusion_holds and not verdict.conclusion_witnesses

    rng = np.random.default_rng(2024)
    # (b) growth bound with factor (r+s)/(r-s), exactly 5 at s = 2r/3
    for _ in range(200):
        p = _random_poly(rng)
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = float(rng.uniform(0.5, 2.0))
        shift = 1.0 - _disc_min(p, z0, r)
        u = HarmonicComponent(Add(p, Const(complex(shift, 0.0))), "real")
        s = 2.0 * r / 3.0
        res = harnack_bound_check(u, z0, r, s)
        factor = (r + s) / (r - s)
        ok &= res["holds"] and abs(factor - 5.0) < 1e-9

    # (c) absolute-value doubling bound for functions vanishing at the center
    for _ in range(200):
        p = _random_poly(rng)
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = float(rng.uniform(0.5, 2.0))
        centered = Add(p, Neg(Const(evaluate(p, z0))))
        u = HarmonicComponent(centered, "real")
        res = lemma_abs_check(u, z0, r)
        ok &= res["holds"] and res["lhs"] <= res["rhs"] * (1.0 + 1e-9)
    _announce(capsys, 2, "inequality suites with zero violations", ok)


def test_criterion_3_disc_search_and_rescaling(capsys):
    corpus = [
        ("u=re(z); v=im(z)", [4.0, 8.0]),
        ("u=re(z^3); v=im(z^3)", [4.0, 8.0]),
        ("u=im(exp(z)); v=re(exp(z))", [10.0, 20.0]),
        ("u=re(z^2+z); v=im(z^2+z)", [4.0, 8.0]),
    ]
    t0 = time.monotonic()
    ok = True
    for src, schedule in corpus:
        f = parse_map(src)
        for R in schedule:
            disc = lewis_disc_search(f.u, R)
            ok &= disc.empirical_C0 <= 100.0
            ok &= abs(f.u.value(disc.center)) <= 1e-8 * (1.0 + disc.M)
        for rm in rescaled_sequence(f, schedule):
            cert = rm.certify()
            ok &= cert["center_zero"] <= 1e-9
            ok &= cert["sup_abs"] <= 1.0 + 1e-6
            ok &= cert["M_three_quarters"] >= 1.0 / cert["empirical_C0"] - 1e-12
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120.0
    _announce(capsys, 3, "disc search and rescaling certificates", ok)


def test_criterion_4_zero_set_structure(capsys):
    ok = True
    for n in range(1, 6):
        u = HarmonicComponent(Pow(Z, n) if n > 1 else Z, "real")
        res = local_structure(u, 0.0)
        ok &= res["n"] == n
        want = [(2 * k + 1) * math.pi / (2 * n) for k in range(2 * n)]
        errs = [abs(a - b) for a, b in zip(sorted(res["ray_angles"]), want)]
        ok &= len(res["ray_angles"]) == 2 * n and max(errs) < 1e-6

    rng = np.random.default_rng(77)
    for _ in range(20):
        p = _random_poly(rng, max_deg=6)
        u = HarmonicComponent(p, "real")
        deg = u.degree()
        rep = None
        for R in (10.0, 20.0, 40.0, 80.0, 160.0):
            try:
                rep = tract_report(u, R)
                break
            except RadiusTooSmallError:
                continue
        ok &= rep is not None and rep.components == 2 * deg
    _announce(capsys, 4, "zero multiplicities and tract counts", ok)


def test_criterion_5_dependence_detection(capsys):
    ok = True
    for lam, a in ((2.0, 1.0), (3.0, 1.0), (4.0, 1.0), (0.5, 2.1)):
        # v = lam * u with u = x: v = Im(lam * i * z)
        f = parse_map(f"u=re(z); v=im({lam}*i*z)")
        s = sample_range(f, 50.0, n_grid=128, seed=0)
        rep = detect_dependence(s, a=a, R=1.0)
        ok &= rep.dependent and abs(rep.b - 1.0 / lam) <= 1e-12

    # the two-exponential counterexample: no polynomial component, and the
    # least-squares line leaves a large residual
    f = parse_map("u=im(exp(z)); v=im(0-exp(0-z))")
    s = sample_range(f, 30.0, n_grid=256, seed=0)
    rep = detect_dependence(s, a=1e9, R=1.0)
    ok &= (not rep.dependent) and rep.residual >= 1e-2
    _announce(capsys, 5, "dependence recovery and counterexample", ok)


def test_criterion_6_zero_inclusions_for_normalized_maps(capsys):
    ok = True
    checked = 0
    for name, entry in sorted(load_catalog().items()):
        if entry.kind != "map":
            continue
        s = entry.sample()
        if is_constant_proxy(s.w.real) and is_constant_proxy(s.w.imag):
            continue
        if entry.harmonic_map().u.degree() == 0:
            continue
        est = entry.directions(s)
        alpha = i_alpha_fit(est.arcs)
        if alpha is None:
            continue
        checked += 1
        f = entry.harmonic_map()
        for rm in rescaled_sequence(f, [4.0, 8.0]):
            verdict = rescaled_range_check(rm, est.arcs)
            if verdict.conclusion_holds:
                continue
            # a reported violation only counts if it survives independent
            # re-evaluation at the witness point
            surviving = []
            for w in verdict.conclusion_witnesses:
                z0 = complex(*w["z"])
                U = float(np.asarray(rm.U(np.array(z0))).ravel()[0])
                V = float(np.asarray(rm.V(np.array(z0))).ravel()[0])
                if w["kind"] == "zeroU-not-zeroV":
                    if abs(U) <= 1e-9 and abs(V) > 1e-2:
                        surviving.append(w)
                elif w["kind"] == "zeroV-not-Upos":
                    if abs(V) <= 1e-9 and U < -1e-2:
                        surviving.append(w)
            ok &= not surviving
    ok &= checked >= 2
    _announce(capsys, 6, "zero-set inclusions for normalized corpus maps", ok)


def test_criterion_7_deterministic_json(capsys):
    ok = True
    for argv in (
        ["directions", "--catalog", "exp-exp-cross"],
        ["dependence", "--map", "u=re(z); v=im(3*i*z)", "--R", "50",
         "--n-grid", "128"],
        ["check", "--theorem", "log2", "--n", "65536", "--seed", "7"],
    ):
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        ok &= first == second and first.strip() != ""
        json.loads(first)
    _announce(capsys, 7, "byte-identical JSON under fixed seeds", ok)
