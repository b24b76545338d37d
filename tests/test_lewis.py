"""Zero finding, disc search, and rescaled unit-disc maps."""

import math
import re

import mpmath
import numpy as np
import pytest

from harmonic_range import expressions, lewis
from harmonic_range.expressions import (Add, Const, Exp, HarmonicComponent,
                                        Mul, Neg, Pow, Var, Z, coefficients,
                                        degree, evaluate, parse_map)
from harmonic_range.circles import (DEFAULT_SAMPLES, NonFiniteError, _ring,
                                    circle_max)
from harmonic_range.arcs import ArcSet
from harmonic_range.lewis import (SEARCH_SAMPLES, LewisDisc,
                                  _candidate_centers, _scan_sampler,
                                  lewis_disc_search, rescaled_range_check,
                                  rescaled_sequence)
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


@pytest.mark.parametrize("src", ["u=re(z^2+100); v=im(z)", "u=re(exp(0.01*z)); v=im(z)"])
def test_a_component_with_no_zero_on_the_mesh_has_no_disc(src):
    # re(exp(0.01 z)) has no zero in |z| < 157; the scan once read the
    # exponent of a first center that did not exist, an IndexError
    with pytest.raises(NoSignChangeError, match="^no admissible disc found"):
        lewis_disc_search(parse_map(src).u, 4.0)


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


@pytest.mark.parametrize("R", [8.0, 30.0])
def test_overflow_in_the_search_is_a_typed_error(R):
    # at R = 8, exp(exp(z)) overflows on scanned circles though not on
    # |z| = R/2, and a disc picked among NaN scores would be no answer.
    # Under the warnings filter, a leaked numpy overflow warning fails this
    u = parse_map("u=re(exp(exp(z))); v=im(z)").u
    with pytest.raises(NonFiniteError, match="overflow"):
        lewis_disc_search(u, R)


def test_an_overflowing_center_mesh_is_a_typed_error():
    # u is finite on |z| = 6.5 but not at the corners of the center mesh,
    # |z| = 13, where NaN once dropped its sign-change edges unseen
    u = parse_map("u=re(exp(exp(z))); v=im(z)").u
    with pytest.raises(NonFiniteError, match="518 of 9216 samples of u on "
                       "the center mesh are not finite"):
        lewis_disc_search(u, 13.0)


@pytest.mark.parametrize("R", [2.0, 30.0])
def test_a_power_that_overflows_is_a_typed_error(R):
    # the scalar power at a candidate center or on |z| = R/2 once raised a
    # bare OverflowError
    u = parse_map("u=re(z^100000); v=im(z)").u
    with pytest.raises(NonFiniteError, match="overflow"):
        lewis_disc_search(u, R)


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
            key = lewis._pick_key(score, r, z)
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


def _random_polynomial(rng, deg, depth=3):
    """Seeded random tree of degree deg, not in Horner form: powers of sums,
    products, negations and exp of constants."""
    def const():
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return Exp(Const(c)) if rng.random() < 0.2 else Const(c)
    if deg == 0:
        return const()
    if deg == 1:
        return Add(Mul(const(), Z), const())
    forms = ["mul"] + ["add", "neg"] * (depth > 0)
    divisors = [k for k in range(2, deg + 1) if deg % k == 0]
    form = rng.choice(forms + ["pow"] * bool(divisors))
    if form == "pow":
        k = int(rng.choice(divisors))
        return Pow(_random_polynomial(rng, deg // k, depth), k)
    if form == "mul":
        a = int(rng.integers(1, deg))
        return Mul(_random_polynomial(rng, a, depth),
                   _random_polynomial(rng, deg - a, depth))
    if form == "neg":
        return Neg(_random_polynomial(rng, deg, depth - 1))
    lower = int(rng.integers(0, deg))
    return Add(_random_polynomial(rng, deg, depth - 1),
               _random_polynomial(rng, lower, depth - 1))


def _majorant(e, x):
    """e with every constant replaced by its modulus, at x = |z| + r: it
    bounds every term summed on the way to e on the circle |w - z| = r, so
    rounding errors are a small multiple of eps times it."""
    match e:
        case Const(value):
            return abs(value)
        case Var():
            return x
        case Add(left, right):
            return _majorant(left, x) + _majorant(right, x)
        case Mul(left, right):
            return _majorant(left, x) * _majorant(right, x)
        case Neg(operand):
            return _majorant(operand, x)
        case Pow(base, k):
            return _majorant(base, x) ** k
        case Exp(operand):
            return math.exp(_majorant(operand, x))
    raise TypeError(e)


def _random_exp_polynomial(rng, terms):
    """Seeded sum of terms P(z) exp(alpha z + beta): random trees P of
    degree 0-3, and alpha and beta in the unit square."""
    out = None
    for _ in range(terms):
        alpha, beta = (complex(*rng.uniform(-1.0, 1.0, size=2)) for _ in "ab")
        term = Mul(_random_polynomial(rng, int(rng.integers(0, 4))),
                   Exp(Add(Mul(Const(alpha), Z), Const(beta))))
        out = term if out is None else Add(out, term)
    return out


def test_taylor_table_samples_match_direct_evaluation():
    # exponential polynomials too: the majorant bounds the sum of the sizes
    # of their terms, to which the rounding of the term table is relative
    rng = np.random.default_rng(3)
    ring = np.exp(1j * np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES))
    cases = [(_random_polynomial(rng, int(rng.integers(2, 9))), k % 2)
             for k in range(60)]
    cases.append((Pow(Add(Mul(Const(0.5 + 0.1j), Z), Const(0.3)), 64), 0))
    cases += [(_random_exp_polynomial(rng, int(rng.integers(1, 4))), k % 2)
              for k in range(30)]
    for k, (expr, part) in enumerate(cases):
        u = HarmonicComponent(expr, ("real", "imag")[part])
        z = complex(*rng.uniform(-3.0, 3.0, size=2))
        r = float(rng.uniform(0.01, 3.0))
        samples = _scan_sampler(u, [z])(0, r)
        want = np.asarray(u.value(z + r * ring), dtype=float)
        bound = 64 * np.finfo(float).eps * _majorant(expr, abs(z) + r)
        assert np.max(np.abs(samples - want)) <= bound, k


@pytest.mark.parametrize("src", [
    "u=re(z^3-2*z+1); v=im(z)", "u=im((1+i)*z^3-2*z+0.5*i); v=im(z)",
    "u=re((z-10)^8); v=im(z)", "u=re(exp(2)*z^5+(z+1)^7); v=im(z)",
    "u=im(exp(z)); v=re(z)", "u=re(exp((0.3-1.2*i)*z+0.5)); v=im(z)"])
def test_the_term_table_has_the_bits_of_the_polynomial_and_exp_tables(src):
    # a polynomial is sampled as the Taylor coefficients times a table of
    # cos kt and sin kt, and exp(alpha z + beta) as e^{L(c)} times
    # e^{alpha r e^{it}}, bit for bit, as the two samplers did before the
    # term table replaced them
    u = parse_map(src).u
    rng = np.random.default_rng(41)
    C = np.array([complex(*rng.uniform(-3.0, 3.0, size=2)) for _ in range(12)])
    ring = np.exp(1j * np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES))
    if isinstance(u.expr, Exp):
        lead = coefficients(u.expr.operand, C)
        b, alpha = np.exp(lead[:1]), lead[1, 0]
    else:
        b, alpha = coefficients(u.expr, C), 0
    k = np.arange(len(b))
    parts = (b.real, -b.imag) if u.part == "real" else (b.imag, b.real)
    rows = np.ascontiguousarray(np.concatenate(parts).T)
    sample = _scan_sampler(u, list(C))
    for r in (0.37, 1.5, 4.0):
        if alpha:
            wave = np.exp(alpha * r * ring)
            table = np.stack([wave.real, wave.imag])
        else:
            angle = (np.outer(k, np.arange(SEARCH_SAMPLES)) % SEARCH_SAMPLES) \
                * (2.0 * math.pi / SEARCH_SAMPLES)
            table = np.concatenate([np.cos(angle), np.sin(angle)])
        want = (rows * r ** np.concatenate([k, k])) @ table
        assert sample(np.arange(len(C)), r).tobytes() == want.tobytes(), r


def test_taylor_table_keeps_the_accuracy_of_the_tree():
    # in the power basis, (z - 10)^8 has terms near 10^8 that cancel near
    # 10: expanded from it, these samples of size 1e-9 were wrong by 1e3
    # times their size.  Expanded about the center after z - 10 is formed,
    # they are as accurate as direct evaluation
    u = parse_map("u=re((z-10)^8); v=im(z)").u
    z = 10 + 0.1 * complex(math.cos(math.pi / 16), math.sin(math.pi / 16))
    r = 1e-3
    samples = _scan_sampler(u, [z])(0, r)
    ks = range(0, SEARCH_SAMPLES, 64)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.re(
            (mpmath.mpc(z) - 10 + r * mpmath.expjpi(mpmath.mpf(2 * k) / SEARCH_SAMPLES))
            ** 8)) for k in ks])
    assert np.max(np.abs(samples[list(ks)] - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_factored_exp_samples_match_direct_evaluation():
    # F = exp(L) with L = alpha z + beta.  Both samplers form their
    # exponents with an absolute error of a few eps times
    # A = |alpha| (|z| + r) + |beta|, which exp turns into a relative error
    # of that size; the ring, exp itself and the product add a few eps.  So
    # each sample is within 16 eps (1 + A) |F(w)| of the exact value
    rng = np.random.default_rng(5)
    ring = np.exp(1j * np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES))
    ks = np.arange(0, SEARCH_SAMPLES, 16)
    eps = np.finfo(float).eps
    for k in range(40):
        alpha, beta, z = (complex(*rng.uniform(-s, s, size=2)) for s in (2, 3, 4))
        r = float(rng.uniform(0.01, 4.0))
        part = ("real", "imag")[k % 2]
        u = HarmonicComponent(Exp(Add(Mul(Const(alpha), Z), Const(beta))), part)
        factored = _scan_sampler(u, [z])(0, r)[ks]
        direct = np.asarray(u.value(z + r * ring), dtype=float)[ks]
        with mpmath.workdps(30):
            F = [mpmath.exp(alpha * (z + r * mpmath.expjpi(mpmath.mpf(2 * int(j)) / SEARCH_SAMPLES))
                            + beta) for j in ks]
            exact = np.array([float(w.real if part == "real" else w.imag) for w in F])
            size = np.array([float(abs(w)) for w in F])
        bound = 16 * eps * (1 + abs(alpha) * (abs(z) + r) + abs(beta)) * size
        assert np.all(np.abs(factored - exact) <= bound), k
        assert np.all(np.abs(direct - exact) <= bound), k
        assert np.all(np.abs(factored - direct) <= 2 * bound), k


@pytest.mark.parametrize("src,R", [
    *(("u=im(exp(z)); v=re(exp(z))", R) for R in (8.0, 10.0, 12.0, 20.0)),
    *((f"u=re(exp({a}*z)); v=im(exp({a}*z))", 12.0) for a in (0.8, 0.9, 1.05, 1.1)),
])
def test_the_factored_exp_scan_picks_the_disc_of_direct_evaluation(monkeypatch, src, R):
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    u = parse_map(src).u
    got = lewis_disc_search(u, R).to_dict()
    monkeypatch.setattr(lewis, "EXP_FACTOR_MAX", -1.0)  # every circle direct
    assert lewis_disc_search(u, R).to_dict() == got


# exponential polynomials that fell to direct evaluation before the term table
EXP_POLYNOMIAL_MAPS = ["u=re(exp(z)+z^2); v=im(z)", "u=re(z*exp(z)); v=im(z)",
                       "u=re(exp(i*z)+exp(-i*z)+z); v=im(z)"]


def _exp_polynomial_searches(n=12, seed=17):
    """(component, R) pairs: re or im of seeded exponential polynomials of
    1-3 terms."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        expr = _random_exp_polynomial(rng, int(rng.integers(1, 4)))
        out.append((HarmonicComponent(expr, ("real", "imag")[k % 2]),
                    round(float(rng.uniform(3.0, 10.0)), 3)))
    return out


@pytest.mark.parametrize("u,R", [
    *(pytest.param(parse_map(src).u, 8.0, id=src) for src in EXP_POLYNOMIAL_MAPS),
    *(pytest.param(u, R, id=f"seeded-{k}")
      for k, (u, R) in enumerate(_exp_polynomial_searches()))])
def test_the_term_table_scan_picks_the_disc_of_direct_evaluation(monkeypatch, u, R):
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    got = lewis_disc_search(u, R).to_dict()
    # a cap of 0 and a negative bound: every circle is evaluated directly
    monkeypatch.setattr(lewis, "TAYLOR_MAX_DEGREE", 0)
    monkeypatch.setattr(lewis, "EXP_FACTOR_MAX", -1.0)
    assert lewis_disc_search(u, R).to_dict() == got


@pytest.mark.parametrize("src,R,where", [
    ("u=im(exp(z)); v=re(exp(z))", 1000.0, "radius 500 about 321.412-263.894j"),
    # e^{750} overflows as a factor of e^{z - 400} on |z - c| = 750, and
    # e^{c - 400} underflows for c < -345, where the samples are finite
    ("u=im(exp(z-400)); v=im(z)", 1500.0, "radius 750 about 482.118-515.221j"),
])
def test_the_factored_exp_scan_overflows_where_direct_evaluation_does(
        monkeypatch, src, R, where):
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    u = parse_map(src).u
    for bound in (lewis.EXP_FACTOR_MAX, -1.0):
        monkeypatch.setattr(lewis, "EXP_FACTOR_MAX", bound)
        with pytest.raises(NonFiniteError, match=f"^u is not finite on the circle of "
                           f"{re.escape(where)}: the map overflows$"):
            lewis_disc_search(u, R)


def _exp_affine(alpha, beta, part):
    return HarmonicComponent(Exp(Add(Mul(Const(alpha), Z), Const(beta))), part)


def _block_searches():
    """(component, R) pairs: a few seeded polynomials, exp(alpha z + beta)
    maps and exponential polynomials.  exp(z + 695) has centers c with
    Re c > 5 where the factor e^{L(c)} is beyond EXP_FACTOR_MAX, so its
    blocks mix factored rows with directly evaluated ones."""
    rng = np.random.default_rng(23)
    out = _random_polynomial_searches(n=4, seed=29)
    for k in range(3):
        alpha = complex(*rng.uniform(-1.5, 1.5, size=2))
        beta = complex(*rng.uniform(-2.0, 2.0, size=2))
        out.append((_exp_affine(alpha, beta, ("real", "imag")[k % 2]),
                    round(float(rng.uniform(4.0, 12.0)), 3)))
    out.append((_exp_affine(1.0, 695.0, "imag"), 12.0))
    out += [(parse_map(src).u, 8.0) for src in EXP_POLYNOMIAL_MAPS[:2]]
    return out


@pytest.mark.parametrize("u,R", [
    *(pytest.param(parse_map(src).u, R, id=f"{src}-{R:g}")
      for src, R in ACCEPTANCE_SEARCHES),
    *(pytest.param(u, R, id=f"seeded-{k}")
      for k, (u, R) in enumerate(_block_searches()))])
def test_the_pick_does_not_depend_on_the_block_size(monkeypatch, u, R):
    # blocks of one center scan in the order of centers at each radius, and
    # one block holds every center of a radius level: pruning against the
    # best disc of the blocks before must give the unpruned pick either way.
    # A 24 x 24 center mesh gives 24-216 centers here, more than one block
    # of 64 on most maps, at a fraction of the oracle's cost on the full mesh
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 24)
    want = _exhaustive_disc_search(u, R).to_dict()
    for block in (1, 3, 10**6):
        monkeypatch.setattr(lewis, "SCAN_BLOCK", block)
        assert lewis_disc_search(u, R).to_dict() == want, block


def _block_sampler_cases():
    """(component, centers, r) for each sampler: the Taylor table (degrees 1
    and 3), the factored exponential with a block of normal centers and one
    that mixes in centers where |Re L(c)| > EXP_FACTOR_MAX, direct
    evaluation, and an exponential polynomial, whose tables are stacked.
    For L = z - 745, e^{L(c)} is the least subnormal or 0 at Re c = 0, so a
    factored row there would be no circle of u at all."""
    rng = np.random.default_rng(31)
    spread = [complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(5)]
    return [
        (parse_map("u=re((0.3-0.7*i)*z+1); v=im(z)").u, spread, 1.5),
        (parse_map("u=im((1+i)*z^3-2*z+0.5*i); v=im(z)").u, spread, 0.7),
        (_exp_affine(0.8 - 0.3j, 0.2j, "real"), spread, 1.2),
        (_exp_affine(1.0, -745.0, "imag"), [0j, 50 - 1j, 40 + 1j, 60 + 2j, 3j], 50.0),
        (parse_map("u=re(exp(z^2)); v=im(z)").u, spread, 0.9),
        (parse_map("u=im(z*exp((0.6+0.4*i)*z)+z^2-1); v=im(z)").u, spread, 1.1),
    ]


@pytest.mark.parametrize("case", range(6))
def test_a_block_of_circles_is_the_rows_of_one_center_calls(case):
    u, centers, r = _block_sampler_cases()[case]
    sample = _scan_sampler(u, centers)
    ring = np.exp(1j * np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES))
    block = sample(np.arange(5), r)
    assert block.shape == (5, SEARCH_SAMPLES)
    eps = np.finfo(float).eps
    for i, z in enumerate(centers):
        one = sample(i, r)
        single = sample(np.array([i]), r)
        assert single.shape == (1, SEARCH_SAMPLES)
        # the same terms (at most 2d + 2) summed in another order, by a
        # matrix product of another shape; by Cauchy's estimate each term is
        # at most max |F| on the circle, so the sums differ by a few eps
        # times that
        size = float(np.max(np.abs(evaluate(u.expr, z + r * ring))))
        bound = 2 * (2 * (u.degree() or 1) + 2) ** 2 * eps * size
        assert np.max(np.abs(block[i] - one)) <= bound, i
        assert np.max(np.abs(single[0] - one)) <= bound, i
        # and each row is the circle about its own center, to the accuracy
        # of forming exponents near 800 (the factored exp test has the bound)
        direct = np.asarray(u.value(z + r * ring), dtype=float)
        assert np.max(np.abs(block[i] - direct)) <= 1e-9 * size, i


def test_the_first_overflowing_circle_in_radius_order_is_reported(monkeypatch):
    # exp(exp(z)) overflows on circles that reach Re w > 6.56.  Of these
    # centers, 5 fits only radii up to 3 and overflows at radius 2; 3
    # overflows at radius 4, a level before, after 0, which does not
    # overflow there.  Scanned one center at a time, 5 came first
    u = parse_map("u=re(exp(exp(z))); v=im(z)").u
    monkeypatch.setattr(lewis, "_candidate_centers",
                        lambda u, R: [5 + 0j, 0j, 3 + 0j])
    for block in (1, 2, lewis.SCAN_BLOCK):
        monkeypatch.setattr(lewis, "SCAN_BLOCK", block)
        with pytest.raises(NonFiniteError, match="^u is not finite on the circle "
                           r"of radius 4 about 3\+0j: the map overflows$"):
            lewis_disc_search(u, 8.0)


_SCAN_SAMPLER = lewis._scan_sampler


@pytest.mark.parametrize("src,R", [
    ("u=re(z); v=im(z)", 8.0),              # every disc of radius R/2
    ("u=re(z^2); v=im(z^2)", 8.0),          # mirror twins
    ("u=im(exp(z)); v=re(exp(z))", 12.0),   # translates along zero lines
])
def test_the_pick_does_not_hang_on_the_last_bits_of_the_samples(monkeypatch, src, R):
    # these maps have discs whose scores tie in exact arithmetic
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    u = parse_map(src).u
    want = lewis_disc_search(u, R).to_dict()
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    for factor in (lambda: 1 + 4 * eps, lambda: 1 - 4 * eps,
                   # a new sign at every sample of every circle
                   lambda: 1 + 4 * eps * rng.choice([-1.0, 1.0], SEARCH_SAMPLES)):
        def perturbed(u, centers, factor=factor):
            sample = _SCAN_SAMPLER(u, centers)
            return lambda i, r: sample(i, r) * factor()
        monkeypatch.setattr(lewis, "_scan_sampler", perturbed)
        assert lewis_disc_search(u, R).to_dict() == want


def test_a_center_where_u_is_not_finite_is_a_typed_error(monkeypatch):
    # u is finite on |z| = 6.5 but NaN (inf - inf) at 7; NaN > 1e-9 M is
    # false, so a NaN at a center once let its discs through
    u = parse_map("u=re(exp(exp(z))-exp(exp(z))+z); v=im(z)").u
    monkeypatch.setattr(lewis, "_candidate_centers", lambda u, R: [0j, 7 + 0j])
    with pytest.raises(NonFiniteError, match="^1 of 2 values of u at the "
                       "candidate centers are not finite: the map overflows$"):
        lewis_disc_search(u, 13.0)


@pytest.mark.parametrize("src", ["u=re(z-z); v=im(z)"])
def test_a_component_that_vanishes_on_the_half_circle_is_constant(src):
    with pytest.raises(lewis.ConstantComponentError, match="constant at this scale"):
        lewis_disc_search(parse_map(src).u, 8.0)


def test_the_constancy_test_is_relative_to_the_size_of_u():
    # constant means that the samples on |z| = R/2 spread by at most 1e-12
    # of their size; under the old absolute bound (max |u| <= 1e-14) a
    # nonzero constant was searched and a tiny exponential was constant
    with pytest.raises(lewis.ConstantComponentError, match="constant at this scale"):
        lewis_disc_search(parse_map("u=re(5+0*z); v=im(z)").u, 8.0)
    disc = lewis_disc_search(parse_map("u=re(exp(2*z-800)); v=im(z)").u, 700.0)
    assert 0.0 < disc.M < 1e-30 and disc.budget_met


def test_a_scaled_component_gives_the_scaled_disc():
    unit = lewis_disc_search(parse_map("u=re(z); v=im(z)").u, 8.0)
    tiny = lewis_disc_search(parse_map("u=re(1e-15*z); v=im(z)").u, 8.0)
    assert (tiny.center, tiny.radius) == (unit.center, unit.radius)
    assert tiny.M == pytest.approx(1e-15 * unit.M, rel=1e-12)
    assert tiny.empirical_C0 == pytest.approx(unit.empirical_C0, rel=1e-12)


def _high_degree_searches(seed=11):
    """(component, R) pairs: re or im of a random tree of degree 5-8."""
    rng = np.random.default_rng(seed)
    out = []
    for k, deg in enumerate((5, 5, 6, 6, 7, 7, 8, 8)):
        expr = _random_polynomial(rng, deg)
        assert degree(expr) == deg
        u = HarmonicComponent(expr, ("real", "imag")[k % 2])
        out.append((u, round(float(rng.uniform(4.0, 30.0)), 3)))
    return out


@pytest.mark.parametrize("u,R", [
    pytest.param(u, R, id=f"deg{u.degree()}-{k}")
    for k, (u, R) in enumerate(_high_degree_searches())])
def test_pruned_search_matches_exhaustive_scan_on_high_degrees(monkeypatch, u, R):
    # the scan samples these from the Taylor table, the oracle evaluates
    # every circle directly
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    assert lewis_disc_search(u, R).to_dict() == \
        _exhaustive_disc_search(u, R).to_dict()


_VALUE = HarmonicComponent.value


def _scan_evaluations(monkeypatch, u, R) -> int:
    """Scan circles that lewis_disc_search evaluates directly: the rows of
    the evaluations of u whose last axis has SEARCH_SAMPLES points.  The
    center mesh, the centers (at most 264 on a 12 x 12 mesh) and the circle
    maxima come at other counts."""
    count = [0]

    def value(self, z):
        if isinstance(z, np.ndarray) and z.shape[-1:] == (SEARCH_SAMPLES,):
            count[0] += z.size // SEARCH_SAMPLES
        return _VALUE(self, z)

    monkeypatch.setattr(HarmonicComponent, "value", value)
    lewis_disc_search(u, R)
    return count[0]


@pytest.mark.parametrize("src,R,table", [
    ("u=re(z^2+z); v=im(z)", 8.0, True),
    ("u=im((1+i)*z^3-2); v=im(z)", 8.0, True),
    ("u=re(z^64+z); v=im(z)", 2.0, True),          # the cap
    ("u=re(z); v=im(z)", 8.0, True),
    ("u=im(exp(z)); v=re(exp(z))", 8.0, True),     # factored
    ("u=re(exp(z)+z^2); v=im(z)", 8.0, True),      # exponential polynomials
    ("u=im(z*exp(i*z)-exp(-2*z)); v=im(z)", 4.0, True),
    ("u=re(exp(exp(z))); v=im(z)", 4.0, False),
    ("u=re(exp(z^2)); v=im(z)", 4.0, False),
    ("u=re(z^65+z); v=im(z)", 2.0, False),         # above the cap
])
def test_the_scan_evaluates_u_only_off_the_table(monkeypatch, src, R, table):
    assert lewis.TAYLOR_MAX_DEGREE == 64
    monkeypatch.setattr(lewis, "CENTER_GRID_N", 12)
    u = parse_map(src).u
    now = _scan_evaluations(monkeypatch, u, R)
    # a cap of 0 turns the table off, and a negative bound the factored
    # exponential: every circle is evaluated directly
    monkeypatch.setattr(lewis, "TAYLOR_MAX_DEGREE", 0)
    monkeypatch.setattr(lewis, "EXP_FACTOR_MAX", -1.0)
    direct = _scan_evaluations(monkeypatch, u, R)
    assert direct > 0
    assert now == (0 if table else direct)


def test_a_degree_above_the_cap_builds_no_coefficient_array(monkeypatch):
    ring = np.exp(1j * np.arange(SEARCH_SAMPLES) * (2.0 * math.pi / SEARCH_SAMPLES))
    for src in ("z^100000", "(z+exp(z))^100000", "exp(z)*z^100000"):
        u = parse_map(f"u=re({src}); v=im(z)").u

        def refuse(a, b):
            raise AssertionError(f"the coefficients of {src} were expanded")
        monkeypatch.setattr(expressions, "_series_product", refuse)
        # the scan evaluates these circles directly, overflow and all
        centers, r = [0.1j, 0.5], 0.25
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_scan_sampler(u, centers)(np.arange(2), r),
                                  u.value(np.array(centers)[:, None] + r * ring),
                                  equal_nan=True)
        with pytest.raises(Exception) as got:
            lewis_disc_search(u, 2.0)
        assert not isinstance(got.value, AssertionError)
        # the error of the scan without the table
        monkeypatch.setattr(lewis, "TAYLOR_MAX_DEGREE", 1)
        with pytest.raises(type(got.value), match=f"^{re.escape(str(got.value))}$"):
            lewis_disc_search(u, 2.0)
        monkeypatch.undo()


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_a_radius_not_finite_and_positive_is_a_bad_input(R):
    # NaN and inf once came out as NonFiniteError, "the map overflows"
    u = parse_map("u=re(z^2); v=im(z)").u
    for search in (lambda: lewis_disc_search(u, R), lambda: circle_max(u, 0.0, R)):
        with pytest.raises(ValueError, match="finite and positive") as exc:
            search()
        assert not isinstance(exc.value, NonFiniteError)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
def test_a_budget_not_finite_and_positive_is_a_bad_input(budget):
    u = parse_map("u=re(z); v=im(z)").u
    with pytest.raises(ValueError, match="C0_budget must be finite and positive"):
        lewis_disc_search(u, 4.0, C0_budget=budget)


def test_a_nan_in_the_schedule_is_a_bad_input():
    # NaN compares false, so it passes the increasing check
    with pytest.raises(ValueError, match="finite and positive") as exc:
        rescaled_sequence(parse_map("u=re(z); v=im(z)"), [2.0, math.nan])
    assert not isinstance(exc.value, NonFiniteError)


def test_the_scan_buffer_holds_the_bits_of_a_fresh_product(monkeypatch):
    # the seeded families of test_taylor_table_samples_match_direct_evaluation,
    # five centers a block
    rng = np.random.default_rng(3)
    cases = [(_random_polynomial(rng, int(rng.integers(2, 9))), k % 2)
             for k in range(60)]
    cases.append((Pow(Add(Mul(Const(0.5 + 0.1j), Z), Const(0.3)), 64), 0))
    cases += [(_random_exp_polynomial(rng, int(rng.integers(1, 4))), k % 2)
              for k in range(30)]
    idx = np.arange(5)
    for k, (expr, part) in enumerate(cases):
        u = HarmonicComponent(expr, ("real", "imag")[part])
        centers = [complex(*rng.uniform(-3.0, 3.0, size=2)) for _ in idx]
        r = float(rng.uniform(0.01, 3.0))
        # a buffer of one row takes no block of five: a fresh product
        monkeypatch.setattr(lewis, "SCAN_BLOCK", 1)
        fresh = _scan_sampler(u, centers)(idx, r)
        kept = fresh.copy()
        monkeypatch.undo()
        sample = _scan_sampler(u, centers)
        one = sample(0, r)
        row = one.copy()
        block = sample(idx, r)
        assert block.tobytes() == fresh.tobytes(), k
        # the buffer is one array, rewritten by the next block
        assert np.shares_memory(block, sample(idx[:2], 0.5 * r)), k
        assert fresh.tobytes() == kept.tobytes(), k
        assert one.tobytes() == row.tobytes(), k


@pytest.mark.parametrize("src,R", [
    ("u=re(z^3-2*z+1); v=im(z)", 6.0),
    ("u=im(exp(z)); v=re(exp(z))", 12.0),
    ("u=re(exp(z^2)); v=im(z)", 2.0),       # sampled directly
])
def test_a_search_samples_each_refined_circle_once(monkeypatch, src, R):
    u = parse_map(src).u
    grids = []
    value = HarmonicComponent.value

    def counting(self, z):
        if np.shape(z) == (DEFAULT_SAMPLES,):
            grids.append(np.array(z))
        return value(self, z)
    monkeypatch.setattr(HarmonicComponent, "value", counting)
    disc = lewis_disc_search(u, R)
    ring = _ring(DEFAULT_SAMPLES)

    def times(center, radius):
        return sum(np.array_equal(z, center + radius * ring) for z in grids)
    assert (disc.center, disc.radius) != (0j, R / 2.0)
    assert times(0.0, R / 2.0) == 1
    assert times(disc.center, disc.radius) == 1
    assert times(disc.center, 0.75 * disc.radius) == 1
    assert len(grids) == 3
