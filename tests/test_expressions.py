"""Parser, evaluation, differentiation, and harmonic-component tests."""

import cmath
import copy
import math
import pickle
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmonic_range
from harmonic_range import circles
from harmonic_range.expressions import (MAX_DEPTH, MAX_NESTING, Add, Const,
                                        Exp, Mul, Neg, NonFiniteError,
                                        ParseError, Pow, Var, Z, _compile,
                                        _terms, coefficients, degree,
                                        derivative,
                                        evaluate, parse_expr, parse_map,
                                        to_source)


@pytest.mark.parametrize("src", [
    "z",
    "z^2",
    "exp(z)",
    "z*exp(z^3)+2.5",
    "(z+1)*(z-1)",
    "pi*z+e",
    "0-exp(0-z)",
    "i*z^4",
])
def test_round_trip(src):
    node = parse_expr(src)
    again = parse_expr(to_source(node))
    assert again == node


@pytest.mark.parametrize("src,z,want", [
    ("z", 1 + 2j, 1 + 2j),
    ("z^2", 1 + 1j, 2j),
    ("exp(z)", 1j * math.pi, -1.0 + 0j),
    ("2*z+3", 2.0, 7.0 + 0j),
    ("z*z-1", 3.0, 8.0 + 0j),
    ("pi", 0.0, math.pi + 0j),
])
def test_evaluate(src, z, want):
    got = evaluate(parse_expr(src), z)
    assert cmath.isclose(got, want, abs_tol=1e-12)


def test_evaluate_vectorized():
    node = parse_expr("z^2+1")
    z = np.array([0.0, 1.0, 1j])
    got = evaluate(node, z)
    assert np.allclose(got, z ** 2 + 1)


@pytest.mark.parametrize("bad", [
    "z^-1",
    "z^2.5",
    "sin(z)",
    "z+",
    "((z)",
    "",
    # a number with no digit
    ".",
    "z*.",
    "..5",
    # a unary '-' directly before '^'
    "2*-z^3",
    "--z^2",
    "-(z)^2",
    "- 2 ^ 2",
    # a number literal too large for a float
    "z*1e400",
    "2e308",
    # tokens are ASCII: no other digits, superscripts or spaces
    "\u0663*z",
    "z*\u00b2",
    "z^\u00b2",
    "z\u00a0+1",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_derivative_matches_difference_quotient():
    node = parse_expr("z*exp(z^2)+3*z")
    d = derivative(node)
    h = 1e-7
    for z in (0.3 + 0.2j, -1.1 + 0.4j):
        fd = (evaluate(node, z + h) - evaluate(node, z - h)) / (2 * h)
        assert abs(evaluate(d, z) - fd) < 1e-6


def test_derivative_folds_trivial_terms():
    # d/dz (z + 1) folds to the constant 1
    assert derivative(parse_expr("z+1")) == Const(1.0 + 0j)


@pytest.mark.parametrize("src,deg", [
    ("z^3+z", 3),
    ("2.5", 0),
    ("(z+1)*(z-1)", 2),
    ("exp(z)", None),
    ("z*exp(z)", None),
])
def test_degree(src, deg):
    assert degree(parse_expr(src)) == deg


@pytest.mark.parametrize("src,want", [
    ("2.5", [2.5]),
    ("z", [0, 1]),
    ("z-z", [0, 0]),                      # structural: no leading zero trimmed
    ("z^0", [1]),
    ("(z+1)^2", [1, 2, 1]),
    ("-(z*z)+i", [1j, 0, -1]),
    ("(z+1)*(z-1)", [-1, 0, 1]),
    ("exp(2)*z^2", [0, 0, math.exp(2)]),
    ("(2*z-1)^3", [-1, 6, -12, 8]),
])
def test_coefficients(src, want):
    assert coefficients(parse_expr(src)) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("src", ["exp(z)", "z*exp(z-z)", "exp(z)-exp(z)",
                                 "exp(z^0*z)", "(z+exp(i*z))^2"])
def test_coefficients_of_a_transcendental_expression_are_none(src):
    e = parse_expr(src)
    assert degree(e) is None
    assert coefficients(e) is None


def test_pow_rejects_negative_exponent():
    with pytest.raises((ValueError, TypeError)):
        Pow(Z, -2)


def test_gradient_cauchy_riemann():
    """Gradients of the real and imaginary parts of an entire function
    are a quarter-turn rotation of each other."""
    f = parse_map("u=re(z^3+exp(z)); v=im(z^3+exp(z))")
    for z in (0.5 + 0.25j, -1.0 + 2.0j):
        gu = f.u.gradient(z)
        gv = f.v.gradient(z)
        assert abs(gv - 1j * gu) < 1e-10


def test_harmonic_component_laplacian_numerically_zero():
    u = parse_map("u=re(z^4+2*z); v=im(z)").u
    h = 1e-4
    z = 0.7 + 0.3j
    lap = (u.value(z + h) + u.value(z - h) + u.value(z + 1j * h)
           + u.value(z - 1j * h) - 4 * u.value(z)) / h ** 2
    assert abs(lap) < 1e-5


def test_parse_map_selectors():
    f = parse_map("u=im(exp(z)); v=re(z)")
    z = 1.0 + 0.5j
    assert abs(f.u.value(z) - math.exp(1.0) * math.sin(0.5)) < 1e-12
    assert abs(f.v.value(z) - 1.0) < 1e-12


def test_parse_map_allows_spaces_around_every_token():
    f = parse_map(" u = re ( z^2 ) ;\tv = im( z )\n")
    g = parse_map("u=re(z^2); v=im(z)")
    assert (f.u, f.v) == (g.u, g.v)


@pytest.mark.parametrize("src,position", [
    ("u=re(z); v=im(z+)", 16),  # the ')' of the v part, not 2 in 'z+'
    ("u=re(z+); v=im(z)", 7),
    ("u=re(z); v=im(z*1e400)", 16),
    ("u=re(z); w=im(z)", 9),
    ("u=re(z); v=abs(z)", 11),
    ("u=re(z); v=im(z); ", 16),
])
def test_map_error_positions_index_the_map_text(src, position):
    with pytest.raises(ParseError) as info:
        parse_map(src)
    assert info.value.position == position


def test_parse_map_rejects_garbage():
    with pytest.raises(ParseError):
        parse_map("u=re(z)")
    with pytest.raises(ParseError):
        parse_map("u=abs(z); v=im(z)")


@pytest.mark.parametrize("src", ["(" * 3000 + "z" + ")" * 3000,
                                 "-" * 3000 + "z",
                                 "exp(" * 3000 + "z" + ")" * 3000])
def test_parse_rejects_deep_nesting(src):
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_map(f"u=re({src}); v=im(z)")


def test_parse_accepts_nesting_at_cap():
    src = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert parse_expr(src) == Z
    assert evaluate(parse_expr("-" * MAX_NESTING + "z"), 2.0) == 2.0
    nested_exp = "exp(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert to_source(parse_expr(nested_exp)) == nested_exp


def test_parse_accepts_depth_at_cap():
    chain = "+".join(["z"] * MAX_DEPTH)  # 255 nested Add over z: MAX_DEPTH deep
    assert degree(parse_expr(chain)) == 1
    assert MAX_DEPTH >= MAX_NESTING + 1


@pytest.mark.parametrize("src", ["+".join(["z"] * (MAX_DEPTH + 1)),
                                 "*".join(["z"] * 3000),
                                 "z" + "-z" * 3000])
def test_parse_rejects_deep_trees(src):
    with pytest.raises(ParseError, match="deeper than"):
        parse_expr(src)


# --------------------------------------------------------------------------
# Oracles for the compiled evaluator
# --------------------------------------------------------------------------

def _tree_walk(e, z):
    """The recursive evaluator the compiled program replaced: operators in
    tree order, a fresh array for every node."""
    match e:
        case Const(value):
            if isinstance(z, np.ndarray):
                return np.full(z.shape, value, dtype=complex)
            return value
        case Var():
            return z.astype(complex) if isinstance(z, np.ndarray) else complex(z)
        case Add(left, right):
            return _tree_walk(left, z) + _tree_walk(right, z)
        case Mul(left, right):
            return _tree_walk(left, z) * _tree_walk(right, z)
        case Neg(operand):
            return -_tree_walk(operand, z)
        case Pow(base, k):
            return _tree_walk(base, z) ** k
        case Exp(operand):
            w = _tree_walk(operand, z)
            return np.exp(w) if isinstance(w, np.ndarray) else complex(np.exp(w))
    raise TypeError(e)


def _random_tree(rng, depth, z_free=False):
    """Seeded random expression; exp only of small arguments so that the
    values stay finite on |z| <= 1.5."""
    kind = "leaf" if depth == 0 else rng.choice(
        ["leaf", "add", "mul", "neg", "pow", "exp"])
    if kind == "leaf":
        if z_free or rng.random() < 0.4:
            return Const(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return Z
    if kind == "neg":
        return Neg(_random_tree(rng, depth - 1, z_free))
    if kind == "pow":
        return Pow(_random_tree(rng, min(depth - 1, 1), z_free), rng.randint(0, 5))
    if kind == "exp":
        return Exp(Mul(Const(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
                       _random_tree(rng, min(depth - 1, 1), z_free)))
    # a z-free side exercises constant folding next to z-dependent work
    left = _random_tree(rng, depth - 1, z_free or rng.random() < 0.3)
    right = _random_tree(rng, depth - 1, z_free)
    return (Add if kind == "add" else Mul)(left, right)


def _random_trees(seed, count, depth=4):
    rng = random.Random(seed)
    return [_random_tree(rng, depth) for _ in range(count)]


def _points(n, seed):
    rng = np.random.default_rng(seed)
    return 1.5 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _bits(w):
    return np.asarray(w, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [1, 1024, 2 ** 15])
def test_compiled_program_matches_tree_walk_bit_for_bit_on_arrays(n):
    # 2**15 complex values are 512 KiB, above numpy's 256 KiB threshold for
    # reusing a temporary operand in place, which may swap a * b to b * a
    z = _points(n, n)
    for e in _random_trees(n, 150) + [Const(1 + 2j), Z, Pow(Z, 2), Pow(Z, 0)]:
        got, want = _compile(e)(z), _tree_walk(e, z)
        assert got.shape == z.shape
        assert _bits(got) == _bits(want), to_source(e)


def test_compiled_program_matches_tree_walk_bit_for_bit_on_scalars():
    # a Python scalar or a 0-d array runs as a 1-element array, so it gets
    # the bits of the same point inside an n-element array; Python complex
    # arithmetic differs from numpy's in the last bit of some products
    zs = [complex(w) for w in _points(8, 3)] + [0.5, 2, np.complex128(0.3 - 1j)]
    grid = np.array(zs, dtype=complex)
    for e in _random_trees(7, 300) + [Const(1 + 2j), Z]:
        program, want = _compile(e), _tree_walk(e, grid)
        for k, z in enumerate(zs):
            for got in (program(z), program(np.array(z))):
                assert type(got) is complex
                assert _bits(got) == _bits(want[k]), to_source(e)


@pytest.mark.parametrize("src,z", [("z^400", 8.0), ("z^100000", 1.5 + 1j),
                                   ("(z^200)^2", 40j)])
def test_a_scalar_power_that_overflows_is_not_finite(src, z):
    # Python's complex power once raised OverflowError here; the array
    # program gives inf or NaN, with no numpy warning, and the callers'
    # finiteness checks report either
    got = _compile(parse_expr(src))(complex(z))
    assert type(got) is complex and not cmath.isfinite(got)


@pytest.mark.parametrize("src", ["z+10^400", "exp(exp(1000))*z",
                                 "z*(10^200*10^200)"])
def test_a_constant_that_overflows_is_a_nonfinite_error(src):
    # folded at compile time, it once leaked numpy's overflow warning, and
    # the CLI failed on encoding inf as JSON
    u = parse_map(f"u=re({src}); v=im(z)").u
    for z in (0j, np.zeros(3, dtype=complex)):
        with pytest.raises(NonFiniteError, match="is not finite: the map overflows"):
            u.value(z)


def test_one_nonfinite_error_class():
    assert circles.NonFiniteError is NonFiniteError
    assert harmonic_range.NonFiniteError is NonFiniteError


def test_compiled_program_keeps_shapes():
    e = parse_expr("(1+2*i)*z^2+3")
    program = _compile(e)
    grid = _points(12, 5).reshape(3, 4)
    assert _bits(program(grid)) == _bits(_tree_walk(e, grid))
    strided = _points(2048, 6)[::2]  # evaluated in place, not copied first
    assert _bits(program(strided)) == _bits(_tree_walk(e, strided))
    assert program(np.array(0.5j)) == program(0.5j)
    real = np.array([0.5, -1.0])
    assert _bits(program(real)) == _bits(program(real.astype(complex)))
    assert _compile(parse_expr("2*i"))(grid).shape == (3, 4)


def _mp_eval(e, z):
    match e:
        case Const(value):
            return mpmath.mpc(value)
        case Var():
            return mpmath.mpc(z)
        case Add(left, right):
            return _mp_eval(left, z) + _mp_eval(right, z)
        case Mul(left, right):
            return _mp_eval(left, z) * _mp_eval(right, z)
        case Neg(operand):
            return -_mp_eval(operand, z)
        case Pow(base, k):
            return _mp_eval(base, z) ** k
        case Exp(operand):
            return mpmath.exp(_mp_eval(operand, z))
    raise TypeError(e)


def _scale(e, z):
    """Size of the terms summed on the way to e(z): the float error bound
    is a small multiple of it."""
    match e:
        case Const(value):
            return abs(value)
        case Var():
            return abs(z)
        case Add(left, right):
            return _scale(left, z) + _scale(right, z)
        case Mul(left, right):
            return _scale(left, z) * _scale(right, z)
        case Neg(operand):
            return _scale(operand, z)
        case Pow(base, k):
            return _scale(base, z) ** k
        case Exp(operand):
            m = _scale(operand, z)
            return math.exp(m) * (1.0 + m)
    raise TypeError(e)


def test_compiled_program_matches_mpmath_at_50_digits():
    z = _points(16, 11)
    with mpmath.workdps(50):
        for e in _random_trees(11, 120):
            program = _compile(e)
            values = program(z)
            for k, zk in enumerate(z):
                exact = _mp_eval(e, complex(zk))
                tol = 1e-13 * (1.0 + _scale(e, abs(zk)))
                assert abs(mpmath.mpc(complex(values[k])) - exact) <= tol, to_source(e)
                assert abs(mpmath.mpc(program(complex(zk))) - exact) <= tol, to_source(e)


def test_coefficients_match_the_evaluator_on_random_trees():
    # powers of sums, products, negations and exp of z-free subtrees, never
    # in Horner form; the transcendental trees have no coefficients.  The
    # coefficients of e(z + h) in h, about 0 and, as the term split takes
    # them, about 16 centers at once
    centers, h = _points(16, 13), 0.5 * _points(16, 14)
    trees = _random_trees(13, 300)
    assert sum(degree(e) is not None for e in trees) > 150
    for e in trees:
        if degree(e) is None:
            assert coefficients(e) is None, to_source(e)
            continue
        for z, c in ((0j, coefficients(e)),
                     (centers, _terms(e, centers, degree(e))[0j][0])):
            assert c.shape == (degree(e) + 1,) + np.shape(z), to_source(e)
            series = np.zeros_like(h)
            for ck in c[::-1]:            # Horner's rule
                series = series * h + ck
            scale = np.array([_scale(e, x) for x in np.abs(z) + np.abs(h)])
            err = np.abs(series - evaluate(e, z + h))
            assert np.all(err <= 1e-12 * scale), to_source(e)


def test_map_value_matches_tree_walk_bit_for_bit():
    f = parse_map("u=re((1+2*i)*z^3+exp(z)); v=im((1+2*i)*z^3+exp(z))")
    z = _points(2 ** 15, 2)
    w = _tree_walk(f.u.expr, z)
    assert _bits(f.value(z)) == _bits(w.real + 1j * w.imag)
    assert f.value(0.5 + 0.25j) == f.u.value(0.5 + 0.25j) + 1j * f.v.value(0.5 + 0.25j)


def test_component_pickles_and_copies_after_evaluation():
    u = parse_map("u=re(z^2+exp(z)); v=im(z)").u
    z = _points(16, 9)
    want, grad = u.value(z), u.gradient(z)
    for twin in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
        assert twin == u
        assert _bits(twin.value(z)) == _bits(want)
        assert _bits(twin.gradient(z)) == _bits(grad)


# trees in the parser's image: constants are nonnegative reals, pi, e or i
_leaves = st.one_of(
    st.just(Z),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False).map(
        lambda x: Const(complex(abs(x)))),
    st.sampled_from([Const(complex(math.pi)), Const(complex(math.e)), Const(1j)]))


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children), st.builds(Mul, children, children),
        st.builds(Neg, children), st.builds(Exp, children),
        st.builds(Pow, children, st.integers(min_value=0, max_value=12)))


# text near the grammar, with characters that str.isdigit, str.isalpha or
# str.isspace accept but the ASCII scanner refuses
_near_grammar = st.lists(st.sampled_from(
    list("z()+-*^.0123456789eEipx_ =;uvrm\t")
    + ["exp", "re(", "im(", "\u00b2", "\u0663", "\u2460", "\u03c0", "\u00a0"]),
    max_size=30).map("".join)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(st.text(), _near_grammar,
                 st.builds("u=re({}); v=im({})".format, _near_grammar,
                           _near_grammar)))
def test_parse_gives_a_tree_or_a_positioned_parse_error(text):
    for parse in (parse_expr, parse_map):
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.recursive(_leaves, _extend, max_leaves=24))
def test_to_source_round_trips(e):
    assert parse_expr(to_source(e)) == e


@pytest.mark.parametrize("op,terms", [("+", MAX_DEPTH), ("*", MAX_DEPTH),
                                      ("-", MAX_DEPTH - 1)])  # z-z is Add(z, Neg(z))
def test_to_source_round_trips_chains_at_the_depth_cap(op, terms):
    e = parse_expr(op.join(["z"] * terms))
    assert parse_expr(to_source(e)) == e


def test_to_source_keeps_negated_powers():
    # '-z^2' is rejected as ambiguous, so both readings keep their brackets
    e = Neg(Pow(Z, 2))
    assert to_source(e) == "-(z^2)"
    assert to_source(Pow(Neg(Z), 2)) == "(-z)^2"
    with pytest.raises(ParseError, match=r"\(-z\)\^2 or -\(z\^2\)"):
        parse_expr("-z^2")
    assert parse_expr("(-z)^2") == Pow(Neg(Z), 2)
    assert parse_expr("0-z^2") == Add(Const(0j), Neg(Pow(Z, 2)))
