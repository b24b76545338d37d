"""Parser, evaluation, differentiation, and harmonic-component tests."""

import cmath
import math

import numpy as np
import pytest

from harmonic_range.expressions import (MAX_NESTING, Const, ParseError,
                                        Pow, Z, degree, derivative, evaluate,
                                        parse_expr, parse_map, to_source)


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
