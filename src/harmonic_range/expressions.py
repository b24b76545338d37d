"""Entire-function expressions and harmonic components.

An expression is a small AST over {constants, z, +, *, -, integer powers,
exp}.  The grammar deliberately excludes division, logarithms and
conjugation, so every expression evaluates to a finite complex number at
every finite z and its real/imaginary parts are harmonic on the whole
plane.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Neg",
    "Pow",
    "Exp",
    "Z",
    "MAX_NESTING",
    "MAX_DEPTH",
    "ParseError",
    "NonFiniteError",
    "parse_expr",
    "to_source",
    "evaluate",
    "derivative",
    "degree",
    "coefficients",
    "HarmonicComponent",
    "HarmonicMap",
    "parse_map",
]


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("power exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Exp:
    operand: "Expr"


Expr = Const | Var | Add | Mul | Neg | Pow | Exp

Z = Var()

_CONSTANTS = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "i": 1j,
}


class ParseError(ValueError):
    """Syntax error with the offending position in the source string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonFiniteError(ValueError):
    """A constant, a sample or a maximum came out inf or NaN: the map
    overflows."""


# --------------------------------------------------------------------------
# Scanner / recursive-descent parser
#
# map    := 'u' '=' part '(' expr ')' ';' 'v' '=' part '(' expr ')'
# part   := 're' | 'im'
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' uint)?       -- no '^' after a base that is '-' base
# base   := 'z' | number | 'i' | 'pi' | 'e' | 'exp' '(' expr ')'
#         | '(' expr ')' | '-' base
# --------------------------------------------------------------------------

# Deepest nesting of '(', 'exp(' and unary '-' the parser accepts; deeper
# input would exhaust the interpreter stack in the recursive descent.
MAX_NESTING = 200
# Deepest tree the parser returns: '+' and '*' chains nest no brackets, but
# the recursive tree walks (==, to_source, derivative, the compiled program of
# F', about twice as deep) must fit the interpreter stack.  >= MAX_NESTING + 1.
MAX_DEPTH = 256

# After ASCII whitespace (the ASCII characters str.isspace accepts), one
# ASCII number, ASCII name, other character, or the end of the text.  An 'e'
# with no digits after it is no exponent: '2e' is 2 and the Euler constant.
_TOKEN = re.compile(r"""[\t-\r\x1c-\x20]*(?:
      (?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<name>[A-Za-z_]+)
    | (?P<char>.)
    | (?P<end>\Z))""", re.VERBOSE | re.DOTALL)

_PARTS = {"re": "real", "im": "imag"}


class _Tokens:
    """The (kind, text, position) tokens of a text, scanned once and read
    front to back; the last token is ('end', '', len(text))."""

    def __init__(self, src: str):
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN.finditer(src)]
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i][1]

    @property
    def pos(self) -> int:
        return self.tokens[self.i][2]

    def take(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, text: str):
        """Step over the next token, which must be text ('' for the end)."""
        if self.peek() != text:
            raise ParseError(f"expected '{text}'" if text else "trailing input",
                             self.pos)
        self.i += 1


def _parse_expr(tk: _Tokens) -> Expr:
    node = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.take()[1]
        rhs = _parse_term(tk)
        node = Add(node, rhs if op == "+" else Neg(rhs))
    return node


def _parse_term(tk: _Tokens) -> Expr:
    node = _parse_factor(tk)
    while tk.peek() == "*":
        tk.take()
        node = Mul(node, _parse_factor(tk))
    return node


def _parse_factor(tk: _Tokens) -> Expr:
    negated = tk.peek() == "-"
    node = _parse_base(tk)
    if tk.peek() == "^":
        if negated:
            # read either way, -z^2 would silently be one of two maps
            raise ParseError("ambiguous unary '-' before '^': "
                             "write (-z)^2 or -(z^2)", tk.pos)
        tk.take()
        kind, text, pos = tk.take()
        if kind != "number" or not text.isdigit():
            raise ParseError("exponent must be a nonnegative integer", pos)
        node = Pow(node, int(text))
    return node


def _parse_base(tk: _Tokens) -> Expr:
    kind, text, pos = tk.take()
    if kind == "number":
        value = float(text)
        if math.isinf(value):
            raise ParseError(f"number {text} overflows a float", pos)
        return Const(complex(value))
    if text == "z":
        return Var()
    if text in _CONSTANTS:
        return Const(_CONSTANTS[text])
    if text not in ("-", "(", "exp"):
        what = {"end": "unexpected end of input",
                "name": f"unknown identifier '{text}'"}
        raise ParseError(what.get(kind, f"unexpected character '{text}'"), pos)
    if tk.depth == MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
    tk.depth += 1
    if text == "-":
        node = Neg(_parse_base(tk))
    elif text == "(":
        node = _parse_expr(tk)
        tk.expect(")")
    else:
        tk.expect("(")
        node = Exp(_parse_expr(tk))
        tk.expect(")")
    tk.depth -= 1
    return node


def _parse_tree(tk: _Tokens, close: str) -> Expr:
    """One expression no deeper than MAX_DEPTH, and the token close after it."""
    pos = tk.pos
    node = _parse_expr(tk)
    tk.expect(close)
    if _depth(node) > MAX_DEPTH:
        raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", pos)
    return node


def parse_expr(src: str) -> Expr:
    return _parse_tree(_Tokens(src), "")


def _depth(e: Expr) -> int:
    """Depth of the tree, without recursion, so that any parse is measured."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack += [(c, d + 1) for c in vars(node).values() if isinstance(c, Expr)]
    return deepest


def _const_source(c: complex) -> str:
    if c == _CONSTANTS["pi"]:
        return "pi"
    if c == complex(math.e):
        return "e"
    if c == 1j:
        return "i"
    if c.imag == 0.0:
        r = c.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    if c.real == 0.0:
        return f"({_const_source(complex(c.imag))}*i)"
    return f"({_const_source(complex(c.real))}+{_const_source(complex(c.imag))}*i)"


def to_source(e: Expr) -> str:
    """Render an expression so that it reparses to the same tree shape."""
    match e:
        case Const(value):
            return _const_source(value)
        case Var():
            return "z"
        case Add(left, Neg(operand)):
            return f"{to_source(left)}-{_wrap(operand, Add, Neg)}"
        case Add(left, right):
            return f"{to_source(left)}+{_wrap(right, Add, Neg)}"
        case Mul(left, right):
            # '*' is left-associative: a left product needs no brackets
            return f"{_wrap(left, Add)}*{_wrap(right, Add, Mul, Neg)}"
        case Neg(operand):
            # '-z^2' does not parse: a power after '-' keeps its brackets
            return f"-{_wrap(operand, Add, Mul, Pow)}"
        case Pow(base, k):
            return f"{_wrap(base, Add, Mul, Neg, Pow)}^{k}"
        case Exp(operand):
            return f"exp({to_source(operand)})"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expr, *parenthesized: type) -> str:
    src = to_source(e)
    return f"({src})" if isinstance(e, parenthesized) else src


# --------------------------------------------------------------------------
# Evaluation and differentiation
# --------------------------------------------------------------------------

# One operation per node type.  Array operations are explicit ufunc calls:
# with `a * b` numpy may reuse a large temporary b in place as `b * a`, and
# complex multiplication is not bitwise commutative under SIMD.  Pow keeps
# `**` because numpy sends `w ** 2` to np.square, whose bits np.power lacks.
_OPS = {Add: np.add, Mul: np.multiply, Neg: np.negative, Pow: operator.pow,
        Exp: np.exp}


def _node(op, a, *rest):
    """Apply op now if no operand depends on z (a fold), else return a
    function of z; operands that depend on z are themselves functions."""
    if not rest:
        return (lambda z: op(a(z))) if callable(a) else op(a)
    b, = rest
    if callable(a) and callable(b):
        return lambda z: op(a(z), b(z))
    if callable(a):
        return lambda z: op(a(z), b)
    if callable(b):
        return lambda z: op(a, b(z))
    return op(a, b)


def _build(e: Expr):
    """A function of z computing e, or the value of e when it is free of z:
    a constant is folded on a 1-element complex array, so it carries the
    bits of an elementwise evaluation."""
    match e:
        case Const(value):
            return np.full(1, value, dtype=complex)
        case Var():
            return lambda z: z
        case Add(left, right) | Mul(left, right):
            args = (_build(left), _build(right))
        case Pow(base, k):
            args = (_build(base), k)
        case Neg(operand) | Exp(operand):
            args = (_build(operand),)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    out = _node(_OPS[type(e)], *args)
    # a z-free subtree that overflows does so at every z
    if not callable(out) and not np.isfinite(out).all():
        raise NonFiniteError(f"the constant {to_source(e)} is not finite: "
                             "the map overflows")
    return out


def _compile(e: Expr):
    """Compile e once into a function of a complex scalar or numpy array.

    Subtrees free of z are folded at compile time, and a folded constant
    that overflows is a NonFiniteError.  A scalar or 0-d input runs as a
    1-element array, so it gets the bits of the same point inside any
    array, and comes back as a Python complex; its overflow gives inf or
    NaN without a warning, which the callers' finiteness checks report.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _build
        array = _build(e)
    if not callable(array):  # e is free of z
        array = lambda z, c=array[0]: np.full(z.shape, c)

    def program(z):
        if isinstance(z, np.ndarray) and z.ndim:
            return array(z.astype(complex, copy=False))
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(array(np.full(1, z, dtype=complex))[0])
    return program


def evaluate(e: Expr, z):
    """Evaluate at a complex scalar or numpy array of complex values.

    z is not copied, so the result may share memory with it: for the
    expression z it is z itself, and the component re(z) or im(z) is a
    view of it.  Copy before changing a result in place.
    """
    return _compile(e)(z)


_ZERO = Const(0j)
_ONE = Const(1 + 0j)


def _add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return Mul(a, b)


def derivative(e: Expr) -> Expr:
    match e:
        case Const(_):
            return _ZERO
        case Var():
            return _ONE
        case Add(left, right):
            return _add(derivative(left), derivative(right))
        case Mul(left, right):
            return _add(_mul(derivative(left), right), _mul(left, derivative(right)))
        case Neg(operand):
            d = derivative(operand)
            return _ZERO if d == _ZERO else Neg(d)
        case Pow(base, k):
            if k == 0:
                return _ZERO
            inner = derivative(base)
            if k == 1:
                return inner
            return _mul(_mul(Const(complex(k)), Pow(base, k - 1)), inner)
        case Exp(operand):
            return _mul(Exp(operand), derivative(operand))
    raise TypeError(f"not an expression: {e!r}")


def degree(e: Expr) -> int | None:
    """Polynomial degree, or None when the expression is transcendental."""
    match e:
        case Const(_):
            return 0
        case Var():
            return 1
        case Add(left, right):
            dl, dr = degree(left), degree(right)
            if dl is None or dr is None:
                return None
            return max(dl, dr)
        case Mul(left, right):
            dl, dr = degree(left), degree(right)
            if dl is None or dr is None:
                return None
            return dl + dr
        case Neg(operand):
            return degree(operand)
        case Pow(base, k):
            d = degree(base)
            return None if d is None else d * k
        case Exp(operand):
            return 0 if degree(operand) == 0 else None
    raise TypeError(f"not an expression: {e!r}")


def coefficients(e: Expr) -> np.ndarray | None:
    """Coefficients c_0, ..., c_d of e in the power basis, or None when e
    is transcendental: the one term of _terms about 0.

    Structural like degree: no leading zero is trimmed, so
    len(coefficients(e)) - 1 == degree(e) always (z - z gives [0, 0]).  The
    cost grows with the square of the degree.
    """
    d = degree(e)
    return None if d is None else _terms(e, 0j, d)[0j][0]


def _terms(e: Expr, z, cap: int) -> dict | None:
    """e(z + h) split into terms P_j(h) e^{alpha_j h}, in one pass over the
    tree: {alpha_j: (c_j, m_j)}, c_j the coefficients of P_j in h about each
    point of the array z (along the axes after the first) with e^{L(z)} of
    its factors exp(L) folded in, and m_j a bound on their |Re L(z)|.  The
    tree is worked node by node, as evaluate does, so the rounding stays
    that of evaluating e near z: (z - 10)^8 is expanded about z after
    z - 10 is formed, not from the power basis, whose terms cancel near 10.
    None for exp of a non-affine argument or for more than cap + 1
    coefficients, a power refused before it is expanded.  A polynomial is
    the term alpha = 0, with the bits of coefficients."""
    z = np.asarray(z, dtype=complex)
    match e:
        case Const(value):
            return {0j: (np.full((1,) + z.shape, value, dtype=complex), 0.0)}
        case Var():
            return {0j: (np.stack([z, np.ones_like(z)]), 0.0)} if cap else None
        case Add(left, right) | Mul(left, right):
            a, b = _terms(left, z, cap), _terms(right, z, cap)
            if a is None or b is None:
                return None
            if isinstance(e, Mul):
                return _term_product(a, b, cap)
            return _gather(((alpha, c, m) for t in (a, b)
                            for alpha, (c, m) in t.items()), cap)
        case Neg(operand):
            a = _terms(operand, z, cap)
            return a and {alpha: (-c, m) for alpha, (c, m) in a.items()}
        case Pow(base, k):
            # x^0 is 1 for every x, as evaluate has it
            out = {0j: (np.ones((1,) + z.shape, dtype=complex), 0.0)}
            a = _terms(base, z, cap) if k else out
            if a is None or max(len(c) - 1 for c, _ in a.values()) * k > cap:
                return None
            while k and out is not None and a is not None:  # by squaring
                if k & 1:
                    out = _term_product(out, a, cap)
                k >>= 1
                if k:
                    a = _term_product(a, a, cap)
            return None if k else out
        case Exp(operand):
            a = _terms(operand, z, 1)  # affine: L(z + h) = L(z) + alpha h
            if a is None or set(a) != {0}:
                return None
            c = a[0j][0]
            alphas = set(np.ravel(c[1:]).tolist()) or {0j}
            if len(alphas) > 1:  # alpha must be the same at every z
                return None
            return {alphas.pop(): (np.exp(c[:1]), np.abs(c[0].real))}
    raise TypeError(f"not an expression: {e!r}")


def _gather(triples, cap: int) -> dict | None:
    """{alpha: (c, m)} of (alpha, c, m) triples, equal alphas summed as two
    polynomials are; None for more than cap + 1 coefficients."""
    out: dict = {}
    for alpha, c, m in triples:
        if alpha in out:
            c0, c = sorted((out[alpha][0], c), key=len)
            c = np.concatenate([c[:len(c0)] + c0, c[len(c0):]])
            m = np.maximum(out[alpha][1], m)
        out[alpha] = (c, m)
    return out if sum(len(c) for c, _ in out.values()) <= cap + 1 else None


def _term_product(a: dict, b: dict, cap: int) -> dict | None:
    # each pair multiplies the shorter coefficients into the longer
    return _gather(((alpha + beta, _series_product(*sorted((c, d), key=len)), m + n)
                    for alpha, (c, m) in a.items() for beta, (d, n) in b.items()), cap)


def _series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of the product of two polynomials in h, given along
    the first axis; one array operation per coefficient of a."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=complex)
    for i, ai in enumerate(a):
        out[i:i + len(b)] += ai * b
    return out


# --------------------------------------------------------------------------
# Harmonic components and maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicComponent:
    """Real or imaginary part of an entire function; harmonic on all of C."""

    expr: Expr
    part: str  # "real" | "imag"

    def __post_init__(self):
        if self.part not in ("real", "imag"):
            raise ValueError("part must be 'real' or 'imag'")

    @cached_property
    def _program(self):
        return _compile(self.expr)

    @cached_property
    def _deriv_program(self):
        return _compile(derivative(self.expr))

    def __getstate__(self):
        # the compiled programs are closures, which pickle cannot store;
        # a copy compiles its own on first use
        state = dict(vars(self))
        state.pop("_program", None)
        state.pop("_deriv_program", None)
        return state

    def value(self, z):
        w = self._program(z)
        return w.real if self.part == "real" else w.imag

    __call__ = value

    def gradient(self, z):
        """Gradient (u_x, u_y) packed as the complex number u_x + i*u_y."""
        fp = self._deriv_program(z)
        if self.part == "real":
            # u = Re F: (Re F', -Im F') by Cauchy-Riemann
            return fp.real - 1j * fp.imag
        # u = Im F: (Im F', Re F')
        return fp.imag + 1j * fp.real

    def degree(self) -> int | None:
        return degree(self.expr)


@dataclass
class HarmonicMap:
    """Pair f = u + i v of entire harmonic functions."""

    u: HarmonicComponent
    v: HarmonicComponent

    def value(self, z):
        return self.u.value(z) + 1j * self.v.value(z)


def _parse_component(tk: _Tokens, slot: str) -> HarmonicComponent:
    tk.expect(slot)
    tk.expect("=")
    _, part, pos = tk.take()
    if part not in _PARTS:
        raise ParseError("component must use a re(...) or im(...) selector", pos)
    tk.expect("(")
    return HarmonicComponent(_parse_tree(tk, ")"), _PARTS[part])


def parse_map(src: str) -> HarmonicMap:
    """Parse a map literal of the form ``u=re(<expr>); v=im(<expr>)``.

    Whitespace may stand between any two tokens, and a ParseError's
    position counts from the start of src."""
    tk = _Tokens(src)
    u = _parse_component(tk, "u")
    tk.expect(";")
    v = _parse_component(tk, "v")
    tk.expect("")
    return HarmonicMap(u, v)
