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
    "parse_expr",
    "to_source",
    "evaluate",
    "derivative",
    "degree",
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


# --------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
#
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


class _Tokenizer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def enter(self):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.src):
            return ""
        return self.src[self.pos]

    def expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.src) or self.src[self.pos] != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def number(self) -> float:
        self._skip_ws()
        start = self.pos
        s = self.src
        n = len(s)
        while self.pos < n and s[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and s[self.pos] == ".":
            self.pos += 1
            while self.pos < n and s[self.pos].isdigit():
                self.pos += 1
        if not any(ch.isdigit() for ch in s[start:self.pos]):
            raise ParseError("expected a number", start)
        if self.pos < n and s[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and s[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and s[self.pos].isdigit():
                while self.pos < n and s[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # bare 'e' is the Euler constant, not an exponent
        return float(s[start:self.pos])

    def uint(self) -> int:
        self._skip_ws()
        start = self.pos
        s = self.src
        if self.pos < len(s) and s[self.pos] in "+-":
            raise ParseError("exponent must be a nonnegative integer", self.pos)
        while self.pos < len(s) and s[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a nonnegative integer exponent", start)
        if self.pos < len(s) and s[self.pos] == ".":
            raise ParseError("exponent must be an integer", self.pos)
        return int(s[start:self.pos])

    def ident(self) -> str:
        self._skip_ws()
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isalpha() or s[self.pos] == "_"):
            self.pos += 1
        return s[start:self.pos]


def _parse_expr(tk: _Tokenizer) -> Expr:
    node = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.peek()
        tk.pos += 1
        rhs = _parse_term(tk)
        node = Add(node, rhs if op == "+" else Neg(rhs))
    return node


def _parse_term(tk: _Tokenizer) -> Expr:
    node = _parse_factor(tk)
    while tk.peek() == "*":
        tk.pos += 1
        node = Mul(node, _parse_factor(tk))
    return node


def _parse_factor(tk: _Tokenizer) -> Expr:
    negated = tk.peek() == "-"
    node = _parse_base(tk)
    if tk.peek() == "^":
        if negated:
            # read either way, -z^2 would silently be one of two maps
            raise ParseError("ambiguous unary '-' before '^': "
                             "write (-z)^2 or -(z^2)", tk.pos)
        tk.pos += 1
        node = Pow(node, tk.uint())
    return node


def _parse_base(tk: _Tokenizer) -> Expr:
    ch = tk.peek()
    if ch == "":
        raise ParseError("unexpected end of input", tk.pos)
    if ch == "-":
        tk.enter()
        tk.pos += 1
        node = _parse_base(tk)
        tk.depth -= 1
        return Neg(node)
    if ch == "(":
        tk.enter()
        tk.pos += 1
        node = _parse_expr(tk)
        tk.expect(")")
        tk.depth -= 1
        return node
    if ch.isdigit() or ch == ".":
        return Const(complex(tk.number()))
    if ch.isalpha() or ch == "_":
        pos = tk.pos
        name = tk.ident()
        if name == "z":
            return Var()
        if name == "exp":
            tk.enter()
            tk.expect("(")
            node = _parse_expr(tk)
            tk.expect(")")
            tk.depth -= 1
            return Exp(node)
        if name in _CONSTANTS:
            return Const(_CONSTANTS[name])
        raise ParseError(f"unknown identifier '{name}'", pos)
    raise ParseError(f"unexpected character '{ch}'", tk.pos)


def parse_expr(src: str) -> Expr:
    tk = _Tokenizer(src)
    node = _parse_expr(tk)
    tk._skip_ws()
    if tk.pos != len(src):
        raise ParseError("trailing input", tk.pos)
    if _depth(node) > MAX_DEPTH:
        raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
    return node


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
_ARRAY_OPS = {Add: np.add, Mul: np.multiply, Neg: np.negative,
              Pow: operator.pow, Exp: np.exp}
_SCALAR_OPS = {Add: operator.add, Mul: operator.mul, Neg: operator.neg,
               Pow: operator.pow, Exp: lambda w: complex(np.exp(w))}


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


def _build(e: Expr, ops: dict, const):
    """A function of z computing e, or the value of e when it is free of z."""
    match e:
        case Const(value):
            return const(value)
        case Var():
            return lambda z: z
        case Add(left, right) | Mul(left, right):
            args = (_build(left, ops, const), _build(right, ops, const))
        case Pow(base, k):
            args = (_build(base, ops, const), k)
        case Neg(operand) | Exp(operand):
            args = (_build(operand, ops, const),)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    return _node(ops[type(e)], *args)


def _compile(e: Expr):
    """Compile e once into a function of a complex scalar or numpy array.

    Subtrees free of z are folded at compile time: for arrays on a
    1-element complex array, so the bits match an elementwise evaluation,
    and for scalars with Python complex arithmetic.
    """
    array = _build(e, _ARRAY_OPS, lambda c: np.full(1, c, dtype=complex))
    scalar = _build(e, _SCALAR_OPS, complex)
    if not callable(array):  # e is free of z
        array = lambda z, c=array[0]: np.full(z.shape, c)
        scalar = lambda z, c=scalar: c

    def program(z):
        if not isinstance(z, np.ndarray):
            return scalar(complex(z))
        z = z.astype(complex, copy=False)
        return array(z) if z.ndim else array(z.reshape(1))[0]
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
    def deriv_expr(self) -> Expr:
        return derivative(self.expr)

    @cached_property
    def _deriv_program(self):
        return _compile(self.deriv_expr)

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
            if isinstance(fp, np.ndarray):
                return fp.real - 1j * fp.imag
            return complex(fp.real, -fp.imag)
        # u = Im F: (Im F', Re F')
        if isinstance(fp, np.ndarray):
            return fp.imag + 1j * fp.real
        return complex(fp.imag, fp.real)

    def degree(self) -> int | None:
        return degree(self.expr)

    def to_source(self) -> str:
        sel = "re" if self.part == "real" else "im"
        return f"{sel}({to_source(self.expr)})"


@dataclass
class HarmonicMap:
    """Pair f = u + i v of entire harmonic functions."""

    u: HarmonicComponent
    v: HarmonicComponent
    name: str | None = None

    def value(self, z):
        return self.u.value(z) + 1j * self.v.value(z)

    __call__ = value

    def to_source(self) -> str:
        return f"u={self.u.to_source()}; v={self.v.to_source()}"


def _parse_component(src: str, slot: str) -> HarmonicComponent:
    s = src.strip()
    if not s.startswith(slot + "="):
        raise ParseError(f"expected '{slot}=' in map literal", 0)
    body = s[len(slot) + 1:].strip()
    if body.startswith("re(") and body.endswith(")"):
        part = "real"
    elif body.startswith("im(") and body.endswith(")"):
        part = "imag"
    else:
        raise ParseError("component must use a re(...) or im(...) selector", 0)
    return HarmonicComponent(parse_expr(body[3:-1]), part)


def parse_map(src: str, name: str | None = None) -> HarmonicMap:
    """Parse a map literal of the form ``u=re(<expr>); v=im(<expr>)``."""
    pieces = src.split(";")
    if len(pieces) != 2:
        raise ParseError("map literal must have exactly two components", 0)
    u = _parse_component(pieces[0], "u")
    v = _parse_component(pieces[1], "v")
    return HarmonicMap(u, v, name=name)
