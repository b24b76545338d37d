"""Entire-function expressions and harmonic components.

An expression is a small AST over {constants, z, +, *, -, integer powers,
exp}.  The grammar deliberately excludes division, logarithms and
conjugation, so every expression evaluates to a finite complex number at
every finite z and its real/imaginary parts are harmonic on the whole
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# factor := base ('^' uint)?
# base   := 'z' | number | 'i' | 'pi' | 'e' | 'exp' '(' expr ')'
#         | '(' expr ')' | '-' base
# --------------------------------------------------------------------------

# Deepest nesting of '(', 'exp(' and unary '-' the parser accepts; deeper
# input would exhaust the interpreter stack in the recursive descent.
MAX_NESTING = 200


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
        if self.pos == start:
            raise ParseError("expected a number", start)
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
    node = _parse_base(tk)
    if tk.peek() == "^":
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
    return node


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
            return f"{to_source(left)}-{_wrap_add(operand)}"
        case Add(left, right):
            return f"{to_source(left)}+{_wrap_add(right)}"
        case Mul(left, right):
            return f"{_wrap_mul(left)}*{_wrap_mul(right)}"
        case Neg(operand):
            return f"-{_wrap_neg(operand)}"
        case Pow(base, k):
            return f"{_wrap_pow(base)}^{k}"
        case Exp(operand):
            return f"exp({to_source(operand)})"
    raise TypeError(f"not an expression: {e!r}")


def _wrap_add(e: Expr) -> str:
    # right operand of +/-: parenthesize sums so reparse keeps the shape
    if isinstance(e, (Add, Neg)):
        return f"({to_source(e)})"
    return to_source(e)


def _wrap_mul(e: Expr) -> str:
    if isinstance(e, (Add, Mul, Neg)):
        return f"({to_source(e)})"
    return to_source(e)


def _wrap_neg(e: Expr) -> str:
    if isinstance(e, (Add, Mul)):
        return f"({to_source(e)})"
    return to_source(e)


def _wrap_pow(e: Expr) -> str:
    if isinstance(e, (Add, Mul, Neg, Pow)):
        return f"({to_source(e)})"
    return to_source(e)


# --------------------------------------------------------------------------
# Evaluation and differentiation
# --------------------------------------------------------------------------

def evaluate(e: Expr, z):
    """Evaluate at a complex scalar or numpy array of complex values."""
    match e:
        case Const(value):
            if isinstance(z, np.ndarray):
                return np.full(z.shape, value, dtype=complex)
            return value
        case Var():
            if isinstance(z, np.ndarray):
                return z.astype(complex)
            return complex(z)
        case Add(left, right):
            return evaluate(left, z) + evaluate(right, z)
        case Mul(left, right):
            return evaluate(left, z) * evaluate(right, z)
        case Neg(operand):
            return -evaluate(operand, z)
        case Pow(base, k):
            b = evaluate(base, z)
            if isinstance(b, np.ndarray):
                return b ** k
            return b ** k
        case Exp(operand):
            w = evaluate(operand, z)
            return np.exp(w) if isinstance(w, np.ndarray) else complex(np.exp(w))
    raise TypeError(f"not an expression: {e!r}")


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

@dataclass
class HarmonicComponent:
    """Real or imaginary part of an entire function; harmonic on all of C."""

    expr: Expr
    part: str  # "real" | "imag"
    _deriv: Expr | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.part not in ("real", "imag"):
            raise ValueError("part must be 'real' or 'imag'")

    def value(self, z):
        w = evaluate(self.expr, z)
        if self.part == "real":
            return w.real if isinstance(w, np.ndarray) else w.real
        return w.imag if isinstance(w, np.ndarray) else w.imag

    __call__ = value

    @property
    def deriv_expr(self) -> Expr:
        if self._deriv is None:
            self._deriv = derivative(self.expr)
        return self._deriv

    def gradient(self, z):
        """Gradient (u_x, u_y) packed as the complex number u_x + i*u_y."""
        fp = evaluate(self.deriv_expr, z)
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
