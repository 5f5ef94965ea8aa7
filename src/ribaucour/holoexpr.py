"""Holomorphic expressions of one complex variable.

Small closed expression language: parsing, exact symbolic differentiation,
printing, and jet evaluation (value plus derivatives up to third order).
The grammar, whitespace-insensitive::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)?
    atom   := 'z' | number | 'i' | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := exp | log | sin | cos | sinh | cosh

Powers are restricted to integer exponents so every node is single-valued
and the derivative rules apply without branch bookkeeping.  Trees are
immutable and evaluated exactly as built: there is no simplification pass,
which keeps differentiation auditable at the cost of larger trees.

Evaluation accepts a complex scalar or a numpy array of points; array
evaluation leaves non-finite entries in place for the caller to mask,
scalar evaluation raises :class:`EvalError` at poles and branch points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HoloExpr", "Var", "Const", "BinOp", "Pow", "Neg", "Call",
    "ParseError", "EvalError", "CJet",
    "parse", "to_text", "differentiate", "evaluate", "eval_jet",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh")

MAX_JET_ORDER = 3


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """The complex variable z."""


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class BinOp:
    op: str  # one of '+', '-', '*', '/'
    lhs: "HoloExpr"
    rhs: "HoloExpr"


@dataclass(frozen=True)
class Pow:
    base: "HoloExpr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "HoloExpr"


@dataclass(frozen=True)
class Call:
    func: str  # one of FUNCTIONS
    arg: "HoloExpr"


HoloExpr = Union[Var, Const, BinOp, Pow, Neg, Call]


class ParseError(ValueError):
    """Malformed input; ``offset`` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ArithmeticError):
    """Scalar evaluation hit a pole or branch point."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise self._fail(f"expected {ch!r}")
        self.pos += 1

    def expr(self) -> HoloExpr:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> HoloExpr:
        node = self.factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> HoloExpr:
        node = self.atom()
        if self._peek() == "^":
            self.pos += 1
            node = Pow(node, self._integer())
        return node

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        sign = 1
        if self._peek() == "-":
            sign = -1
            self.pos += 1
            self._skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            raise self._fail("expected integer exponent")
        end = m.end()
        # reject 2.5 etc.: a '.' or exponent marker right after the digits
        # means the literal was not an integer
        if end < len(self.text) and self.text[end] in ".eE":
            self.pos = start
            raise ParseError("exponent must be an integer", start)
        self.pos = end
        return sign * int(m.group())

    def atom(self) -> HoloExpr:
        ch = self._peek()
        if ch == "":
            raise self._fail("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return Neg(self.atom())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            value = float(m.group())
            if not np.isfinite(value):
                raise self._fail(f"numeric literal {m.group()!r} "
                                 f"overflows a float")
            self.pos = m.end()
            return Const(complex(value))
        m = _IDENT.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name == "z":
                return Var()
            if name == "i":
                return Const(1j)
            if name in FUNCTIONS:
                self._expect("(")
                node = self.expr()
                self._expect(")")
                return Call(name, node)
            self.pos = start
            raise self._fail(f"unknown identifier {name!r}")
        raise self._fail(f"unexpected character {ch!r}")


def parse(text: str) -> HoloExpr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` (with the byte offset of the problem) on
    malformed input, unknown identifiers, numeric literals too large for a
    float, and non-integer exponents.
    """
    p = _Parser(text)
    node = p.expr()
    p._skip_ws()
    if p.pos != len(text):
        raise ParseError("unexpected trailing input", p.pos)
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels used by the printer.  A child is parenthesised when its
# own level is below the level its context requires, which reproduces the
# original tree shape on re-parse (round-trips are exact, not merely
# algebraically equal).
_ADD, _MUL, _NEG, _POW, _ATOM = 10, 20, 25, 30, 40


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_const(value: complex) -> tuple[str, int]:
    re_, im = value.real, value.imag
    if im == 0.0:
        if re_ < 0:
            return "-" + _fmt_real(-re_), _NEG
        return _fmt_real(re_), _ATOM
    if re_ == 0.0:
        if im == 1.0:
            return "i", _ATOM
        if im == -1.0:
            return "-i", _NEG
        if im < 0:
            return "-" + _fmt_real(-im) + "*i", _MUL
        return _fmt_real(im) + "*i", _MUL
    op = "-" if im < 0 else "+"
    return f"({_fmt_real(re_)} {op} {_fmt_real(abs(im))}*i)", _ATOM


def _fmt(e: HoloExpr, ctx: int) -> str:
    match e:
        case Var():
            s, p = "z", _ATOM
        case Const(value):
            s, p = _fmt_const(value)
        case BinOp(op, lhs, rhs):
            p = _ADD if op in "+-" else _MUL
            sep = f" {op} " if op in "+-" else op
            # right child gets a stricter context so the tree shape survives
            s = _fmt(lhs, p) + sep + _fmt(rhs, p + 1)
        case Pow(base, n):
            s, p = f"{_fmt(base, _ATOM)}^{n}", _POW
        case Neg(operand):
            # operand context sits above _POW: '-(z^2)' must not print as
            # '-z^2', which the grammar reads as (-z)^2
            s, p = "-" + _fmt(operand, _POW + 5), _NEG
        case Call(func, arg):
            s, p = f"{func}({_fmt(arg, 0)})", _ATOM
        case _:
            raise TypeError(f"not a HoloExpr node: {e!r}")
    return f"({s})" if p < ctx else s


def to_text(e: HoloExpr) -> str:
    """Render ``e`` in the input grammar; ``parse(to_text(e))`` rebuilds an
    equivalent tree."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: HoloExpr) -> HoloExpr:
    """Exact derivative tree d/dz, unsimplified."""
    match e:
        case Var():
            return Const(1.0)
        case Const():
            return Const(0.0)
        case BinOp("+", a, b):
            return BinOp("+", differentiate(a), differentiate(b))
        case BinOp("-", a, b):
            return BinOp("-", differentiate(a), differentiate(b))
        case BinOp("*", a, b):
            return BinOp("+", BinOp("*", differentiate(a), b),
                         BinOp("*", a, differentiate(b)))
        case BinOp("/", a, b):
            num = BinOp("-", BinOp("*", differentiate(a), b),
                        BinOp("*", a, differentiate(b)))
            return BinOp("/", num, Pow(b, 2))
        case Pow(b, n):
            if n == 0:
                return Const(0.0)
            return BinOp("*", BinOp("*", Const(complex(n)), Pow(b, n - 1)),
                         differentiate(b))
        case Neg(a):
            return Neg(differentiate(a))
        case Call("exp", a):
            return BinOp("*", Call("exp", a), differentiate(a))
        case Call("log", a):
            return BinOp("/", differentiate(a), a)
        case Call("sin", a):
            return BinOp("*", Call("cos", a), differentiate(a))
        case Call("cos", a):
            return Neg(BinOp("*", Call("sin", a), differentiate(a)))
        case Call("sinh", a):
            return BinOp("*", Call("cosh", a), differentiate(a))
        case Call("cosh", a):
            return BinOp("*", Call("sinh", a), differentiate(a))
    raise TypeError(f"not a HoloExpr node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_NUMPY_FUNC = {
    "exp": np.exp, "log": np.log, "sin": np.sin,
    "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
}


def _eval(e: HoloExpr, z: np.ndarray) -> np.ndarray:
    match e:
        case Var():
            return z
        case Const(value):
            return np.full(z.shape, value)
        case BinOp("+", a, b):
            return _eval(a, z) + _eval(b, z)
        case BinOp("-", a, b):
            return _eval(a, z) - _eval(b, z)
        case BinOp("*", a, b):
            return _eval(a, z) * _eval(b, z)
        case BinOp("/", a, b):
            return _eval(a, z) / _eval(b, z)
        case Pow(b, n):
            return _eval(b, z) ** n
        case Neg(a):
            return -_eval(a, z)
        case Call(func, a):
            return _NUMPY_FUNC[func](_eval(a, z))
    raise TypeError(f"not a HoloExpr node: {e!r}")


def evaluate(e: HoloExpr, z):
    """Evaluate ``e`` at ``z`` (complex scalar or complex numpy array).

    Scalars raise :class:`EvalError` on non-finite results; arrays keep
    non-finite entries for the caller to mask.
    """
    scalar = np.ndim(z) == 0 and not isinstance(z, np.ndarray)
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        out = _eval(e, zz)
    if scalar:
        val = complex(out)
        if not (np.isfinite(val.real) and np.isfinite(val.imag)):
            raise EvalError(f"singular evaluation of {to_text(e)!r} at z={z}")
        return val
    return out


@dataclass(frozen=True)
class CJet:
    """Value and complex derivatives of a holomorphic function at a point
    (or pointwise over an array of points): ``values[k]`` is the k-th
    derivative."""

    z: object
    values: tuple

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def derivative(self) -> "CJet":
        """Jet of f' (one order lower)."""
        if self.order < 1:
            raise ValueError("jet of order 0 has no derivative jet")
        return CJet(self.z, self.values[1:])


def eval_jet(e: HoloExpr, z, order: int = MAX_JET_ORDER) -> CJet:
    """Evaluate ``e`` and its derivatives up to ``order`` (0..3) at ``z``.

    Derivatives are obtained by evaluating the symbolically differentiated
    trees, so entries are exact to rounding.  Scalar ``z`` raises
    :class:`EvalError` if any entry is non-finite; arrays leave non-finite
    entries in place.
    """
    if not isinstance(order, int) or not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"order must be an integer in 0..{MAX_JET_ORDER}")
    scalar = np.ndim(z) == 0 and not isinstance(z, np.ndarray)
    zz = np.asarray(z, dtype=complex)
    values = []
    tree = e
    with np.errstate(all="ignore"):
        for k in range(order + 1):
            values.append(_eval(tree, zz))
            if k < order:
                tree = differentiate(tree)
    if scalar:
        vals = tuple(complex(v) for v in values)
        if not all(np.isfinite(v.real) and np.isfinite(v.imag) for v in vals):
            raise EvalError(f"singular jet of {to_text(e)!r} at z={z}")
        return CJet(complex(z), vals)
    return CJet(zz, tuple(values))
