"""Holomorphic expressions of one complex variable.

Small closed expression language: parsing, printing, and jet evaluation
(value plus derivatives up to order ``MAX_JET_ORDER``).
The grammar, whitespace-insensitive::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)?
    atom   := 'z' | number | 'i' | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := exp | log | sin | cos | sinh | cosh

Powers are restricted to integer exponents so every node is single-valued
and the derivative rules apply without branch bookkeeping.  Trees are
immutable and there is no simplification pass.  Jets come from one
forward pass with one any-order recurrence per rule (Taylor mode), so
their cost grows with the tree, not with its derivative trees.
There is no symbolic differentiation: the tests keep one as the
independent check of that pass.

:func:`eval_jet` is the one evaluator: the value alone is its jet of
order 0.  It accepts a complex scalar or a numpy array of points; array
evaluation leaves non-finite entries in place for the caller to mask,
scalar evaluation raises :class:`EvalError` at poles and branch points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb, factorial
from typing import Union

import numpy as np

__all__ = [
    "HoloExpr", "Var", "Const", "BinOp", "Pow", "Neg", "Call",
    "ParseError", "EvalError", "CJet",
    "parse", "to_text", "eval_jet",
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
            # '-2' reads as -(2 + 0i) = -2 - 0i; a +0 imaginary part needs
            # '(0 - 2)', since the zero's sign picks log's branch
            if np.signbit(im):
                return "-" + _fmt_real(-re_), _NEG
            return f"(0 - {_fmt_real(-re_)})", _ATOM
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
# Evaluation
# ---------------------------------------------------------------------------

# A jet is the list (f, f', ..., f^(n)) carried through the tree in one
# forward pass (univariate Taylor propagation; Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 13).  Its entries are numpy arrays
# or numpy complex scalars, or Python ints for derivatives known exactly
# (1 and 0 from Var and Const, falling factorials from powers); values
# (entry 0) are never ints, so the elementary functions always act on
# complex numpy operands.  The helpers drop every term with an exact-zero
# int factor: the term is exactly 0 in the differentiated tree, while
# multiplying it out would turn a non-finite partner into NaN.

def _padded(head: list, order: int) -> list:
    """``head`` padded with exact zeros to a jet of ``order``."""
    return (head + [0] * order)[:order + 1]


def _zero(x) -> bool:
    return type(x) is int and x == 0


def _add(x, y):
    if _zero(x):
        return y
    if _zero(y):
        return x
    return x + y


def _sub(x, y):
    if _zero(y):
        return x
    if _zero(x):
        return -y
    return x - y


def _mul(x, y):
    if type(x) is int and x in (0, 1):
        return y if x else 0
    if type(y) is int and y in (0, 1):
        return x if y else 0
    return x * y


def _sum(term, lo: int, hi: int):
    """term(lo) + ... + term(hi - 1) in halves, the first the larger:
    (a + b) + c; each term is made just before it is added."""
    if hi - lo == 1:
        return term(lo)
    mid = (lo + hi + 1) // 2
    return _add(_sum(term, lo, mid), _sum(term, mid, hi))


def _leibniz(a: list, b: list) -> list:
    """Jet of a product: (ab)^(k) = sum_j C(k, j) a^(k-j) b^(j)."""
    return [_sum(lambda j: _mul(comb(k, j), _mul(a[k - j], b[j])), 0, k + 1)
            for k in range(len(a))]


def _quotient(a: list, b: list) -> list:
    """Jet of q = a/b: the Leibniz rule for a = q b, solved for q^(k)."""
    q = [a[0] / b[0]]
    inv = 1.0 / b[0] if len(a) > 1 else None
    for k in range(1, len(a)):
        term = lambda j: _mul(comb(k, j), _mul(b[j], q[k - j]))
        q.append(_mul(_sub(a[k], _sum(term, 1, k + 1)), inv))
    return q


def _chain(g: list, f: list) -> list:
    """Jet of g(f), g[j] = g^(j)(f), by (g o f)' = (g' o f) f' one order
    lower: f' multiplies onto g^(j) one factor at a time, as in the
    differentiated tree, so a tiny g^(j) meets no overflowing f'^j."""
    inner = _chain(g[1:], f[:-1]) if len(f) > 1 else []
    return [g[0]] + _leibniz(inner, f[1:])


def _power_outer(x, n: int, order: int) -> list:
    """x^n and its derivatives n (n-1) ... (n-j+1) x^(n-j) for j up to
    ``order``.  A vanishing falling factorial gives an exact 0, not
    0 * x^(n-j), which is NaN at x = 0 once n - j < 0."""
    out, coef = [x ** n], 1
    for j in range(1, order + 1):
        coef *= n - j + 1
        out.append(coef * x ** (n - j) if coef and n != j else coef)
    return out


# f, f', the sign of f' against that function, and the sign s in f'' = s f
_TRIG = {"sin": (np.sin, np.cos, 1, -1), "cos": (np.cos, np.sin, -1, -1),
         "sinh": (np.sinh, np.cosh, 1, 1), "cosh": (np.cosh, np.sinh, 1, 1)}


def _once(memo: dict, f, x):
    """f(x), computed once per pass for each argument object x: sin and
    cos (sinh and cosh) are each other's derivatives.  The memo holds x,
    so no other operand of the pass can take its id."""
    done = memo.setdefault(id(x), (x, {}))[1]
    if f not in done:
        done[f] = f(x)
    return done[f]


def _function_outer(func: str, x, order: int, memo: dict) -> list:
    """An elementary function and its derivatives at x, up to ``order``."""
    if func == "exp":
        return [np.exp(x)] * (order + 1)
    if func == "log":
        # log^(k) = (-1)^(k-1) (k-1)! r^k with r = 1/x
        out, r, p = [np.log(x)], 1.0 / x if order else None, 1
        for k in range(1, order + 1):
            p = _mul(p, r)
            t = _mul(factorial(k - 1), p)
            out.append(t if k % 2 else -t)
        return out
    f, df, df_sign, sign = _TRIG[func]
    out = [_once(memo, f, x)]
    # f' = +-df and f^(k) = s f^(k-2)
    for k in range(1, order + 1):
        d, s = (_once(memo, df, x), df_sign) if k == 1 else (out[k - 2], sign)
        out.append(d if s > 0 else -d)
    return out


def _jet(e: HoloExpr, z, order: int, memo: dict) -> list:
    """The Taylor pass: (f, ..., f^(order)) of ``e`` at ``z``; one memo
    (:func:`_once`) serves the whole pass."""
    jet = lambda a: _jet(a, z, order, memo)
    match e:
        case Var():
            return _padded([z, 1], order)
        case Const(value):
            # a numpy scalar, not a Python complex: constant subtrees such
            # as 1/0 must give inf or NaN like arrays do, not raise
            return _padded([np.complex128(value)], order)
        case BinOp("+", a, b):
            return [_add(x, y) for x, y in zip(jet(a), jet(b))]
        case BinOp("-", a, b):
            return [_sub(x, y) for x, y in zip(jet(a), jet(b))]
        case BinOp("*", a, b):
            return _leibniz(jet(a), jet(b))
        case BinOp("/", a, b):
            return _quotient(jet(a), jet(b))
        case Pow(b, n):
            if n == 0:
                # b^0 is 1 wherever b is, finite or not
                return _padded([np.complex128(1.0)], order)
            f = jet(b)
            return _chain(_power_outer(f[0], n, order), f)
        case Neg(a):
            return [_sub(0, x) for x in jet(a)]
        case Call(func, a):
            f = jet(a)
            return _chain(_function_outer(func, f[0], order, memo), f)
    raise TypeError(f"not a HoloExpr node: {e!r}")


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
    """Evaluate ``e`` and its derivatives up to ``order`` at ``z``.

    One forward pass over the tree carries the whole jet through each
    node: sums act entrywise, products follow the Leibniz rule, quotients
    its solved form, and powers and the elementary functions the chain
    rule (g o f)' = (g' o f) f'.  Entries are exact to rounding; a term
    that the differentiated tree makes exactly zero stays exactly zero
    here, so no entry is non-finite where the differentiated tree is
    finite.  Scalar ``z`` raises :class:`EvalError` if any entry is
    non-finite; arrays leave non-finite entries in place.
    """
    if not isinstance(order, int) or not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"order must be an integer in 0..{MAX_JET_ORDER}")
    scalar = np.ndim(z) == 0 and not isinstance(z, np.ndarray)
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        values = _jet(e, zz, order, {})
    if scalar:
        vals = tuple(complex(v) for v in values)
        if not all(np.isfinite(v.real) and np.isfinite(v.imag) for v in vals):
            raise EvalError(f"singular jet of {to_text(e)!r} at z={z}")
        return CJet(complex(z), vals)
    # constant entries are scalars until here
    return CJet(zz, tuple(v if isinstance(v, np.ndarray)
                          else np.full(zz.shape, v, dtype=complex)
                          for v in values))
