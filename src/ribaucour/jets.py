"""Jets of real fields in two chart parameters, to second or first order.

An :class:`RJet2` carries a field value together with its first and second
partial derivatives with respect to the chart parameters (u, v), or, built
from three entries, only its first-order part (value, du, dv): the order,
2 or 1, is that of the entries it is built with.  An order-1 jet has no
duu, duv or dvv to read, and an operation on two jets keeps the lower
order, so a field whose readers need no second partials costs none.
Arithmetic propagates the entries exactly through the chain rule, so
geometric quantities assembled from jets have machine-precision
differentials — no finite differencing anywhere in the construction.
The first-order entries of a jet get the same bits at either order.

Entries may be floats or numpy arrays of a common broadcastable shape, so
one jet value can describe a whole grid of samples at once.

An entry that is the Python int 0 (such as the partials of a chart
coordinate's jet ``RJet2(u, 1, 0, 0, 0, 0)``) is a structural zero, and
it stays the scalar 0 through arithmetic: a product-rule or chain-rule
term with a structural-zero factor is skipped, and a sum skips its zero
operands, by the helpers of the complex Taylor jets in
:mod:`ribaucour.holoexpr`, which also skip a product with the int 1.  So
a jet in one chart coordinate costs as much as that coordinate's grid
line, not the whole grid.  Every other entry gets the bits the dense
arithmetic gives it, save two cases where the skipped term was not an
exact zero: 0 * inf and 0 * nan give 0 instead of NaN, and an exact zero
result may keep the other sign.

The bridge functions :func:`re_jet`, :func:`im_jet` and :func:`abs2_jet`
convert a complex jet of a holomorphic function f into real jets of
Re f, Im f and |f|^2 using the Cauchy–Riemann structure: with z = u + iv,
``d/dv f = i f'`` and ``d2/dv2 f = -f''``.  A complex jet of order 1
gives real jets of order 1; one of order 2 or more gives order 2.
"""

from __future__ import annotations

import numpy as np

from .holoexpr import CJet, _add, _mul, _sub

__all__ = ["RJet2", "re_jet", "im_jet", "abs2_jet", "jet_finite"]


def _neg(x):
    return _sub(0, x)


class RJet2:
    """Value and partials (du, dv, duu, duv, dvv) of a real field, or its
    first-order part (val, du, dv), whose duu, duv and dvv raise
    AttributeError when read."""

    __slots__ = ("val", "du", "dv", "duu", "duv", "dvv")

    # ndarray op RJet2 defers to the jet's reflected operator instead of
    # broadcasting the jet as an object scalar
    __array_ufunc__ = None

    def __init__(self, val, du, dv, *second):
        self.val, self.du, self.dv = val, du, dv
        if second:
            self.duu, self.duv, self.dvv = second

    @property
    def order(self) -> int:
        """2, or 1 for a jet built from (val, du, dv) alone."""
        return 2 if hasattr(self, "duu") else 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            # a constant (scalar or array) shifts the value only
            return RJet2(_add(self.val, o), *self._entries()[1:])
        return RJet2(*map(_add, self._entries(), o._entries()))

    __radd__ = __add__

    def __sub__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            return self + _neg(o)
        return RJet2(*map(_sub, self._entries(), o._entries()))

    def __rsub__(self, other) -> "RJet2":
        return -self + other

    def __neg__(self) -> "RJet2":
        return RJet2(*map(_neg, self._entries()))

    def __mul__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            # a constant scales every entry: no product-rule terms
            return RJet2(*(_mul(a, o) for a in self._entries()))
        first = (_mul(self.val, o.val),
                 _add(_mul(self.du, o.val), _mul(self.val, o.du)),
                 _add(_mul(self.dv, o.val), _mul(self.val, o.dv)))
        if min(self.order, o.order) < 2:
            return RJet2(*first)
        return RJet2(
            *first,
            _add(_add(_mul(self.duu, o.val), _mul(_mul(2.0, self.du), o.du)),
                 _mul(self.val, o.duu)),
            _add(_add(_add(_mul(self.duv, o.val), _mul(self.du, o.dv)),
                      _mul(self.dv, o.du)), _mul(self.val, o.duv)),
            _add(_add(_mul(self.dvv, o.val), _mul(_mul(2.0, self.dv), o.dv)),
                 _mul(self.val, o.dvv)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RJet2":
        if not isinstance(other, RJet2):
            return self * (1.0 / np.asarray(other, dtype=float)[()])
        return self * other._reciprocal()

    def __rtruediv__(self, other) -> "RJet2":
        return self._reciprocal() * other

    def __pow__(self, n: int) -> "RJet2":
        if not isinstance(n, int):
            raise TypeError("jet powers take integer exponents")
        v = self.val
        return self._lift(v ** n, n * v ** (n - 1),
                          lambda: n * (n - 1) * v ** (n - 2))

    # -- analytic composition ----------------------------------------------

    def _lift(self, g0, g1, g2) -> "RJet2":
        """Chain rule for w = g(f) given g and g' evaluated at f, and g2()
        giving g'' there, called for an order-2 jet only."""
        first = (g0, _mul(g1, self.du), _mul(g1, self.dv))
        if self.order < 2:
            return RJet2(*first)
        g2 = g2()
        return RJet2(
            *first,
            _add(_mul(_mul(g2, self.du), self.du), _mul(g1, self.duu)),
            _add(_mul(_mul(g2, self.du), self.dv), _mul(g1, self.duv)),
            _add(_mul(_mul(g2, self.dv), self.dv), _mul(g1, self.dvv)),
        )

    def _entries(self) -> tuple:
        first = (self.val, self.du, self.dv)
        if self.order < 2:
            return first
        return first + (self.duu, self.duv, self.dvv)

    def _reciprocal(self) -> "RJet2":
        # numpy scalars divide by zero to inf/nan (maskable) instead of
        # raising like python floats do
        v = (self.val if isinstance(self.val, np.ndarray)
             else np.float64(self.val))
        return self._lift(1.0 / v, -1.0 / (v * v), lambda: 2.0 / (v * v * v))

    def sqrt(self) -> "RJet2":
        s = np.sqrt(self.val)
        return self._lift(s, 0.5 / s, lambda: -0.25 / (s * s * s))

    def log(self) -> "RJet2":
        v = (self.val if isinstance(self.val, np.ndarray)
             else np.float64(self.val))
        return self._lift(np.log(v), 1.0 / v, lambda: -1.0 / (v * v))

    def exp(self) -> "RJet2":
        g = np.exp(self.val)
        return self._lift(g, g, lambda: g)


# ---------------------------------------------------------------------------
# Bridges from complex jets of holomorphic functions
# ---------------------------------------------------------------------------

def _values(j: CJet) -> tuple:
    """f, f' and, for a jet of order >= 2, f''."""
    if j.order < 1:
        raise ValueError("need a complex jet of order >= 1")
    return j.values[:3]


def re_jet(j: CJet) -> RJet2:
    """Jet of Re f from a complex jet of f (see the module docstring)."""
    f0, f1, *f2 = _values(j)
    second = (f2[0].real, -f2[0].imag, -f2[0].real) if f2 else ()
    return RJet2(f0.real, f1.real, -f1.imag, *second)


def im_jet(j: CJet) -> RJet2:
    """Jet of Im f from a complex jet of f (see the module docstring)."""
    f0, f1, *f2 = _values(j)
    second = (f2[0].imag, f2[0].real, -f2[0].imag) if f2 else ()
    return RJet2(f0.imag, f1.imag, f1.real, *second)


def abs2_jet(j: CJet) -> RJet2:
    """Jet of |f|^2 from a complex jet of f (see the module docstring).

    With a = f' conj(f), b = f'' conj(f) and c = |f'|^2, the partials are
    2 Re a, -2 Im a, 2 (Re b + c), -2 Im b and 2 (c - Re b): a few
    complex products instead of the product rule on Re f and Im f."""
    f0, f1, *f2 = _values(j)
    fb = np.conj(f0)
    a = f1 * fb
    val = f0.real * f0.real + f0.imag * f0.imag
    if not f2:
        return RJet2(val, 2.0 * a.real, -2.0 * a.imag)
    b = f2[0] * fb
    c = f1.real * f1.real + f1.imag * f1.imag
    return RJet2(val, 2.0 * a.real, -2.0 * a.imag,
                 2.0 * (b.real + c), -2.0 * b.imag, 2.0 * (c - b.real))


def jet_finite(j: RJet2):
    """Boolean (or boolean array): every entry of the jet finite."""
    val, *parts = j._entries()
    out = np.isfinite(val)
    for part in parts:
        out = out & np.isfinite(part)
    return out
