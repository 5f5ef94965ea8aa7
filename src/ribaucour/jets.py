"""Second-order jets of real fields in two chart parameters.

An :class:`RJet2` carries a field value together with its first and second
partial derivatives with respect to the chart parameters (u, v).
Arithmetic propagates all six entries exactly through the chain rule, so
geometric quantities assembled from jets have machine-precision
differentials — no finite differencing anywhere in the construction.

Entries may be floats or numpy arrays of a common broadcastable shape, so
one jet value can describe a whole grid of samples at once.

The bridge functions :func:`re_jet`, :func:`im_jet` and :func:`abs2_jet`
convert a complex jet of a holomorphic function f into real jets of
Re f, Im f and |f|^2 using the Cauchy–Riemann structure: with z = u + iv,
``d/dv f = i f'`` and ``d2/dv2 f = -f''``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holoexpr import CJet

__all__ = ["RJet2", "re_jet", "im_jet", "abs2_jet", "jet_finite"]


@dataclass(frozen=True)
class RJet2:
    """Value and partials (du, dv, duu, duv, dvv) of a real field."""

    val: object
    du: object
    dv: object
    duu: object
    duv: object
    dvv: object

    # ndarray op RJet2 defers to the jet's reflected operator instead of
    # broadcasting the jet as an object scalar
    __array_ufunc__ = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "RJet2":
        return RJet2(c, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def coord_u(u) -> "RJet2":
        """Jet of the chart function (u, v) -> u."""
        return RJet2(u, 1.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def coord_v(v) -> "RJet2":
        return RJet2(v, 0.0, 1.0, 0.0, 0.0, 0.0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            # a constant (scalar or array) shifts the value only
            return RJet2(self.val + o, self.du, self.dv,
                         self.duu, self.duv, self.dvv)
        return RJet2(self.val + o.val, self.du + o.du, self.dv + o.dv,
                     self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)

    __radd__ = __add__

    def __sub__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            return self + (-o)
        return RJet2(self.val - o.val, self.du - o.du, self.dv - o.dv,
                     self.duu - o.duu, self.duv - o.duv, self.dvv - o.dvv)

    def __rsub__(self, other) -> "RJet2":
        return -self + other

    def __neg__(self) -> "RJet2":
        return RJet2(-self.val, -self.du, -self.dv,
                     -self.duu, -self.duv, -self.dvv)

    def __mul__(self, o) -> "RJet2":
        if not isinstance(o, RJet2):
            # a constant scales every entry: no product-rule terms
            return RJet2(self.val * o, self.du * o, self.dv * o,
                         self.duu * o, self.duv * o, self.dvv * o)
        return RJet2(
            self.val * o.val,
            self.du * o.val + self.val * o.du,
            self.dv * o.val + self.val * o.dv,
            self.duu * o.val + 2.0 * self.du * o.du + self.val * o.duu,
            self.duv * o.val + self.du * o.dv + self.dv * o.du + self.val * o.duv,
            self.dvv * o.val + 2.0 * self.dv * o.dv + self.val * o.dvv,
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
                          n * (n - 1) * v ** (n - 2))

    # -- analytic composition ----------------------------------------------

    def _lift(self, g0, g1, g2) -> "RJet2":
        """Chain rule for w = g(f) given g, g', g'' evaluated at f."""
        return RJet2(
            g0,
            g1 * self.du,
            g1 * self.dv,
            g2 * self.du * self.du + g1 * self.duu,
            g2 * self.du * self.dv + g1 * self.duv,
            g2 * self.dv * self.dv + g1 * self.dvv,
        )

    def _reciprocal(self) -> "RJet2":
        # numpy scalars divide by zero to inf/nan (maskable) instead of
        # raising like python floats do
        v = self.val if isinstance(self.val, np.ndarray) else np.float64(self.val)
        return self._lift(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def sqrt(self) -> "RJet2":
        s = np.sqrt(self.val)
        return self._lift(s, 0.5 / s, -0.25 / (s * s * s))

    def log(self) -> "RJet2":
        v = self.val if isinstance(self.val, np.ndarray) else np.float64(self.val)
        return self._lift(np.log(v), 1.0 / v, -1.0 / (v * v))

    def exp(self) -> "RJet2":
        g = np.exp(self.val)
        return self._lift(g, g, g)


# ---------------------------------------------------------------------------
# Bridges from complex jets of holomorphic functions
# ---------------------------------------------------------------------------

def re_jet(j: CJet) -> RJet2:
    """RJet2 of Re f from a complex jet of f (order >= 2 required)."""
    if j.order < 2:
        raise ValueError("need a complex jet of order >= 2")
    f0, f1, f2 = j.values[0], j.values[1], j.values[2]
    return RJet2(f0.real, f1.real, -f1.imag, f2.real, -f2.imag, -f2.real)


def im_jet(j: CJet) -> RJet2:
    """RJet2 of Im f from a complex jet of f (order >= 2 required)."""
    if j.order < 2:
        raise ValueError("need a complex jet of order >= 2")
    f0, f1, f2 = j.values[0], j.values[1], j.values[2]
    return RJet2(f0.imag, f1.imag, f1.real, f2.imag, f2.real, -f2.imag)


def abs2_jet(j: CJet) -> RJet2:
    """RJet2 of |f|^2 from a complex jet of f (order >= 2 required).

    With a = f' conj(f), b = f'' conj(f) and c = |f'|^2, the partials are
    2 Re a, -2 Im a, 2 (Re b + c), -2 Im b and 2 (c - Re b): a few
    complex products instead of the product rule on Re f and Im f."""
    if j.order < 2:
        raise ValueError("need a complex jet of order >= 2")
    f0, f1, f2 = j.values[0], j.values[1], j.values[2]
    fb = np.conj(f0)
    a, b = f1 * fb, f2 * fb
    c = f1.real * f1.real + f1.imag * f1.imag
    return RJet2(f0.real * f0.real + f0.imag * f0.imag,
                 2.0 * a.real, -2.0 * a.imag,
                 2.0 * (b.real + c), -2.0 * b.imag, 2.0 * (c - b.real))


def jet_finite(j: RJet2):
    """Boolean (or boolean array): all six entries finite."""
    out = np.isfinite(j.val)
    for part in (j.du, j.dv, j.duu, j.duv, j.dvv):
        out = out & np.isfinite(part)
    return out
