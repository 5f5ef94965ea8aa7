"""Minimal surface patches from Weierstrass data, in conformal
curvature-line charts.

A patch is a holomorphic Gauss map g in z = u + iv, a real scale a > 0
and the point X(0, 0).  With the Weierstrass factor F = a / (2 g') the
product F g' is real and constant, so the chart is conformal and
curvature-line:

    X_u - i X_v = F (1 - g^2, i (1 + g^2), 2 g).

Everything else follows from one order-2 jet of g on the samples, with
no finite differencing: the unit normal N = -stereo(g), oriented so that
the principal curvature along u is positive (as
:mod:`ribaucour.congruence` requires); the conformal factor
phi = a (1 + |g|^2) / (2 |g'|); the principal curvatures
k1 = -k2 = e^tau / phi = a / phi^2; and the tangents X_u and X_v, each
read off the patch's :meth:`MinimalPatch.chart` record.  No command
reads the position X itself, so it is not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Domain
from .holoexpr import HoloExpr, eval_jet, parse
from .sphere_geom import SphereFrame, frame_from_jet

__all__ = ["MinimalPatch", "MinimalChart", "enneper_patch",
           "catenoid_patch"]


def _z(U, V):
    """U + i V by assignment, with no complex arithmetic; a numpy scalar
    for scalar U and V, as their sum is."""
    U, V = np.asarray(U), np.asarray(V)
    z = np.empty(np.broadcast_shapes(U.shape, V.shape), dtype=complex)
    z.real, z.imag = U, V
    return z[()]


def _weierstrass(F, g) -> np.ndarray:
    """F (1 - g^2, i (1 + g^2), 2 g), stacked on a last axis of length 3."""
    g2 = g * g
    return np.stack([F * (1.0 - g2), 1j * F * (1.0 + g2), 2.0 * F * g],
                    axis=-1)


@dataclass(frozen=True, eq=False)
class MinimalPatch:
    """The minimal immersion with Gauss map ``g``, scale ``a`` and
    X(0, 0) = ``origin``, in its conformal curvature-line chart."""

    name: str
    domain: Domain
    g: HoloExpr
    a: float
    origin: tuple = (0.0, 0.0, 0.0)

    def chart(self, U, V) -> MinimalChart:
        """The chart record on the samples (U, V): one order-2 jet of g."""
        return MinimalChart(self.a, eval_jet(self.g, _z(U, V), 2))


class MinimalChart:
    """The chart record of a minimal patch on some samples: one order-2
    jet of its Gauss map g, with its scale a.  Each reading below is
    computed from that jet when first read, then kept:

    * ``scalars``, (phi, phi_u, phi_v, k1), through
      phi_u - i phi_v = 2 phi d/dz log phi, where
      d/dz log phi = g' conj(g) / (1 + |g|^2) - g'' / (2 g'); k2 = -k1,
      and log phi = log a - tau, with tau that of ``frame``;
    * ``tangents``, (X_u, X_v): the real and minus the imaginary part
      of X_u - i X_v;
    * ``frame``, that of N = -stereo(g), with metric factor
      e^{2 tau} = k1^2 phi^2 and zeros of g' (flat points) flagged as
      branch samples.  Its tau is first-order (see
      :mod:`ribaucour.sphere_geom`), which is all its readers read.
    """

    def __init__(self, a: float, jet):
        self.a = a
        self.jet = jet

    @cached_property
    def scalars(self) -> tuple:
        g, g1, g2 = self.jet.values
        with np.errstate(all="ignore"):
            s1 = 1.0 + np.abs(g) ** 2
            phi = 0.5 * self.a * s1 / np.abs(g1)
            # conj(g) first: a temporary left operand keeps its place
            # when numpy reuses it as the output, so the bits of every
            # sample do not depend on the size of the array
            d = 2.0 * phi * (np.conj(g) * g1 / s1 - 0.5 * g2 / g1)
            return phi, d.real, -d.imag, self.a / (phi * phi)

    @cached_property
    def tangents(self) -> tuple:
        g, g1, _ = self.jet.values
        with np.errstate(all="ignore"):
            w = _weierstrass(0.5 * self.a / g1, g)
        return w.real, -w.imag

    @cached_property
    def frame(self) -> SphereFrame:
        # -stereo(g) is g's frame with N, N_u and N_v negated, in place
        f = frame_from_jet(self.jet)
        for a in (f.normal, f.normal_du, f.normal_dv):
            np.negative(a, out=a)
        return f


def enneper_patch(domain: Domain | None = None) -> MinimalPatch:
    """Enneper's surface, g = z and a = 2; chart conformal factor
    phi = 1 + u^2 + v^2 and principal curvatures +-2/phi^2."""
    return MinimalPatch("enneper", domain or Domain(-1.2, 1.2, -1.2, 1.2),
                        parse("z"), 2.0)


def catenoid_patch(domain: Domain | None = None) -> MinimalPatch:
    """The catenoid around the z-axis, g = e^{iz} and a = 1, through
    (1, 0, 0); phi = cosh v, curvatures +-1/cosh^2 v.  Default domain
    covers one period less a seam overlap and the waist band used by the
    congruence examples."""
    return MinimalPatch("catenoid", domain or Domain(-np.pi, np.pi, -1.2, 1.2),
                        parse("exp(i*z)"), 1.0, (1.0, 0.0, 0.0))

