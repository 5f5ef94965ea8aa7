"""Minimal surface patches from Weierstrass data, in conformal
curvature-line charts.

A patch is a holomorphic Gauss map g in z = u + iv, a real scale a > 0
and the point X(0, 0).  With the Weierstrass factor F = a / (2 g') the
product F g' is real and constant, so the chart is conformal and
curvature-line:

    X_u - i X_v = F (1 - g^2, i (1 + g^2), 2 g).

Everything else follows from jets of g, with no finite differencing: the
unit normal N = -stereo(g), oriented so that the principal curvature
along u is positive (as :mod:`ribaucour.congruence` requires); the
conformal factor phi = a (1 + |g|^2) / (2 |g'|); the principal
curvatures k1 = -k2 = e^tau / phi = a / phi^2; and the tangents X_u and
X_v.  No command reads the position X itself, so it is not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Domain
from .holoexpr import HoloExpr, Neg, eval_jet, parse
from .sphere_geom import frame_from_jet

__all__ = ["MinimalPatch", "enneper_patch", "catenoid_patch"]


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

    # -- scalar shape data --------------------------------------------------

    def chart_scalars(self, U, V, *, tangents: bool = False):
        """(phi, phi_u, phi_v, k1) from one order-2 jet of g, through
        phi_u - i phi_v = 2 phi d/dz log phi with
        d/dz log phi = g' conj(g) / (1 + |g|^2) - g'' / (2 g').  The
        chart's one record of its factor and curvature: k2 = -k1, and
        log phi = log a - tau, with tau that of :meth:`frame`.

        With ``tangents``, returns ``(scalars, (X_u, X_v))``: the
        tangents, read off the same jet of g as the real and minus the
        imaginary part of X_u - i X_v."""
        g, g1, g2 = eval_jet(self.g, _z(U, V), 2).values
        scalars = self._scalars(g, g1, g2)
        if not tangents:
            return scalars
        with np.errstate(all="ignore"):
            w = _weierstrass(0.5 * self.a / g1, g)
        return scalars, (w.real, -w.imag)

    def _scalars(self, g, g1, g2) -> tuple:
        """(phi, phi_u, phi_v, k1) from an order-2 jet of g or of -g: each
        term is even in the jet, so both give the same bits."""
        with np.errstate(all="ignore"):
            s1 = 1.0 + np.abs(g) ** 2
            phi = 0.5 * self.a * s1 / np.abs(g1)
            # conj(g) first: a temporary left operand keeps its place
            # when numpy reuses it as the output, so the bits of every
            # sample do not depend on the size of the array
            d = 2.0 * phi * (np.conj(g) * g1 / s1 - 0.5 * g2 / g1)
            return phi, d.real, -d.imag, self.a / (phi * phi)

    # -- Gauss-map frame ----------------------------------------------------

    def frame(self, U, V, *, scalars: bool = False):
        """Frame of N = -stereo(g), the antipode of g's Gauss-map frame,
        with the same metric factor e^{2 tau} = k1^2 phi^2.  Zeros of g'
        (flat points) are flagged as branch samples.

        It is built from an order-2 jet of -g, so its tau is first-order
        (see :mod:`ribaucour.sphere_geom`): every reader of this frame,
        the envelope's shape data and checks and the congruence's
        Hessian identities, reads tau's value and first partials only.

        -stereo(g) is stereo(-g) reflected in the equatorial plane, so
        only the third component of that frame changes sign, in place.
        With ``scalars``, returns ``(frame, scalars)``, those of
        :meth:`chart_scalars`, bit for bit, read off the same jet of -g."""
        j = eval_jet(Neg(self.g), _z(U, V), 2)
        f = frame_from_jet(j)
        for a in (f.normal, f.normal_du, f.normal_dv):
            np.negative(a[..., 2], out=a[..., 2])
        return (f, self._scalars(*j.values)) if scalars else f


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

