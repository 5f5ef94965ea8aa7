"""Unit-sphere frames and conformal differential operators.

A holomorphic function f maps the chart into the unit sphere by inverse
stereographic projection,

    N = (2 Re f, 2 Im f, |f|^2 - 1) / (1 + |f|^2),

and the pulled-back round metric is conformal: <dN, dN> = e^{2 tau}
(du^2 + dv^2) with e^{2 tau} = 4 |f'|^2 / (1 + |f|^2)^2.
The frame stores N and tau as second-order jets so that
gradients, Laplacians and covariant Hessians of fields on the sphere are
exact. Chart points where f' vanishes (or the jet is non-finite) carry a
branch flag: the metric degenerates there and derived samples are masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holoexpr import CJet, HoloExpr, eval_jet
from .jets import RJet2, abs2_jet, im_jet, jet_finite, re_jet

__all__ = [
    "SphereFrame", "gauss_map", "frame_from_jet",
    "sphere_gradient", "sphere_laplacian", "sphere_hessian",
    "conformal_hessian", "conformal_curvature",
]


def _stack3(a, b, c) -> np.ndarray:
    return np.stack([np.asarray(a, dtype=float),
                     np.asarray(b, dtype=float),
                     np.asarray(c, dtype=float)], axis=-1)


@dataclass(frozen=True)
class SphereFrame:
    """Unit normal field N (component jets) and log conformal factor tau."""

    nx: RJet2
    ny: RJet2
    nz: RJet2
    tau: RJet2
    branch: object  # bool or boolean array: frame degenerate here

    @property
    def e2tau(self):
        """Conformal factor of <dN, dN> as a value (scalar or array)."""
        return np.exp(2.0 * np.asarray(self.tau.val, dtype=float))

    # stacked value/partial arrays, shape (..., 3)

    @property
    def normal(self) -> np.ndarray:
        return _stack3(self.nx.val, self.ny.val, self.nz.val)

    @property
    def normal_du(self) -> np.ndarray:
        return _stack3(self.nx.du, self.ny.du, self.nz.du)

    @property
    def normal_dv(self) -> np.ndarray:
        return _stack3(self.nx.dv, self.ny.dv, self.nz.dv)

    @property
    def normal_duu(self) -> np.ndarray:
        return _stack3(self.nx.duu, self.ny.duu, self.nz.duu)

    @property
    def normal_duv(self) -> np.ndarray:
        return _stack3(self.nx.duv, self.ny.duv, self.nz.duv)

    @property
    def normal_dvv(self) -> np.ndarray:
        return _stack3(self.nx.dvv, self.ny.dvv, self.nz.dvv)


def frame_from_jet(j: CJet) -> SphereFrame:
    """Build the sphere frame from an order-3 complex jet of f."""
    if j.order < 3:
        raise ValueError("frame construction needs an order-3 jet")
    # jet division is multiplication by the reciprocal; each intermediate
    # jet is released as soon as it is used, to bound the scratch memory
    with np.errstate(all="ignore"):
        p, q = re_jet(j), im_jet(j)
        s = p * p + q * q          # |f|^2
        denom = s + 1.0
        dsq = abs2_jet(j.derivative())   # |f'|^2 with second-order partials
        nonflat = np.asarray(dsq.val) > 0.0
        e2t = 4.0 * dsq * (denom * denom)._reciprocal()
        del dsq
        tau = 0.5 * e2t.log()
        del e2t
        inv = denom._reciprocal()
        del denom
        nx = 2.0 * p * inv
        ny = 2.0 * q * inv
        del p, q
        nz = (s - 1.0) * inv
        del s, inv
    good = jet_finite(nx) & jet_finite(ny) & jet_finite(nz) & jet_finite(tau)
    branch = ~nonflat | ~good
    return SphereFrame(nx, ny, nz, tau, branch)


def gauss_map(f1: HoloExpr, z) -> SphereFrame:
    """Frame of the inverse stereographic image of f1 at z (scalar or
    array); zeros of f1' are flagged on ``branch``, not raised."""
    return frame_from_jet(eval_jet(f1, z, 3))


# ---------------------------------------------------------------------------
# Differential operators in a conformal chart
# ---------------------------------------------------------------------------

def sphere_gradient(field: RJet2, frame: SphereFrame) -> np.ndarray:
    """Metric gradient of a field on the sphere, as a spatial vector
    e^{-2 tau} (field_u N_u + field_v N_v), shape (..., 3)."""
    w = np.asarray(np.exp(-2.0 * np.asarray(frame.tau.val, dtype=float)))
    du = np.asarray(field.du, dtype=float)
    dv = np.asarray(field.dv, dtype=float)
    return w[..., None] * (du[..., None] * frame.normal_du
                           + dv[..., None] * frame.normal_dv)


def sphere_laplacian(field: RJet2, frame: SphereFrame):
    """Laplace–Beltrami of a field: e^{-2 tau} (field_uu + field_vv)."""
    w = np.exp(-2.0 * np.asarray(frame.tau.val, dtype=float))
    return w * (np.asarray(field.duu, dtype=float)
                + np.asarray(field.dvv, dtype=float))


def conformal_hessian(field: RJet2, logfac: RJet2):
    """Covariant Hessian coefficients (huu, huv, hvv) of a field in the
    metric e^{2 logfac}(du^2 + dv^2).

    The Christoffel terms of a conformal metric reduce to first partials
    of logfac; their trace contribution cancels, so huu + hvv equals the
    flat field_uu + field_vv exactly.
    """
    tu = np.asarray(logfac.du, dtype=float)
    tv = np.asarray(logfac.dv, dtype=float)
    fu = np.asarray(field.du, dtype=float)
    fv = np.asarray(field.dv, dtype=float)
    huu = np.asarray(field.duu, dtype=float) - tu * fu + tv * fv
    huv = np.asarray(field.duv, dtype=float) - tv * fu - tu * fv
    hvv = np.asarray(field.dvv, dtype=float) + tu * fu - tv * fv
    return huu, huv, hvv


def sphere_hessian(field: RJet2, frame: SphereFrame):
    """Covariant Hessian coefficients of a field in the sphere metric."""
    return conformal_hessian(field, frame.tau)


def conformal_curvature(logfac: RJet2):
    """Gauss curvature of the metric e^{2 logfac}(du^2 + dv^2):
    -e^{-2 logfac} (logfac_uu + logfac_vv)."""
    with np.errstate(all="ignore"):
        return -np.exp(-2.0 * np.asarray(logfac.val, dtype=float)) * (
            np.asarray(logfac.duu, dtype=float)
            + np.asarray(logfac.dvv, dtype=float))
