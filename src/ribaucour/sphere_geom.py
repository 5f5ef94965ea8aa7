"""Unit-sphere frames and conformal differential operators.

A holomorphic function f maps the chart into the unit sphere by inverse
stereographic projection,

    N = (2 Re f, 2 Im f, |f|^2 - 1) / (1 + |f|^2),

and the pulled-back round metric is conformal: <dN, dN> = e^{2 tau}
(du^2 + dv^2) with

    tau = log 2 + (1/2) log |f'|^2 - log(1 + |f|^2).

The frame stores N to first order only, as the three arrays N, N_u and
N_v of shape (..., 3), each stacked once when the frame is built:
gradients, Laplacians and covariant Hessians of fields on the sphere
need no more, and they are exact.  N's components are built by the
jet arithmetic of :mod:`ribaucour.jets`, on first-order jets.  The
frame stores tau one order below the complex jet of f it is built from:
an order-3 jet gives tau's second-order jet, which a support function
exp(tau1 - tau2) needs; an order-2 jet gives its first-order jet with
the same bits, which is all that the gradient, the Laplacian and the
covariant Hessian read.  Such a frame's tau has no second partials to
read.

Chart points where f' vanishes (or the jet is non-finite) carry a
branch flag: the metric degenerates there and derived samples are masked.

Near a pole of f the products |f|^2 and |f'|^2 overflow or cancel,
although the sphere map is regular there.  So wherever |f| > 1 the frame
is built from the jet of g = 1/f instead: the metric is unchanged under
f -> 1/f (tau(g) = tau(f)), and the normal reflects: the second and
third components of N(f) are those of N(g) negated.  Every product then
stays bounded.  Only within about 1e-10 of a pole do the entries of f's
jet, rounded independently, lose digits that the jet of 1/f needs; the
error then grows like (1e-16 / distance)^2.
"""

from __future__ import annotations

import numpy as np

from .holoexpr import CJet, _padded, _quotient
from .jets import RJet2, abs2_jet, im_jet, jet_finite, re_jet

__all__ = [
    "SphereFrame", "frame_from_jet", "tau_from_jet", "sphere_gradient",
    "sphere_laplacian", "conformal_hessian", "generator_data",
]

_LOG2 = float(np.log(2.0))


class SphereFrame:
    """Unit normal field N and log conformal factor tau of a map into the
    unit sphere, as built.

    ``normal``, ``normal_du`` and ``normal_dv`` are N, N_u and N_v, each
    of shape (..., 3); ``tau`` is tau's jet, of order 2 or 1 (see the
    module docstring).
    ``branch`` is a bool or boolean array: the frame is degenerate there.
    """

    __slots__ = ("normal", "normal_du", "normal_dv", "tau", "branch")

    def __init__(self, normal, normal_du, normal_dv, tau: RJet2, branch):
        self.normal = normal
        self.normal_du = normal_du
        self.normal_dv = normal_dv
        self.tau = tau
        self.branch = branch

    @property
    def e2tau(self):
        """Conformal factor of <dN, dN> as a value (scalar or array)."""
        return np.exp(2.0 * np.asarray(self.tau.val, dtype=float))


def _inverted_where_large(j: CJet):
    """The jet with f replaced by 1/f wherever |f| > 1, and the mask of
    those samples (None where nothing is replaced), at the jet's order.
    The caller's jet is not modified; only the replaced samples are
    recomputed."""
    if j.order < 2:
        raise ValueError("frame construction needs an order-2 or order-3 "
                         "jet")
    with np.errstate(invalid="ignore"):
        flip = np.abs(j.values[0]) > 1.0
    if not np.any(flip):
        return j, None
    one = _padded([np.complex128(1.0)], j.order)
    with np.errstate(all="ignore"):
        if np.all(flip):
            return CJet(j.z, tuple(_quotient(one, list(j.values)))), flip
        inv = _quotient(one, [v[flip] for v in j.values])
    out = tuple(np.array(v, dtype=complex) for v in j.values)
    for a, b in zip(out, inv):
        a[flip] = b
    return CJet(j.z, out), flip


def _denom(h: CJet):
    """1 + |h|^2, one order below h's jet."""
    return abs2_jet(CJet(h.z, h.values[:-1])) + 1.0


def _tau(h: CJet, denom):
    """log 2 + (1/2) log |h'|^2 - log denom, with denom = 1 + |h|^2, one
    order below h's jet."""
    return 0.5 * abs2_jet(h.derivative()).log() - denom.log() + _LOG2


def tau_from_jet(j: CJet) -> RJet2:
    """Jet of the log conformal factor tau of f's sphere map, one order
    below the complex jet of f (of order 2 or 3); pole-safe like
    :func:`frame_from_jet`.  Zeros of f' and non-finite jets give
    non-finite entries."""
    h, _ = _inverted_where_large(j)
    return _tau_of(h)


def _tau_of(h: CJet):
    with np.errstate(all="ignore"):
        return _tau(h, _denom(h))


def _schwarzian_of(h: CJet):
    """S(f) = f'''/f' - (3/2) (f''/f')^2 per sample from the order-3 jet
    h of f, or of 1/f wherever |f| > 1 as in the frame: S(1/f) = S(f),
    while next to a pole the terms of f's own jet cancel."""
    _, d1, d2, d3 = h.values
    with np.errstate(all="ignore"):
        q = d2 / d1
        return d3 / d1 - 1.5 * q * q


def generator_data(j: CJet, frame: bool = True) -> tuple:
    """``(frame_from_jet(j) if frame else tau_from_jet(j), S(f))`` from one
    inversion of the order-3 jet j of f, S(f) the Schwarzian per sample
    (see :func:`_schwarzian_of`)."""
    if frame:
        return _frame(j, schwarzian=True)
    h, _ = _inverted_where_large(j)
    return _tau_of(h), _schwarzian_of(h)


def frame_from_jet(j: CJet) -> SphereFrame:
    """Build the sphere frame from a complex jet of f of order 3, or of
    order 2 for a frame whose tau is first-order (see the module
    docstring).

    Where |f| > 1 the frame is that of 1/f with the second and third
    components of N, N_u and N_v negated, so samples next to a pole stay
    accurate."""
    return _frame(j, schwarzian=False)[0]


def _frame(j: CJet, schwarzian: bool) -> tuple:
    """(frame, S(f) or None); the jet of 1/f is referenced only here, so
    it is released as soon as the frame no longer needs it."""
    h, flip = _inverted_where_large(j)
    s = _schwarzian_of(h) if schwarzian else None
    # -1 on reflected samples, where N's second and third components
    # change sign
    sign = 1.0 if flip is None else np.where(flip, -1.0, 1.0)
    # N = (2 Re f, 2 Im f, |f|^2 - 1) / (1 + |f|^2) by first-order jet
    # arithmetic; each intermediate is released as soon as it is used, to
    # bound the scratch memory
    with np.errstate(all="ignore"):
        denom = _denom(h)                  # 1 + |f|^2
        tau = _tau(h, denom)
        # w = 2 / (1 + |f|^2), to first order only
        w = 2.0 / RJet2(denom.val, denom.du, denom.dv)
        del denom
        h = CJet(h.z, h.values[:2])
        nx = re_jet(h) * w
        w = w * sign
        ny = im_jet(h) * w
        del h
        # (|f|^2 - 1) / (|f|^2 + 1) = sign - w
        nz = -w + sign
        del w
    # the branch mask from the nine component arrays: a reduction over
    # the stacked arrays' axis of length 3 is several times slower
    good = jet_finite(tau) & jet_finite(nx) & jet_finite(ny) & jet_finite(nz)
    # N, N_u and N_v, each stacked once; the components of an order go
    # as soon as it is stacked
    orders = [(nx.val, ny.val, nz.val), (nx.du, ny.du, nz.du),
              (nx.dv, ny.dv, nz.dv)]
    del nx, ny, nz
    n, n_u, n_v = (np.stack(orders.pop(0), axis=-1) for _ in range(3))
    return SphereFrame(n, n_u, n_v, tau, ~good), s


# ---------------------------------------------------------------------------
# Differential operators in a conformal chart
# ---------------------------------------------------------------------------

def _dot(a, b):
    """Sum of a[..., k] * b[..., k] over the last axis, column by column:
    the bits of ``np.sum(a * b, axis=-1)`` (which adds left to right on a
    short axis), without its reduction over a short axis or the
    (..., n) temporary."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def sphere_gradient(field: RJet2, frame: SphereFrame) -> np.ndarray:
    """Metric gradient of a field on the sphere, as a spatial vector
    e^{-2 tau} (field_u N_u + field_v N_v), shape (..., 3), built column
    by column."""
    w = np.exp(-2.0 * np.asarray(frame.tau.val, dtype=float))
    du = np.asarray(field.du, dtype=float)
    dv = np.asarray(field.dv, dtype=float)
    n_u, n_v = frame.normal_du, frame.normal_dv
    out = np.empty(np.broadcast_shapes(w.shape, du.shape, dv.shape,
                                       n_u.shape[:-1]) + (3,))
    for k in range(3):
        out[..., k] = w * (du * n_u[..., k] + dv * n_v[..., k])
    return out


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

