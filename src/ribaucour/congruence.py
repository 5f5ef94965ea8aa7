"""Sphere congruences coupling a minimal patch to the surface class.

Over a minimal patch with conformal curvature-line chart (conformal
factor phi, principal curvatures k1 = -k2, unit normal N), a sphere
congruence is described by four scalar fields (Omega, Omega1, Omega2, W)
satisfying the first-order system

    Omega_u  = phi Omega1          Omega_v  = phi Omega2
    Omega1_v = Omega2 phi_u / phi  Omega2_u = Omega1 phi_v / phi
    W_u      = Omega1 k1 phi       W_v      = Omega2 k2 phi

which conserves the quadratic first integral

    Omega1^2 + Omega2^2 + W^2 - 2 c Omega W + c2 W + c3 Omega + c1.

The missing derivatives Omega1_u and Omega2_v needed for line
integration follow from the covariant Hessian identity for Omega (see
:func:`check_hessian_identities`):

    Omega1_u = -(phi_v/phi) Omega2 + phi (cW - c3/2) + phi k1 (c Omega - W - c2/2)
    Omega2_v = -(phi_u/phi) Omega1 + phi (cW - c3/2) + phi k2 (c Omega - W - c2/2)

making the system integrable by marching.  Swapping Omega1 and Omega2
turns the system along v into the system along u, so one affine RK4
kernel (:func:`_slope`) serves both directions.  :func:`integrate_system`
runs three marches: the initial row, then every column, then every row
from the initial column, which the column march already holds.  The gap
between the row-first and column-first fills doubles as the
compatibility (Frobenius) check.  The chart scalars (phi, phi_u,
phi_v, k1) are evaluated once per abscissa, block by block: the column
march evaluates the nodes and the v-midpoints, and the row march reuses
those node scalars and evaluates only the u-midpoints (the initial row,
2 nu - 1 samples, evaluates its own).  The marched state also fixes W's
second-order jet: differentiating W_u and W_v once more through the
same right-hand sides (k1 phi^2 is constant on these charts) gives
W_uu, W_uv and W_vv at every node, with no stencil, from the same node
scalars.

The envelope X = grad W + W N of the congruence (support machinery of
:mod:`ribaucour.ribaucour_core` applied to W over the minimal patch's
Gauss map) lands in the middle-sphere surface class, with H/K = -c Omega,
and its fundamental forms are generated linearly from those of the
minimal patch.  :func:`envelope` takes W as a jet only, either closed
form or integrated; in the reference gauge its middle-sphere residual is
the first integral, pointwise.  Every step from the frame to the
residuals is per sample, so :func:`envelope_checks` runs the envelope
and its checks over blocks of grid rows and assembles the full-grid
residuals (and X, N, the valid mask on request) without any full-grid
temporaries.  The analytic checks share one chart record: the frame of
the envelope, one phi jet and one k1 (the ``frame``, ``phi_jet`` and
``k1`` arguments).

:func:`analytic_example` ships closed-form solutions over the built-in
patches as jet code.  Each published closed form is validated against
the system before use.  One published Omega (Enneper's) fails; the
module then uses a shipped correction, Omega and c obtained by exact
quadrature of Omega from W and the first integral, validates it the
same way and records both outcomes.  The quadrature is not redone at
run time: the tests re-derive the correction from W as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import _form_residual
from .grids import Domain
from .jets import RJet2, jet_finite
from .minimal import MinimalPatch, catenoid_patch, enneper_patch
from .ribaucour_core import (ResidualField, SurfaceFields,
                             check_middle_sphere, shape_from_support)
from .sphere_geom import SphereFrame, conformal_hessian, sphere_gradient

__all__ = [
    "IntegralConstants", "CongruenceState", "first_integral",
    "system_residuals", "AnalyticCongruence", "analytic_example",
    "IntegratedCongruence", "integrate_system", "envelope",
    "HessianIdentityReport", "check_hessian_identities",
    "GeneratedFormsReport", "generated_forms_check", "hover_ratio_residual",
    "EnvelopeChecks", "envelope_checks",
]

# samples per block of the envelope and its checks in integrate mode;
# bounds their scratch memory
_BLOCK = 8192
# numpy reuses a temporary operand of 256 KiB or more (16,384 complex
# samples) as the output of an arithmetic operation; for a complex product
# with the temporary on the right, such as g' conj(g) in
# MinimalPatch.chart_scalars, that swaps the factors, which can change the
# last bit.  So the chart scalars are evaluated in blocks of _ELIDE to
# 2 _ELIDE samples wherever the whole array holds _ELIDE or more, and
# every sample gets the bits of one whole-array evaluation.
_ELIDE = 16384

@dataclass(frozen=True)
class IntegralConstants:
    """Constants of the conserved quadratic; c must be nonzero."""

    c: float
    c1: float = 1.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if self.c == 0.0:
            raise ValueError("the coupling constant c must be nonzero")


@dataclass
class CongruenceState:
    """Field values (Omega, Omega1, Omega2, W), scalars or arrays."""

    omega: object
    omega1: object
    omega2: object
    w: object

    def as_tuple(self):
        return (self.omega, self.omega1, self.omega2, self.w)


def first_integral(state: CongruenceState, consts: IntegralConstants):
    """Value of the conserved quadratic at the state (elementwise)."""
    om, o1, o2, w = state.as_tuple()
    return (o1 * o1 + o2 * o2 + w * w - 2.0 * consts.c * om * w
            + consts.c2 * w + consts.c3 * om + consts.c1)


# ---------------------------------------------------------------------------
# Residuals of the first-order system for jet-valued fields
# ---------------------------------------------------------------------------

def _chart(patch: MinimalPatch, U, V, phi_jet, k1):
    """phi's jet and k1 on (U, V): the given ones, or evaluated."""
    return (patch.phi_jet(U, V) if phi_jet is None else phi_jet,
            patch.k1(U, V) if k1 is None else k1)


def system_residuals(patch: MinimalPatch, w_jet, omega_jet, U, V, *,
                     phi_jet: RJet2 | None = None, k1=None) -> dict:
    """Max absolute residual of each non-definitional system equation for
    fields given as jets (Omega1 and Omega2 are read off as
    Omega_u/phi and Omega_v/phi, so those two equations hold by
    construction and are not reported).

    ``w_jet``/``omega_jet`` may be RJet2 fields or callables (U, V) -> RJet2.
    ``phi_jet`` (:meth:`MinimalPatch.phi_jet`) and ``k1`` on (U, V) spare
    evaluating them again when the caller already has them; so do the
    same arguments of :func:`check_hessian_identities` and
    :func:`generated_forms_check`.
    """
    wj = w_jet(U, V) if callable(w_jet) else w_jet
    oj = omega_jet(U, V) if callable(omega_jet) else omega_jet
    pj, k1 = _chart(patch, U, V, phi_jet, k1)
    phi, pu, pv = pj.val, pj.du, pj.dv
    k2 = -k1
    o1 = oj.du / phi
    o2 = oj.dv / phi
    o1_v = (oj.duv * phi - oj.du * pv) / (phi * phi)
    o2_u = (oj.duv * phi - oj.dv * pu) / (phi * phi)
    res = {
        "omega1_v": o1_v - o2 * pu / phi,
        "omega2_u": o2_u - o1 * pv / phi,
        "w_u": wj.du - o1 * k1 * phi,
        "w_v": wj.dv - o2 * k2 * phi,
    }
    return {k: float(np.max(np.abs(r))) for k, r in res.items()}


def _state_from_jets(patch: MinimalPatch, wj: RJet2, oj: RJet2, U, V,
                     phi=None) -> CongruenceState:
    if phi is None:
        phi = patch.phi(U, V)
    return CongruenceState(omega=np.asarray(oj.val, dtype=float),
                           omega1=np.asarray(oj.du, dtype=float) / phi,
                           omega2=np.asarray(oj.dv, dtype=float) / phi,
                           w=np.asarray(wj.val, dtype=float))


# ---------------------------------------------------------------------------
# Closed-form congruence data over the built-in patches
# ---------------------------------------------------------------------------

def _cosh_sinh(x: RJet2):
    ep, em = x.exp(), (-x).exp()
    return 0.5 * (ep + em), 0.5 * (ep - em)


def _catenoid_w(u, v):
    ch, _ = _cosh_sinh(v)
    return (1.0 + u * u + v * v) / (2.0 * ch)


def _catenoid_omega(u, v):
    ch, sh = _cosh_sinh(v)
    return 0.5 * (u * u + v * v + 5.0) * ch - 2.0 * v * sh


def _enneper_w(u, v):
    ch, _ = _cosh_sinh(u)
    return 2.0 * ch / (1.0 + u * u + v * v)


def _enneper_omega_published(u, v):
    ch, sh = _cosh_sinh(u)
    return (5.0 + u * u + v * v) * ch + 4.0 * u * sh + 5.0 * ch


def _enneper_omega(u, v):
    ch, sh = _cosh_sinh(u)
    return (u * u + v * v + 5.0) * ch - 4.0 * u * sh


def _on_samples(fn):
    """(U, V) -> RJet2 of ``fn``, a function of the chart coordinate jets,
    with every entry broadcast to the common sample shape of (U, V)."""
    def jet(U, V) -> RJet2:
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        shape = np.broadcast_shapes(U.shape, V.shape)
        # on a chart grid (u along rows, v along columns) the terms in one
        # coordinate need only one grid line; the values are the same
        if (U.ndim == V.ndim == 2 and (U == U[:, :1]).all()
                and (V == V[:1, :]).all()):
            U, V = U[:, :1], V[:1, :]
        with np.errstate(all="ignore"):
            j = fn(RJet2.coord_u(U), RJet2.coord_v(V))
        return RJet2(*(np.broadcast_to(np.asarray(x, dtype=float), shape)
                       for x in (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)))
    return jet


@dataclass(frozen=True)
class _ClosedForm:
    """Published congruence data (W, Omega) over a built-in patch, as jet
    functions of the chart coordinates with their texts.  ``corrected``
    is (Omega, text, constants) replacing a published Omega that fails
    the system; tests re-derive it by exact quadrature from W."""

    patch: object
    w: object
    w_text: str
    omega: object
    omega_text: str
    corrected: tuple | None = None


_ANALYTIC = {
    "catenoid": _ClosedForm(
        catenoid_patch, _catenoid_w, "(1 + u**2 + v**2) / (2*cosh(v))",
        _catenoid_omega,
        "-2*v*sinh(v) + (u**2 + v**2)*cosh(v)/2 + 5*cosh(v)/2"),
    "enneper": _ClosedForm(
        enneper_patch, _enneper_w, "2*cosh(u) / (1 + u**2 + v**2)",
        _enneper_omega_published,
        "(5 + u**2 + v**2)*cosh(u) + 4*u*sinh(u) + 5*cosh(u)",
        corrected=(_enneper_omega,
                   "u**2*cosh(u) - 4*u*sinh(u) + v**2*cosh(u) + 5*cosh(u)",
                   IntegralConstants(c=0.25))),
}


@dataclass
class AnalyticCongruence:
    """A validated closed-form congruence over a built-in minimal patch.

    ``w_jet``/``omega_jet`` are callables (U, V) -> RJet2.  When the
    published Omega fails the system, the shipped correction is used,
    ``used_fallback`` is True and ``literal_residuals``/
    ``literal_constants`` record how the published Omega failed.
    """

    name: str
    patch: MinimalPatch
    constants: IntegralConstants
    w_jet: object
    omega_jet: object
    residuals: dict
    drift: float
    used_fallback: bool
    literal_residuals: dict
    literal_drift: float
    literal_constants: IntegralConstants | None
    omega_text: str = ""

    def state(self, U, V, phi=None, jets=None) -> CongruenceState:
        """The fields on (U, V).  ``phi``, the patch's conformal factor
        on (U, V), and ``jets``, the (W, Omega) jets on (U, V), spare
        evaluating them again when the caller already has them."""
        wj, oj = jets if jets is not None else (self.w_jet(U, V),
                                                self.omega_jet(U, V))
        return _state_from_jets(self.patch, wj, oj, U, V, phi)


def _origin_constant(patch: MinimalPatch, wj_fn, oj_fn,
                     c1: float = 1.0) -> float:
    """Candidate coupling constant from the vanishing first integral at
    the chart origin (c2 = c3 = 0)."""
    wj = wj_fn(0.0, 0.0)
    oj = oj_fn(0.0, 0.0)
    st = _state_from_jets(patch, wj, oj, 0.0, 0.0)
    om, o1, o2, w = (float(x) for x in st.as_tuple())
    denom = 2.0 * om * w
    if denom == 0.0:
        return float("nan")
    return (o1 * o1 + o2 * o2 + w * w + c1) / denom


def _max_drift(patch, wj_fn, oj_fn, consts, U, V) -> float:
    F = first_integral(
        _state_from_jets(patch, wj_fn(U, V), oj_fn(U, V), U, V), consts)
    return float(np.max(np.abs(F)))


def analytic_example(name: str, nu: int = 41, nv: int = 41,
                     tol: float = 1e-6) -> AnalyticCongruence:
    """Closed-form congruence fields over a built-in minimal patch.

    Validates the published (W, Omega) against the full system and the
    first integral on an [-1, 1]^2 grid, with c from the first integral
    at the chart origin.  A failing Omega is replaced by the shipped
    correction (an exact quadrature of Omega from W, re-derived in the
    tests), which is validated the same way; the literal outcome stays
    in the returned record either way.
    """
    if name not in _ANALYTIC:
        raise KeyError(f"no analytic congruence named {name!r}; "
                       f"choose from {sorted(_ANALYTIC)}")
    data = _ANALYTIC[name]
    patch = data.patch()
    U, V, _ = Domain(-1.0, 1.0, -1.0, 1.0).mesh(nu, nv)
    wj_fn = _on_samples(data.w)
    oj_lit = _on_samples(data.omega)

    lit_res = system_residuals(patch, wj_fn, oj_lit, U, V)
    c_lit = _origin_constant(patch, wj_fn, oj_lit)
    lit_consts = (IntegralConstants(c=c_lit)
                  if np.isfinite(c_lit) and c_lit != 0.0 else None)
    lit_drift = (_max_drift(patch, wj_fn, oj_lit, lit_consts, U, V)
                 if lit_consts else float("inf"))
    literal = dict(literal_residuals=lit_res, literal_drift=lit_drift,
                   literal_constants=lit_consts)

    if max(lit_res.values()) <= tol and lit_drift <= tol:
        return AnalyticCongruence(
            name=name, patch=patch, constants=lit_consts,
            w_jet=wj_fn, omega_jet=oj_lit, residuals=lit_res,
            drift=lit_drift, used_fallback=False,
            omega_text=data.omega_text, **literal)
    if data.corrected is None:
        raise RuntimeError(f"the published congruence data over {name!r} "
                           f"fails the first-order system")
    omega, omega_text, consts = data.corrected
    oj_fix = _on_samples(omega)
    res = system_residuals(patch, wj_fn, oj_fix, U, V)
    drift = _max_drift(patch, wj_fn, oj_fix, consts, U, V)
    if max(res.values()) > tol or drift > tol:
        raise RuntimeError(f"the corrected congruence data over {name!r} "
                           f"fails the first-order system")
    return AnalyticCongruence(
        name=name, patch=patch, constants=consts,
        w_jet=wj_fn, omega_jet=oj_fix, residuals=res, drift=drift,
        used_fallback=True, omega_text=omega_text, **literal)


# ---------------------------------------------------------------------------
# Numerical integration of the system
# ---------------------------------------------------------------------------

# the march carries (Omega, Omega_s, W, Omega_t) for a march along t with
# s the other chart coordinate: (Omega, Omega2, W, Omega1) along u and
# (Omega, Omega1, W, Omega2) along v, so one row permutation swaps them
_SWAP = [0, 3, 2, 1]


def _row_blocks(n_rows: int, row_len: int, block: int | None = None,
                least: int = 0):
    """Slices of consecutive rows covering n_rows rows of row_len
    samples, in blocks of at most ``block`` (default ``_BLOCK``) samples
    and at least one row.  A last block of fewer than ``least`` samples
    joins the one before it."""
    step = max(1, (block or _BLOCK) // max(1, row_len))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and (n_rows - starts[-1]) * row_len < least:
        starts.pop()
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [n_rows])]


def _fill_rows(K, scalars, consts: IntegralConstants, along_u: bool):
    """Write the coefficient rows of the chart scalars (phi, phi_u, phi_v,
    k1), each of shape K[:, 0].shape, into K (see :func:`_kernel_rows`)."""
    phi, pu, pv, k1 = scalars
    r_phi, q, p, cp, mq, e, r = (K[:, j] for j in range(7))
    np.copyto(r_phi, phi)
    np.divide(pv if along_u else pu, phi, out=q)
    np.multiply(phi, k1, out=p)
    if not along_u:
        np.negative(p, out=p)
    np.multiply(p, consts.c, out=cp)
    np.negative(q, out=mq)
    np.multiply(phi, consts.c, out=e)
    e -= p
    np.multiply(phi, -0.5 * consts.c3, out=r)
    r -= (0.5 * consts.c2) * p


def _kernel_rows(patch: MinimalPatch, consts: IntegralConstants,
                 along_u: bool, t: np.ndarray, fixed: np.ndarray,
                 node=None, keep=None):
    """Coefficient rows of the affine kernel at every stage abscissa of a
    march along u (or v) through ``t``, at each ``fixed`` value of the
    other coordinate.  The chart scalars are evaluated block by block.
    Given ``node``, the chart scalars at the nodes, of shape
    (4, len(t), len(fixed)), only the midpoint abscissae are evaluated;
    otherwise every abscissa is, and ``keep`` (the same shape), if given,
    receives the values at the nodes.

    With p = phi k (k the principal curvature along the march) and
    q = phi_s / phi, the slope of y = (Omega, Omega_s, W, Omega_t) is

        (phi, q, p) Omega_t  and
        Omega_t' = c p Omega - q Omega_s + (c phi - p) W
                   - phi c3/2 - p c2/2,

    so the rows are (phi, q, p, c p, -q, c phi - p, -phi c3/2 - p c2/2),
    of shape (2 len(t) - 1, 7, len(fixed)); row block 2i is node i.
    """
    n = len(t)
    K = np.empty((2 * n - 1, 7, len(fixed)))
    s, rows = np.linspace(t[0], t[-1], 2 * n - 1), K
    if node is not None:
        _fill_rows(K[::2], node, consts, along_u)
        s, rows = s[1::2], K[1::2]
    for b in _row_blocks(len(s), len(fixed), 2 * _ELIDE, _ELIDE):
        sb = s[b, None]
        scalars = (patch.chart_scalars(sb, fixed[None, :]) if along_u
                   else patch.chart_scalars(fixed[None, :], sb))
        _fill_rows(rows[b], scalars, consts, along_u)
        if keep is not None:
            # the even abscissae of the block are nodes
            first = b.start + b.start % 2
            for k, x in zip(keep, scalars):
                k[first // 2:(b.stop + 1) // 2] = np.broadcast_to(
                    x, sb.shape[:1] + fixed.shape)[first - b.start::2]
    return K


def _slope(k, y, out, tmp):
    """Kernel slope of the states y (4, lanes) with rows k (7, lanes)."""
    np.multiply(k[:3], y[3], out=out[:3])
    np.multiply(k[3:6], y[:3], out=tmp)
    np.add(tmp[0], tmp[1], out=out[3])
    out[3] += tmp[2]
    out[3] += k[6]


def _march(K, t, i0, y0) -> np.ndarray:
    """RK4 march of the states y0 (4, lanes) along uniform nodes t,
    outward from index i0, with kernel rows K from :func:`_kernel_rows`;
    returns the states at every node, shape (len(t), 4, lanes)."""
    ys = np.empty((len(t),) + y0.shape)
    ys[i0] = y0
    s1, s2, s3, s4, z = (np.empty_like(ys[i0]) for _ in range(5))
    tmp = np.empty((3,) + y0.shape[1:])

    outward = [(i, 1) for i in range(i0, len(t) - 1)]
    outward += [(i, -1) for i in range(i0, 0, -1)]
    for i, d in outward:
        h, y = t[i + d] - t[i], ys[i]
        at_i, at_mid, at_next = K[2 * i], K[2 * i + d], K[2 * i + 2 * d]
        _slope(at_i, y, s1, tmp)
        np.multiply(s1, 0.5 * h, out=z)
        z += y
        _slope(at_mid, z, s2, tmp)
        np.multiply(s2, 0.5 * h, out=z)
        z += y
        _slope(at_mid, z, s3, tmp)
        np.multiply(s3, h, out=z)
        z += y
        _slope(at_next, z, s4, tmp)
        # y + (h/6) (s1 + 2 s2 + 2 s3 + s4), summed in that order
        s2 *= 2.0
        s2 += s1
        s3 *= 2.0
        s2 += s3
        s2 += s4
        s2 *= h / 6.0
        np.add(y, s2, out=ys[i + d])
    return ys


@dataclass
class IntegratedCongruence:
    """Congruence fields integrated over a grid, with consistency data:
    ``path_gap`` is the max field difference between row-first and
    column-first integration orders (compatibility check), ``drift`` the
    max first-integral deviation from its initial value.

    ``w`` is W's second-order jet on the grid, read off the marched state
    through the system itself, so it is exact to integration accuracy
    and every node carries it; ``state()`` holds W's values only.
    ``phi`` is the patch's conformal factor at the nodes, as the march
    used it.  Every field is a C-contiguous (nu, nv) array.
    """

    U: np.ndarray
    V: np.ndarray
    omega: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    w: RJet2
    constants: IntegralConstants
    init_node: tuple
    path_gap: float
    drift: float
    phi: np.ndarray

    def state(self) -> CongruenceState:
        return CongruenceState(self.omega, self.omega1, self.omega2,
                               self.w.val)


def integrate_system(patch: MinimalPatch, init: CongruenceState,
                     consts: IntegralConstants, *,
                     domain: Domain | None = None,
                     nu: int | None = None, nv: int | None = None,
                     step: float | None = None,
                     init_at: tuple = (0.0, 0.0),
                     check_paths: bool = True) -> IntegratedCongruence:
    """Integrate the congruence system over a grid from one initial state.

    ``init_at`` must coincide with a grid node.  One RK4 kernel serves
    both directions: swapping Omega1 and Omega2 turns the system along v
    into the system along u, with the chart coefficients of the march.
    The grid is filled by a march along the initial row, then one along
    all columns at once.  When ``check_paths``, one more march along all
    rows, started from the initial column (which the column march already
    holds), fills the grid in the transposed order; ``path_gap`` is the
    max discrepancy between the two fills.

    The chart scalars are evaluated once per abscissa, in blocks of rows
    written straight into each march's preallocated kernel rows: the
    column march evaluates the nodes and the v-midpoints and keeps the
    (4, nu, nv) node scalars; the row march and W's jet reuse them, and
    the row march evaluates the u-midpoints.  The initial row evaluates
    its own 2 nu - 1 abscissae as one array.
    """
    domain = domain or Domain(-1.0, 1.0, -1.0, 1.0)
    if step is not None:
        if not (np.isfinite(step) and step > 0.0):
            raise ValueError(f"the integration step must be finite and "
                             f"positive, got {step}")
        nu = int(round((domain.u1 - domain.u0) / step)) + 1
        nv = int(round((domain.v1 - domain.v0) / step)) + 1
    nu = 101 if nu is None else nu
    nv = 101 if nv is None else nv
    if nu < 2 or nv < 2:
        raise ValueError(f"integration needs at least 2 nodes per "
                         f"direction, got {nu} x {nv}")
    u = np.linspace(domain.u0, domain.u1, nu)
    v = np.linspace(domain.v0, domain.v1, nv)
    iu0 = int(np.argmin(np.abs(u - init_at[0])))
    iv0 = int(np.argmin(np.abs(v - init_at[1])))
    hu, hv = domain.spacing(nu, nv)
    if abs(u[iu0] - init_at[0]) > 1e-9 * max(1.0, hu) \
            or abs(v[iv0] - init_at[1]) > 1e-9 * max(1.0, hv):
        raise ValueError(f"init_at {init_at} is not a grid node")
    om0, o10, o20, w0 = (float(x) for x in init.as_tuple())

    # the initial row, evaluated as one array of its own abscissae, so
    # that its bits do not depend on the other rows (see _ELIDE)
    K = _kernel_rows(patch, consts, True, u, v[iv0:iv0 + 1])
    row = _march(K, u, iu0, np.array([[om0], [o20], [w0], [o10]]))
    # then every column; the columns' march state is (Omega, Omega1, W,
    # Omega2), shape (nv, 4, nu).  Their even abscissae are the grid
    # nodes, whose chart scalars the row march and W's jet reuse
    node = np.empty((4, nu, nv))
    K = _kernel_rows(patch, consts, False, v, u, keep=node.transpose(0, 2, 1))
    cols = _march(K, v, iv0, row[:, _SWAP, 0].T)
    del K
    fields = np.ascontiguousarray(cols.transpose(1, 2, 0))
    # the initial column, where the row march starts
    start = cols[:, _SWAP, iu0].T
    del cols
    om, o1, w, o2 = fields
    path_gap = float("nan")
    if check_paths:
        K = _kernel_rows(patch, consts, True, u, v, node=node)
        rows = _march(K, u, iu0, start)
        del K
        path_gap = max(float(np.max(np.abs(rows[:, j] - f)))
                       for j, f in zip(_SWAP, fields))
        del rows
    phi, pu, pv, k1 = node
    state = CongruenceState(om, o1, o2, w)
    F = first_integral(state, consts)
    drift = float(np.max(np.abs(F - F[iu0, iv0])))
    # W's jet from the system at the nodes: W_u = Omega1 k1 phi and
    # W_v = -Omega2 k1 phi, differentiated once more through the
    # right-hand sides; k1 phi^2 is constant on these charts, so
    # (k1 phi)_u = -k1 phi_u and (k1 phi)_v = -k1 phi_v
    a = consts.c * w - 0.5 * consts.c3
    b = consts.c * om - w - 0.5 * consts.c2
    k1phi = k1 * phi
    o1_u = -(pv / phi) * o2 + phi * a + phi * k1 * b
    o1_v = (pu / phi) * o2
    o2_v = -(pu / phi) * o1 + phi * a + phi * -k1 * b
    w_jet = RJet2(w, o1 * k1 * phi, o2 * -k1 * phi,
                  o1_u * k1phi - o1 * k1 * pu, o1_v * k1phi - o1 * k1 * pv,
                  -(o2_v * k1phi - o2 * k1 * pv))
    U, V = np.meshgrid(u, v, indexing="ij")
    return IntegratedCongruence(U=U, V=V, omega=om, omega1=o1, omega2=o2,
                                w=w_jet, constants=consts,
                                init_node=(iu0, iv0),
                                path_gap=path_gap, drift=drift,
                                # phi alone, not the node scalars it views
                                phi=phi.copy())


# ---------------------------------------------------------------------------
# Envelope surface and its generated geometry
# ---------------------------------------------------------------------------

def envelope(patch: MinimalPatch, w, U, V) -> SurfaceFields:
    """Envelope surface X = grad W + W N of the congruence with support
    W over the minimal patch's Gauss map.

    ``w`` is W's jet on (U, V): a callable (U, V) -> RJet2 (the closed
    forms of :func:`analytic_example`) or an RJet2 field (such as
    :attr:`IntegratedCongruence.w`).  Plain arrays of values are
    rejected: their partials would need a stencil.
    """
    if not (callable(w) or isinstance(w, RJet2)):
        raise TypeError(f"envelope needs W as a jet, a callable (U, V) -> "
                        f"RJet2 or an RJet2, not {type(w).__name__}")
    # the frame first: its construction needs more scratch memory than
    # any later step, so nothing else should be held while it runs
    frame = patch.frame(U, V)
    return shape_from_support(frame, w(U, V) if callable(w) else w)


@dataclass
class HessianIdentityReport:
    """Largest residuals of the covariant-Hessian identities and the
    gradient link over the compared samples (NaN if there are none)."""

    max_hessian_omega: float
    max_hessian_w: float
    max_gradient_link: float
    n_compared: int
    n_excluded: int


def check_hessian_identities(patch: MinimalPatch, w_jet, omega_jet,
                             consts: IntegralConstants, U, V, *,
                             frame: SphereFrame | None = None,
                             phi_jet: RJet2 | None = None, k1=None
                             ) -> HessianIdentityReport:
    """Measure the second-order structure of a congruence solution:

    * Hessian of Omega in the minimal metric equals
      (cW - c3/2) I + (c Omega - W - c2/2) II,
    * Hessian of W in the normal's metric equals
      (cW - c3/2) II + (c Omega - W - c2/2) III,
    * the gradient of Omega in the minimal metric is the negative of the
      sphere-metric gradient of W (as ambient vectors in the shared
      tangent plane; equivalent to the first-order system itself).

    A given ``frame`` must be ``patch.frame(U, V)``, such as the frame of
    the envelope on (U, V); ``phi_jet`` and ``k1`` as for
    :func:`system_residuals`.
    """
    wj = w_jet(U, V) if callable(w_jet) else w_jet
    oj = omega_jet(U, V) if callable(omega_jet) else omega_jet
    if frame is None:
        frame = patch.frame(U, V)
    pj, k1 = _chart(patch, U, V, phi_jet, k1)
    k2 = -k1
    E = pj.val * pj.val
    e2t = frame.e2tau
    w = np.asarray(wj.val, dtype=float)
    om = np.asarray(oj.val, dtype=float)
    a = consts.c * w - 0.5 * consts.c3
    b = consts.c * om - w - 0.5 * consts.c2
    with np.errstate(all="ignore"):
        h1 = conformal_hessian(oj, pj.log())
        target1 = (a * E + b * k1 * E, np.zeros_like(E), a * E + b * k2 * E)
        r1 = np.maximum.reduce([np.abs(h - t) for h, t in zip(h1, target1)])

        # differentiating W_u = Omega1 k1 phi, W_v = Omega2 k2 phi through
        # the closure equations gives the same constants (a, b) as the
        # Omega identity; k1 phi^2 is constant on these charts, so the
        # Omega1/Omega2 cross terms cancel exactly
        h2 = conformal_hessian(wj, frame.tau)
        target2 = (a * k1 * E + b * e2t, np.zeros_like(E),
                   a * k2 * E + b * e2t)
        r2 = np.maximum.reduce([np.abs(h - t) for h, t in zip(h2, target2)])

        # gradient of Omega in the minimal metric phi^2 (du^2 + dv^2),
        # expressed as an ambient vector through the immersion's tangent frame
        deriv = patch.position_derivatives(U, V)
        Xu, Xv = deriv["Xu"], deriv["Xv"]
        ou = np.asarray(oj.du, dtype=float)
        ov = np.asarray(oj.dv, dtype=float)
        grad_min = (ou / E)[..., None] * Xu + (ov / E)[..., None] * Xv
        link = np.linalg.norm(grad_min + sphere_gradient(wj, frame), axis=-1)
    ok = (~np.asarray(frame.branch) & jet_finite(wj) & jet_finite(oj)
          & np.isfinite(E) & (E > 1e-12))
    m1, m2, m3 = (ResidualField(r, ok).max_abs for r in (r1, r2, link))
    n_ok = int(np.count_nonzero(ok))
    return HessianIdentityReport(max_hessian_omega=m1, max_hessian_w=m2,
                                 max_gradient_link=m3, n_compared=n_ok,
                                 n_excluded=ok.size - n_ok)


@dataclass
class GeneratedFormsReport:
    """How far the envelope's fundamental forms are from the linear
    combination of the minimal patch's forms, relative to the local form
    magnitude, over the envelope's valid samples."""

    max_rel_first: float
    max_rel_second: float
    max_rel_third: float
    n_compared: int
    n_excluded: int


def hover_ratio_residual(env: SurfaceFields, omega,
                         consts: IntegralConstants) -> ResidualField:
    """Gap between the envelope's H/K and its prediction c2/2 - c Omega,
    relative to the larger of the two magnitudes, per sample."""
    with np.errstate(all="ignore"):
        target = 0.5 * consts.c2 - consts.c * omega
        scale = np.maximum(np.abs(env.hover_k), np.abs(target))
        rel = np.where(scale > 0, np.abs(env.hover_k - target) / scale, 0.0)
    return ResidualField(rel, env.valid & np.isfinite(rel),
                         "envelope_hover_ratio")


@dataclass
class EnvelopeChecks:
    """The envelope's per-sample checks over a whole grid.  ``X``, ``N``
    (trailing axis of length 3) and ``valid`` are the envelope's samples,
    as :func:`ribaucour.mesh.mesh_from_fields` reads them, or None when
    they were not asked for."""

    middle_sphere: ResidualField
    hover_ratio: ResidualField
    X: np.ndarray | None = None
    N: np.ndarray | None = None
    valid: np.ndarray | None = None


def envelope_checks(patch: MinimalPatch, w: RJet2, omega,
                    consts: IntegralConstants, U, V, *,
                    surface: bool = False) -> EnvelopeChecks:
    """:func:`envelope`, :func:`check_middle_sphere` and
    :func:`hover_ratio_residual` on the grid (U, V), run over blocks of
    at most ``_BLOCK`` samples (whole rows of the first axis), so that no
    stage holds its temporaries for the whole grid.  Every sample gets
    the values of the whole-grid evaluation.  ``w`` is W's jet on
    (U, V), such as :attr:`IntegratedCongruence.w`; ``omega`` is Omega
    on (U, V) (or a scalar).  With ``surface``, X, N and the valid mask
    are assembled too.
    """
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float),
                               np.asarray(V, dtype=float))
    shape = U.shape
    omega = np.broadcast_to(np.asarray(omega, dtype=float), shape)
    ms_r, hv_r = np.empty(shape), np.empty(shape)
    ms_ok, hv_ok = np.empty(shape, bool), np.empty(shape, bool)
    out = EnvelopeChecks(ResidualField(ms_r, ms_ok, "middle_sphere"),
                         ResidualField(hv_r, hv_ok, "envelope_hover_ratio"))
    if surface:
        out.X, out.N = np.empty(shape + (3,)), np.empty(shape + (3,))
        out.valid = np.empty(shape, bool)
    for b in _row_blocks(shape[0], U[0].size):
        wb = RJet2(*(np.broadcast_to(x, shape)[b]
                     for x in (w.val, w.du, w.dv, w.duu, w.duv, w.dvv)))
        env = envelope(patch, wb, U[b], V[b])
        ms = check_middle_sphere(env)
        hv = hover_ratio_residual(env, omega[b], consts)
        ms_r[b], ms_ok[b] = ms.values, ms.valid
        hv_r[b], hv_ok[b] = hv.values, hv.valid
        if surface:
            out.X[b], out.N[b], out.valid[b] = env.X, env.N, env.valid
    return out


def generated_forms_check(patch: MinimalPatch, w_jet, omega_jet,
                          consts: IntegralConstants, U, V,
                          env: SurfaceFields | None = None, *,
                          phi_jet: RJet2 | None = None, k1=None
                          ) -> GeneratedFormsReport:
    """Measure how far the envelope's forms are from the linear combination

        I_env = a^2 I + 2ab II + b^2 III,  II_env = a II + b III,
        III_env = III,    a = c3/2 - cW,  b = c2/2 - c Omega,

    of the minimal patch's forms.  Residuals are relative to the local
    form magnitude; H/K of the envelope, predicted to equal b, is
    :func:`hover_ratio_residual`.  A given ``env`` must be the envelope
    on (U, V); its frame is the patch's.  ``phi_jet`` and ``k1`` as for
    :func:`system_residuals`.
    """
    wj = w_jet(U, V) if callable(w_jet) else w_jet
    oj = omega_jet(U, V) if callable(omega_jet) else omega_jet
    if env is None:
        env = envelope(patch, wj, U, V)
    pj, k1 = _chart(patch, U, V, phi_jet, k1)
    k2 = -k1
    E = pj.val * pj.val
    e2t = env.frame.e2tau
    zero = np.zeros_like(E)
    I_m = (E, zero, E)
    II_m = (k1 * E, zero, k2 * E)
    III_m = (e2t, zero, e2t)
    w = np.asarray(wj.val, dtype=float)
    om = np.asarray(oj.val, dtype=float)
    a = 0.5 * consts.c3 - consts.c * w
    b = 0.5 * consts.c2 - consts.c * om
    pred_I = tuple(a * a * i + 2.0 * a * b * s + b * b * t
                   for i, s, t in zip(I_m, II_m, III_m))
    pred_II = tuple(a * s + b * t for s, t in zip(II_m, III_m))
    pred_III = III_m
    r1, r2, r3 = (_form_residual(lhs, rhs, env.valid)
                  for lhs, rhs in ((env.first, pred_I),
                                   (env.second, pred_II),
                                   (env.third, pred_III)))
    return GeneratedFormsReport(max_rel_first=r1.max_abs,
                                max_rel_second=r2.max_abs,
                                max_rel_third=r3.max_abs,
                                n_compared=r1.n_valid,
                                n_excluded=r1.n_excluded)
