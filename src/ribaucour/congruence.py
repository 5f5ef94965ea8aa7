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
:func:`hessian_identity_residuals`):

    Omega1_u = -(phi_v/phi) Omega2 + phi (cW - c3/2) + phi k1 (c Omega - W - c2/2)
    Omega2_v = -(phi_u/phi) Omega1 + phi (cW - c3/2) + phi k2 (c Omega - W - c2/2)

making the system integrable by marching.  Swapping Omega1 and Omega2
turns the system along v into the system along u, so one affine RK4
kernel (:func:`_slope`) serves both directions.  :func:`integrate_system`
fills the grid column-first and again row-first, block by block, each
march evaluating its own chart scalars, keeping one fill; the row-first
blocks fold the gap between the fills (the Frobenius check) and the
first integral's drift into a record.  The same right-hand sides,
differentiated once more (k1 phi^2 is constant on these charts), give
W's second-order jet at every node with no stencil
(:meth:`IntegratedCongruence.w_rows`).

The envelope X = grad W + W N of the congruence (support machinery of
:mod:`ribaucour.ribaucour_core` applied to W over the minimal patch's
Gauss map) lands in the middle-sphere surface class, with H/K = -c Omega,
and its fundamental forms are generated linearly from those of the
minimal patch.  :func:`envelope` and the checks take W and Omega as
jets (RJet2), either closed forms evaluated on the grid or integrated;
in the reference gauge the envelope's middle-sphere residual is the
first integral, pointwise, relative to the sum of its terms'
magnitudes.  Every check is a per-sample
:class:`~ribaucour.ribaucour_core.ResidualField` named after its report
entry: :func:`envelope_checks` runs the envelope over blocks of grid
rows, each freed before the next, and folds the records of either
congruence's ``envelope_records`` into one
:class:`~ribaucour.ribaucour_core.GridChecks`.  Each block reads one
:class:`~ribaucour.minimal.MinimalChart`, one order-2 jet of g
(:meth:`~ribaucour.minimal.MinimalPatch.chart`): the frame, the chart
scalars and the tangents all come from it.  The checks read tau to first
order only, which that jet gives; the frame's tau gives the minimal
metric's log factor, log a - tau.

:func:`analytic_example` looks up shipped data: closed-form solutions
(W, Omega) over the built-in patches as jet code, with the constant c
of their first integral.  Nothing is checked at lookup.  The report
judges the fields on every run (``congruence_system`` and
``first_integral_drift`` in analytic mode, ``analytic_agreement`` in
integrate mode), and the tests validate the table.  Enneper's
published Omega fails the system; the shipped Omega and c are its
exact quadrature from W and the first integral, which the tests
re-derive, keeping the published candidate as a failing oracle.
:meth:`AnalyticCongruence.agreement` compares an integrated congruence
with the closed forms per block of rows, as a record of the envelope
pass, evaluating them to first order.  Both modes evaluate the closed
forms on a block's grid lines, ``u[b, None]`` and ``v[None, :]``, not on
a mesh: the closed forms keep the partials that vanish as structural
zeros (:mod:`ribaucour.jets`), so a term in one coordinate costs one
grid line.  They take a mesh too, with the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import Domain, _row_blocks, _rows_per_block
from .jets import RJet2, jet_finite
from .minimal import (MinimalChart, MinimalPatch, catenoid_patch,
                      enneper_patch)
from .ribaucour_core import (GridChecks, ResidualField, SurfaceFields,
                             _form_residual, _rel, check_middle_sphere)
from .sphere_geom import conformal_hessian, sphere_gradient

__all__ = [
    "IntegralConstants", "CongruenceState", "first_integral",
    "system_residuals", "AnalyticCongruence", "analytic_example",
    "IntegratedCongruence", "integrate_system", "envelope",
    "HessianIdentityReport", "hessian_identity_residuals",
    "check_hessian_identities", "GeneratedFormsReport",
    "generated_forms_residual", "generated_forms_check",
    "hover_ratio_residual", "envelope_checks",
]


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

def _system_terms(w_jet: RJet2, omega_jet: RJet2, scalars: tuple) -> dict:
    """Residual of each non-definitional system equation per sample, for
    the fields W and Omega given as jets with the chart scalars
    (:attr:`MinimalChart.scalars`) on their samples (Omega1 and
    Omega2 are read off as Omega_u/phi and Omega_v/phi, so those two
    equations hold by construction and are not reported)."""
    phi, pu, pv, k1 = scalars
    o1 = omega_jet.du / phi
    o2 = omega_jet.dv / phi
    o1_v = (omega_jet.duv * phi - omega_jet.du * pv) / (phi * phi)
    o2_u = (omega_jet.duv * phi - omega_jet.dv * pu) / (phi * phi)
    return {
        "omega1_v": o1_v - o2 * pu / phi,
        "omega2_u": o2_u - o1 * pv / phi,
        "w_u": w_jet.du - o1 * k1 * phi,
        "w_v": w_jet.dv - o2 * -k1 * phi,
    }


def system_residuals(patch: MinimalPatch, w_jet: RJet2, omega_jet: RJet2,
                     U, V) -> dict:
    """Max absolute residual of each equation of :func:`_system_terms`
    for W and Omega given as jets on (U, V)."""
    terms = _system_terms(w_jet, omega_jet, patch.chart(U, V).scalars)
    return {k: float(np.max(np.abs(r))) for k, r in terms.items()}


def _state_from_jets(wj: RJet2, oj: RJet2, phi) -> CongruenceState:
    return CongruenceState(omega=np.asarray(oj.val, dtype=float),
                           omega1=np.asarray(oj.du, dtype=float) / phi,
                           omega2=np.asarray(oj.dv, dtype=float) / phi,
                           w=np.asarray(wj.val, dtype=float))


def _everywhere(values, name: str) -> ResidualField:
    """A record that the report counts on every sample."""
    return ResidualField(values, np.ones(values.shape, bool), name)


def _largest_gap(pairs, name: str) -> ResidualField:
    """A record, counted on every sample, of the largest |a - b| over
    the array pairs (a, b), per sample; a NaN in any pair stays."""
    gap = None
    for a, b in pairs:
        d = np.abs(a - b)
        gap = d if gap is None else np.maximum(gap, d, out=gap)
    return _everywhere(gap, name)


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


def _enneper_omega(u, v):
    ch, sh = _cosh_sinh(u)
    return (u * u + v * v + 5.0) * ch - 4.0 * u * sh


def _on_samples(fn):
    """(U, V, order=2) -> RJet2 of ``fn`` on chart coordinate jets of that
    order, every entry broadcast to the common sample shape of (U, V).
    Given the grid lines of a chart grid, ``u[:, None]`` and
    ``v[None, :]``, a term in one coordinate costs one grid line; a mesh
    gives the same values."""
    def jet(U, V, order=2) -> RJet2:
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        shape = np.broadcast_shapes(U.shape, V.shape)
        second = (0, 0, 0) if order == 2 else ()
        with np.errstate(all="ignore"):
            j = fn(RJet2(U, 1, 0, *second), RJet2(V, 0, 1, *second))
        return RJet2(*(np.broadcast_to(np.asarray(x, dtype=float), shape)
                       for x in j._entries()))
    return jet


# name -> (patch, W, Omega, constants), W and Omega as jet functions
# (U, V) -> RJet2 that solve the system with these constants
_ANALYTIC = {
    "catenoid": (catenoid_patch, _on_samples(_catenoid_w),
                 _on_samples(_catenoid_omega), IntegralConstants(c=0.5)),
    "enneper": (enneper_patch, _on_samples(_enneper_w),
                _on_samples(_enneper_omega), IntegralConstants(c=0.25)),
}


@dataclass
class AnalyticCongruence:
    """A shipped closed-form congruence over a built-in minimal patch:
    W and Omega as callables (U, V, order=2) -> RJet2, with the constants
    of their first integral.  Nothing checks them on construction."""

    name: str
    patch: MinimalPatch
    constants: IntegralConstants
    w_jet: object
    omega_jet: object

    def state(self, U, V) -> CongruenceState:
        """The fields on (U, V)."""
        return _state_from_jets(self.w_jet(U, V), self.omega_jet(U, V),
                                self.patch.chart(U, V).scalars[0])

    def agreement(self, integ: IntegratedCongruence, rows: slice,
                  phi) -> ResidualField:
        """The ``analytic_agreement`` record of ``integ`` on its grid rows
        ``rows``, where the patch's conformal factor is ``phi``, a record
        of the envelope pass (:func:`envelope_checks`): the largest
        difference of any field from these closed forms, which it reads
        to first order, evaluated so on the grid lines of the rows."""
        u, v = integ.u[rows, None], integ.v[None, :]
        ref = _state_from_jets(self.w_jet(u, v, 1), self.omega_jet(u, v, 1),
                               phi)
        return _largest_gap(((x[rows], r) for x, r in zip(
            integ.state().as_tuple(), ref.as_tuple())), "analytic_agreement")

    def envelope_records(self, u, v):
        """``records(b, env, chart)`` for :func:`envelope_checks` on the
        grid with lines ``u`` x ``v``: every check of these closed forms
        on the rows ``b``, each named after its report entry, in report
        order.  W's jet is that of the envelope ``env``, the chart scalars
        and tangents those of the block's ``chart``, whose frame is the
        envelope's, and Omega's jet is evaluated once, on the block's
        grid lines."""
        consts = self.constants

        def records(b, env, chart):
            wj, oj = env.rho, self.omega_jet(u[b, None], v[None, :])
            terms = _system_terms(wj, oj, chart.scalars).values()
            state = _state_from_jets(wj, oj, chart.scalars[0])
            return (_everywhere(np.maximum.reduce([np.abs(r) for r in terms]),
                                "congruence_system"),
                    _everywhere(np.abs(first_integral(state, consts)),
                                "first_integral_drift"),
                    _middle_sphere(env),
                    *hessian_identity_residuals(wj, oj, consts, chart),
                    generated_forms_residual(env, oj.val, consts,
                                             chart.scalars),
                    hover_ratio_residual(env, oj.val, consts))
        return records


def analytic_example(name: str) -> AnalyticCongruence:
    """The shipped closed-form congruence over the built-in minimal patch
    ``name`` (a table lookup; see ``_ANALYTIC``)."""
    if name not in _ANALYTIC:
        raise KeyError(f"no analytic congruence named {name!r}; "
                       f"choose from {sorted(_ANALYTIC)}")
    patch, w_jet, omega_jet, consts = _ANALYTIC[name]
    return AnalyticCongruence(name, patch(), consts, w_jet, omega_jet)


# ---------------------------------------------------------------------------
# Numerical integration of the system
# ---------------------------------------------------------------------------

# the march carries (Omega, Omega_s, W, Omega_t) for a march along t with
# s the other chart coordinate: (Omega, Omega2, W, Omega1) along u and
# (Omega, Omega1, W, Omega2) along v, so one row permutation swaps them
_SWAP = [0, 3, 2, 1]


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
                 along_u: bool, t: np.ndarray, fixed: np.ndarray):
    """Coefficient rows of the affine kernel for a march along u (or v)
    through ``t``, at each ``fixed`` value of the other coordinate, as a
    function ``fill(K, first, d)``: it evaluates the chart scalars at the
    stage abscissae first, first + d, first + 2 d, ... (indices into the
    2 len(t) - 1 stage abscissae, of which 2i is node i), nodes and
    midpoints in one call, and writes their rows into K, of shape
    (count, 7, len(fixed)).

    With p = phi k (k the principal curvature along the march) and
    q = phi_s / phi, the slope of y = (Omega, Omega_s, W, Omega_t) is

        (phi, q, p) Omega_t  and
        Omega_t' = c p Omega - q Omega_s + (c phi - p) W
                   - phi c3/2 - p c2/2,

    so the rows are (phi, q, p, c p, -q, c phi - p, -phi c3/2 - p c2/2).
    """
    s = np.linspace(t[0], t[-1], 2 * len(t) - 1)

    def fill(K, first, d):
        at = s[first + d * np.arange(len(K)), None]
        _fill_rows(K, (patch.chart(at, fixed[None, :]) if along_u
                       else patch.chart(fixed[None, :], at)).scalars,
                   consts, along_u)
    return fill


def _slope(k, y, out, tmp):
    """Kernel slope of the states y (4, lanes) with rows k (7, lanes)."""
    np.multiply(k[:3], y[3], out=out[:3])
    np.multiply(k[3:6], y[:3], out=tmp)
    np.add(tmp[0], tmp[1], out=out[3])
    out[3] += tmp[2]
    out[3] += k[6]


def _march(fill, t, i0, y0, put) -> None:
    """RK4 march of the states y0 (4, lanes) along uniform nodes t,
    outward from index i0 to both ends.  The forward half, to the last
    node, and the backward half, to the first, step in one loop as two
    groups of lanes, each with its own step h per lane; the group with
    more steps takes the leading lanes, so the lanes still stepping are
    always a prefix.  The states go to ``put(nodes, ys)`` one block of a
    group at a time, ys[k] (4, lanes) being the state at node
    nodes.start + k; the first block is y0 alone.  The kernel rows come
    from ``fill`` of :func:`_kernel_rows` one block of steps per group
    at a time, about ``grids._BLOCK`` samples each, just before the
    block is stepped.  A block starts from the last state and row of the
    one before, so every abscissa is evaluated once, and the march holds
    the states of one block only, in a rolling (m + 1, 4, 2 lanes)
    buffer.  Every lane gets the bits of a march of its half alone."""
    n, lanes = len(t), y0.shape[1]
    # steps per block and group: two abscissae each beyond the block's
    # first node
    m = _rows_per_block(2 * lanes)
    # (direction, node index, steps left) of each group, the longer first
    groups = sorted([[1, i0, n - 1 - i0], [-1, i0, i0]], key=lambda g: -g[2])
    width = 2 * lanes
    ys = np.empty((m + 1, 4, width))
    # the four RK4 slopes and a stage's state, and _slope's scratch
    S, tmp = np.empty((5, 4, width)), np.empty((3, width))
    K = np.empty((2 * m + 1, 7, width))
    # h / 2, h and h / 6 of each step of a block, per lane
    H = np.empty((m, 3, width))
    fill(K[:1, :, :lanes], 2 * i0, 1)
    K[0, :, lanes:] = K[0, :, :lanes]
    ys[0, :, :lanes] = ys[0, :, lanes:] = y0
    put(slice(i0, i0 + 1), y0[None])
    lane = [slice(0, lanes), slice(lanes, width)]

    while groups[0][2]:
        steps = [min(m, g[2]) for g in groups]
        for (d, i, _), c, sl in zip(groups, steps, lane):
            if c:
                fill(K[1:2 * c + 1, :, sl], 2 * i + d, d)
                j = i + d * np.arange(c)
                h = t[j + d] - t[j]
                H[:c, 0, sl] = (0.5 * h)[:, None]
                H[:c, 1, sl] = h[:, None]
                H[:c, 2, sl] = (h / 6.0)[:, None]
        # both groups for the shorter one's steps, then the leading one
        for k0, k1, w in ((0, steps[1], width), (steps[1], steps[0], lanes)):
            _rk4_steps(K[:, :, :w], ys[:, :, :w], H[:, :, :w], k0, k1,
                       S[:, :, :w], tmp[:, :w])
        for g, c, sl in zip(groups, steps, lane):
            if not c:
                continue
            d, i = g[0], g[1] + g[0] * c
            # the block's states in node order
            if d > 0:
                put(slice(i - c + 1, i + 1), ys[1:c + 1, :, sl])
            else:
                put(slice(i, i + c), ys[c:0:-1, :, sl])
            K[0, :, sl], ys[0, :, sl] = K[2 * c, :, sl], ys[c, :, sl]
            g[1], g[2] = i, g[2] - c


def _rk4_steps(K, ys, H, k0, k1, S, tmp) -> None:
    """RK4 steps k0 .. k1 - 1 of a block of :func:`_march`: from ys[k]
    to ys[k + 1] with the kernel rows K[2 k .. 2 k + 2] and the per-lane
    steps H[k]; S and tmp are scratch."""
    s1, s2, s3, s4, z = S
    for k in range(k0, k1):
        y, (half, h, sixth) = ys[k], H[k]
        at_i, at_mid, at_next = K[2 * k], K[2 * k + 1], K[2 * k + 2]
        _slope(at_i, y, s1, tmp)
        np.multiply(s1, half, out=z)
        z += y
        _slope(at_mid, z, s2, tmp)
        np.multiply(s2, half, out=z)
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
        s2 *= sixth
        np.add(y, s2, out=ys[k + 1])


def _grid_arrays(nu: int, nv: int) -> np.ndarray:
    """The one full-grid array of :func:`integrate_system`, the fields,
    shape (4, nu, nv).  It is allocated before any step, so that a grid
    too large for the memory fails at once."""
    return np.empty((4, nu, nv))


@dataclass
class IntegratedCongruence:
    """Congruence fields integrated over the grid ``u`` x ``v``.  Its
    ``checks`` (a ``GridChecks``) fold ``path_independence``, the largest
    field gap per node between the row-first and column-first fills, and
    ``first_integral_drift``, |F - F0|; ``path_gap`` and ``drift`` are
    their maxima.

    It holds one fill, nothing else on the whole grid: ``fields``, shape
    (4, nu, nv), is (Omega, Omega1, W, Omega2) of the column-first fill
    over ``patch``.  ``omega`` and the fields of ``state()`` are
    C-contiguous (nu, nv) views of it; ``U`` and ``V`` are read-only
    broadcast views of u and v.

    :meth:`w_rows` is W's second-order jet on a block of rows, read off
    the fill and the patch's chart scalars there through the system
    itself, so it is exact to integration accuracy and every node
    carries it; ``w`` is the whole grid's, chart scalars included, built
    each time it is read.  ``state()`` holds W's values only.
    """

    u: np.ndarray
    v: np.ndarray
    fields: np.ndarray
    patch: MinimalPatch
    constants: IntegralConstants
    init_node: tuple
    checks: GridChecks

    U = property(lambda self: np.broadcast_to(self.u[:, None],
                                              self.fields.shape[1:]))
    V = property(lambda self: np.broadcast_to(self.v, self.fields.shape[1:]))
    omega = property(lambda self: self.fields[0])
    path_gap = property(
        lambda self: self.checks.residuals["path_independence"].max_abs)
    drift = property(
        lambda self: self.checks.residuals["first_integral_drift"].max_abs)

    def state(self) -> CongruenceState:
        om, o1, w, o2 = self.fields
        return CongruenceState(om, o1, o2, w)

    def w_rows(self, rows: slice, scalars: tuple) -> RJet2:
        """W's jet on the grid rows ``rows``, given the chart scalars
        (phi, phi_u, phi_v, k1) there: W_u = Omega1 k1 phi and
        W_v = -Omega2 k1 phi, differentiated once more through the
        right-hand sides; k1 phi^2 is constant on these charts, so
        (k1 phi)_u = -k1 phi_u and (k1 phi)_v = -k1 phi_v.  Every step is
        per node, so each block gets the bits of the whole grid."""
        om, o1, w, o2 = self.fields[:, rows]
        phi, pu, pv, k1 = scalars
        consts = self.constants
        a = consts.c * w - 0.5 * consts.c3
        b = consts.c * om - w - 0.5 * consts.c2
        k1phi = k1 * phi
        o1_u = -(pv / phi) * o2 + phi * a + phi * k1 * b
        w_uu = o1_u * k1phi - o1 * k1 * pu
        o2_v = -(pu / phi) * o1 + phi * a + phi * -k1 * b
        w_vv = -(o2_v * k1phi - o2 * k1 * pv)
        o1_v = (pu / phi) * o2
        w_uv = o1_v * k1phi - o1 * k1 * pv
        return RJet2(w, o1 * k1 * phi, o2 * -k1 * phi, w_uu, w_uv, w_vv)

    @property
    def w(self) -> RJet2:
        chart = self.patch.chart(self.U, self.V)
        return self.w_rows(slice(None), chart.scalars)

    def envelope_records(self, rows: slice, env: SurfaceFields) -> tuple:
        """The middle-sphere and H/K records of the envelope ``env`` on the
        grid rows ``rows``, each named after its report entry, for the
        ``records`` of :func:`envelope_checks` on this grid."""
        return (_middle_sphere(env),
                hover_ratio_residual(env, self.omega[rows], self.constants))


def integrate_system(patch: MinimalPatch, init: CongruenceState,
                     consts: IntegralConstants, *, step: float,
                     domain: Domain | None = None) -> IntegratedCongruence:
    """Integrate the congruence system over the grid of spacing ``step``
    on ``domain`` (default [-1, 1]^2) from the state ``init`` at the
    chart origin, which must be a grid node.

    A march (:func:`_march`) along the initial row, one lane, then one
    along all columns write the fields; one more along all rows fills
    the grid in the transposed order, and each of its blocks is compared
    with the fields, folded into ``checks`` and dropped.  Each march
    evaluates the chart scalars at its own stage abscissae, one block of
    steps at a time (:func:`_kernel_rows`).  The fields are allocated
    before any step, so a grid too large for the memory fails at once.
    A step that is not finite and positive, gives a node count that is
    not finite or below 2, or whose nodes miss the origin raises
    ValueError.
    """
    domain = domain or Domain(-1.0, 1.0, -1.0, 1.0)
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"the integration step must be finite and "
                         f"positive, got {step}")
    spans = ((domain.u1 - domain.u0) / step, (domain.v1 - domain.v0) / step)
    if not all(np.isfinite(spans)):
        raise ValueError(f"the integration step {step} gives a node "
                         f"count that is not finite")
    nu, nv = (int(round(x)) + 1 for x in spans)
    if nu < 2 or nv < 2:
        raise ValueError(f"integration needs at least 2 nodes per "
                         f"direction, got {nu} x {nv}")
    u = np.linspace(domain.u0, domain.u1, nu)
    v = np.linspace(domain.v0, domain.v1, nv)
    iu0, iv0 = int(np.argmin(np.abs(u))), int(np.argmin(np.abs(v)))
    hu, hv = domain.spacing(nu, nv)
    if abs(u[iu0]) > 1e-9 * max(1.0, hu) or abs(v[iv0]) > 1e-9 * max(1.0, hv):
        raise ValueError(f"the nodes of step {step} on the domain "
                         f"{domain.u0:g}:{domain.u1:g}:{domain.v0:g}:"
                         f"{domain.v1:g} miss the chart origin (0, 0)")
    om0, o10, o20, w0 = (float(x) for x in init.as_tuple())
    fields = _grid_arrays(nu, nv)

    # the initial row, one lane, whose march state is (Omega, Omega2, W,
    # Omega1)
    row = np.empty((nu, 4))

    def put_row(nodes, ys):
        row[nodes] = ys[:, :, 0]

    _march(_kernel_rows(patch, consts, True, u, v[iv0:iv0 + 1]), u, iu0,
           np.array([[om0], [o20], [w0], [o10]]), put_row)

    # then every column, block by block into the fields; the columns'
    # march state is (Omega, Omega1, W, Omega2), (4, nu) per node
    def put_columns(nodes, ys):
        fields[:, :, nodes] = ys.transpose(1, 2, 0)

    _march(_kernel_rows(patch, consts, False, v, u), v, iv0,
           row[:, _SWAP].T, put_columns)
    # then every row from the initial column: each block is compared with
    # the column-first fill, folded into the checks and dropped
    # the fill holds the initial state at the initial node, bit for bit
    om, o1, w, o2 = fields
    F0 = first_integral(CongruenceState(om0, o10, o20, w0), consts)
    checks = GridChecks((nu, nv))

    def compare_rows(nodes, ys):
        F = first_integral(CongruenceState(om[nodes], o1[nodes], o2[nodes],
                                           w[nodes]), consts)
        checks.put(nodes, (
            _largest_gap(((ys[:, j], f[nodes]) for j, f in zip(_SWAP, fields)),
                         "path_independence"),
            _everywhere(np.abs(F - F0), "first_integral_drift")))

    _march(_kernel_rows(patch, consts, True, u, v), u, iu0,
           fields[_SWAP, iu0], compare_rows)
    return IntegratedCongruence(u=u, v=v, fields=fields, patch=patch,
                                constants=consts, init_node=(iu0, iv0),
                                checks=checks)


# ---------------------------------------------------------------------------
# Envelope surface and its generated geometry
# ---------------------------------------------------------------------------

def envelope(patch: MinimalPatch, w: RJet2, U, V) -> SurfaceFields:
    """Envelope surface X = grad W + W N of the congruence with support
    W over the minimal patch's Gauss map.

    ``w`` is W's jet on (U, V), such as a closed form of
    :func:`analytic_example` evaluated there or
    :attr:`IntegratedCongruence.w`.  Plain arrays of values and jets of
    order 1 are rejected: the partials they lack would need a stencil.
    """
    if not isinstance(w, RJet2) or w.order < 2:
        what = "an order-1 jet" if isinstance(w, RJet2) else type(w).__name__
        raise TypeError(f"envelope needs W as an RJet2 jet of order 2, "
                        f"not {what}")
    return SurfaceFields(patch.chart(U, V).frame, w)


@dataclass
class HessianIdentityReport:
    """Largest residuals of :func:`hessian_identity_residuals` over the
    compared samples (NaN if there are none)."""

    max_hessian_omega: float
    max_hessian_w: float
    max_gradient_link: float
    n_compared: int
    n_excluded: int


def hessian_identity_residuals(w_jet: RJet2, omega_jet: RJet2,
                               consts: IntegralConstants,
                               chart: MinimalChart) -> tuple:
    """The second-order structure of a congruence solution per sample,
    ``(hessian_identity_omega, hessian_identity_w, gradient_link)``:

    * Hessian of Omega in the minimal metric equals
      (cW - c3/2) I + (c Omega - W - c2/2) II,
    * Hessian of W in the normal's metric equals
      (cW - c3/2) II + (c Omega - W - c2/2) III,
    * the gradient of Omega in the minimal metric is the negative of the
      sphere-metric gradient of W (as ambient vectors in the shared
      tangent plane; equivalent to the first-order system itself).

    W and Omega are jets on the samples of ``chart``, the patch's chart
    record there, whose frame, chart scalars and tangents (X_u, X_v) are
    read off its one jet of g.  All three are valid where the frame has
    no branch point, both jets are finite and phi^2 is finite and above
    1e-12.
    """
    frame = chart.frame
    phi, _, _, k1 = chart.scalars
    k2 = -k1
    E = phi * phi
    e2t = frame.e2tau
    w = np.asarray(w_jet.val, dtype=float)
    om = np.asarray(omega_jet.val, dtype=float)
    a = consts.c * w - 0.5 * consts.c3
    b = consts.c * om - w - 0.5 * consts.c2
    with np.errstate(all="ignore"):
        # the minimal metric's log factor is log a - tau: only its
        # gradient enters the Hessian
        h1 = conformal_hessian(omega_jet, -frame.tau)
        target1 = (a * E + b * k1 * E, np.zeros_like(E), a * E + b * k2 * E)
        r1 = np.maximum.reduce([np.abs(h - t) for h, t in zip(h1, target1)])

        # differentiating W_u = Omega1 k1 phi, W_v = Omega2 k2 phi through
        # the closure equations gives the same constants (a, b) as the
        # Omega identity; k1 phi^2 is constant on these charts, so the
        # Omega1/Omega2 cross terms cancel exactly
        h2 = conformal_hessian(w_jet, frame.tau)
        target2 = (a * k1 * E + b * e2t, np.zeros_like(E),
                   a * k2 * E + b * e2t)
        r2 = np.maximum.reduce([np.abs(h - t) for h, t in zip(h2, target2)])

        # gradient of Omega in the minimal metric phi^2 (du^2 + dv^2),
        # expressed as an ambient vector through the immersion's tangent frame
        Xu, Xv = chart.tangents
        ou = np.asarray(omega_jet.du, dtype=float)
        ov = np.asarray(omega_jet.dv, dtype=float)
        grad_min = (ou / E)[..., None] * Xu + (ov / E)[..., None] * Xv
        link = np.linalg.norm(grad_min + sphere_gradient(w_jet, frame),
                              axis=-1)
    ok = (~np.asarray(frame.branch) & jet_finite(w_jet)
          & jet_finite(omega_jet) & np.isfinite(E) & (E > 1e-12))
    return (ResidualField(r1, ok, "hessian_identity_omega"),
            ResidualField(r2, ok, "hessian_identity_w"),
            ResidualField(link, ok, "gradient_link"))


def check_hessian_identities(patch: MinimalPatch, w_jet: RJet2,
                             omega_jet: RJet2, consts: IntegralConstants,
                             U, V) -> HessianIdentityReport:
    """:func:`hessian_identity_residuals` for W and Omega given as jets
    on (U, V), summarised over the whole grid."""
    r1, r2, r3 = hessian_identity_residuals(w_jet, omega_jet, consts,
                                            patch.chart(U, V))
    return HessianIdentityReport(r1.max_abs, r2.max_abs, r3.max_abs,
                                 n_compared=r1.n_valid,
                                 n_excluded=r1.n_excluded)


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
        rel = _rel(np.abs(env.hover_k - target),
                   np.maximum(np.abs(env.hover_k), np.abs(target)))
    return ResidualField(rel, env.valid & np.isfinite(rel),
                         "envelope_hover_ratio")


def _middle_sphere(env: SurfaceFields) -> ResidualField:
    """:func:`check_middle_sphere`, named after the envelope's entry."""
    return replace(check_middle_sphere(env), name="envelope_middle_sphere")


def envelope_checks(patch: MinimalPatch, w_rows, U, V, records, *,
                    surface: bool = False) -> GridChecks:
    """:func:`envelope` on the grid (U, V) and the checks of
    ``records``, run over blocks of at most ``grids._BLOCK`` samples
    (whole rows of the first axis), so that no stage holds its
    temporaries for the whole grid.  Each block reads one chart record
    (:meth:`~ribaucour.minimal.MinimalPatch.chart`), its frame first;
    ``w_rows(b, scalars)`` is W's order-2 jet on the rows ``b`` of (U, V)
    with the chart scalars (phi, phi_u, phi_v, k1) there, built per
    block, such as :meth:`IntegratedCongruence.w_rows`;
    ``records(b, env, chart)`` returns the residual records of the
    envelope ``env`` on those rows, given the block's ``chart``, such as
    those of
    :meth:`AnalyticCongruence.envelope_records`.  The record folds them
    in the order given; with ``surface``, X, N and the valid mask are
    assembled too.  Valid samples get the bits of the whole-grid
    evaluation, and so does every summary; the values at excluded
    samples may differ (a NaN's sign, for one).
    """
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float),
                               np.asarray(V, dtype=float))
    out = GridChecks(U.shape, surface)
    for b in _row_blocks(U.shape[0], U[0].size):
        # the frame first: its construction needs more scratch memory
        # than any later step, so nothing else is held while it runs
        chart = patch.chart(U[b], V[b])
        env = SurfaceFields(chart.frame, w_rows(b, chart.scalars))
        out.put(b, records(b, env, chart), env)
        del chart, env  # before the next block's frame is built
    return out


def _form_gaps(env: SurfaceFields, omega, consts: IntegralConstants,
               scalars: tuple) -> tuple:
    """Relative gaps of the envelope's first, second and third forms
    from their linear combinations of the minimal patch's forms, per
    sample over ``env.valid`` (see :func:`generated_forms_residual`)."""
    phi, _, _, k1 = scalars
    E, e2t = phi * phi, env.frame.e2tau
    zero = np.zeros_like(E)
    I_m, II_m, III_m = (E, zero, E), (k1 * E, zero, -k1 * E), (e2t, zero, e2t)
    a = 0.5 * consts.c3 - consts.c * np.asarray(env.rho.val, dtype=float)
    b = 0.5 * consts.c2 - consts.c * np.asarray(omega, dtype=float)
    pred_I = tuple(a * a * i + 2.0 * a * b * s + b * b * t
                   for i, s, t in zip(I_m, II_m, III_m))
    pred_II = tuple(a * s + b * t for s, t in zip(II_m, III_m))
    return tuple(_form_residual(lhs, rhs, env.valid)
                 for lhs, rhs in ((env.first, pred_I),
                                  (env.second, pred_II),
                                  (env.third, III_m)))


def generated_forms_residual(env: SurfaceFields, omega,
                             consts: IntegralConstants,
                             scalars: tuple) -> ResidualField:
    """How far the envelope's forms are from the linear combination

        I_env = a^2 I + 2ab II + b^2 III,  II_env = a II + b III,
        III_env = III,    a = c3/2 - cW,  b = c2/2 - c Omega,

    of the minimal patch's forms: the largest of the three gaps per
    sample, each relative to the local form magnitude, valid where the
    envelope ``env`` is.  W is the envelope's support, Omega its values
    on the samples of ``env`` and ``scalars`` the patch's chart scalars
    there.  H/K of the envelope, predicted to equal b, is
    :func:`hover_ratio_residual`.
    """
    gaps = _form_gaps(env, omega, consts, scalars)
    return ResidualField(np.maximum.reduce([g.values for g in gaps]),
                         env.valid, "generated_forms")


def generated_forms_check(patch: MinimalPatch, w_jet: RJet2, omega_jet: RJet2,
                          consts: IntegralConstants, U, V,
                          env: SurfaceFields | None = None
                          ) -> GeneratedFormsReport:
    """The gaps of :func:`generated_forms_residual` for W and Omega given
    as jets on (U, V), each form's summarised over the whole grid.  A
    given ``env`` must be the envelope of W on (U, V)."""
    if env is None:
        env = envelope(patch, w_jet, U, V)
    r1, r2, r3 = _form_gaps(env, omega_jet.val, consts,
                            patch.chart(U, V).scalars)
    return GeneratedFormsReport(r1.max_abs, r2.max_abs, r3.max_abs,
                                n_compared=r1.n_valid,
                                n_excluded=r1.n_excluded)
