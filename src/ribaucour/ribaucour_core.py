"""Surface patches from pairs of holomorphic functions.

A pair (f1, f2) of holomorphic functions determines a surface whose
middle spheres (centre X + (H/K)N, radius |H/K|) all meet the unit
sphere along great circles.  f1 fixes the unit normal N by inverse
stereographic projection; the support function

    rho = |f1'| (1 + |f2|^2) / (|f2'| (1 + |f1|^2)) = exp(tau1 - tau2),

with tau_i the log conformal factor of f_i's sphere map
(:func:`ribaucour.sphere_geom.tau_from_jet`), recovers the immersion as
X = grad rho + rho N (gradient in the sphere metric).  All shape data
comes from second-order jets of rho, so the checks below operate at
rounding precision.  Taking rho from the tau difference keeps samples
next to a pole of f1 or f2 accurate, where the quotient of |.|^2
products above cancels catastrophically.

Conventions: shape operator S = -dN dX^{-1}, second fundamental form
II = -<dX, dN>.  The curvature-radius operator

    B = -(e^{-2 tau} Hess rho + rho Id)

has eigenvalues 1/k_i with principal directions as eigenvectors;
II = e^{2 tau} B and I = e^{2 tau} B^2 in chart coordinates.  With f1 =
f2 the patch is the unit sphere itself and k1 = k2 = -1.

The characterising identities, each exposed as a residual check
relative to the size of its terms, so that it scales with the surface:

* support identity  rho^2 + rho Lap(rho) - 1 - |grad rho|^2 = 0,
* middle-sphere identity  <X,X> + 2 (H/K) <X,N> + 1 = 0,
* the Laguerre-invariant Hopf coefficient is a difference of Schwarzians,
  mu = (Hess_uu - Hess_vv - 2i Hess_uv) / (2 rho) = S(f1) - S(f2).

Every step from the jets to the residuals is per sample, so
:func:`patch_checks` runs a patch over blocks of grid rows (see
:func:`ribaucour.grids._row_blocks`), one :class:`SurfaceFields` per
block, and folds each residual into a :class:`CheckSummary` (X, N and
the valid mask kept on request) in a :class:`GridChecks`, the one check
record of the package; no stage holds a whole grid's shape data.  Each
check of a block runs in a :func:`ribaucour.grids._released` scope, so
what it alone reads goes when it returns, and what the block read goes
before the next block is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Domain, _released, _row_blocks
from .holoexpr import HoloExpr, eval_jet, parse, to_text
from .jets import RJet2, jet_finite
from .sphere_geom import (SphereFrame, _dot, conformal_hessian,
                          generator_data, sphere_gradient, sphere_laplacian,
                          tau_from_jet)

__all__ = [
    "RibaucourPatch", "SurfaceFields", "ResidualField",
    "make_patch", "support_jet", "shape_from_support",
    "evaluate_patch", "immerse", "support_pde_residual",
    "check_middle_sphere", "hopf_residual", "unit_sphere_gap",
    "CheckSummary", "GridChecks", "patch_checks",
    "DEGENERATE_TOL", "UMBILIC_TOL",
]

# |det B| below DEGENERATE_TOL times the local operator scale means the
# immersion fails (a principal radius collapses); UMBILIC_TOL is the
# relative principal-curvature gap below which directions are unset.
DEGENERATE_TOL = 1e-10
UMBILIC_TOL = 1e-8


@dataclass(frozen=True)
class RibaucourPatch:
    """A surface patch: defining pair (f1, f2) and a chart rectangle."""

    f1: HoloExpr
    f2: HoloExpr
    domain: Domain = Domain(-1.0, 1.0, -1.0, 1.0)

    def label(self) -> str:
        return f"({to_text(self.f1)}, {to_text(self.f2)})"


def make_patch(f1, f2, domain: Domain | None = None) -> RibaucourPatch:
    """Build a patch from expressions or their source text."""
    e1 = parse(f1) if isinstance(f1, str) else f1
    e2 = parse(f2) if isinstance(f2, str) else f2
    return RibaucourPatch(e1, e2, domain or Domain(-1.0, 1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Support function
# ---------------------------------------------------------------------------

def _support_from_tau(tau1: RJet2, tau2: RJet2) -> RJet2:
    """rho = exp(tau1 - tau2); non-finite where either tau is."""
    with np.errstate(all="ignore"):
        return (tau1 - tau2).exp()


def support_jet(j1, j2) -> RJet2:
    """Support-function jet exp(tau1 - tau2) from order-3 complex jets of
    f1 and f2.  Both tau jets are pole-safe, so samples next to a pole of
    either generator stay accurate."""
    return _support_from_tau(tau_from_jet(j1), tau_from_jet(j2))


# ---------------------------------------------------------------------------
# Principal data of a 2x2 symmetric operator field
# ---------------------------------------------------------------------------

def _eigenvalues(b11, b12, b22):
    """Eigenvalues (lam_hi, lam_lo), lam_hi >= lam_lo, of the
    curvature-radius operator [[b11, b12], [b12, b22]]."""
    mean = 0.5 * (b11 + b22)
    half = 0.5 * (b11 - b22)
    disc = np.sqrt(half * half + b12 * b12)
    return mean + disc, mean - disc


def _principal(b11, b12, b22, lam_hi, lam_lo):
    """Principal curvatures of the operator with eigenvalues
    (lam_hi, lam_lo): ``(k1, k2, umbilic, (ex, ey, swap))``.  Curvatures
    are the reciprocal eigenvalues sorted k1 >= k2; (ex, ey) is the unit
    eigenvector of lam_hi and ``swap`` marks samples where it carries k2,
    the input of :func:`_directions`."""
    k_a = 1.0 / lam_hi
    k_b = 1.0 / lam_lo
    # eigenvector of lam_hi; pick the numerically larger of the two
    # algebraically equivalent forms
    ex = np.where(b11 >= b22, lam_hi - b22, b12)
    ey = np.where(b11 >= b22, b12, lam_hi - b11)
    norm = np.sqrt(ex * ex + ey * ey)
    ex, ey = ex / norm, ey / norm
    umbilic = np.abs(k_a - k_b) <= UMBILIC_TOL * (np.abs(k_a) + np.abs(k_b))
    umbilic = umbilic | ~np.isfinite(norm) | (np.asarray(norm) == 0.0)
    swap = k_b > k_a
    k1 = np.where(swap, k_b, k_a)
    k2 = np.where(swap, k_a, k_b)
    return k1, k2, umbilic, (ex, ey, swap)


def _directions(ex, ey, swap, umbilic):
    """Unit chart vectors (dir1, dir2) of shape (..., 2) carrying k1 and
    k2, NaN where umbilic."""
    d_hi = np.stack([ex, ey], axis=-1)
    d_lo = np.stack([-ey, ex], axis=-1)
    dir1 = np.where(swap[..., None], d_lo, d_hi)
    dir2 = np.where(swap[..., None], d_hi, d_lo)
    unset = np.broadcast_to(umbilic[..., None], dir1.shape)
    return np.where(unset, np.nan, dir1), np.where(unset, np.nan, dir2)


def _forms(e2t, b11, b12, b22) -> tuple:
    """(first, second, third) fundamental-form triples (uu, uv, vv):
    II = e^{2 tau} B, I = e^{2 tau} B^2 and III = e^{2 tau} Id."""
    second = (e2t * b11, e2t * b12, e2t * b22)
    first = (e2t * (b11 * b11 + b12 * b12),
             e2t * b12 * (b11 + b22),
             e2t * (b12 * b12 + b22 * b22))
    third = (e2t, np.zeros_like(e2t), e2t)
    return first, second, third


# ---------------------------------------------------------------------------
# Assembled surface data
# ---------------------------------------------------------------------------

def _derived(method):
    """A cached property computed with floating-point warnings off:
    degenerate samples give inf or NaN, which the masks record."""
    def compute(self):
        with np.errstate(all="ignore"):
            return method(self)
    compute.__doc__ = method.__doc__
    return cached_property(compute)


def _part(name: str, i: int) -> property:
    """Read-only view of item i of the cached tuple ``name``."""
    return property(lambda self: getattr(self, name)[i])


class SurfaceFields:
    """Per-sample surface data over a chart grid, or at a single point
    with 0-d samples (:func:`immerse`).

    It stores only what it is given: the frame, the support jet rho and
    ``schwarzian``, (S(f1), S(f2)) for the fields of
    :func:`evaluate_patch`.  ``schwarzian`` is None for fields that no
    check of S reads (``duality.evaluate_pair``,
    :func:`shape_from_support`), which :func:`hopf_residual` rejects.
    Everything else is computed the first time it is read and kept
    until the :func:`ribaucour.grids._released` scope that computed it
    ends, if one did, so a caller pays only for what it reads, reading
    several quantities within a scope computes none twice, and a blocked
    stage holds each only until its last check (``N`` is the frame's
    ``normal`` array itself):

    * ``X`` (trailing axis of length 3), ``hover_k`` (H/K) and
      ``mu`` (the Laguerre Hopf coefficient; it measures the umbilic
      deviation, |1/k2 - 1/k1| = 2 rho |mu| e^{-2 tau});
    * ``b11/b12/b22``, the curvature-radius operator, from the covariant
      Hessian of rho;
    * the flags ``branch`` (frame or support degenerate), ``degenerate``
      (immersion fails: |det B| below DEGENERATE_TOL times the operator's
      scale, includes branch; needs only the operator's eigenvalues) and
      ``umbilic`` (principal curvatures closer than UMBILIC_TOL relative,
      directions unset);
    * ``k1``, ``k2`` and the principal directions ``dir1``, ``dir2``
      (trailing axis of length 2);
    * ``first/second/third``: fundamental-form coefficient triples
      (uu, uv, vv), computed together.
    """

    def __init__(self, frame: SphereFrame, rho: RJet2,
                 schwarzian: tuple | None = None):
        self.frame = frame
        self.rho = rho
        self.schwarzian = schwarzian

    @property
    def rho_val(self):
        return np.asarray(self.rho.val, dtype=float)

    @property
    def e2tau(self):
        return self.frame.e2tau

    @_derived
    def N(self):
        return self.frame.normal

    @_derived
    def X(self):
        # grad rho + rho N, column by column
        x, rv, n = sphere_gradient(self.rho, self.frame), self.rho_val, self.N
        for k in range(3):
            x[..., k] += rv * n[..., k]
        return x

    @_derived
    def hover_k(self):
        return np.asarray(-0.5 * (sphere_laplacian(self.rho, self.frame)
                                  + 2.0 * self.rho_val))

    @_derived
    def _hessian(self):
        return conformal_hessian(self.rho, self.frame.tau)

    @_derived
    def mu(self):
        huu, huv, hvv = self._hessian
        return np.asarray((huu - hvv - 2.0j * huv) / (2.0 * self.rho_val))

    @_derived
    def _operator(self):
        rv = self.rho_val
        w = np.asarray(np.exp(-2.0 * np.asarray(self.frame.tau.val,
                                                dtype=float)))
        huu, huv, hvv = self._hessian
        return (np.asarray(-(w * huu + rv), dtype=float),
                np.asarray(-(w * huv), dtype=float),
                np.asarray(-(w * hvv + rv), dtype=float))

    b11, b12, b22 = (_part("_operator", i) for i in range(3))

    @_derived
    def _lambdas(self):
        return _eigenvalues(*self._operator)

    @_derived
    def branch(self):
        return np.asarray(np.asarray(self.frame.branch)
                          | ~jet_finite(self.rho))

    @_derived
    def degenerate(self):
        lam_hi, lam_lo = self._lambdas
        det = lam_hi * lam_lo
        scale = np.maximum(1.0, lam_hi * lam_hi + lam_lo * lam_lo)
        degenerate = self.branch | (np.abs(det) <= DEGENERATE_TOL * scale)
        return np.asarray(degenerate | ~np.isfinite(det))

    @property
    def valid(self):
        """Samples where the immersion and frame are trustworthy."""
        return ~self.degenerate

    @_derived
    def _curvatures(self):
        return _principal(*self._operator, *self._lambdas)

    k1, k2 = (_part("_curvatures", i) for i in range(2))

    @_derived
    def umbilic(self):
        return np.asarray(self._curvatures[2]) & ~self.degenerate

    @_derived
    def _dir_pair(self):
        _, _, umbilic, eigenvector = self._curvatures
        return _directions(*eigenvector, umbilic)

    dir1, dir2 = (_part("_dir_pair", i) for i in range(2))

    @_derived
    def _form_triples(self):
        return _forms(np.asarray(self.e2tau), *self._operator)

    first, second, third = (_part("_form_triples", i) for i in range(3))


def shape_from_support(frame: SphereFrame, rho: RJet2) -> SurfaceFields:
    """``SurfaceFields(frame, rho)``: shape data of the surface with unit
    normal ``frame`` and support jet ``rho``, for any support field on
    the sphere.  The package builds :class:`SurfaceFields` directly; this
    name stays for the benchmark's traced replay
    (``perfbench/replay.py``), which times the layer under it."""
    return SurfaceFields(frame, rho)


def evaluate_patch(patch: RibaucourPatch, nu: int = 41, nv: int = 41,
                   Z: np.ndarray | None = None) -> SurfaceFields:
    """Evaluate the full shape pipeline on a grid over the patch domain
    (or on explicit sample points ``Z``).  Each distinct generator gets
    one jet, inverted once for its frame or tau jet and its Schwarzian."""
    if Z is None:
        _, _, Z = patch.domain.mesh(nu, nv)
    frame, s1 = generator_data(eval_jet(patch.f1, Z, 3), frame=True)
    if patch.f2 is patch.f1:
        tau2, s2 = frame.tau, s1
    else:
        tau2, s2 = generator_data(eval_jet(patch.f2, Z, 3), frame=False)
    return SurfaceFields(frame, _support_from_tau(frame.tau, tau2), (s1, s2))


def immerse(patch: RibaucourPatch, z: complex) -> SurfaceFields:
    """The fields of :func:`evaluate_patch` at one chart point, with 0-d
    samples (X and N of shape (3,)).  It evaluates through an array, so
    it never raises for a point: degeneracies set flags and leave NaN
    values, and at a pole of the pair every value is NaN and the sample
    is flagged ``degenerate`` and ``branch``."""
    return evaluate_patch(patch, Z=np.asarray(complex(z)))


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------

@dataclass
class ResidualField:
    """A residual sampled over a grid with a validity mask, named after
    its report entry.  It only measures: the pass/fail verdict belongs to
    :func:`ribaucour.report.identity_entry`."""

    values: np.ndarray
    valid: np.ndarray
    name: str = ""

    @cached_property
    def _summary(self) -> CheckSummary:
        """The record folded once, as a report entry folds it."""
        summary = CheckSummary(self.name)
        summary.fold(self)
        return summary

    max_abs = property(lambda self: self._summary.max_abs)
    n_valid = property(lambda self: self._summary.n_valid)
    n_excluded = property(lambda self: self._summary.n_excluded)


def _rel(gap, scale):
    """gap / scale per sample, the one rule of every relative residual: a
    scale of 0 gives 0; otherwise a NaN in the gap or the scale stays."""
    with np.errstate(all="ignore"):
        return np.where(scale == 0.0, 0.0, gap / scale)


def _gap(a, b):
    """The two-sided relative gap |a-b| / max(|a|, |b|) per sample
    (:func:`_rel`), zero where both vanish."""
    with np.errstate(all="ignore"):
        return _rel(np.abs(a - b), np.maximum(np.abs(a), np.abs(b)))


def _form_residual(lhs: tuple, rhs: tuple, valid, name: str = ""
                   ) -> ResidualField:
    """Coefficientwise gap between two forms relative to the local form
    magnitude, per sample (:func:`_rel`)."""
    with np.errstate(all="ignore"):
        gap = np.maximum.reduce([np.abs(np.asarray(a) - np.asarray(b))
                                 for a, b in zip(lhs, rhs)])
        scale = np.maximum.reduce([np.maximum(np.abs(np.asarray(a)),
                                              np.abs(np.asarray(b)))
                                   for a, b in zip(lhs, rhs)])
    return ResidualField(_rel(gap, scale), valid, name)


@dataclass
class CheckSummary:
    """A report entry's :class:`ResidualField` over a whole grid, folded
    block by block: its ``max_abs``, bit for bit, ``n_valid`` and
    ``n_excluded``."""

    name: str
    max_abs: float = float("nan")
    n_valid: int = 0
    n_excluded: int = 0

    def fold(self, res: ResidualField) -> None:
        """Add one block's record, counting its mask once."""
        valid = np.asarray(res.valid)
        n = int(np.count_nonzero(valid))
        if n:
            # a block valid everywhere needs no copy through its mask
            m = float(np.max(np.abs(res.values if n == valid.size
                                    else res.values[valid])))
            # np.maximum keeps a NaN from either side, as np.max does
            self.max_abs = m if not self.n_valid \
                else float(np.maximum(self.max_abs, m))
        self.n_valid += n
        self.n_excluded += valid.size - n


class GridChecks:
    """Per-sample checks over a grid of the given shape, folded one block
    of rows at a time by :meth:`put`.

    ``residuals`` maps the name of each report entry put so far to its
    :class:`CheckSummary`, in the order of first :meth:`put`.  ``X``,
    ``N`` (trailing axis of length 3) and ``valid`` are one surface's
    samples, whole-grid, as :func:`ribaucour.mesh.mesh_from_fields`
    reads them, or None when no surface was asked for.  ``usable`` says
    whether some block reported a usable sample, and ``unit_sphere_gap``
    is the largest gap a block reported, NaN while none has.
    """

    def __init__(self, shape: tuple, surface: bool = False):
        self.residuals = {}
        self.X = self.N = self.valid = None
        if surface:
            self.X, self.N = np.empty(shape + (3,)), np.empty(shape + (3,))
            self.valid = np.empty(shape, bool)
        self.usable = False
        self.unit_sphere_gap = float("nan")

    def put(self, rows: slice, residuals=(), fields=None, *,
            usable=False, gap: float = float("nan")) -> None:
        """Fold in one block's residual records, its ``usable`` flag and
        unit-sphere ``gap``, and write the X, N and valid of its
        ``fields`` into ``rows`` if a surface is kept."""
        for r in residuals:
            self.residuals.setdefault(r.name, CheckSummary(r.name)).fold(r)
        if self.X is not None:
            self.X[rows], self.N[rows] = fields.X, fields.N
            self.valid[rows] = fields.valid
        self.usable = self.usable or bool(usable)
        self.unit_sphere_gap = float(np.fmax(self.unit_sphere_gap, gap))


def support_pde_residual(fields: SurfaceFields) -> ResidualField:
    """Residual of rho^2 + rho Lap(rho) - 1 - |grad rho|^2 per sample,
    relative to rho^2 + |rho Lap(rho)| + 1 + |grad rho|^2."""
    rho, frame = fields.rho, fields.frame
    with np.errstate(all="ignore"):
        rv = np.asarray(rho.val, dtype=float)
        w = np.asarray(np.exp(-2.0 * np.asarray(frame.tau.val, dtype=float)))
        rr, rlap = rv * rv, rv * sphere_laplacian(rho, frame)
        grad_sq = w * (np.asarray(rho.du, dtype=float) ** 2
                       + np.asarray(rho.dv, dtype=float) ** 2)
        r = (rr + rlap - 1.0 - grad_sq) / (rr + np.abs(rlap) + 1.0 + grad_sq)
    valid = ~np.asarray(fields.branch) & np.isfinite(np.asarray(r))
    return ResidualField(np.asarray(r), np.asarray(valid), "support_pde")


def check_middle_sphere(fields: SurfaceFields) -> ResidualField:
    """Residual of <X,X> + 2 (H/K) <X,N> + 1 per sample, relative to
    |X|^2 + 2 |(H/K) <X,N>| + 1.

    Vanishing is equivalent to every middle sphere meeting the unit
    sphere along a great circle."""
    with np.errstate(all="ignore"):
        xx = _dot(fields.X, fields.X)
        hxn = 2.0 * fields.hover_k * _dot(fields.X, fields.N)
        r = (xx + hxn + 1.0) / (xx + np.abs(hxn) + 1.0)
    valid = fields.valid & np.isfinite(np.asarray(r)) \
        & np.isfinite(np.asarray(fields.hover_k))
    return ResidualField(np.asarray(r), np.asarray(valid), "middle_sphere")


def _mu_scale(fields: SurfaceFields):
    """Size of mu's terms before they cancel, per sample:
    (|rho_uu| + |rho_vv| + 2|rho_uv| + 2 (|tau_u| + |tau_v|) (|rho_u| +
    |rho_v|)) / (2|rho|).  It is the only scale left where mu is 0
    (round spheres)."""
    rho, tau = fields.rho, fields.frame.tau
    a = lambda x: np.abs(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        return (a(rho.duu) + a(rho.dvv) + 2.0 * a(rho.duv)
                + 2.0 * (a(tau.du) + a(tau.dv)) * (a(rho.du) + a(rho.dv))
                ) / (2.0 * a(rho.val))


def hopf_residual(fields: SurfaceFields) -> ResidualField:
    """Residual of mu = S(f1) - S(f2) per sample, relative to the largest
    of |S(f1)|, |S(f2)| and the size of mu's terms (:func:`_mu_scale`).
    A scale of 0 counts as 0.  Needs the fields of a holomorphic pair."""
    if fields.schwarzian is None:
        raise ValueError("hopf_residual needs a holomorphic pair's fields")
    s1, s2 = fields.schwarzian
    with np.errstate(all="ignore"):
        scale = np.maximum(np.maximum(_mu_scale(fields), np.abs(s1)),
                           np.abs(s2))
        r = _rel(np.abs(fields.mu - (s1 - s2)), scale)
    valid = fields.valid & np.isfinite(r)
    return ResidualField(r, np.asarray(valid), "hopf_holomorphy")


def check_laguerre_holomorphy(patch: RibaucourPatch, nu: int = 161,
                              nv: int = 161) -> ResidualField:
    """:func:`hopf_residual` of the patch evaluated on an nu x nv grid."""
    return hopf_residual(evaluate_patch(patch, nu, nv))


def unit_sphere_gap(fields: SurfaceFields) -> float:
    """max |X - N| over valid samples: zero iff the patch degenerates to
    the fixed unit sphere itself (rho = 1, grad rho = 0)."""
    if not np.any(fields.valid):
        return float("nan")
    d = fields.X - fields.N
    gap = np.sqrt(_dot(d, d))
    return float(np.max(gap[fields.valid]))


def patch_checks(patch: RibaucourPatch, nu: int = 41, nv: int = 41, *,
                 checks: bool = True, surface: bool = False) -> GridChecks:
    """:func:`evaluate_patch` on an nu x nv grid over the patch domain,
    run over blocks of at most ``grids._BLOCK`` samples (whole rows),
    each with its own :class:`SurfaceFields`, so that no stage holds its
    shape data for the whole grid.  Valid samples get the bits of the
    whole-grid evaluation, and so does every summary; the values at
    excluded samples may differ (a NaN's sign, for one).

    With ``checks``, the record holds the summaries of
    :func:`support_pde_residual`, :func:`check_middle_sphere` and
    :func:`hopf_residual`, whether any sample is valid, and
    :func:`unit_sphere_gap`; with ``surface``, X, N and the valid mask.
    """
    _, _, Z = patch.domain.mesh(nu, nv)
    out = GridChecks(Z.shape, surface)
    for rows in _row_blocks(nu, nv):
        fields = evaluate_patch(patch, Z=Z[rows])
        # degenerate samples give inf or NaN, which the masks record; the
        # next block's evaluation finds only this one's frame and rho
        with np.errstate(all="ignore"), _released(fields):
            if not checks:
                out.put(rows, fields=fields)
                continue
            # valid and X, read by a check and by the put, stay for the
            # block, and so do the operator and Hessian under valid; what
            # a check alone reads goes with its scope
            usable, gap = np.any(fields.valid), unit_sphere_gap(fields)
            records = []
            for check in (support_pde_residual, check_middle_sphere,
                          hopf_residual):
                with _released(fields):
                    records.append(check(fields))
            out.put(rows, records, fields, usable=usable, gap=gap)
    return out
