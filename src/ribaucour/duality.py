"""Duality: swapping the defining pair preserves the surface class.

For a patch built from (f1, f2), the dual patch is built from (f2, f1).
Writing starred quantities for the dual, the correspondence satisfies,
sample by sample in the shared chart:

* rho* = 1/rho and tau* = tau - log rho,
* the principal curvature VALUES agree while the principal directions
  cross over (the direction carrying k1 maps to the dual direction
  carrying k2*), i.e. duality switches curvatures along preserved
  curvature lines,
* H/K is preserved, and the Laguerre Hopf coefficients are antisymmetric
  (mu + mu* = 0, checked relative to the size of mu's terms),
* the fundamental forms mix linearly:
      I*   = I/rho^2 - (4H/(K rho^2)) II + (4H^2/(K^2 rho^2)) III
      II*  = -II/rho^2 + (2H/(K rho^2)) III
      III* = III/rho^2.

Umbilic samples carry no principal directions, so the curvature-switch
check excludes them (a totally umbilic pair — a round sphere — leaves it
no sample, which the report records as vacuous).  The coefficientwise
checks above need no directions and keep umbilic samples in.

Each check returns :class:`~ribaucour.ribaucour_core.ResidualField`
records named after their report entries; they measure, and
:func:`ribaucour.report.identity_entry` judges them against a tolerance.
Every check is per sample, so :func:`pair_checks` runs them over blocks
of grid rows, one pair of fields per block, and folds each record into
its whole-grid summary in a :class:`~ribaucour.ribaucour_core.GridChecks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _released, _row_blocks
from .holoexpr import eval_jet
from .ribaucour_core import (GridChecks, ResidualField, RibaucourPatch,
                             SurfaceFields, _form_residual, _gap, _mu_scale,
                             _rel, _support_from_tau, unit_sphere_gap)
from .sphere_geom import _dot, frame_from_jet

__all__ = [
    "DualPair", "make_dual", "evaluate_pair",
    "verify_c2", "verify_form_relations", "verify_hk_equality",
    "pair_checks",
]


@dataclass(frozen=True)
class DualPair:
    patch: RibaucourPatch
    dual: RibaucourPatch


def make_dual(patch: RibaucourPatch) -> DualPair:
    """Dual patch: the defining pair swapped, same chart rectangle."""
    return DualPair(patch, RibaucourPatch(patch.f2, patch.f1, patch.domain))


def evaluate_pair(pair: DualPair, nu: int = 41, nv: int = 41,
                  Z: np.ndarray | None = None
                  ) -> tuple[SurfaceFields, SurfaceFields]:
    """Fields of the patch and of its dual on an nu x nv grid (or on
    explicit sample points ``Z``).

    Both are sampled on the patch's chart, and each distinct generator
    gets one jet and one frame: the dual from :func:`make_dual` is the
    same two generators swapped, so rho = exp(tau1 - tau2) and
    rho* = exp(tau2 - tau1) come from the tau jets of the two frames.
    No check of a pair reads the Schwarzians, so both fields carry
    ``schwarzian = None``.
    """
    patch, dual = pair.patch, pair.dual
    if Z is None:
        _, _, Z = patch.domain.mesh(nu, nv)
    frames = {}
    for f in (patch.f1, patch.f2, dual.f1, dual.f2):
        if id(f) not in frames:
            frames[id(f)] = frame_from_jet(eval_jet(f, Z, 3))
    return tuple(SurfaceFields(frames[id(p.f1)], _support_from_tau(
        frames[id(p.f1)].tau, frames[id(p.f2)].tau)) for p in (patch, dual))


def _angle(d, e):
    """Angle between chart lines spanned by unit vectors (mod pi)."""
    dot = np.abs(_dot(d, e))
    return np.arccos(np.clip(dot, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Curvature switching along preserved curvature lines
# ---------------------------------------------------------------------------

def verify_c2(pair: DualPair, nu: int = 41, nv: int = 41, *,
              fields: tuple | None = None
              ) -> tuple[ResidualField, ResidualField]:
    """Principal curvature values agree and principal directions cross
    over between a patch and its dual: ``(curvature_switch,
    direction_switch)``.

    Sorted curvatures are compared relatively; directions are compared as
    chart lines (k1's direction against the dual direction carrying k2*,
    and vice versa), in radians.  Umbilic or degenerate samples on either
    side are excluded; if every usable sample is umbilic, neither record
    has a valid sample.
    """
    fa, fb = fields if fields is not None else evaluate_pair(pair, nu, nv)
    comp = fa.valid & fb.valid & ~fa.umbilic & ~fb.umbilic
    with np.errstate(all="ignore"):
        swap = np.maximum(_gap(fa.k1, fb.k1), _gap(fa.k2, fb.k2))
        dev = np.maximum(_angle(fa.dir1, fb.dir2), _angle(fa.dir2, fb.dir1))
    return (ResidualField(swap, comp, "curvature_switch"),
            ResidualField(dev, comp, "direction_switch"))


# ---------------------------------------------------------------------------
# Fundamental-form relations
# ---------------------------------------------------------------------------

def verify_form_relations(pair: DualPair, nu: int = 41, nv: int = 41, *,
                          fields: tuple | None = None
                          ) -> tuple[ResidualField, ...]:
    """The linear relations between the fundamental forms of a patch and
    its dual: ``(first_form_relation, second_form_relation,
    third_form_relation)``.

    These are coefficientwise identities needing no principal directions,
    so only degenerate samples are excluded (umbilics stay in).
    """
    fa, fb = fields if fields is not None else evaluate_pair(pair, nu, nv)
    comp = fa.valid & fb.valid
    with np.errstate(all="ignore"):
        rho = fa.rho_val
        inv_r2 = 1.0 / (rho * rho)
        trb = fa.b11 + fa.b22       # 2H/K of the primal patch
        rhs_third = tuple(c * inv_r2 for c in fa.third)
        rhs_second = tuple(-s * inv_r2 + trb * inv_r2 * t
                           for s, t in zip(fa.second, fa.third))
        rhs_first = tuple(f * inv_r2 - 2.0 * trb * inv_r2 * s
                          + trb * trb * inv_r2 * t
                          for f, s, t in zip(fa.first, fa.second, fa.third))
    return (_form_residual(fb.first, rhs_first, comp, "first_form_relation"),
            _form_residual(fb.second, rhs_second, comp,
                           "second_form_relation"),
            _form_residual(fb.third, rhs_third, comp, "third_form_relation"))


# ---------------------------------------------------------------------------
# H/K preservation and Hopf antisymmetry
# ---------------------------------------------------------------------------

def verify_hk_equality(pair: DualPair, nu: int = 41, nv: int = 41, *,
                       fields: tuple | None = None
                       ) -> tuple[ResidualField, ResidualField]:
    """H/K equality between patch and dual (equivalent to the support
    identity holding on both) and mu + mu* = 0: ``(hover_k_equality,
    hopf_antisymmetry)``.  |mu + mu*| is relative to the larger of the two
    patches' mu term sizes, the scale that
    :func:`~ribaucour.ribaucour_core.hopf_residual` uses; a scale of 0
    counts as 0."""
    fa, fb = fields if fields is not None else evaluate_pair(pair, nu, nv)
    comp = fa.valid & fb.valid
    with np.errstate(all="ignore"):
        scale = np.maximum(_mu_scale(fa), _mu_scale(fb))
        hopf = _rel(np.abs(fa.mu + fb.mu), scale)
    return (ResidualField(_gap(fa.hover_k, fb.hover_k), comp,
                          "hover_k_equality"),
            ResidualField(hopf, comp, "hopf_antisymmetry"))


# ---------------------------------------------------------------------------
# Every check of a pair, block by block
# ---------------------------------------------------------------------------

def pair_checks(pair: DualPair, nu: int = 41, nv: int = 41, *,
                surface: bool = False) -> tuple[GridChecks, GridChecks | None]:
    """:func:`evaluate_pair` and every check above on an nu x nv grid, run
    over blocks of at most ``grids._BLOCK`` samples (whole rows), each
    with its own pair of :class:`SurfaceFields`, so that no stage holds
    its shape data for the whole grid.  Valid samples get the bits of
    the whole-grid evaluation, and so does every summary; the values at
    excluded samples may differ (a NaN's sign, for one).

    Returns ``(checks, dual)``: ``checks`` holds the summaries of the
    seven records of :func:`verify_c2`, :func:`verify_hk_equality` and
    :func:`verify_form_relations` in that order, whether any sample is
    usable on both sides, and the patch's unit-sphere gap.  With
    ``surface``, ``checks`` also holds the patch's X, N and valid mask,
    and ``dual`` the dual's; otherwise ``dual`` is None.
    """
    _, _, Z = pair.patch.domain.mesh(nu, nv)
    out = GridChecks(Z.shape, surface)
    dual = GridChecks(Z.shape, surface=True) if surface else None
    for rows in _row_blocks(nu, nv):
        fields = fa, fb = evaluate_pair(pair, Z=Z[rows])
        # degenerate samples give inf or NaN, which the masks record; the
        # next block's evaluation finds only this one's frames and rho
        with np.errstate(all="ignore"), _released(*fields):
            # every check reads valid: it stays for the block, and so do
            # the operator and Hessian under it, which later checks read;
            # what a check alone reads goes with its scope
            usable = np.any(fa.valid & fb.valid)
            records = []
            for check in (verify_c2, verify_hk_equality,
                          verify_form_relations):
                with _released(*fields):
                    records += check(pair, fields=fields)
            out.put(rows, records, fa, usable=usable,
                    gap=unit_sphere_gap(fa))
            if dual is not None:
                dual.put(rows, fields=fb)
    return out, dual
