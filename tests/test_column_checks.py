"""The 3-vector checks work column by column on the stored (..., 3)
arrays: each gives the bits of its form with length-3 axis reductions
and (..., 1) x (..., 3) broadcasts."""

import numpy as np
import pytest

from _oracles import same_bits
from ribaucour.congruence import (CongruenceState, analytic_example,
                                  envelope, integrate_system)
from ribaucour.duality import _angle, evaluate_pair, make_dual
from ribaucour.grids import Domain, _row_blocks
from ribaucour.ribaucour_core import (check_middle_sphere, make_patch,
                                      unit_sphere_gap)
from ribaucour.sphere_geom import sphere_gradient

DEEP = ("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)", "0.1:0.9:0.1:0.9")


def _deep_block():
    """pair_deep's fields and its dual's on the second row block of the
    161 x 161 grid."""
    f1, f2, domain = DEEP
    patch = make_patch(f1, f2, Domain.parse(domain))
    _, _, Z = patch.domain.mesh(161, 161)
    return evaluate_pair(make_dual(patch), Z=Z[_row_blocks(161, 161)[1]])


def _catenoid_block():
    """The envelope of the integrated catenoid congruence at step 0.01 on
    its second row block, with the frame of the command."""
    ac = analytic_example("catenoid")
    init = CongruenceState(*(float(np.asarray(x))
                             for x in ac.state(0.0, 0.0).as_tuple()))
    integ = integrate_system(ac.patch, init, ac.constants, step=0.01)
    b = _row_blocks(*integ.U.shape)[1]
    U, V = integ.U[b], integ.V[b]
    return envelope(ac.patch, integ.w_rows(b, ac.patch.chart_scalars(U, V)),
                    U, V)


@pytest.fixture(scope="module", params=["pair_deep", "catenoid"])
def fields(request):
    if request.param == "pair_deep":
        return _deep_block()[0]
    return _catenoid_block()


def _gradient_by_axis(field, frame):
    w = np.asarray(np.exp(-2.0 * np.asarray(frame.tau.val, dtype=float)))
    du = np.asarray(field.du, dtype=float)
    dv = np.asarray(field.dv, dtype=float)
    return w[..., None] * (du[..., None] * frame.normal_du
                           + dv[..., None] * frame.normal_dv)


def test_position_and_gradient_match_the_broadcast_form(fields):
    grad = _gradient_by_axis(fields.rho, fields.frame)
    assert same_bits(sphere_gradient(fields.rho, fields.frame), grad)
    X = grad + fields.rho_val[..., None] * fields.N
    assert same_bits(fields.X, X)
    assert X.size > 10_000


def test_middle_sphere_matches_the_axis_reduction(fields):
    X, N, hk = fields.X, fields.N, fields.hover_k
    with np.errstate(all="ignore"):
        xx = np.sum(X * X, axis=-1)
        hxn = 2.0 * hk * np.sum(X * N, axis=-1)
        r = (xx + hxn + 1.0) / (xx + np.abs(hxn) + 1.0)
    got = check_middle_sphere(fields)
    assert same_bits(got.values, r)
    assert got.n_valid > 0


def test_unit_sphere_gap_matches_the_norm(fields):
    gap = np.linalg.norm(fields.X - fields.N, axis=-1)
    assert same_bits(unit_sphere_gap(fields),
                     float(np.max(gap[fields.valid])))


def test_direction_angle_matches_the_axis_reduction():
    fa, fb = _deep_block()
    for d, e in ((fa.dir1, fb.dir2), (fa.dir2, fb.dir1)):
        with np.errstate(invalid="ignore"):
            ref = np.arccos(np.clip(np.abs(np.sum(d * e, axis=-1)),
                                    0.0, 1.0))
            got = _angle(d, e)
        assert same_bits(got, ref)
        assert np.count_nonzero(np.isfinite(got)) > 1000
