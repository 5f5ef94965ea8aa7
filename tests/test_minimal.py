"""Minimal surfaces from Weierstrass data in conformal curvature-line
charts."""

from functools import partial

import numpy as np

import pytest

from _oracles import (catenoid_position, conformality_residual,
                      enneper_position, fd_partials_scalar, patch_normal,
                      patch_position, position_derivatives, rel_gap,
                      same_bits)
from ribaucour.grids import Domain
from ribaucour.holoexpr import Neg, eval_jet, parse
from ribaucour.minimal import (MinimalPatch, _weierstrass, _z, catenoid_patch,
                               enneper_patch)

ENNEPER_PTS = [(0.0, 0.0), (0.5, -0.3), (-0.8, 0.7), (1.0, 1.0)]
CATENOID_PTS = [(0.0, 0.0), (1.2, -0.5), (-2.0, 0.9), (0.4, 1.1)]
SINH_PTS = [(0.0, 0.0), (0.5, -0.3), (-0.8, 0.7), (0.9, 0.9)]


def sinh_patch():
    """A patch with no closed form in the package: g = sinh z, a = 1, on
    the unit square, where g' = cosh z has no zeros."""
    return MinimalPatch("sinh", Domain(-1.0, 1.0, -1.0, 1.0),
                        parse("sinh(z)"), 1.0)


def _patches_and_points():
    return ((enneper_patch(), ENNEPER_PTS), (catenoid_patch(), CATENOID_PTS),
            (sinh_patch(), SINH_PTS))


def _grids():
    out = []
    for patch in (enneper_patch(), catenoid_patch(), sinh_patch()):
        d = patch.domain
        U, V = np.meshgrid(np.linspace(d.u0, d.u1, 15),
                           np.linspace(d.v0, d.v1, 15), indexing="ij")
        out.append((patch, U, V))
    return out


# ---------------------------------------------------------------------------
# chart contract
# ---------------------------------------------------------------------------

def test_reference_points():
    enneper = enneper_patch()
    catenoid = catenoid_patch()
    assert np.max(np.abs(patch_position(enneper, 0.0, 0.0))) == 0.0
    assert np.max(np.abs(patch_position(catenoid, 0.0, 0.0)
                         - np.array([1.0, 0.0, 0.0]))) <= 1e-15
    # catenoid waist circle has radius 1
    r = np.linalg.norm(patch_position(catenoid, 2.0, 0.0)[:2])
    assert abs(r - 1.0) <= 1e-12


def test_position_matches_closed_form_immersions():
    # the Gauss-Legendre line integral against the textbook immersions
    for (patch, U, V), exact in zip(_grids(), (enneper_position,
                                                catenoid_position)):
        gap = patch_position(patch, U, V) - exact(U, V)
        assert np.max(np.abs(gap)) <= 1e-13


def test_charts_are_conformal_curvature_line():
    for patch, U, V in _grids():
        res = conformality_residual(patch, U, V)
        for key, value in res.items():
            assert value <= 1e-8, (patch.name, key, value)


def test_closed_form_factors():
    enneper = enneper_patch()
    for u, v in ENNEPER_PTS:
        phi = 1.0 + u * u + v * v
        got_phi, _, _, k1 = enneper.chart(u, v).scalars
        assert abs(got_phi - phi) <= 1e-12
        assert abs(k1 - 2.0 / phi ** 2) <= 1e-12
    catenoid = catenoid_patch()
    for u, v in CATENOID_PTS:
        phi, _, _, k1 = catenoid.chart(u, v).scalars
        assert abs(phi - np.cosh(v)) <= 1e-12
        assert abs(k1 - 1.0 / np.cosh(v) ** 2) <= 1e-12


def test_phi_jet_partials():
    # phi with its first partials from the chart scalars; d(1+u^2+v^2)/du
    # = 2u on Enneper's chart
    phi, pu, pv, _ = enneper_patch().chart(0.5, -0.3).scalars
    assert abs(phi - 1.34) <= 1e-12
    assert abs(pu - 1.0) <= 1e-12
    assert abs(pv + 0.6) <= 1e-12
    # log phi = log a - tau of the frame, the log factor of the minimal
    # metric that the congruence checks take from the frame
    for patch, U, V in _grids():
        chart = patch.chart(U, V)
        phi, pu, pv, _ = chart.scalars
        tau = chart.frame.tau
        assert np.max(np.abs(np.log(patch.a) - tau.val - np.log(phi))) \
            <= 1e-13, patch.name
        for d_log, d_tau in ((pu / phi, tau.du), (pv / phi, tau.dv)):
            assert np.max(np.abs(d_log + d_tau)) <= 1e-13, patch.name


# ---------------------------------------------------------------------------
# derivatives and curvatures against finite differences
# ---------------------------------------------------------------------------

def test_position_derivatives_match_finite_differences():
    for patch, pts in _patches_and_points():
        for u0, v0 in pts:
            d = position_derivatives(patch, u0, v0)
            # the tangents the package reads, from the chart record's jet
            tangents = patch.chart(u0, v0).tangents
            du, dv, duu, duv, dvv = fd_partials_scalar(
                partial(patch_position, patch), u0, v0)
            for got, want in ((d["Xu"], du), (d["Xv"], dv), (d["Xuu"], duu),
                              (d["Xuv"], duv), (d["Xvv"], dvv),
                              (tangents[0], du), (tangents[1], dv)):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(np.asarray(got) - want)) \
                    <= 1e-6 * scale, patch.name


def test_principal_curvatures_match_form_oracle():
    # fundamental forms from differenced positions only; unit normal from
    # the cross product, sign-aligned with the patch orientation
    for patch, pts in _patches_and_points():
        for u0, v0 in pts:
            du, dv, duu, duv, dvv = fd_partials_scalar(
                partial(patch_position, patch), u0, v0)
            n = np.cross(du, dv)
            n /= np.linalg.norm(n)
            if float(n @ patch_normal(patch, u0, v0)) < 0.0:
                n = -n
            E, F, G = du @ du, du @ dv, dv @ dv
            L, M, P = duu @ n, duv @ n, dvv @ n
            den = E * G - F * F
            K = (L * P - M * M) / den
            H = (E * P - 2.0 * F * M + G * L) / (2.0 * den)
            disc = np.sqrt(max(H * H - K, 0.0))
            k_hi, k_lo = H + disc, H - disc
            k1 = patch.chart(u0, v0).scalars[3]
            assert np.max(rel_gap(k_hi, k1)) <= 1e-6, patch.name
            assert np.max(rel_gap(k_lo, -k1)) <= 1e-6, patch.name


def test_curvature_point_values():
    assert abs(enneper_patch().chart(0.0, 0.0).scalars[3] - 2.0) <= 1e-12
    assert abs(catenoid_patch().chart(0.0, 0.0).scalars[3] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Gauss-map frame
# ---------------------------------------------------------------------------

def test_frame_matches_patch_normal():
    for patch, U, V in _grids():
        frame = patch.chart(U, V).frame
        ok = ~np.asarray(frame.branch)
        assert np.all(ok)
        gap = np.abs(frame.normal - patch_normal(patch, U, V))
        assert np.max(gap[ok]) <= 1e-12, patch.name


def test_frame_metric_factor():
    for patch, U, V in _grids():
        chart = patch.chart(U, V)
        frame, (phi, _, _, k1) = chart.frame, chart.scalars
        pred = k1 * k1 * phi ** 2
        assert np.max(rel_gap(frame.e2tau, pred)) <= 1e-10, patch.name


def test_normal_rotates_with_principal_curvatures():
    # in a curvature-line chart dN = -k1 X_u du - k2 X_v dv
    for patch, pts in _patches_and_points():
        for u0, v0 in pts:
            chart = patch.chart(u0, v0)
            frame = chart.frame
            d = position_derivatives(patch, u0, v0)
            k1 = chart.scalars[3]
            k2 = -k1
            r1 = frame.normal_du + k1 * np.asarray(d["Xu"])
            r2 = frame.normal_dv + k2 * np.asarray(d["Xv"])
            assert np.max(np.abs(r1)) <= 1e-10, patch.name
            assert np.max(np.abs(r2)) <= 1e-10, patch.name


def test_frame_is_a_valid_sphere_frame():
    for patch, U, V in _grids():
        frame = patch.chart(U, V).frame
        N = frame.normal
        unit = np.abs(np.sum(N * N, axis=-1) - 1.0)
        assert np.max(unit) <= 1e-12, patch.name
        tangency = np.abs(np.sum(N * frame.normal_du, axis=-1))
        assert np.max(tangency) <= 1e-10, patch.name
        conf = np.abs(np.sum(frame.normal_du * frame.normal_du, axis=-1)
                      - frame.e2tau)
        assert np.max(conf / frame.e2tau) <= 1e-8, patch.name


def test_custom_domain_is_respected():
    dom = Domain(-0.5, 0.5, -0.25, 0.25)
    patch = enneper_patch(dom)
    assert patch.domain == dom


@pytest.mark.parametrize("U, V", [
    # grid lines through +0.0, as a chart grid's linspace gives them
    (np.linspace(-1.0, 1.0, 41)[:, None], np.linspace(-1.2, 1.2, 25)[None]),
    (np.linspace(-np.pi, np.pi, 9), 0.0),
    (0.0, np.linspace(0.0, 2.0, 5)[:, None]),
    (np.zeros((2, 1)), np.array([[0.0, -0.5, 1e-300, 1e300]])),
    (0.5, -0.3), (0.0, 0.0),
], ids=["grid-lines", "row-and-zero", "zero-and-column", "zeros",
        "point", "origin"])
def test_chart_coordinate_is_built_exactly(U, V):
    # z = U + iV is assembled by assignment, with no complex product or
    # sum: every bit of the sum's result, a zero's sign included, on the
    # broadcast shape, and a numpy scalar for scalar inputs, as the sum
    # gives them (eval_jet takes a scalar z to the checked scalar path)
    got, want = _z(U, V), np.asarray(U) + 1j * np.asarray(V)
    assert type(got) is type(want)
    assert same_bits(*(np.atleast_1d(x).view(float) for x in (got, want)))


@pytest.mark.parametrize("g", ["z", "exp(i*z)", "sinh(z)", "z^2 + 2*z"])
@pytest.mark.parametrize("domain", [Domain(-1.0, 1.0, -1.0, 1.0),
                                    Domain(-0.6, 1.0, -1.0, 0.4)],
                         ids=["square", "off-centre"])
def test_frame_jet_gives_the_tangents_of_g(g, domain):
    # the tangents read off a jet of -g, with their first two components
    # negated, are those of the chart record's jet of g: X_u - i X_v
    # = F (1 - g^2, i (1 + g^2), 2 g) with F = a / (2 g') changes sign in
    # its first two components only when g does.  Equal up to the signs
    # of zeros and NaNs (z^2 + 2z has its branch point on the square)
    patch = MinimalPatch("test", domain, parse(g), 1.5)
    U, V, _ = domain.mesh(41, 37)
    want = patch.chart(U, V).tangents
    mg, mg1, _ = eval_jet(Neg(patch.g), _z(U, V), 2).values
    with np.errstate(all="ignore"):
        w = _weierstrass(0.5 * patch.a / mg1, mg)
    for got, ref in zip((w.real, -w.imag), want):
        got[..., :2] *= -1.0
        assert np.array_equal(got, ref, equal_nan=True)
