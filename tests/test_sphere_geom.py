"""Gauss-sphere frames and conformal differential operators."""

import numpy as np
import pytest

from _oracles import (conformal_curvature, fd_partials_scalar,
                      gauss_second_partials, same_bits)
from ribaucour.grids import Domain
from ribaucour.holoexpr import Neg, eval_jet, parse
from ribaucour.jets import RJet2, re_jet
from ribaucour.minimal import catenoid_patch, enneper_patch
from ribaucour.ribaucour_core import evaluate_patch, make_patch
from ribaucour.sphere_geom import (conformal_hessian, frame_from_jet,
                                   sphere_gradient, sphere_laplacian,
                                   tau_from_jet)

FRAME_EXPRS = ["z", "exp(z)", "z^2 + 2", "sinh(z)"]

FIELD_EXPRS = ["sin(z)", "exp(z)", "z^3 - z"]


def _grid(n=21, lo=-1.0, hi=1.0):
    u = np.linspace(lo, hi, n)
    U, V = np.meshgrid(u, u, indexing="ij")
    return U + 1j * V


def _tau_value(f1_text):
    e = parse(f1_text)

    def value(u, v):
        f = eval_jet(e, complex(u, v), 1)
        s = abs(f.values[0]) ** 2
        return 0.5 * np.log(4.0 * abs(f.values[1]) ** 2 / (1.0 + s) ** 2)

    return value


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

def test_gauss_map_cardinal_points():
    for z0, expected in ((0.0, (0, 0, -1)), (1.0, (1, 0, 0)),
                         (1j, (0, 1, 0))):
        frame = frame_from_jet(eval_jet(parse("z"), z0, 3))
        assert np.max(np.abs(frame.normal - np.array(expected))) <= 1e-15
        assert not frame.branch


def test_gauss_map_branch_point_flagged():
    frame = frame_from_jet(eval_jet(parse("z^2"), 0.0, 3))
    assert bool(frame.branch)
    frame = frame_from_jet(eval_jet(parse("z^2"), 0.5, 3))
    assert not bool(frame.branch)


def test_frame_invariants():
    Z = _grid(17)
    for text in FRAME_EXPRS:
        frame = frame_from_jet(eval_jet(parse(text), Z, 3))
        ok = ~np.asarray(frame.branch)
        assert np.count_nonzero(ok) > 0.9 * ok.size
        N = frame.normal
        Nu, Nv = frame.normal_du, frame.normal_dv
        e2t = frame.e2tau
        unit = np.abs(np.sum(N * N, axis=-1) - 1.0)
        assert np.max(unit[ok]) <= 1e-12, text
        tangency = np.maximum(np.abs(np.sum(N * Nu, axis=-1)),
                              np.abs(np.sum(N * Nv, axis=-1)))
        assert np.max(tangency[ok]) <= 1e-10, text
        conf_u = np.abs(np.sum(Nu * Nu, axis=-1) - e2t)[ok]
        conf_v = np.abs(np.sum(Nv * Nv, axis=-1) - e2t)[ok]
        cross = np.abs(np.sum(Nu * Nv, axis=-1))[ok]
        assert np.max(conf_u / e2t[ok]) <= 1e-8, text
        assert np.max(conf_v / e2t[ok]) <= 1e-8, text
        assert np.max(cross / e2t[ok]) <= 1e-8, text


def test_frame_of_reciprocal_is_reflected():
    # f -> 1/f keeps the round metric and negates N's second and third
    # components, with all their partials; samples with |f| > 1 are built
    # from 1/f, so this also compares the two routes sample by sample
    Z = _grid(17)
    parts = ("val", "du", "dv", "duu", "duv", "dvv")
    for text in FRAME_EXPRS:
        j = eval_jet(parse(text), Z, 3)
        before = [v.copy() for v in j.values]
        a = frame_from_jet(j)
        assert all(np.array_equal(v, w) for v, w in zip(j.values, before))
        b = frame_from_jet(eval_jet(parse(f"1/({text})"), Z, 3))
        ok = ~(np.asarray(a.branch) | np.asarray(b.branch))
        assert np.count_nonzero(ok) > 0.9 * ok.size, text
        pairs = [(getattr(a.tau, part), getattr(b.tau, part), 1.0, part)
                 for part in parts]
        names = ("N", "N_u", "N_v", "N_uu", "N_uv", "N_vv")
        for name, x, y in zip(names, _normal_partials(a),
                              _normal_partials(b)):
            pairs += [(x[..., i], y[..., i], sign, (name, i))
                      for i, sign in enumerate((1.0, -1.0, -1.0))]
        for x, y, sign, part in pairs:
            p = np.asarray(x)[ok]
            q = np.asarray(y)[ok]
            gap = np.max(np.abs(p - sign * q))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(p))), (
                text, part, gap)
        # the tau jet alone is the frame's, bit for bit
        t = tau_from_jet(j)
        assert all(np.array_equal(getattr(t, part), getattr(a.tau, part),
                                  equal_nan=True)
                   for part in parts), text


def _normal_partials(frame):
    """N, N_u and N_v of the frame, and N_uu, N_uv and N_vv by the Gauss
    formula over them."""
    return ((frame.normal, frame.normal_du, frame.normal_dv)
            + gauss_second_partials(frame))


def test_frame_stores_normal_once_as_built():
    # N, N_u and N_v are stored stacked when the frame is built: each read
    # returns the same C-contiguous (..., 3) array, and the shape data
    # reads N from the frame itself
    Z = _grid(17)
    frame = frame_from_jet(eval_jet(parse("exp(z)/(1+z^2)"), Z, 3))
    for name in ("normal", "normal_du", "normal_dv"):
        a = getattr(frame, name)
        assert getattr(frame, name) is a, name
        assert a.shape == Z.shape + (3,) and a.flags.c_contiguous, name
    fields = evaluate_patch(make_patch("z", "exp(z)"), 9, 9)
    assert fields.N is fields.frame.normal
    # a minimal chart's frame is that of g's order-2 jet with N, N_u and
    # N_v negated, bit for bit, and read once per chart record.  It is
    # also -g's frame with the third component of N, N_u and N_v
    # negated, up to the signs of zeros
    U, V = Z.real, Z.imag
    for patch in (enneper_patch(), catenoid_patch()):
        chart = patch.chart(U, V)
        got = chart.frame
        assert chart.frame is got, patch.name
        own = frame_from_jet(eval_jet(patch.g, Z, 2))
        ref = frame_from_jet(eval_jet(Neg(patch.g), Z, 2))
        for name in ("normal", "normal_du", "normal_dv"):
            a, b = getattr(got, name), getattr(ref, name)
            assert same_bits(a, -getattr(own, name)), (patch.name, name)
            assert np.array_equal(a[..., :2], b[..., :2]), (patch.name, name)
            assert np.array_equal(a[..., 2], -b[..., 2]), (patch.name, name)
        for part in ("val", "du", "dv"):
            assert same_bits(getattr(got.tau, part),
                             getattr(own.tau, part)), (patch.name, part)
            assert np.array_equal(getattr(got.tau, part),
                                  getattr(ref.tau, part)), (patch.name, part)
        assert np.array_equal(got.branch, ref.branch), patch.name


def test_order_two_frame_is_the_first_order_part():
    # a frame built from an order-2 jet has the bits of the order-3
    # frame's N, N_u, N_v, branch mask and tau to first order, on samples
    # with |f| > 1 (built from 1/f) and |f| < 1 alike; its tau has no
    # second partials to read
    Z = _grid(17)
    exprs = FRAME_EXPRS + ["exp(z)/(1+z^2)", "-z", "-exp(i*z)"]
    cases = [(frame_from_jet(eval_jet(parse(text), Z, 2)),
              frame_from_jet(eval_jet(parse(text), Z, 3)),
              np.abs(eval_jet(parse(text), Z, 0).values[0]))
             for text in exprs]
    for two, three, size in cases:
        if np.any(size < 1.0) and np.any(size > 1.0):
            break
    else:
        raise AssertionError("no case has |f| on both sides of 1")
    for two, three, _ in cases:
        for name in ("branch", "e2tau"):
            assert same_bits(getattr(two, name), getattr(three, name)), name
        for k, (x, y) in enumerate(zip(_normal_partials(two),
                                       _normal_partials(three))):
            assert same_bits(x, y), k
        for part in ("val", "du", "dv"):
            assert same_bits(getattr(two.tau, part),
                             getattr(three.tau, part)), part
        for part in ("duu", "duv", "dvv"):
            with pytest.raises(AttributeError):
                getattr(two.tau, part)
        with pytest.raises(AttributeError):
            conformal_curvature(two.tau)
    t = tau_from_jet(eval_jet(parse("sinh(z)"), Z, 2))
    ref = tau_from_jet(eval_jet(parse("sinh(z)"), Z, 3))
    assert all(same_bits(getattr(t, p), getattr(ref, p))
               for p in ("val", "du", "dv"))
    with pytest.raises(ValueError):
        frame_from_jet(eval_jet(parse("z"), Z, 1))


def test_frame_normal_partials_match_finite_differences():
    e = parse("exp(z)")
    for z0 in (0.3 + 0.2j, -0.5 + 0.6j):
        frame = frame_from_jet(eval_jet(e, z0, 3))
        value = lambda u, v: frame_from_jet(
            eval_jet(e, complex(u, v), 3)).normal
        du, dv, duu, duv, dvv = fd_partials_scalar(value, z0.real, z0.imag)
        for got, want in zip(_normal_partials(frame)[1:],
                             (du, dv, duu, duv, dvv)):
            assert np.max(np.abs(got - want)) <= 1e-6


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_of_constant_vanishes():
    frame = frame_from_jet(eval_jet(parse("exp(z)"), _grid(9), 3))
    grad = sphere_gradient(RJet2(3.0, 0, 0, 0, 0, 0), frame)
    assert np.max(np.abs(grad)) == 0.0


def test_gradient_of_chart_coordinate():
    # field u on the frame of f1 = z at the origin: the gradient is
    # tangent and its squared metric length is e^{-2 tau}
    frame = frame_from_jet(eval_jet(parse("z"), 0.0, 3))
    grad = sphere_gradient(RJet2(0.0, 1, 0, 0, 0, 0), frame)
    assert np.max(np.abs(grad - np.array([0.5, 0.0, 0.0]))) <= 1e-14
    assert abs(float(grad @ frame.normal)) <= 1e-14
    e2t = float(frame.e2tau)
    assert abs(float(grad @ grad) - 1.0 / e2t) <= 1e-14

    # independent route: difference the normal itself for N_u, N_v
    value = lambda u, v: frame_from_jet(
        eval_jet(parse("z"), complex(u, v), 3)).normal
    du, dv, *_ = fd_partials_scalar(value, 0.0, 0.0)
    fd_grad = (1.0 * du + 0.0 * dv) / e2t
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6


def test_gradient_matches_finite_differences():
    for f1_text in ("z", "exp(z)"):
        e1 = parse(f1_text)
        for field_text in FIELD_EXPRS:
            ef = parse(field_text)
            for z0 in (0.4 + 0.3j, -0.2 + 0.8j):
                frame = frame_from_jet(eval_jet(e1, z0, 3))
                field = re_jet(eval_jet(ef, z0, 3))
                grad = sphere_gradient(field, frame)
                nval = lambda u, v: frame_from_jet(
                    eval_jet(e1, complex(u, v), 3)).normal
                fval = lambda u, v: float(
                    eval_jet(ef, complex(u, v), 0).values[0].real)
                ndu, ndv, *_ = fd_partials_scalar(nval, z0.real, z0.imag)
                fdu, fdv, *_ = fd_partials_scalar(fval, z0.real, z0.imag)
                fd_grad = (fdu * ndu + fdv * ndv) / float(frame.e2tau)
                scale = max(1.0, float(np.max(np.abs(grad))))
                assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_of_constant_vanishes():
    frame = frame_from_jet(eval_jet(parse("z"), _grid(9), 3))
    assert np.max(np.abs(sphere_laplacian(RJet2(2.5, 0, 0, 0, 0, 0),
                                          frame))) == 0.0


def test_tau_solves_liouville_equation():
    # the log conformal factor satisfies tau_uu + tau_vv + e^{2 tau} = 0,
    # i.e. the sphere Laplacian of tau is identically -1
    Z = _grid(21)
    for text in ("z", "exp(z)"):
        frame = frame_from_jet(eval_jet(parse(text), Z, 3))
        ok = ~np.asarray(frame.branch)
        tau = frame.tau
        flat = np.asarray(tau.duu) + np.asarray(tau.dvv) + frame.e2tau
        assert np.max(np.abs(flat[ok])) < 1e-8, text
        lap = sphere_laplacian(tau, frame)
        assert np.max(np.abs(lap[ok] + 1.0)) < 1e-8, text


def test_laplacian_matches_finite_differences():
    e1 = parse("exp(z)")
    for field_text in FIELD_EXPRS:
        ef = parse(field_text)
        for z0 in (0.4 + 0.3j, -0.6 - 0.2j):
            frame = frame_from_jet(eval_jet(e1, z0, 3))
            field = re_jet(eval_jet(ef, z0, 3))
            lap = sphere_laplacian(field, frame)
            fval = lambda u, v: float(
                eval_jet(ef, complex(u, v), 0).values[0].real)
            _, _, duu, _, dvv = fd_partials_scalar(fval, z0.real, z0.imag)
            fd_lap = (duu + dvv) / float(frame.e2tau)
            assert abs(lap - fd_lap) <= 1e-5 * max(1.0, abs(float(lap)))


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def test_hessian_of_constant_vanishes():
    frame = frame_from_jet(eval_jet(parse("exp(z)"), _grid(9), 3))
    huu, huv, hvv = conformal_hessian(RJet2(1.5, 0, 0, 0, 0, 0), frame.tau)
    assert np.max(np.abs(huu)) == 0.0
    assert np.max(np.abs(huv)) == 0.0
    assert np.max(np.abs(hvv)) == 0.0


def test_hessian_trace_recovers_laplacian():
    Z = _grid(15)
    for f1_text, field_text in (("z", "sin(z)"), ("exp(z)", "z^3 - z")):
        frame = frame_from_jet(eval_jet(parse(f1_text), Z, 3))
        field = re_jet(eval_jet(parse(field_text), Z, 3))
        huu, _, hvv = conformal_hessian(field, frame.tau)
        w = np.exp(-2.0 * np.asarray(frame.tau.val))
        trace = w * (huu + hvv)
        lap = sphere_laplacian(field, frame)
        ok = ~np.asarray(frame.branch)
        scale = np.maximum(1.0, np.abs(lap))
        assert np.max((np.abs(trace - lap) / scale)[ok]) <= 1e-13


def test_hessian_matches_finite_difference_christoffels():
    # oracle: covariant Hessian assembled from finite-differenced field
    # values and finite-differenced Christoffel terms of the conformal
    # metric (Gamma^u_uu = tau_u, Gamma^u_vv = -tau_u, ...)
    e1 = parse("exp(z)")
    tau_val = _tau_value("exp(z)")
    for field_text in FIELD_EXPRS:
        ef = parse(field_text)
        for z0 in (0.5 + 0.4j, -0.3 + 0.7j):
            frame = frame_from_jet(eval_jet(e1, z0, 3))
            field = re_jet(eval_jet(ef, z0, 3))
            huu, huv, hvv = conformal_hessian(field, frame.tau)
            fval = lambda u, v: float(
                eval_jet(ef, complex(u, v), 0).values[0].real)
            fu, fv, fuu, fuv, fvv = fd_partials_scalar(fval, z0.real, z0.imag)
            tu, tv, *_ = fd_partials_scalar(tau_val, z0.real, z0.imag)
            fd_huu = fuu - tu * fu + tv * fv
            fd_huv = fuv - tv * fu - tu * fv
            fd_hvv = fvv + tu * fu - tv * fv
            scale = max(1.0, abs(float(huu)), abs(float(huv)),
                        abs(float(hvv)))
            assert abs(float(huu) - fd_huu) <= 1e-5 * scale, field_text
            assert abs(float(huv) - fd_huv) <= 1e-5 * scale, field_text
            assert abs(float(hvv) - fd_hvv) <= 1e-5 * scale, field_text


def test_conformal_hessian_works_for_any_log_factor():
    # plain check against directly expanded Christoffel terms
    U, V = np.meshgrid(np.linspace(0.2, 1.0, 5), np.linspace(0.2, 1.0, 5),
                       indexing="ij")
    lam = (RJet2(U, 1, 0, 0, 0, 0) * RJet2(V, 0, 1, 0, 0, 0) + 2.0).log()
    field = RJet2(U, 1, 0, 0, 0, 0) ** 2 * RJet2(V, 0, 1, 0, 0, 0)
    huu, huv, hvv = conformal_hessian(field, lam)
    exp_huu = field.duu - lam.du * field.du + lam.dv * field.dv
    exp_huv = field.duv - lam.dv * field.du - lam.du * field.dv
    exp_hvv = field.dvv + lam.du * field.du - lam.dv * field.dv
    assert np.max(np.abs(huu - exp_huu)) == 0.0
    assert np.max(np.abs(huv - exp_huv)) == 0.0
    assert np.max(np.abs(hvv - exp_hvv)) == 0.0


# ---------------------------------------------------------------------------
# conformal curvature
# ---------------------------------------------------------------------------

def test_flat_metric_has_zero_curvature():
    K = conformal_curvature(RJet2(0.7, 0, 0, 0, 0, 0))
    assert K == 0.0


def test_sphere_metric_has_unit_curvature():
    Z = _grid(15)
    for text in FRAME_EXPRS:
        frame = frame_from_jet(eval_jet(parse(text), Z, 3))
        ok = ~np.asarray(frame.branch)
        K = conformal_curvature(frame.tau)
        assert np.max(np.abs(K[ok] - 1.0)) <= 1e-8, text


def test_support_scaled_metric_has_unit_curvature():
    # the metric (1/rho^2) <dN,dN> has log factor tau - log(rho); its
    # intrinsic curvature is 1 for every surface the library builds
    for f1, f2, dom in (("z", "2*z", Domain(-1, 1, -1, 1)),
                        ("z", "exp(z)", Domain(-1, 1, -1, 1)),
                        ("z^2", "z+2", Domain(0.3, 1.3, 0.2, 1.2))):
        fields = evaluate_patch(make_patch(f1, f2, dom), 21, 21)
        lam = fields.frame.tau - fields.rho.log()
        K = conformal_curvature(lam)
        ok = fields.valid & np.isfinite(K)
        assert np.count_nonzero(ok) > 0.9 * ok.size
        assert np.max(np.abs(K[ok] - 1.0)) <= 1e-6, (f1, f2)
