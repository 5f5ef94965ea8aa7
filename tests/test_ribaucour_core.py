"""Support-function shape calculus: immersion, forms, residual checks."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (fd_principal_curvatures, gauss_second_partials,
                      hopf_stencil_residual, normal_second_partials, rel_gap,
                      support_quotient)
from ribaucour import sphere_geom
from ribaucour.grids import Domain
from ribaucour.holoexpr import BinOp, Call, Const, Var, eval_jet, parse
from ribaucour.jets import RJet2
from ribaucour.report import TOLERANCES, identity_entry
from ribaucour.ribaucour_core import (CheckSummary, RibaucourPatch,
                                      _form_residual, check_middle_sphere,
                                      evaluate_patch, hopf_residual, immerse,
                                      make_patch, shape_from_support,
                                      support_jet, support_pde_residual,
                                      unit_sphere_gap)
from ribaucour.sphere_geom import (frame_from_jet, generator_data,
                                   sphere_laplacian)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)
OFFSET = Domain(0.3, 1.3, 0.2, 1.2)


def _mesh(dom, n=41):
    _, _, Z = dom.mesh(n, n)
    return Z


def _support(f1, f2, z):
    """The support jet of the pair (f1, f2) at z, from order-3 jets."""
    return support_jet(eval_jet(f1, z, 3), eval_jet(f2, z, 3))


def _pde_on(f1, f2, Z):
    return support_pde_residual(
        evaluate_patch(RibaucourPatch(parse(f1), parse(f2)), Z=Z))


# ---------------------------------------------------------------------------
# support function
# ---------------------------------------------------------------------------

def test_equal_pair_has_unit_support():
    Z = _mesh(SQUARE, 21)
    for text in ("z", "exp(z)", "sinh(z)"):
        e = parse(text)
        rho = _support(e, e, Z)
        assert np.max(np.abs(np.asarray(rho.val) - 1.0)) <= 1e-15, text


def test_support_point_values():
    # f1 = z, f2 = 2z at 0: |1| (1+0) / (|2| (1+0)) = 1/2
    rho = _support(parse("z"), parse("2*z"), 0.0)
    assert float(rho.val) == 0.5
    # f1 = z^2, f2 = z at 1: |2| (1+1) / (|1| (1+1)) = 2
    rho = _support(parse("z^2"), parse("z"), 1.0)
    assert float(rho.val) == 2.0


def test_constant_f2_gives_no_valid_samples():
    fields = evaluate_patch(make_patch("z", "3", SQUARE), 11, 11)
    assert not np.any(fields.valid)
    assert np.isnan(unit_sphere_gap(fields))


# ---------------------------------------------------------------------------
# support identity rho^2 + rho Lap rho - 1 - |grad rho|^2 = 0
# ---------------------------------------------------------------------------

def test_support_pde_unit_sphere_case():
    r = _pde_on("z", "z", _mesh(SQUARE, 21))
    assert r.n_valid > 0
    assert r.max_abs <= 1e-14


def test_support_pde_on_grids():
    for f1, f2, dom in (("z", "2*z", SQUARE), ("z", "exp(z)", SQUARE),
                        ("z^2", "z+2", OFFSET)):
        r = _pde_on(f1, f2, _mesh(dom, 41))
        assert r.n_valid > 0.9 * 41 * 41, (f1, f2)
        assert r.max_abs <= TOLERANCES["support_pde"], (f1, f2)


# Random generators a h(c b(z) + b0) + b1: h is the identity or exp, the
# base b is z, 1/(z + d) or log(z + d) with Re d >= 0.4, so on
# [0.1, 0.9]^2 each generator is regular with f' != 0 and bounded values.
_COEF = st.floats(-2, 2).map(lambda x: round(x, 2) + 0.0)
_CONST = st.builds(lambda a, b: Const(complex(a, b)), _COEF, _COEF)
_SCALE = st.builds(lambda a, b: Const(complex(a, b)),
                   _COEF.filter(lambda x: abs(x) >= 0.25), _COEF)
_SHIFTED = st.builds(lambda a, b: BinOp("+", Var(), Const(complex(a, b))),
                     st.floats(0.4, 2).map(lambda x: round(x, 2)), _COEF)
_BASE = st.one_of(st.just(Var()),
                  st.builds(lambda s: BinOp("/", Const(1 + 0j), s), _SHIFTED),
                  st.builds(lambda s: Call("log", s), _SHIFTED))


def _affine(a, e, b):
    return BinOp("+", BinOp("*", a, e), b)


GENERATORS = st.builds(
    lambda a, h, c, base, b0, b1: _affine(a, h(_affine(c, base, b0)), b1),
    _SCALE, st.sampled_from([lambda e: e, lambda e: Call("exp", e)]),
    _SCALE, _BASE, _CONST, _CONST)


# round spheres: mu vanishes identically, so every term of mu is rounding
@example(parse("z"), parse("2*z"))
@example(parse("z"), parse("(2*z+1)/(z-3)"))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(GENERATORS, GENERATORS)
def test_identities_hold_for_random_pairs(f1, f2):
    # every pair builds a surface of the class: the support identity, the
    # middle-sphere identity and mu = S(f1) - S(f2) hold on each valid
    # sample, to rounding relative to the largest term of the identity there
    fields = evaluate_patch(RibaucourPatch(f1, f2, Domain(0.1, 0.9, 0.1, 0.9)),
                            9, 9)
    for name, gap in _identity_gaps(fields).items():
        assert gap.size > 0, name
        assert np.max(gap) <= 1e-9, (name, np.max(gap))
    hopf = hopf_residual(fields)
    assert hopf.n_valid > 0
    assert hopf.max_abs <= 1e-10, hopf.max_abs


def _identity_gaps(fields):
    """Support-identity and middle-sphere residuals on their valid samples,
    each relative to the largest term of its identity there.  The checks
    divide by the sum of the terms' magnitudes, which the test recomputes
    from its own terms."""
    rv = fields.rho_val
    w = np.exp(-2.0 * np.asarray(fields.frame.tau.val))
    grad_sq = w * (np.asarray(fields.rho.du) ** 2
                   + np.asarray(fields.rho.dv) ** 2)
    pde_terms = (rv * rv, rv * sphere_laplacian(fields.rho, fields.frame),
                 np.ones_like(rv), grad_sq)
    x_dot_n = np.sum(fields.X * fields.N, axis=-1)
    sphere_terms = (np.sum(fields.X * fields.X, axis=-1),
                    2.0 * fields.hover_k * x_dot_n, np.ones_like(rv))
    gaps = {}
    for res, terms in ((support_pde_residual(fields), pde_terms),
                       (check_middle_sphere(fields), sphere_terms)):
        total = sum(np.abs(t) for t in terms)
        largest = np.maximum.reduce([np.abs(t) for t in terms])
        gaps[res.name] = (np.abs(res.values) * total / largest)[res.valid]
    return gaps


POLE_DOMAIN = Domain(0.1, 0.9, 0.1, 0.9)
POLE_NODES = POLE_DOMAIN.mesh(9, 9)[2]


def test_nodes_next_to_a_pole_stay_exact():
    # the node 0.7+0.7i sits about 1e-16 from the pole of 1/(z-0.7-0.7i);
    # |.|^2 products of f there reach 1e64 and used to cancel to garbage
    for f1, f2 in (("1/(z-0.7-i)", "1/(z-0.7-0.7*i)"),
                   ("1/(z-0.7-0.7*i)", "exp(z)")):
        fields = evaluate_patch(make_patch(f1, f2, POLE_DOMAIN), 9, 9)
        assert np.all(fields.valid), (f1, f2)
        for name, gap in _identity_gaps(fields).items():
            assert gap.size == 81, (f1, f2, name)
            assert np.max(gap) <= 1e-12, (f1, f2, name, np.max(gap))


# Mobius generators a/(z - p) + b with the pole p on a node of the 9x9
# grid or 10^-k (1 <= k <= 9) away from one.  Closer than about 1e-10 the
# identities lose digits like (1e-16 / distance)^2: the jet of 1/f is built
# from the entries of f's jet, and their independent rounding cancels.
_POLE = st.builds(
    lambda i, j, k, t, on_node: complex(POLE_NODES[i, j])
    + (0.0 if on_node else 10.0 ** -k * cmath.exp(1j * t)),
    st.integers(0, 8), st.integers(0, 8), st.floats(1, 9),
    st.floats(0, 2 * np.pi), st.booleans())
_MOBIUS = st.tuples(_SCALE, _POLE, _CONST)


def _mobius(a, pole, b):
    return BinOp("+", BinOp("/", a, BinOp("-", Var(), Const(pole))), b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_MOBIUS, st.one_of(_MOBIUS, GENERATORS), st.booleans())
def test_identities_hold_next_to_poles(m1, other, swap):
    poles = [m1[1]] + ([other[1]] if isinstance(other, tuple) else [])
    f1 = _mobius(*m1)
    f2 = _mobius(*other) if isinstance(other, tuple) else other
    if swap:
        f1, f2 = f2, f1
    fields = evaluate_patch(RibaucourPatch(f1, f2, POLE_DOMAIN), 9, 9)
    # a node exactly on a pole has a non-finite jet and is excluded; every
    # other node has a finite frame and support jet
    on_pole = np.zeros(POLE_NODES.shape, dtype=bool)
    for p in poles:
        on_pole |= POLE_NODES - p == 0
    assert not np.any(fields.valid[on_pole])
    assert np.array_equal(fields.branch, on_pole)
    for name, gap in _identity_gaps(fields).items():
        assert gap.size > 0, name
        assert np.max(gap) <= 1e-9, (name, np.max(gap))
    hopf = hopf_residual(fields)
    assert hopf.n_valid > 0
    assert hopf.max_abs <= 1e-10, hopf.max_abs


# the frame stores N to first order and tau; N's second partials by the
# Gauss formula of the round sphere over them against those of the
# stereographic formula by jet products
@example(parse("exp(z)/(1+z^2)"))
@example(parse("sin(z)*cos(z)/(z+3)"))
@example(parse("exp(i*z)"))
@example(parse("1/(z-0.3-0.2*i)"))
@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(GENERATORS, _MOBIUS.map(lambda m: _mobius(*m))))
def test_frame_second_partials_match_jet_products(f):
    j = eval_jet(f, POLE_NODES, 3)
    frame = frame_from_jet(j)
    ok = ~np.asarray(frame.branch)
    assert np.count_nonzero(ok) >= 80
    got = gauss_second_partials(frame)
    # relative to the largest second partial at the sample: one of them
    # can cancel to almost 0 where tau's gradient is small
    want = np.stack(normal_second_partials(j))
    scale = np.max(np.abs(want), axis=(0, -1))
    gap = np.max(np.abs(np.stack(got) - want), axis=(0, -1)) / scale
    assert np.max(gap[ok]) <= 1e-12, np.max(gap[ok])


def test_support_jet_matches_quotient_oracle():
    # away from poles the support jet exp(tau1 - tau2) equals the quotient
    # of |.|^2 products entry by entry, relative to the entry's largest value
    patch = make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)", POLE_DOMAIN)
    _, _, Z = patch.domain.mesh(41, 41)
    j1, j2 = eval_jet(patch.f1, Z, 3), eval_jet(patch.f2, Z, 3)
    rho, ref = support_jet(j1, j2), support_quotient(j1, j2)
    for part in ("val", "du", "dv", "duu", "duv", "dvv"):
        a, b = getattr(rho, part), getattr(ref, part)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), part


def test_hopf_residual_detects_a_perturbed_support():
    # rho (1 + 1e-3 u^2) is the support field of no pair, so its mu is no
    # longer S(f1) - S(f2): the build entry must fail
    patch = make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)", POLE_DOMAIN)
    _, _, Z = patch.domain.mesh(161, 161)
    fields = evaluate_patch(patch, Z=Z)
    assert hopf_residual(fields).max_abs <= TOLERANCES["hopf_holomorphy"]
    U = RJet2(Z.real, 1, 0, 0, 0, 0)
    bent = shape_from_support(fields.frame, fields.rho * (1.0 + 1e-3 * U * U))
    with pytest.raises(ValueError):
        hopf_residual(bent)
    bent.schwarzian = fields.schwarzian
    res = hopf_residual(bent)
    entry = identity_entry(res.name, res.max_abs,
                           TOLERANCES["hopf_holomorphy"], res.n_valid,
                           res.n_excluded)
    assert res.n_valid == Z.size
    assert not entry["pass"], entry


def test_one_inversion_per_generator(monkeypatch):
    # evaluate_patch takes each generator's frame or tau jet and its
    # Schwarzian from one jet of 1/f; every sample of f1 flips here
    patch = make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)", POLE_DOMAIN)
    _, _, Z = POLE_DOMAIN.mesh(9, 11)
    j1, j2 = eval_jet(patch.f1, Z, 3), eval_jet(patch.f2, Z, 3)
    want_s = (generator_data(j1, frame=False)[1],
              generator_data(j2, frame=False)[1])
    want_rho = support_jet(j1, j2)
    calls = []
    real = sphere_geom._inverted_where_large

    def spy(j):
        calls.append(j)
        return real(j)

    monkeypatch.setattr(sphere_geom, "_inverted_where_large", spy)
    fields = evaluate_patch(patch, 9, 11)
    assert len(calls) == 2
    for got, want in zip(fields.schwarzian, want_s):
        assert np.array_equal(got, want)
    for part in ("val", "du", "dv", "duu", "duv", "dvv"):
        assert np.array_equal(getattr(fields.rho, part),
                              getattr(want_rho, part)), part
    # one generator object used twice is one generator
    calls.clear()
    same = evaluate_patch(RibaucourPatch(patch.f1, patch.f1, POLE_DOMAIN),
                          9, 11)
    assert len(calls) == 1
    assert np.array_equal(same.schwarzian[0], same.schwarzian[1])
    assert np.array_equal(same.rho_val, np.ones(Z.shape))


def test_support_pde_terms_match_finite_differences():
    # independent evaluation of the identity: all pieces from central
    # differences of the scalar support value alone
    e1, e2 = parse("z"), parse("exp(z)")
    h = 1e-3
    for z0 in (0.4 + 0.3j, -0.5 - 0.2j):
        w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        offs = np.arange(-2, 3)
        ru = np.array([float(_support(e1, e2, z0 + k * h).val)
                       for k in offs])
        rv = np.array([float(_support(e1, e2, z0 + 1j * k * h).val)
                       for k in offs])
        rho = _support(e1, e2, z0)
        assert abs(w1 @ ru - float(rho.du)) <= 1e-6
        assert abs(w1 @ rv - float(rho.dv)) <= 1e-6
        assert abs(w2 @ ru - float(rho.duu)) <= 1e-5
        assert abs(w2 @ rv - float(rho.dvv)) <= 1e-5


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------

def test_equal_pair_immerses_to_unit_sphere():
    for text in ("z", "exp(z)"):
        s = immerse(make_patch(text, text), 0.3 + 0.1j)
        assert np.max(np.abs(s.X - s.N)) <= 1e-12
        assert abs(s.k1 + 1.0) <= 1e-8
        assert abs(s.k2 + 1.0) <= 1e-8
        assert s.umbilic
        assert abs(s.hover_k + 1.0) <= 1e-8
        assert abs(s.X @ s.X + 2.0 * s.hover_k * (s.X @ s.N) + 1.0) <= 1e-12


def test_immersion_at_a_pole_is_flagged_not_raised():
    # f1 = 1/z has a pole at 0: one point is evaluated through an array,
    # so nothing raises; the sample is flagged and its values are NaN
    s = immerse(make_patch("1/z", "z"), 0.0)
    assert s.degenerate and s.branch
    assert np.isnan(s.X).all() and np.isnan(s.N).all()
    assert np.isnan(s.rho_val) and np.isnan(s.hover_k)


def test_immersion_support_projection():
    s = immerse(make_patch("z", "2*z"), 0.0)
    assert abs(float(s.X @ s.N) - s.rho_val) <= 1e-14
    assert abs(s.rho_val - 0.5) <= 1e-15
    assert abs(float(s.N @ s.N) - 1.0) <= 1e-12


def test_principal_curvatures_sorted():
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE), 21, 21)
    ok = fields.valid
    assert np.all(fields.k1[ok] >= fields.k2[ok])


def test_hover_k_matches_curvature_radii():
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE), 21, 21)
    ok = fields.valid & np.isfinite(fields.k1) & np.isfinite(fields.k2)
    mean_radius = 0.5 * (1.0 / fields.k1[ok] + 1.0 / fields.k2[ok])
    gap = rel_gap(fields.hover_k[ok], mean_radius)
    assert np.max(gap) <= 1e-8


def test_first_form_positive_definite():
    for f1, f2, dom in (("z", "exp(z)", SQUARE), ("z^2", "z+2", OFFSET)):
        fields = evaluate_patch(make_patch(f1, f2, dom), 21, 21)
        E, F, G = (np.asarray(c) for c in fields.first)
        ok = fields.valid
        assert np.min(E[ok]) > 0.0
        assert np.min((E * G - F * F)[ok]) > 0.0


def test_third_form_is_sphere_metric():
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE), 21, 21)
    P, Q, R = (np.asarray(c) for c in fields.third)
    Nu, Nv = fields.frame.normal_du, fields.frame.normal_dv
    ok = fields.valid
    e2t = fields.e2tau
    assert np.max(np.abs(P - np.sum(Nu * Nu, axis=-1))[ok] / e2t[ok]) <= 1e-8
    assert np.max(np.abs(R - np.sum(Nv * Nv, axis=-1))[ok] / e2t[ok]) <= 1e-8
    assert np.max(np.abs(Q - np.sum(Nu * Nv, axis=-1))[ok] / e2t[ok]) <= 1e-8


# ---------------------------------------------------------------------------
# middle spheres
# ---------------------------------------------------------------------------

def test_middle_sphere_residual_on_grids():
    for f1, f2, dom in (("z", "2*z", SQUARE), ("z", "exp(z)", SQUARE),
                        ("z^2", "z+2", OFFSET)):
        fields = evaluate_patch(make_patch(f1, f2, dom))
        r = check_middle_sphere(fields)
        assert r.n_valid > 0
        assert r.max_abs <= TOLERANCES["middle_sphere"], (f1, f2)


def test_middle_sphere_detects_displaced_surface():
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE))
    Xp = fields.X + 0.01 * fields.N
    xx = np.sum(Xp * Xp, axis=-1)
    xn = np.sum(Xp * fields.N, axis=-1)
    r = xx + 2.0 * fields.hover_k * xn + 1.0
    assert np.max(np.abs(r[fields.valid])) > 1e-3


def test_middle_sphere_and_support_residuals_cancel():
    # <X,X> + 2(H/K)<X,N> + 1 expands to minus the support identity;
    # the two code paths agree to rounding
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE))
    r_pde = support_pde_residual(fields)
    r_sphere = check_middle_sphere(fields)
    ok = r_pde.valid & r_sphere.valid
    assert np.count_nonzero(ok) > 0
    assert np.max(np.abs(r_pde.values + r_sphere.values)[ok]) <= 1e-12


def test_residuals_scale_with_the_surface():
    # |X|^2 reaches about 2.6e12 here: both identities hold to rounding
    # relative to their terms, and each check divides its residual by
    # the sum of its terms' magnitudes
    fields = evaluate_patch(make_patch("z", "exp(exp(exp(z)))", SQUARE),
                            81, 81)
    xx = np.sum(fields.X * fields.X, axis=-1)
    assert np.max(xx[fields.valid]) > 1e12
    rv = fields.rho_val
    rlap = rv * sphere_laplacian(fields.rho, fields.frame)
    grad_sq = (np.exp(-2.0 * np.asarray(fields.frame.tau.val))
               * (np.asarray(fields.rho.du) ** 2
                  + np.asarray(fields.rho.dv) ** 2))
    hxn = 2.0 * fields.hover_k * np.sum(fields.X * fields.N, axis=-1)
    for res, raw, total in (
            (support_pde_residual(fields), rv * rv + rlap - 1.0 - grad_sq,
             rv * rv + np.abs(rlap) + 1.0 + grad_sq),
            (check_middle_sphere(fields), xx + hxn + 1.0,
             xx + np.abs(hxn) + 1.0)):
        assert res.n_valid == fields.valid.size, res.name
        assert res.max_abs <= TOLERANCES[res.name], (res.name, res.max_abs)
        assert np.array_equal(res.values, raw / total), res.name


def test_unit_sphere_gap_separates_cases():
    equal = evaluate_patch(make_patch("z", "z", SQUARE), 21, 21)
    assert unit_sphere_gap(equal) <= 1e-12
    scaled = evaluate_patch(make_patch("z", "2*z", SQUARE), 21, 21)
    assert unit_sphere_gap(scaled) > 1e-3


# ---------------------------------------------------------------------------
# Hopf coefficient
# ---------------------------------------------------------------------------

def test_hopf_vanishes_on_round_spheres():
    point = evaluate_patch(make_patch("z", "z"), Z=np.asarray(0.2 + 0.1j))
    assert abs(complex(point.mu)) <= 1e-14
    fields = evaluate_patch(make_patch("z", "2*z", SQUARE), 21, 21)
    assert np.max(np.abs(fields.mu[fields.valid])) <= 1e-14


def test_hopf_modulus_measures_radius_gap():
    fields = evaluate_patch(make_patch("z", "exp(z)", SQUARE), 21, 21)
    ok = fields.valid & ~fields.umbilic
    assert np.count_nonzero(ok) > 0
    gap = np.abs(1.0 / fields.k2 - 1.0 / fields.k1)[ok]
    pred = (2.0 * fields.rho_val * np.abs(fields.mu)
            * np.exp(-2.0 * np.asarray(fields.frame.tau.val)))[ok]
    assert np.max(rel_gap(gap, pred)) <= 1e-8


def test_hopf_is_discretely_holomorphic():
    r = hopf_stencil_residual(make_patch("z", "exp(z)", SQUARE))
    assert r.n_valid > 0
    assert r.max_abs <= 1e-5
    r = hopf_stencil_residual(make_patch("z", "2*z", SQUARE), 81, 81)
    assert r.max_abs <= 1e-10


# ---------------------------------------------------------------------------
# independent curvature oracle
# ---------------------------------------------------------------------------

def test_curvatures_match_fundamental_form_route():
    # finite-difference the immersion itself, build the classical
    # fundamental-form coefficients, and compare principal curvatures
    rng = np.random.default_rng(3511)
    cases = ((make_patch("z", "exp(z)", SQUARE), SQUARE),
             (make_patch("z^2", "z+2", OFFSET), OFFSET))
    checked = 0
    for patch, dom in cases:
        du, dv = dom.u1 - dom.u0, dom.v1 - dom.v0
        for _ in range(50):
            z0 = complex(dom.u0 + du * (0.1 + 0.8 * rng.random()),
                         dom.v0 + dv * (0.1 + 0.8 * rng.random()))
            k1_fd, k2_fd, k1_s, k2_s, ok = fd_principal_curvatures(patch, z0)
            if not ok:
                continue
            assert np.max(rel_gap(k1_fd, k1_s)) <= 1e-5, (patch.label(), z0)
            assert np.max(rel_gap(k2_fd, k2_s)) <= 1e-5, (patch.label(), z0)
            checked += 1
    assert checked >= 80


def test_a_nan_form_coefficient_folds_as_nan():
    # the one relative-gap rule: a NaN coefficient on a valid sample makes
    # its gap and scale NaN, and the relative gap stays NaN, so the
    # record folds as NaN, not as a perfect 0; a sample whose forms both
    # vanish has a zero scale and gives 0
    one, zero = np.ones(3), np.zeros(3)
    lhs = (np.array([1.0, 1.0, 0.0]), np.array([0.0, np.nan, 0.0]), zero)
    rhs = (np.array([1.0, 2.0, 0.0]), zero, zero)
    res = _form_residual(lhs, rhs, one > 0.0, "form")
    assert res.values[0] == 0.0 and res.values[2] == 0.0
    assert np.isnan(res.values[1])
    summary = CheckSummary("form")
    summary.fold(res)
    assert np.isnan(summary.max_abs) and np.isnan(res.max_abs)
    assert (summary.n_valid, summary.n_excluded) == (3, 0)
