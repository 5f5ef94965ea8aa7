"""Sphere-congruence fields over minimal patches and their envelopes."""

import dataclasses

import numpy as np
import pytest
import sympy as sp

from _oracles import (U_SYM, V_SYM, march_congruence, quadrature_omega,
                      symbolic_k1)
from ribaucour import cli, congruence
from ribaucour.congruence import (_ANALYTIC, CongruenceState,
                                  IntegralConstants, _fill_rows,
                                  _kernel_rows, _on_samples, _row_blocks,
                                  analytic_example, check_hessian_identities,
                                  envelope, envelope_checks, first_integral,
                                  generated_forms_check, hover_ratio_residual,
                                  integrate_system, system_residuals)
from ribaucour.grids import Domain
from ribaucour.jets import RJet2
from ribaucour.minimal import MinimalPatch, catenoid_patch, enneper_patch
from ribaucour.ribaucour_core import check_middle_sphere
from ribaucour.sphere_geom import SphereFrame

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


@pytest.fixture(scope="module")
def catenoid_data():
    return analytic_example("catenoid")


@pytest.fixture(scope="module")
def enneper_data():
    return analytic_example("enneper")


class _FlatPatch:
    """The plane X = (u, v, 0) in the interface of a minimal patch:
    phi = 1, k1 = k2 = 0, and a constant normal whose pullback metric
    vanishes, so every frame sample is flagged as a branch point."""

    def chart_scalars(self, U, V):
        one = np.ones(np.broadcast_shapes(np.shape(U), np.shape(V)))
        return one, 0.0 * one, 0.0 * one, 0.0 * one

    def phi_jet(self, U, V):
        return RJet2.constant(self.chart_scalars(U, V)[0])

    def k1(self, U, V):
        return self.chart_scalars(U, V)[3]

    k2 = k1

    def position_derivatives(self, U, V):
        one, zero = self.chart_scalars(U, V)[:2]
        return {"Xu": np.stack([one, zero, zero], axis=-1),
                "Xv": np.stack([zero, one, zero], axis=-1)}

    def frame(self, U, V):
        one, zero = self.chart_scalars(U, V)[:2]
        return SphereFrame(RJet2.constant(zero), RJet2.constant(zero),
                           RJet2.constant(one), RJet2.constant(zero * np.nan),
                           one > 0.0)


def _square_grid(n=41):
    return np.meshgrid(np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, n),
                       indexing="ij")


# ---------------------------------------------------------------------------
# constants and state plumbing
# ---------------------------------------------------------------------------

def test_coupling_constant_must_be_nonzero():
    with pytest.raises(ValueError):
        IntegralConstants(c=0.0)


def test_first_integral_point_value():
    consts = IntegralConstants(c=0.5, c1=1.0)
    state = CongruenceState(2.5, 0.0, 0.0, 0.5)
    # 0 + 0 + 0.25 - 2*0.5*2.5*0.5 + 1 = 0
    assert float(first_integral(state, consts)) == 0.0


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------

def test_catenoid_fields_validate_as_published(catenoid_data):
    ac = catenoid_data
    assert not ac.used_fallback
    assert abs(ac.constants.c - 0.5) <= 1e-12
    assert (ac.constants.c1, ac.constants.c2, ac.constants.c3) == (1.0, 0.0, 0.0)
    st = ac.state(0.0, 0.0)
    vals = [float(np.asarray(x)) for x in st.as_tuple()]
    assert abs(vals[0] - 2.5) <= 1e-12          # Omega
    assert abs(vals[1]) <= 1e-12                # Omega1
    assert abs(vals[2]) <= 1e-12                # Omega2
    assert abs(vals[3] - 0.5) <= 1e-12          # W
    assert max(ac.residuals.values()) <= 1e-12
    assert ac.drift <= 1e-12


def test_enneper_fields_need_the_quadrature_route(enneper_data):
    ac = enneper_data
    # the as-published Omega candidate fails the first-order system; the
    # record keeps that failure next to the recovered solution
    assert ac.used_fallback
    assert ac.literal_constants is not None
    assert abs(ac.literal_constants.c - 0.125) <= 1e-12
    assert max(v for k, v in ac.literal_residuals.items() if k != "w_v") > 1e-3
    assert ac.literal_drift > 1.0
    # recovered fields pass at rounding level
    assert abs(ac.constants.c - 0.25) <= 1e-12
    assert max(ac.residuals.values()) <= 1e-12
    assert ac.drift <= 1e-12
    assert "cosh(u)" in ac.omega_text
    assert abs(float(np.asarray(ac.w_jet(0.0, 0.0).val)) - 2.0) <= 1e-12
    assert abs(float(np.asarray(ac.omega_jet(0.0, 0.0).val)) - 5.0) <= 1e-12


@pytest.fixture(scope="module")
def enneper_quadrature():
    """Enneper's Omega and c re-derived from the shipped W text: exact
    quadrature gives Omega up to a constant Omega(0,0), and the first
    integral, with its value and u-curvature at the origin, fixes c and
    Omega(0,0)."""
    u, v = U_SYM, V_SYM
    patch = enneper_patch()
    w = sp.sympify(_ANALYTIC["enneper"].w_text, locals={"u": u, "v": v})
    base = quadrature_omega(patch, w)
    c, om0 = sp.symbols("c Omega0")
    omega = base - base.subs({u: 0, v: 0}) + om0
    # k1 phi^2 = a on the patch
    phi = sp.sqrt(sp.nsimplify(patch.a) / symbolic_k1(patch))
    F = ((sp.diff(omega, u) / phi)**2 + (sp.diff(omega, v) / phi)**2
         + w**2 - 2 * c * omega * w + 1)
    origin = {u: 0, v: 0}
    (sol,) = sp.solve([F.subs(origin), sp.diff(F, u, 2).subs(origin)],
                      [c, om0], dict=True)
    return omega.subs(sol), sol[c]


def test_enneper_correction_matches_quadrature(enneper_quadrature):
    omega, c = enneper_quadrature
    _, text, consts = _ANALYTIC["enneper"].corrected
    shipped = sp.sympify(text, locals={"u": U_SYM, "v": V_SYM})
    assert sp.simplify(shipped - omega) == 0
    assert c == sp.Rational(1, 4)
    assert consts == IntegralConstants(c=float(c))


def test_shipped_correction_is_validated(monkeypatch):
    # the correction is checked on the grid like the published data: a
    # wrong constant is refused, not shipped into the record
    data = _ANALYTIC["enneper"]
    fn, text, _ = data.corrected
    monkeypatch.setitem(_ANALYTIC, "enneper", dataclasses.replace(
        data, corrected=(fn, text, IntegralConstants(c=0.5))))
    with pytest.raises(RuntimeError):
        analytic_example("enneper")


def _shipped_texts():
    for name, data in _ANALYTIC.items():
        yield pytest.param(data.w_text, data.w, id=f"{name}-w")
        yield pytest.param(data.omega_text, data.omega, id=f"{name}-omega")
        if data.corrected is not None:
            fn, text, _ = data.corrected
            yield pytest.param(text, fn, id=f"{name}-corrected-omega")


@pytest.mark.parametrize("text,fn", _shipped_texts())
def test_shipped_texts_match_jets(text, fn):
    # every printed closed form and its partials, lambdified, agree with
    # the jet code that ships beside it
    u, v = U_SYM, V_SYM
    expr = sp.sympify(text, locals={"u": u, "v": v})
    U, V = _square_grid(21)
    jet = _on_samples(fn)(U, V)
    # a chart grid is evaluated on its grid lines: the same bits as
    # sample by sample
    flat = _on_samples(fn)(U.ravel(), V.ravel())
    for part in ("val", "du", "dv", "duu", "duv", "dvv"):
        assert np.array_equal(getattr(flat, part).reshape(U.shape),
                              getattr(jet, part)), part
    orders = {"val": (), "du": (u,), "dv": (v,), "duu": (u, u),
              "duv": (u, v), "dvv": (v, v)}
    for part, order in orders.items():
        ref = np.broadcast_to(sp.lambdify(
            (u, v), sp.diff(expr, *order) if order else expr,
            modules="numpy")(U, V), U.shape)
        gap = np.max(np.abs(getattr(jet, part) - ref))
        assert gap <= 1e-12 * np.max(np.abs(ref)), (part, gap)


def test_unknown_example_name_raises():
    with pytest.raises(KeyError):
        analytic_example("helicoid")


def test_system_rejects_perturbed_fields(catenoid_data):
    ac = catenoid_data
    U, V = _square_grid()
    oj = ac.omega_jet
    pert = lambda U, V: oj(U, V) * 1.01
    res = system_residuals(ac.patch, ac.w_jet, pert, U, V)
    assert res["w_u"] > 1e-3
    report = check_hessian_identities(ac.patch, ac.w_jet, pert,
                                      ac.constants, U, V)
    assert report.n_compared > 0
    assert report.max_hessian_omega > 1e-3


# ---------------------------------------------------------------------------
# numerical integration
# ---------------------------------------------------------------------------

def test_integration_reproduces_catenoid_fields(catenoid_data):
    ac = catenoid_data
    init = CongruenceState(2.5, 0.0, 0.0, 0.5)
    integ = integrate_system(ac.patch, init, ac.constants,
                             domain=SQUARE, step=0.01)
    assert integ.U.shape == (201, 201)
    ref = ac.state(integ.U, integ.V)
    agree = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                for a, b in zip(integ.state().as_tuple(), ref.as_tuple()))
    assert agree <= 1e-6
    assert integ.path_gap <= 1e-6
    assert integ.drift <= 1e-6


def _origin_state(ac):
    return CongruenceState(*(float(np.asarray(x))
                             for x in ac.state(0.0, 0.0).as_tuple()))


@pytest.mark.parametrize("domain, shape, node", [
    (SQUARE, (101, 101), (50, 50)),
    (Domain(-0.6, 1.0, -1.0, 0.4), (81, 71), (30, 50)),
])
def test_integration_matches_march_oracle(catenoid_data, enneper_data,
                                          domain, shape, node):
    # the stacked one-kernel march against four per-direction sweeps on
    # tuples of arrays: the same RK4 steps, summed in another order
    for ac in (catenoid_data, enneper_data):
        init = _origin_state(ac)
        integ = integrate_system(ac.patch, init, ac.constants,
                                 domain=domain, step=0.02)
        assert integ.U.shape == shape and integ.init_node == node
        fields, w_ref, gap = march_congruence(
            ac.patch, init, ac.constants, integ.U[:, 0], integ.V[0], *node)
        for got, ref in zip((integ.omega, integ.omega1, integ.omega2),
                            fields):
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - ref)) <= 1e-13, ac.name
        for part in ("val", "du", "dv", "duu", "duv", "dvv"):
            got = getattr(integ.w, part)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - getattr(w_ref, part))) <= 1e-13, \
                (ac.name, part)
        assert abs(integ.path_gap - gap) <= 1e-13
        assert np.max(np.abs(integ.phi - ac.patch.phi(integ.U, integ.V))) \
            <= 1e-13


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bits (so -0.0 != 0.0 and NaN == NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == bool:
        return bool(np.array_equal(a, b))
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def test_row_blocks_cover_the_rows_in_bounded_blocks():
    # blocks are consecutive and at most `block` samples unless one row
    # is longer; with `least`, a block never holds fewer samples unless
    # all rows together do (for block >= 2 least): the rule that gives
    # every chart-scalar block numpy's whole-array arithmetic
    least = 64
    for n_rows in range(1, 40):
        for row_len in (1, 3, 7, 31, 32, 33, 64, 65, 100, 130, 300):
            for tail in (0, least):
                blocks = _row_blocks(n_rows, row_len, 2 * least, tail)
                assert blocks[0].start == 0 and blocks[-1].stop == n_rows
                assert all(a.stop == b.start
                           for a, b in zip(blocks, blocks[1:]))
                sizes = [(b.stop - b.start) * row_len for b in blocks]
                assert max(sizes) <= max(2 * least + tail, row_len)
                assert min(sizes) >= min(tail, n_rows * row_len)


def _direction_rows(patch, consts, along_u, t, fixed):
    """Kernel rows and chart scalars of one direction evaluated at every
    stage abscissa as one array, as a march along that direction alone
    would evaluate them."""
    s = np.linspace(t[0], t[-1], 2 * len(t) - 1)[:, None]
    scalars = (patch.chart_scalars(s, fixed[None, :]) if along_u
               else patch.chart_scalars(fixed[None, :], s))
    K = np.empty((s.shape[0], 7, len(fixed)))
    _fill_rows(K, scalars, consts, along_u)
    return K, scalars


@pytest.mark.parametrize("elide, nu, nv, domain", [
    # blocks of at most 64 rows' worth on small grids: several blocks
    (32, 21, 17, (-1.0, 1.0, -1.0, 1.0)),
    (32, 31, 13, (-0.6, 1.0, -1.0, 0.4)),
    # the shipped block size, with every evaluation above the threshold
    (None, 181, 161, (-1.0, 1.0, -1.0, 1.0)),
])
def test_shared_node_scalars_match_per_direction_evaluation(
        monkeypatch, elide, nu, nv, domain):
    # the column march keeps its node scalars; the row march reuses them
    # and evaluates only its midpoints: the kernel rows are those of an
    # evaluation per direction, bit for bit
    if elide is not None:
        monkeypatch.setattr(congruence, "_ELIDE", elide)
    consts = IntegralConstants(c=0.5, c1=1.0, c2=0.25, c3=-0.75)
    u = np.linspace(domain[0], domain[1], nu)
    v = np.linspace(domain[2], domain[3], nv)
    for patch in (catenoid_patch(), enneper_patch()):
        node = np.empty((4, nu, nv))
        cols = _kernel_rows(patch, consts, False, v, u,
                            keep=node.transpose(0, 2, 1))
        rows = _kernel_rows(patch, consts, True, u, v, node=node)
        cols_ref, scalars = _direction_rows(patch, consts, False, v, u)
        rows_ref, _ = _direction_rows(patch, consts, True, u, v)
        assert _same_bits(cols, cols_ref), patch.name
        assert _same_bits(rows, rows_ref), patch.name
        for got, ref in zip(node, scalars):
            assert _same_bits(got, np.ascontiguousarray(ref[::2].T))


def _envelope_case(name, case, monkeypatch):
    """(patch, W jet, Omega, constants, U, V) of one block layout."""
    ac = analytic_example(name)
    if case == "off-centre":
        # nu != nv, initial node off the grid's centre, several blocks
        monkeypatch.setattr(congruence, "_BLOCK", 1000)
        integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                                 domain=Domain(-0.6, 1.0, -1.0, 0.4),
                                 step=0.02)
        assert integ.U.shape == (81, 71) and integ.init_node == (30, 50)
        return (ac.patch, integ.w, integ.omega, ac.constants,
                integ.U, integ.V)
    # 23 rows of 40 in blocks of 12 and 11 rows; 10 x 20 inside one
    # block; rows of 600 samples, one row per block
    block, shape = {"ragged": (500, (23, 40)), "one-block": (500, (10, 20)),
                    "long-rows": (500, (4, 600))}[case]
    monkeypatch.setattr(congruence, "_BLOCK", block)
    U, V = np.meshgrid(np.linspace(-0.9, 0.8, shape[0]),
                       np.linspace(-0.7, 0.95, shape[1]), indexing="ij")
    return (ac.patch, ac.w_jet(U, V), ac.omega_jet(U, V).val, ac.constants,
            U, V)


@pytest.mark.parametrize("case", ["ragged", "one-block", "long-rows",
                                  "off-centre"])
@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_envelope_checks_match_the_whole_grid(name, case, monkeypatch):
    patch, w, omega, consts, U, V = _envelope_case(name, case, monkeypatch)
    checks = envelope_checks(patch, w, omega, consts, U, V, surface=True)
    env = envelope(patch, w, U, V)
    ms = check_middle_sphere(env)
    hv = hover_ratio_residual(env, omega, consts)
    for got, ref in ((checks.middle_sphere, ms), (checks.hover_ratio, hv)):
        assert got.name == ref.name
        assert _same_bits(got.values, ref.values), got.name
        assert _same_bits(got.valid, ref.valid), got.name
    assert _same_bits(checks.X, env.X)
    assert _same_bits(checks.N, env.N)
    assert _same_bits(checks.valid, env.valid)
    assert ms.n_valid > 0
    # without a mesh to write, nothing but the residuals is assembled
    bare = envelope_checks(patch, w, omega, consts, U, V)
    assert bare.X is None and bare.N is None and bare.valid is None
    assert _same_bits(bare.middle_sphere.values, ms.values)


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_analytic_command_builds_one_chart_record(name, monkeypatch,
                                                  capsys):
    # per analytic congruence command, the frame, phi's jet and the
    # chart scalars are evaluated once on the grid and shared by every
    # check (analytic_example's own validation grid aside)
    ac = analytic_example(name)
    monkeypatch.setattr(cli, "analytic_example", lambda _: ac)
    calls = {}

    def counting(method):
        real = getattr(MinimalPatch, method)

        def spy(self, *args, **kwargs):
            calls[method] = calls.get(method, 0) + 1
            return real(self, *args, **kwargs)
        monkeypatch.setattr(MinimalPatch, method, spy)

    for method in ("frame", "phi_jet", "chart_scalars"):
        counting(method)
    assert cli.main(["congruence", "--minimal", name]) == 0, \
        capsys.readouterr().out
    assert calls == {"frame": 1, "phi_jet": 1, "chart_scalars": 1}


def test_path_gap_converges_with_the_step(catenoid_data):
    # RK4 on both fills: the gap between them is a discretisation error,
    # so halving the step cuts it by about 2^4
    ac = catenoid_data
    gaps = [integrate_system(ac.patch, _origin_state(ac), ac.constants,
                             domain=SQUARE, step=h).path_gap
            for h in (0.04, 0.02, 0.01)]
    assert gaps[0] >= 10.0 * gaps[1] >= 100.0 * gaps[2] > 0.0, gaps


class _BentCurvature:
    """The catenoid with k1 scaled by (1 + 1e-3 u): no longer a chart of
    a surface, so the system is not integrable and the two fills part."""

    def __init__(self, patch):
        self.patch = patch

    def chart_scalars(self, U, V):
        phi, pu, pv, k1 = self.patch.chart_scalars(U, V)
        return phi, pu, pv, k1 * (1.0 + 1e-3 * np.asarray(U))


def test_path_gap_detects_an_incompatible_chart(catenoid_data):
    ac = catenoid_data
    init = _origin_state(ac)
    exact = integrate_system(ac.patch, init, ac.constants, domain=SQUARE,
                             step=0.01)
    bent = integrate_system(_BentCurvature(ac.patch), init, ac.constants,
                            domain=SQUARE, step=0.01)
    assert exact.path_gap <= 1e-8
    assert bent.path_gap > 1e-6


def test_integration_start_must_be_a_grid_node(catenoid_data):
    ac = catenoid_data
    init = CongruenceState(2.5, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        integrate_system(ac.patch, init, ac.constants, domain=SQUARE,
                         nu=21, nv=21, init_at=(0.05, 0.0))


@pytest.mark.parametrize("grid", [{"nu": 0, "nv": 5}, {"step": 0.0},
                                  {"step": -0.1}, {"step": float("nan")}])
def test_integration_grid_must_be_valid(catenoid_data, grid):
    # nu = 0 is a grid size, not "use the default"; a step must be
    # finite and positive
    ac = catenoid_data
    init = CongruenceState(2.5, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        integrate_system(ac.patch, init, ac.constants, domain=SQUARE, **grid)


def test_integration_on_flat_patch_is_exactly_constant():
    # a plane has k1 = k2 = 0, so W never changes; choosing c3 = 2 c W0
    # also freezes Omega, and every right-hand side is exactly zero
    plane = _FlatPatch()
    w0, om0 = 0.75, 2.0
    consts = IntegralConstants(c=1.0, c1=1.0, c2=0.0, c3=2.0 * w0)
    init = CongruenceState(om0, 0.0, 0.0, w0)
    integ = integrate_system(plane, init, consts, nu=21, nv=21)
    assert float(np.max(np.abs(integ.omega - om0))) == 0.0
    assert float(np.max(np.abs(integ.omega1))) == 0.0
    assert float(np.max(np.abs(integ.omega2))) == 0.0
    assert float(np.max(np.abs(integ.w.val - w0))) == 0.0
    for part in (integ.w.du, integ.w.dv, integ.w.duu, integ.w.duv,
                 integ.w.dvv):
        assert float(np.max(np.abs(part))) == 0.0
    assert integ.path_gap == 0.0
    assert integ.drift == 0.0
    # the flat frame is degenerate: the second-order checks must report
    # "nothing comparable" rather than crash or measure a residual
    U, V = _square_grid(21)
    report = check_hessian_identities(plane, RJet2.constant(w0),
                                      RJet2.constant(om0), consts, U, V)
    assert report.n_compared == 0
    assert report.n_excluded == 21 * 21
    assert np.isnan(report.max_hessian_omega)
    assert np.isnan(report.max_hessian_w)
    assert np.isnan(report.max_gradient_link)


# ---------------------------------------------------------------------------
# constant solution: exact second-order structure and gauge defect
# ---------------------------------------------------------------------------

def test_constant_solution_second_order_structure():
    # W, Omega constant with Omega1 = Omega2 = 0 solves the system on any
    # patch; closure forces c3 = 2cW and c2 = 2(c Omega - W), after which
    # every identity is exactly 0 = 0
    patch = catenoid_patch()
    w0, om0, c = 0.75, 2.0, 1.0
    consts = IntegralConstants(c=c, c1=-2.4375,
                               c2=2.0 * (c * om0 - w0), c3=2.0 * c * w0)
    state = CongruenceState(om0, 0.0, 0.0, w0)
    assert float(first_integral(state, consts)) == 0.0
    U, V = _square_grid(21)
    wj = lambda U, V: RJet2.constant(np.asarray(U) * 0.0 + w0)
    oj = lambda U, V: RJet2.constant(np.asarray(U) * 0.0 + om0)
    assert max(system_residuals(patch, wj, oj, U, V).values()) == 0.0
    hess = check_hessian_identities(patch, wj, oj, consts, U, V)
    assert hess.n_compared > 0
    assert hess.max_hessian_omega == 0.0
    assert hess.max_hessian_w == 0.0
    assert hess.max_gradient_link == 0.0
    forms = generated_forms_check(patch, wj, oj, consts, U, V)
    assert forms.n_compared > 0
    assert forms.max_rel_first <= 1e-14
    assert forms.max_rel_second <= 1e-14
    assert forms.max_rel_third == 0.0
    # the envelope is the round sphere w0 N: correct radius ratio ...
    env = envelope(patch, wj, U, V)
    assert hover_ratio_residual(env, om0, consts).max_abs <= 1e-14
    assert float(np.nanmax(np.abs(env.hover_k[env.valid] + w0))) <= 1e-14
    # ... but concentric with the unit sphere, so no great circles; the
    # defect is exactly the first-integral gauge shift c3 Omega + c1 - 1
    ms = check_middle_sphere(env)
    defect = consts.c3 * om0 + consts.c1 - 1.0
    assert ms.n_valid > 0
    assert np.max(np.abs(ms.values + defect)[ms.valid]) <= 1e-12


def test_middle_sphere_residual_equals_first_integral(catenoid_data):
    # in the reference gauge (c1 = 1, c2 = c3 = 0) the envelope's
    # middle-sphere residual is the first integral itself, pointwise
    ac = catenoid_data
    U, V = _square_grid()
    env = envelope(ac.patch, ac.w_jet, U, V)
    ms = check_middle_sphere(env)
    F = np.asarray(first_integral(ac.state(U, V), ac.constants))
    assert ms.n_valid > 0
    assert np.max(np.abs(ms.values - F)[ms.valid]) <= 1e-12


# ---------------------------------------------------------------------------
# envelopes of the analytic examples
# ---------------------------------------------------------------------------

def test_envelope_middle_spheres_cut_great_circles(catenoid_data,
                                                   enneper_data):
    for ac in (catenoid_data, enneper_data):
        U, V = _square_grid()
        env = envelope(ac.patch, ac.w_jet, U, V)
        ms = check_middle_sphere(env)
        assert ms.n_valid > 0.9 * 41 * 41, ac.name
        assert ms.max_abs <= 1e-6, ac.name
        # chart is curvature-line for the envelope too
        assert float(np.nanmax(np.abs(env.second[1]))) <= 1e-6, ac.name


def test_envelope_radius_ratio(catenoid_data):
    ac = catenoid_data
    U, V = _square_grid()
    env = envelope(ac.patch, ac.w_jet, U, V)
    om = np.asarray(ac.omega_jet(U, V).val, dtype=float)
    target = -ac.constants.c * om
    ok = env.valid
    gap = np.abs(env.hover_k - target) / np.maximum(1.0, np.abs(target))
    assert np.max(gap[ok]) <= 1e-6


def test_envelope_of_integrated_fields(catenoid_data, enneper_data):
    # the integrator hands over W as an exact jet: it matches the closed
    # form to integration accuracy, the envelope masks no node, and the
    # middle-sphere residual is the first integral, pointwise
    for ac in (catenoid_data, enneper_data):
        integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                                 domain=SQUARE, step=0.01)
        U, V = integ.U, integ.V
        ref = ac.w_jet(U, V)
        for part in ("val", "du", "dv", "duu", "duv", "dvv"):
            gap = np.max(np.abs(getattr(integ.w, part) - getattr(ref, part)))
            assert gap <= 1e-8, (ac.name, part, gap)
        ms = check_middle_sphere(envelope(ac.patch, integ.w, U, V))
        assert ms.n_excluded == 0, ac.name
        F = np.asarray(first_integral(integ.state(), ac.constants))
        assert np.max(np.abs(ms.values - F)) <= 1e-12, ac.name
    # sampled values carry no partials
    with pytest.raises(TypeError):
        envelope(catenoid_data.patch, integ.w.val, U, V)


def test_hessian_identities(catenoid_data, enneper_data):
    for ac, tol in ((catenoid_data, 1e-6), (enneper_data, 1e-5)):
        U, V = _square_grid()
        report = check_hessian_identities(ac.patch, ac.w_jet, ac.omega_jet,
                                          ac.constants, U, V)
        assert report.n_compared > 0.9 * 41 * 41, ac.name
        assert report.max_hessian_omega <= tol, ac.name
        assert report.max_hessian_w <= tol, ac.name
        assert report.max_gradient_link <= tol, ac.name


def test_generated_forms(catenoid_data, enneper_data):
    for ac in (catenoid_data, enneper_data):
        U, V = _square_grid()
        report = generated_forms_check(ac.patch, ac.w_jet, ac.omega_jet,
                                       ac.constants, U, V)
        assert report.n_compared > 0, ac.name
        assert report.max_rel_first <= 1e-5, ac.name
        assert report.max_rel_second <= 1e-5, ac.name
        assert report.max_rel_third <= 1e-12, ac.name
        env = envelope(ac.patch, ac.w_jet, U, V)
        hover = hover_ratio_residual(env, ac.omega_jet(U, V).val,
                                     ac.constants)
        assert hover.name == "envelope_hover_ratio"
        assert hover.max_abs <= 1e-5, ac.name
