"""Sphere-congruence fields over minimal patches and their envelopes."""

import dataclasses
import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from _oracles import (CLOSED_FORM_TEXTS, U_SYM, V_SYM, assemble_blocks,
                      enneper_omega_published, march_congruence, march_line,
                      quadrature_omega, same_summary, spy_blocks,
                      symbolic_k1)
from _oracles import same_bits as _same_bits
from ribaucour import cli, congruence, grids, minimal
from ribaucour.congruence import (_ANALYTIC, AnalyticCongruence,
                                  CongruenceState, IntegralConstants,
                                  _fill_rows, _kernel_rows,
                                  analytic_example, check_hessian_identities,
                                  envelope, envelope_checks, first_integral,
                                  generated_forms_check, hover_ratio_residual,
                                  integrate_system, system_residuals)
from ribaucour.grids import Domain, _row_blocks
from ribaucour.jets import RJet2
from ribaucour.minimal import MinimalPatch, catenoid_patch, enneper_patch
from ribaucour.report import TOLERANCES
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
    """The plane X = (u, v, 0) in the interface of a minimal patch: its
    chart record has phi = 1, k1 = k2 = 0, and a constant normal whose
    pullback metric vanishes, so every frame sample is flagged as a
    branch point.  Its scale a = k1 phi^2 is 0."""

    a = 0.0

    def chart(self, U, V):
        one = np.ones(np.broadcast_shapes(np.shape(U), np.shape(V)))
        zero = 0.0 * one
        normal = np.stack([zero, zero, one], axis=-1)
        return SimpleNamespace(
            scalars=(one, 0.0 * one, 0.0 * one, 0.0 * one),
            tangents=(np.stack([one, zero, zero], axis=-1),
                      np.stack([zero, one, zero], axis=-1)),
            frame=SphereFrame(normal, 0.0 * normal, 0.0 * normal,
                              RJet2(zero * np.nan, 0, 0, 0, 0, 0),
                              one > 0.0))


def _square_grid(n=41):
    return np.meshgrid(np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, n),
                       indexing="ij")


def _middle_sphere_scale(env):
    """|X|^2 + 2 |(H/K) <X,N>| + 1, the sum of the magnitudes of the
    middle-sphere identity's terms, which its residual is relative to."""
    xn = np.sum(env.X * env.N, axis=-1)
    return (np.sum(env.X * env.X, axis=-1)
            + np.abs(2.0 * env.hover_k * xn) + 1.0)


# ---------------------------------------------------------------------------
# constants and state plumbing
# ---------------------------------------------------------------------------

def test_coupling_constant_must_be_nonzero():
    with pytest.raises(ValueError):
        IntegralConstants(c=0.0)


def test_first_integral_point_value():
    consts = IntegralConstants(c=0.5)
    state = CongruenceState(2.5, 0.0, 0.0, 0.5)
    # 0 + 0 + 0.25 - 2*0.5*2.5*0.5 + 1 = 0
    assert float(first_integral(state, consts)) == 0.0


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------

def _validation(ac):
    """(system residuals, first-integral drift) of closed-form fields on
    the 41^2 grid of [-1, 1]^2."""
    U, V = _square_grid()
    res = system_residuals(ac.patch, ac.w_jet(U, V), ac.omega_jet(U, V), U, V)
    drift = np.max(np.abs(first_integral(ac.state(U, V), ac.constants)))
    return res, float(drift)


def _origin_constant(ac) -> float:
    """c of the first integral (c1 = 1, c2 = c3 = 0) that vanishes at the
    chart origin: (Omega1^2 + Omega2^2 + W^2 + 1) / (2 Omega W) there."""
    om, o1, o2, w = (float(np.asarray(x))
                     for x in ac.state(0.0, 0.0).as_tuple())
    return (o1 * o1 + o2 * o2 + w * w + 1.0) / (2.0 * om * w)


def test_catenoid_fields_validate_as_published(catenoid_data):
    ac = catenoid_data
    assert ac.constants == IntegralConstants(c=0.5)
    assert abs(_origin_constant(ac) - 0.5) <= 1e-12
    st = ac.state(0.0, 0.0)
    vals = [float(np.asarray(x)) for x in st.as_tuple()]
    assert abs(vals[0] - 2.5) <= 1e-12          # Omega
    assert abs(vals[1]) <= 1e-12                # Omega1
    assert abs(vals[2]) <= 1e-12                # Omega2
    assert abs(vals[3] - 0.5) <= 1e-12          # W
    res, drift = _validation(ac)
    assert np.max(list(res.values())) <= 1e-12
    assert drift <= 1e-12


def test_enneper_fields_need_the_quadrature_route(enneper_data):
    ac = enneper_data
    # the published Omega candidate fails the first-order system, with c
    # from the first integral at the origin
    published = dataclasses.replace(ac, omega_jet=enneper_omega_published)
    c = _origin_constant(published)
    assert abs(c - 0.125) <= 1e-12
    res, drift = _validation(dataclasses.replace(
        published, constants=IntegralConstants(c=c)))
    assert max(v for k, v in res.items() if k != "w_v") > 1e-3
    assert drift > 1.0
    # the shipped quadrature correction passes at rounding level
    assert ac.constants == IntegralConstants(c=0.25)
    res, drift = _validation(ac)
    assert np.max(list(res.values())) <= 1e-12
    assert drift <= 1e-12
    assert abs(float(np.asarray(ac.w_jet(0.0, 0.0).val)) - 2.0) <= 1e-12
    assert abs(float(np.asarray(ac.omega_jet(0.0, 0.0).val)) - 5.0) <= 1e-12


def test_analytic_example_is_a_lookup(monkeypatch):
    # the shipped data are not checked at lookup: no grid is evaluated
    calls, real = [], MinimalPatch.chart

    def spy(self, *args, **kwargs):
        calls.append(self.name)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(MinimalPatch, "chart", spy)
    for name in ("catenoid", "enneper"):
        ac = analytic_example(name)
        assert (ac.name, ac.constants) == (name, _ANALYTIC[name][3])
    assert calls == []
    assert [f.name for f in dataclasses.fields(AnalyticCongruence)] == [
        "name", "patch", "constants", "w_jet", "omega_jet"]


@pytest.fixture(scope="module")
def enneper_quadrature():
    """Enneper's Omega and c re-derived from the printed W: exact
    quadrature gives Omega up to a constant Omega(0,0), and the first
    integral, with its value and u-curvature at the origin, fixes c and
    Omega(0,0)."""
    u, v = U_SYM, V_SYM
    patch = enneper_patch()
    w = sp.sympify(CLOSED_FORM_TEXTS["enneper-w"], locals={"u": u, "v": v})
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
    shipped = sp.sympify(CLOSED_FORM_TEXTS["enneper-corrected-omega"],
                         locals={"u": U_SYM, "v": V_SYM})
    assert sp.simplify(shipped - omega) == 0
    assert c == sp.Rational(1, 4)
    assert _ANALYTIC["enneper"][3] == IntegralConstants(c=float(c))


def _with_entry(monkeypatch, name, omega=None, c=None):
    """Replace the shipped Omega and/or c of ``name`` in the table."""
    patch, w, shipped, consts = _ANALYTIC[name]
    monkeypatch.setitem(_ANALYTIC, name, (
        patch, w, omega or shipped,
        consts if c is None else IntegralConstants(c=c)))


@pytest.mark.parametrize("omega, c, argv, entry", [
    pytest.param(None, 0.5, [], "first_integral_drift",
                 id="wrong-c-analytic"),
    pytest.param(None, 0.5, ["--mode", "integrate", "--step", "0.02"],
                 "analytic_agreement", id="wrong-c-integrate"),
    pytest.param(enneper_omega_published, 0.125, [], "congruence_system",
                 id="published-omega"),
])
def test_a_wrong_table_entry_fails_the_report(omega, c, argv, entry,
                                              monkeypatch, tmp_path, capsys):
    # the report judges the shipped closed forms on every run: a wrong
    # Enneper entry fails a named entry and exits 1, with no traceback
    _with_entry(monkeypatch, "enneper", omega, c)
    report = tmp_path / "report.json"
    assert cli.main(["congruence", "--minimal", "enneper", *argv,
                     "--report", str(report)]) == 1
    failed = {e["name"] for e in json.loads(report.read_text())["identities"]
              if not e["pass"]}
    assert entry in failed, failed
    assert "Traceback" not in capsys.readouterr().err


def test_a_nan_system_term_fails_the_report(monkeypatch, tmp_path):
    # the fold over the system's terms keeps a NaN that is not the first
    # term at one sample: the entry reads null and fails
    real = congruence._system_terms

    def last_nan(*args):
        terms = real(*args)
        last = list(terms)[-1]
        bad = np.array(terms[last], dtype=float)
        bad.flat[bad.size // 2] = np.nan
        return {**terms, last: bad}

    monkeypatch.setattr(congruence, "_system_terms", last_nan)
    report = tmp_path / "report.json"
    assert cli.main(["congruence", "--minimal", "catenoid", "--nu", "9",
                     "--nv", "9", "--report", str(report)]) == 1
    by_name = {e["name"]: e
               for e in json.loads(report.read_text())["identities"]}
    assert by_name["congruence_system"]["max_residual"] is None
    assert not by_name["congruence_system"]["pass"]


def _shipped_jets():
    """Every printed closed form beside the jet code it prints."""
    (_, cat_w, cat_omega, _), (_, enn_w, enn_omega, _) = (
        _ANALYTIC["catenoid"], _ANALYTIC["enneper"])
    return {"catenoid-w": cat_w, "catenoid-omega": cat_omega,
            "enneper-w": enn_w, "enneper-omega": enneper_omega_published,
            "enneper-corrected-omega": enn_omega}


@pytest.mark.parametrize("key", list(CLOSED_FORM_TEXTS))
def test_shipped_texts_match_jets(key):
    # every printed closed form and its partials, lambdified, agree with
    # the jet code beside it
    u, v = U_SYM, V_SYM
    expr = sp.sympify(CLOSED_FORM_TEXTS[key], locals={"u": u, "v": v})
    fn = _shipped_jets()[key]
    U, V = _square_grid(21)
    # a chart grid evaluated on its grid lines or on its mesh: the same
    # bits as sample by sample
    jet = fn(U[:, :1], V[:1, :])
    mesh = fn(U, V)
    flat = fn(U.ravel(), V.ravel())
    for part in ("val", "du", "dv", "duu", "duv", "dvv"):
        want = getattr(flat, part).reshape(U.shape)
        assert np.array_equal(want, getattr(jet, part)), part
        assert np.array_equal(want, getattr(mesh, part)), part
    orders = {"val": (), "du": (u,), "dv": (v,), "duu": (u, u),
              "duv": (u, v), "dvv": (v, v)}
    for part, order in orders.items():
        ref = np.broadcast_to(sp.lambdify(
            (u, v), sp.diff(expr, *order) if order else expr,
            modules="numpy")(U, V), U.shape)
        gap = np.max(np.abs(getattr(jet, part) - ref))
        assert gap <= 1e-12 * np.max(np.abs(ref)), (part, gap)


def test_every_shipped_jet_has_its_text():
    shipped = {fn for _, w, omega, _ in _ANALYTIC.values()
               for fn in (w, omega)}
    assert shipped <= set(_shipped_jets().values())
    assert set(_shipped_jets()) == set(CLOSED_FORM_TEXTS)


def test_cli_minimal_choices_are_the_table():
    # the parser lists the built-ins itself, so that parsing imports no
    # congruence code; it must name exactly the table's entries
    (commands,) = [a for a in cli.build_parser()._actions
                   if a.dest == "command"]
    (minimal_arg,) = [a for a in commands.choices["congruence"]._actions
                      if a.dest == "minimal"]
    assert sorted(minimal_arg.choices) == sorted(_ANALYTIC)


def test_unknown_example_name_raises():
    with pytest.raises(KeyError):
        analytic_example("helicoid")


def test_system_rejects_perturbed_fields(catenoid_data):
    ac = catenoid_data
    U, V = _square_grid()
    wj, pert = ac.w_jet(U, V), ac.omega_jet(U, V) * 1.01
    res = system_residuals(ac.patch, wj, pert, U, V)
    assert res["w_u"] > 1e-3
    report = check_hessian_identities(ac.patch, wj, pert, ac.constants, U, V)
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
        for got, ref in zip(integ.state().as_tuple()[:3], fields):
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - ref)) <= 1e-13, ac.name
        # W's jet as the envelope takes it, one block of rows at a time,
        # with the chart scalars of the block's chart record
        for b in _row_blocks(*shape):
            w = integ.w_rows(b, ac.patch.chart(integ.U[b], integ.V[b]).scalars)
            for part in ("val", "du", "dv", "duu", "duv", "dvv"):
                got = getattr(w, part)
                assert got.flags.c_contiguous
                assert np.max(np.abs(got - getattr(w_ref, part)[b])) \
                    <= 1e-13, (ac.name, part)
        assert abs(integ.path_gap - gap) <= 1e-13


def test_row_blocks_cover_the_rows_in_bounded_blocks(monkeypatch):
    # blocks are consecutive, of whole rows, and at most `block` samples
    # unless one row is longer
    block = 128
    monkeypatch.setattr(grids, "_BLOCK", block)
    for n_rows in range(1, 40):
        for row_len in (1, 3, 7, 31, 32, 33, 64, 65, 100, 130, 300):
            blocks = _row_blocks(n_rows, row_len)
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [(b.stop - b.start) * row_len for b in blocks]
            assert max(sizes) <= max(block, row_len)
            # every block but the last is full
            full = max(1, block // row_len) * row_len
            assert all(n == full for n in sizes[:-1])


@pytest.mark.parametrize("patch", [catenoid_patch(), enneper_patch()],
                         ids=lambda p: p.name)
def test_chart_scalars_do_not_depend_on_the_array_size(patch):
    # 300 x 121 = 36,300 samples, above the 16,384 complex samples at
    # which numpy starts to reuse temporaries as outputs: every block of
    # 10 rows gets the bits of the whole-array call
    U, V = np.meshgrid(np.linspace(-1.0, 1.0, 300),
                       np.linspace(-1.0, 1.0, 121), indexing="ij")
    whole = patch.chart(U, V).scalars
    for i in range(0, 300, 10):
        block = patch.chart(U[i:i + 10], V[i:i + 10]).scalars
        for got, want in zip(block, whole):
            assert _same_bits(got, want[i:i + 10]), i


def _direction_rows(patch, consts, along_u, t, fixed):
    """Kernel rows and chart scalars of one direction evaluated at every
    stage abscissa as one array, as a march along that direction alone
    would evaluate them."""
    s = np.linspace(t[0], t[-1], 2 * len(t) - 1)[:, None]
    scalars = (patch.chart(s, fixed[None, :]) if along_u
               else patch.chart(fixed[None, :], s)).scalars
    K = np.empty((s.shape[0], 6, len(fixed)))
    _fill_rows(K, scalars, consts, along_u)
    return K, scalars


def _streamed_rows(monkeypatch, fill, t, i0, lanes):
    """March states along t from node i0 with the kernel rows of
    ``fill``; returns the rows each RK4 stage of each half was given,
    the forward half's stages first, stacked as (stages, 6, lanes), and
    the states at the nodes, shape (len(t), 4, lanes).  Both halves step
    in one loop, as two groups of lanes, the one with more steps leading:
    checks on the way that every stage steps a prefix of the groups,
    that every block of rows holds about ``_BLOCK`` samples per group,
    never 2 len(t) - 1 rows, and that every node's state is handed over
    once."""
    halves = [1, -1] if len(t) - 1 - i0 >= i0 else [-1, 1]
    seen, slope = {1: [], -1: []}, congruence._slope
    bound = max(grids._BLOCK + lanes, 3 * lanes)

    def spy(k, y, out, tmp):
        assert k.base.shape[0] * lanes <= bound
        assert k.shape[1] in (lanes, 2 * lanes)
        for g, d in enumerate(halves[:k.shape[1] // lanes]):
            seen[d].append(k[:, g * lanes:(g + 1) * lanes].copy())
        slope(k, y, out, tmp)
    states, count = np.empty((len(t), 4, lanes)), np.zeros(len(t), int)

    def put(nodes, ys):
        states[nodes] = ys
        count[nodes] += 1
    y0 = np.random.default_rng(3).uniform(-1.0, 1.0, (4, lanes))
    with monkeypatch.context() as m:
        m.setattr(congruence, "_slope", spy)
        congruence._march(fill, t, i0, y0, put)
    assert (count == 1).all()
    return np.array(seen[1] + seen[-1]), states


def _stage_rows(K, i0):
    """The rows of K (one row per stage abscissa) each RK4 stage of a
    march from node i0 takes: forward to the last node, then backward."""
    n = (len(K) + 1) // 2
    steps = [(i, 1) for i in range(i0, n - 1)]
    steps += [(i, -1) for i in range(i0, 0, -1)]
    return np.array([K[2 * i + j * d] for i, d in steps for j in (0, 1, 1, 2)])


@pytest.mark.parametrize("block, nu, nv, domain", [
    # blocks of at most 32 samples on small grids: many blocks, and
    # short last blocks in the 1-lane marches
    (32, 21, 17, (-1.0, 1.0, -1.0, 1.0)),
    (32, 31, 13, (-0.6, 1.0, -1.0, 0.4)),
    # the shipped block size, with whole arrays above 16,384 samples
    (None, 181, 161, (-1.0, 1.0, -1.0, 1.0)),
])
def test_shared_node_scalars_match_per_direction_evaluation(
        monkeypatch, block, nu, nv, domain):
    # the kernel rows are streamed into each march one block at a time,
    # and every march evaluates the chart scalars at its own stage
    # abscissae, nodes and midpoints in one call.  The rows every RK4
    # stage gets are those of an evaluation per direction as one array,
    # bit for bit, whether the march starts at the first node, the last
    # or in between.  At the nodes, both directions' evaluations are the
    # chart scalars that the envelope pass reads off each block's chart
    # record, bit for bit.  The initial row's march of one lane gets the same
    # rows, and its states are those of the march of one lane on Python
    # floats
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK", block)
    consts = IntegralConstants(c=0.5)
    u = np.linspace(domain[0], domain[1], nu)
    v = np.linspace(domain[2], domain[3], nv)
    starts = [(0, 0), (nu - 1, nv - 1), (nu // 3, 2 * nv // 3)]
    for patch in (catenoid_patch(), enneper_patch()):
        cols_ref, by_v = _direction_rows(patch, consts, False, v, u)
        rows_ref, by_u = _direction_rows(patch, consts, True, u, v)
        for b in _row_blocks(nu, nv):
            kept = patch.chart(u[b, None], v[None, :]).scalars
            for x, along_v, along_u in zip(kept, by_v, by_u):
                assert _same_bits(x, along_v[::2].T[b]), patch.name
                assert _same_bits(x, along_u[::2][b]), patch.name
        for iu0, iv0 in starts:
            cols = _kernel_rows(patch, consts, False, v, u)
            got, _ = _streamed_rows(monkeypatch, cols, v, iv0, nu)
            assert _same_bits(got, _stage_rows(cols_ref, iv0)), patch.name
            rows = _kernel_rows(patch, consts, True, u, v)
            got, _ = _streamed_rows(monkeypatch, rows, u, iu0, nv)
            assert _same_bits(got, _stage_rows(rows_ref, iu0)), patch.name
            line = v[iv0:iv0 + 1]
            first = _kernel_rows(patch, consts, True, u, line)
            got, states = _streamed_rows(monkeypatch, first, u, iu0, 1)
            line_ref, _ = _direction_rows(patch, consts, True, u, line)
            assert _same_bits(got, _stage_rows(line_ref, iu0)), patch.name
            y0 = np.random.default_rng(3).uniform(-1.0, 1.0, 4)
            ref = march_line(first, u, iu0, y0.tolist())
            assert _same_bits(states, ref[:, :, None]), patch.name


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("domain, shape", [
    # nu != nv, the initial node off the grid's centre
    ((-0.6, 1.0, -1.0, 0.4), (33, 29)),
    ((-1.0, 1.0, -0.5, 1.5), (25, 41)),
])
def test_joint_march_matches_each_half_alone(monkeypatch, block, domain,
                                             shape):
    # the forward and backward halves of a march step in one loop as two
    # groups of lanes; every lane's states are those of its halves
    # marched alone, bit for bit: the march of one lane on Python floats,
    # forward to the last node, then backward to the first.  Both march
    # directions, and starts at either end, off the centre, and with
    # either half the longer
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK", block)
    consts = IntegralConstants(c=0.5)
    nu, nv = shape
    u = np.linspace(domain[0], domain[1], nu)
    v = np.linspace(domain[2], domain[3], nv)
    rng = np.random.default_rng(11)
    for patch in (catenoid_patch(), enneper_patch()):
        marches = [
            (lambda j: _kernel_rows(patch, consts, False, v, u[j:j + 1]),
             v, nu),
            (lambda j: _kernel_rows(patch, consts, True, u, v[j:j + 1]),
             u, nv)]
        for fill_of, t, lanes in marches:
            n = len(t)
            for i0 in (0, n - 1, n // 4, 3 * n // 4 + 1):
                y0 = rng.uniform(-1.0, 1.0, (4, lanes))
                states = np.full((n, 4, lanes), np.nan)

                def put(nodes, ys):
                    states[nodes] = ys
                whole = (_kernel_rows(patch, consts, False, v, u)
                         if t is v else
                         _kernel_rows(patch, consts, True, u, v))
                congruence._march(whole, t, i0, y0, put)
                ref = np.stack([march_line(fill_of(j), t, i0,
                                           y0[:, j].tolist())
                                for j in range(lanes)], axis=-1)
                assert _same_bits(states, ref), (patch.name, n, i0)


def _integrate_checks(ac, integ):
    """The envelope checks of integrate mode as the command folds them:
    the ``analytic_agreement`` record in front of the envelope's."""
    return envelope_checks(ac.patch, integ.envelope_block(ac), integ.U,
                           integ.V)


_FOLDED = ("path_independence", "first_integral_drift", "analytic_agreement")


@pytest.mark.parametrize("block, domain, step", [
    # 81 x 71 in blocks of 14 rows, the last one short
    (1000, Domain(-0.6, 1.0, -1.0, 0.4), 0.02),
    # the shipped block size on 201 x 201 (arrays above 32,768 samples)
    (None, SQUARE, 0.01),
])
@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_blocked_agreement_matches_the_whole_grid(name, block, domain, step,
                                                  monkeypatch):
    # each entry integrate mode folds block by block, in the row march or
    # in the envelope pass, is the np.max of one whole-grid evaluation,
    # bit for bit, counted on every node
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK", block)
    ac = analytic_example(name)
    integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                             domain=domain, step=step)
    shape, (iu0, _) = integ.U.shape, integ.init_node
    assert len(_row_blocks(*shape)) > 1
    # the row-first fill on the whole grid: the march the checks fold
    # its blocks from, its states kept
    alt = np.empty((shape[0], 4, shape[1]))

    def put(nodes, ys):
        alt[nodes] = ys
    congruence._march(_kernel_rows(ac.patch, ac.constants, True, integ.u,
                                   integ.v),
                      integ.u, iu0, integ.fields[congruence._SWAP, iu0], put)
    F = np.asarray(first_integral(integ.state(), ac.constants))
    whole = {
        "path_independence": max(np.max(np.abs(alt[:, j] - f)) for j, f
                                 in zip(congruence._SWAP, integ.fields)),
        "first_integral_drift": np.max(np.abs(F - F[integ.init_node])),
        "analytic_agreement": max(
            np.max(np.abs(a - b)) for a, b in zip(
                integ.state().as_tuple(),
                ac.state(integ.U, integ.V).as_tuple())),
    }
    folded = {**integ.checks.residuals,
              **_integrate_checks(ac, integ).residuals}
    for entry in _FOLDED:
        summary = folded[entry]
        assert _same_bits(summary.max_abs, float(whole[entry])), entry
        assert (summary.n_valid, summary.n_excluded) == (integ.U.size, 0)
        assert 0.0 < summary.max_abs < 1e-6, entry
    assert _same_bits(integ.path_gap, folded["path_independence"].max_abs)
    assert _same_bits(integ.drift, folded["first_integral_drift"].max_abs)


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_agreement_reads_the_closed_forms_at_first_order(name, monkeypatch):
    # the agreement record evaluates the closed forms at order 1 on the
    # grid lines of its rows; on every block of the command's
    # -0.6:1:-1:0.4 grid its values are those of the order-2 evaluation
    # on the block's samples, bit for bit, counted on every node
    monkeypatch.setattr(grids, "_BLOCK", 1000)
    ac = analytic_example(name)
    integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                             domain=Domain(-0.6, 1.0, -1.0, 0.4), step=0.02)
    orders = []

    def spy(jet):
        def at_order(U, V, order=2):
            orders.append((np.shape(U), np.shape(V), order))
            return jet(U, V, order)
        return at_order
    spied = dataclasses.replace(ac, w_jet=spy(ac.w_jet),
                                omega_jet=spy(ac.omega_jet))
    blocks = _row_blocks(*integ.U.shape)
    assert len(blocks) > 1
    for b in blocks:
        U, V = integ.U[b], integ.V[b]
        orders.clear()
        rec = spied.agreement(integ, b, ac.patch.chart(U, V).scalars[0])
        n = b.stop - b.start
        assert orders == [((n, 1), (1, U.shape[1]), 1)] * 2
        ref = ac.state(U, V)
        want = np.maximum.reduce([np.abs(x[b] - r) for x, r in zip(
            integ.state().as_tuple(), ref.as_tuple())])
        assert _same_bits(rec.values, want), b
        assert rec.valid.all() and rec.name == "analytic_agreement"


# the rows of IntegratedCongruence.fields: (Omega, Omega1, W, Omega2)
@pytest.mark.parametrize("field", [0, 1, 2, 3],
                         ids=["omega", "omega1", "w", "omega2"])
@pytest.mark.parametrize("node", [(0, 0), (30, 17)])
def test_agreement_keeps_a_nan_in_any_field(field, node, monkeypatch,
                                            tmp_path, capsys):
    # a NaN at one node of any field of the column-first fill, in the
    # first block of rows or a later one, makes each entry integrate mode
    # folds read null and fail, and the command exits 1; without it they
    # pass
    monkeypatch.setattr(grids, "_BLOCK", 200)
    arrays, march = congruence._grid_arrays, congruence._march
    fields, marches = [], []

    def grid_arrays(nu, nv):
        f = arrays(nu, nv)
        fields[:], marches[:] = [f], []
        return f

    def marching(fill, t, i0, y0, put):
        march(fill, t, i0, y0, put)
        marches.append(t)
        # once the initial row and the columns have filled the fields
        if poison and len(marches) == 2:
            fields[0][field][node] = np.nan
    monkeypatch.setattr(congruence, "_grid_arrays", grid_arrays)
    monkeypatch.setattr(congruence, "_march", marching)
    report = tmp_path / "report.json"
    for poison, code in ((False, 0), (True, 1)):
        assert cli.main(["congruence", "--minimal", "catenoid", "--mode",
                         "integrate", "--step", "0.05",
                         f"--report={report}"]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert len(marches) == 3
        assert len(_row_blocks(*fields[0].shape[1:])) > 1
        entries = {e["name"]: e for e in
                   json.loads(report.read_text())["identities"]}
        for name in _FOLDED:
            value = entries[name]["max_residual"]
            assert (value is None) == poison, name
            assert entries[name]["pass"] != poison, name
            assert poison or 0.0 < value < 1e-6, name


@pytest.mark.parametrize("block", [None, 1000, 32])
@pytest.mark.parametrize("domain, step, shape", [
    # nu != nv, the initial node off the grid's centre
    (Domain(-0.6, 1.0, -1.0, 0.4), 0.02, (81, 71)),
    # whole-grid arrays above 32,768 samples, where numpy reuses
    # temporaries as outputs
    (SQUARE, 0.01, (201, 201)),
])
def test_w_jet_per_row_block_matches_the_whole_grid(
        catenoid_data, enneper_data, block, domain, step, shape,
        monkeypatch):
    # W's jet is built per block of rows from the fill and the block's
    # chart scalars: every block gets the bits of the whole grid's jet
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK", block)
    for ac in (catenoid_data, enneper_data):
        integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                                 domain=domain, step=step)
        assert integ.U.shape == shape
        whole = integ.w
        blocks = _row_blocks(*shape)
        assert len(blocks) > 1 or block is None
        for b in blocks:
            jet = integ.w_rows(b, ac.patch.chart(integ.U[b],
                                                 integ.V[b]).scalars)
            for part in ("val", "du", "dv", "duu", "duv", "dvv"):
                assert _same_bits(getattr(jet, part),
                                  getattr(whole, part)[b]), (ac.name, part)


def _envelope_case(name, case, monkeypatch):
    """(patch, the block callback, W's whole-grid jet, U, V) of one block
    layout: integrated fields with their agreement and two envelope
    records, or closed forms with every analytic record."""
    ac = analytic_example(name)
    if case == "off-centre":
        # nu != nv, initial node off the grid's centre, several blocks
        monkeypatch.setattr(grids, "_BLOCK", 1000)
        integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                                 domain=Domain(-0.6, 1.0, -1.0, 0.4),
                                 step=0.02)
        assert integ.U.shape == (81, 71) and integ.init_node == (30, 50)
        return (ac.patch, integ.envelope_block(ac), integ.w, integ.U,
                integ.V)
    # 23 rows of 40 in blocks of 12 and 11 rows; 10 x 20 inside one
    # block; rows of 600 samples, one row per block
    block, shape = {"ragged": (500, (23, 40)), "one-block": (500, (10, 20)),
                    "long-rows": (500, (4, 600))}[case]
    monkeypatch.setattr(grids, "_BLOCK", block)
    U, V = np.meshgrid(np.linspace(-0.9, 0.8, shape[0]),
                       np.linspace(-0.7, 0.95, shape[1]), indexing="ij")
    return ac.patch, ac.envelope_block(U[:, 0], V[0]), ac.w_jet(U, V), U, V


_ANALYTIC_ENTRIES = ["congruence_system", "first_integral_drift",
                     "envelope_middle_sphere", "hessian_identity_omega",
                     "hessian_identity_w", "gradient_link", "generated_forms",
                     "envelope_hover_ratio"]


@pytest.mark.parametrize("case", ["ragged", "one-block", "long-rows",
                                  "off-centre"])
@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_envelope_checks_match_the_whole_grid(name, case, monkeypatch):
    patch, block, w, U, V = _envelope_case(name, case, monkeypatch)
    blocks = spy_blocks(monkeypatch)
    checks = envelope_checks(patch, block, U, V, surface=True)
    env = envelope(patch, w, U, V)
    # the block callback on the whole grid builds the whole envelope
    whole_env, refs = block(slice(None), patch.chart(U, V))
    for part in ("val", "du", "dv", "duu", "duv", "dvv"):
        assert _same_bits(getattr(whole_env.rho, part), getattr(w, part))
    assert list(checks.residuals) == [ref.name for ref in refs] == (
        _ANALYTIC_ENTRIES if case != "off-centre"
        else ["analytic_agreement", "envelope_middle_sphere",
              "envelope_hover_ratio"])
    assert _same_bits(checks.X, env.X)
    assert _same_bits(checks.N, env.N)
    assert _same_bits(checks.valid, env.valid)
    assert all(ref.n_valid > 0 for ref in refs)
    # without a mesh to write, nothing but the residuals' summaries
    bare = envelope_checks(patch, block, U, V)
    assert bare.X is None and bare.N is None and bare.valid is None
    for record in (checks, bare):
        # every block's records, put together, are the whole grid's
        whole = assemble_blocks(blocks[record], U.shape)
        for ref in refs:
            assert _same_bits(whole[ref.name].values, ref.values), ref.name
            assert _same_bits(whole[ref.name].valid, ref.valid), ref.name
            assert same_summary(record.residuals[ref.name], ref), ref.name


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_analytic_command_builds_one_chart_record(name, monkeypatch,
                                                  capsys):
    # per analytic congruence command, one chart record is built on the
    # grid, and every check reads its frame, chart scalars and tangents
    calls, real = Counter(), MinimalPatch.chart

    def spy(self, *args, **kwargs):
        calls["chart"] += 1
        return real(self, *args, **kwargs)
    monkeypatch.setattr(MinimalPatch, "chart", spy)
    assert cli.main(["congruence", "--minimal", name]) == 0, \
        capsys.readouterr().out
    assert calls == {"chart": 1}


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_analytic_command_evaluates_one_gauss_map_jet_per_order(
        name, monkeypatch, capsys):
    # on the command's 41 x 41 grid, g's order-2 jet is evaluated once,
    # for the envelope's frame, the chart scalars and the tangents of
    # the gradient link; no jet of -g, and no order-3 jet
    ac = analytic_example(name)
    orders, real = Counter(), minimal.eval_jet

    def spy(expr, z, order):
        assert np.shape(z) == (41, 41)
        orders[order, "g" if expr == ac.patch.g else "other"] += 1
        return real(expr, z, order)
    monkeypatch.setattr(minimal, "eval_jet", spy)
    assert cli.main(["congruence", "--minimal", name]) == 0, \
        capsys.readouterr().out
    assert orders == {(2, "g"): 1}


def test_integrate_command_evaluates_g_once_per_sample(monkeypatch,
                                                      capsys):
    # at step 0.05 on 41 x 41 nodes, g's order-2 jet is evaluated once at
    # every stage abscissa of the three marches (81 of the initial row,
    # 81 x 41 of the columns and of the rows), once per envelope node for
    # its chart record, and once at the chart origin for the initial
    # state; no jet of -g
    ac = analytic_example("catenoid")
    samples, real = Counter(), minimal.eval_jet

    def spy(expr, z, order):
        samples[order, "g" if expr == ac.patch.g else "other"] += np.size(z)
        return real(expr, z, order)
    monkeypatch.setattr(minimal, "eval_jet", spy)
    assert cli.main(["congruence", "--minimal", "catenoid", "--mode",
                     "integrate", "--step", "0.05"]) == 0, \
        capsys.readouterr().out
    assert samples == {(2, "g"): 81 + 2 * 81 * 41 + 41 * 41 + 1}


def test_hessian_identities_read_one_gauss_map_jet(catenoid_data,
                                                  monkeypatch):
    # the whole-grid Hessian check reads the frame, the chart scalars and
    # the tangents off one chart record: one order-2 jet of g
    ac = catenoid_data
    U, V = _square_grid()
    orders, real = Counter(), minimal.eval_jet

    def spy(expr, z, order):
        orders[order, "g" if expr == ac.patch.g else "other"] += 1
        return real(expr, z, order)
    monkeypatch.setattr(minimal, "eval_jet", spy)
    check_hessian_identities(ac.patch, ac.w_jet(U, V), ac.omega_jet(U, V),
                             ac.constants, U, V)
    assert orders == {(2, "g"): 1}


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
    a surface, so the system is not integrable and the two fills part.
    Every march takes the scaled k1 at every stage abscissa from the
    chart record's scalars, the only part a march reads."""

    def __init__(self, patch):
        self.patch = patch
        self.a = patch.a

    def chart(self, U, V):
        phi, pu, pv, k1 = self.patch.chart(U, V).scalars
        return SimpleNamespace(
            scalars=(phi, pu, pv, k1 * (1.0 + 1e-3 * np.asarray(U))))


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
    # the march starts at the chart origin: nodes 0.05 off it, or a
    # domain without it, give an error that names the step and the domain
    ac = catenoid_data
    init = CongruenceState(2.5, 0.0, 0.0, 0.5)
    for domain, text in ((Domain(-0.95, 1.05, -1.0, 1.0), "-0.95:1.05:-1:1"),
                         (Domain(-1.0, 1.0, 0.1, 0.9), "-1:1:0.1:0.9")):
        with pytest.raises(ValueError, match=f"the nodes of step 0.1 on the "
                           f"domain {text} miss the chart origin"):
            integrate_system(ac.patch, init, ac.constants, domain=domain,
                             step=0.1)


@pytest.mark.parametrize("grid", [{"step": 5.0}, {"step": 0.0},
                                  {"step": -0.1}, {"step": float("nan")}])
def test_integration_grid_must_be_valid(catenoid_data, grid):
    # a step must give at least 2 nodes per direction and be finite and
    # positive
    ac = catenoid_data
    init = CongruenceState(2.5, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        integrate_system(ac.patch, init, ac.constants, domain=SQUARE, **grid)


def test_integration_on_flat_patch_is_exactly_constant():
    # a plane has k1 = k2 = 0, so W never changes; starting from W0 = 0
    # also freezes Omega, and every right-hand side is exactly zero
    plane = _FlatPatch()
    w0, om0 = 0.0, 2.0
    consts = IntegralConstants(c=1.0)
    init = CongruenceState(om0, 0.0, 0.0, w0)
    integ = integrate_system(plane, init, consts, step=0.1)
    assert integ.U.shape == (21, 21)
    assert float(np.max(np.abs(integ.omega - om0))) == 0.0
    _, o1, o2, _ = integ.state().as_tuple()
    assert float(np.max(np.abs(o1))) == 0.0
    assert float(np.max(np.abs(o2))) == 0.0
    assert float(np.max(np.abs(integ.w.val - w0))) == 0.0
    for part in (integ.w.du, integ.w.dv, integ.w.duu, integ.w.duv,
                 integ.w.dvv):
        assert float(np.max(np.abs(part))) == 0.0
    assert integ.path_gap == 0.0
    assert integ.drift == 0.0
    # the flat frame is degenerate: the second-order checks must report
    # "nothing comparable" rather than crash or measure a residual
    U, V = _square_grid(21)
    report = check_hessian_identities(plane, RJet2(w0, 0, 0, 0, 0, 0),
                                      RJet2(om0, 0, 0, 0, 0, 0), consts, U, V)
    assert report.n_compared == 0
    assert report.n_excluded == 21 * 21
    assert np.isnan(report.max_hessian_omega)
    assert np.isnan(report.max_hessian_w)
    assert np.isnan(report.max_gradient_link)


# ---------------------------------------------------------------------------
# constant solution and the reduction to the reference gauge
# ---------------------------------------------------------------------------

def test_constant_solution_second_order_structure():
    # W, Omega constant with Omega1 = Omega2 = 0 solves the system on any
    # patch only where the closure equations give c W = 0 and
    # c Omega - W = 0, so W = Omega = 0: every identity is exactly 0 = 0
    patch = catenoid_patch()
    consts = IntegralConstants(c=1.0)
    U, V = _square_grid(21)
    zero = RJet2(U * 0.0, 0, 0, 0, 0, 0)
    assert max(system_residuals(patch, zero, zero, U, V).values()) == 0.0
    hess = check_hessian_identities(patch, zero, zero, consts, U, V)
    assert hess.n_compared > 0
    assert hess.max_hessian_omega == 0.0
    assert hess.max_hessian_w == 0.0
    assert hess.max_gradient_link == 0.0


def _gauge_shift(c, c2, c3):
    """(alpha, beta): W + alpha and Omega + beta solve the reference
    gauge's system where W and Omega solve the one whose first integral
    has the terms c2 W + c3 Omega (``_oracles._rhs_u``)."""
    alpha = -c3 / (2.0 * c)
    return alpha, (alpha - 0.5 * c2) / c


def test_gauge_shift_reduces_any_first_integral_to_the_reference_gauge(
        catenoid_data):
    # the terms c2 W + c3 Omega of a first integral add constants to the
    # closure equations, which a shift of W by alpha and of Omega by beta
    # removes.  Three consequences, each to a few units of rounding:
    ac, eps = catenoid_data, np.finfo(float).eps
    consts = ac.constants
    c2, c3 = 0.25, -0.75
    alpha, beta = _gauge_shift(consts.c, c2, c3)
    # (1) the oracle's march in the gauge (c2, c3) is the package's march
    # of the shifted state, shifted back: both fills agree to 32 units of
    # rounding of each field's magnitude, as the oracle's sums run in
    # another order
    ref = _origin_state(ac)
    om0, o10, o20, w0 = ref.as_tuple()
    for domain in (SQUARE, Domain(-0.6, 1.0, -1.0, 0.4)):
        integ = integrate_system(ac.patch, ref, consts, domain=domain,
                                 step=0.02)
        (om, o1, o2), w_jet, _ = march_congruence(
            ac.patch, CongruenceState(om0 - beta, o10, o20, w0 - alpha),
            consts, integ.U[:, 0], integ.V[0], *integ.init_node,
            gauge=(c2, c3))
        got_om, got_o1, got_o2, _ = integ.state().as_tuple()
        w = integ.w
        for got, want in ((got_om - beta, om), (got_o1, o1), (got_o2, o2),
                          (w.val - alpha, w_jet.val),
                          *((getattr(w, p), getattr(w_jet, p))
                            for p in ("du", "dv", "duu", "duv", "dvv"))):
            bound = 32.0 * eps * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound
    # (2) the envelope moves by alpha N, and H/K by -alpha: only the
    # reference gauge's envelope has its middle spheres cut the unit
    # sphere along great circles
    U, V = _square_grid()
    w = ac.w_jet(U, V)
    env = envelope(ac.patch, w - alpha, U, V)
    shifted = envelope(ac.patch, w, U, V)
    assert np.array_equal(env.valid, shifted.valid) and env.valid.all()
    assert np.max(np.abs(env.X + alpha * env.N - shifted.X)) \
        <= 4.0 * eps * np.max(np.abs(shifted.X))
    assert np.max(np.abs(env.hover_k - alpha - shifted.hover_k)) \
        <= 4.0 * eps * np.max(np.abs(shifted.hover_k))
    assert (check_middle_sphere(shifted).max_abs
            <= TOLERANCES["envelope_middle_sphere"])
    assert check_middle_sphere(env).max_abs > 0.1
    # (3) the constant solution of the gauge c3 = 2 c W0,
    # c2 = 2 (c Omega0 - W0) is the shifted zero solution, exactly; its
    # envelope, the round sphere W0 N, is the zero solution's point X = 0
    # moved by -alpha N, and its middle-sphere residual is the gauge's
    # defect c3 Omega0 + c1 - 1 (c1 making its first integral vanish),
    # relative to the identity's terms
    c, w0, om0 = 1.0, 0.75, 2.0
    c2, c3 = 2.0 * (c * om0 - w0), 2.0 * c * w0
    c1 = -(w0 * w0 - 2.0 * c * om0 * w0 + c2 * w0 + c3 * om0)
    alpha, beta = _gauge_shift(c, c2, c3)
    assert (alpha, beta) == (-w0, -om0)
    zero = integrate_system(ac.patch, CongruenceState(0.0, 0.0, 0.0, 0.0),
                            IntegralConstants(c=c), domain=SQUARE, step=0.1)
    assert not np.any(zero.fields)
    (om, o1, o2), w_jet, _ = march_congruence(
        ac.patch, CongruenceState(om0, 0.0, 0.0, w0), IntegralConstants(c=c),
        zero.U[:, 0], zero.V[0], *zero.init_node, gauge=(c2, c3))
    assert np.array_equal(zero.omega - beta, om)
    assert np.array_equal(zero.w.val - alpha, w_jet.val)
    assert not np.any(o1) and not np.any(o2)
    U, V = _square_grid(21)
    sphere = envelope(ac.patch, RJet2(U * 0.0 + w0, 0, 0, 0, 0, 0), U, V)
    assert np.array_equal(sphere.X, -alpha * sphere.N)
    ms = check_middle_sphere(sphere)
    defect = (c3 * om0 + c1 - 1.0) / _middle_sphere_scale(sphere)
    assert ms.n_valid > 0
    assert np.max(np.abs(ms.values + defect)[ms.valid]) <= 1e-12


def test_middle_sphere_residual_equals_first_integral(catenoid_data):
    # in the reference gauge (c1 = 1, c2 = c3 = 0) the envelope's
    # middle-sphere residual is the first integral itself, pointwise,
    # relative to the identity's terms
    ac = catenoid_data
    U, V = _square_grid()
    env = envelope(ac.patch, ac.w_jet(U, V), U, V)
    ms = check_middle_sphere(env)
    F = np.asarray(first_integral(ac.state(U, V), ac.constants))
    assert ms.n_valid > 0
    assert np.max(np.abs(ms.values - F / _middle_sphere_scale(env))
                  [ms.valid]) <= 1e-12


# ---------------------------------------------------------------------------
# envelopes of the analytic examples
# ---------------------------------------------------------------------------

def test_envelope_middle_spheres_cut_great_circles(catenoid_data,
                                                   enneper_data):
    for ac in (catenoid_data, enneper_data):
        U, V = _square_grid()
        env = envelope(ac.patch, ac.w_jet(U, V), U, V)
        ms = check_middle_sphere(env)
        assert ms.n_valid > 0.9 * 41 * 41, ac.name
        assert ms.max_abs <= TOLERANCES["envelope_middle_sphere"], ac.name
        # chart is curvature-line for the envelope too
        assert float(np.nanmax(np.abs(env.second[1]))) <= 1e-6, ac.name


def test_envelope_radius_ratio(catenoid_data):
    ac = catenoid_data
    U, V = _square_grid()
    env = envelope(ac.patch, ac.w_jet(U, V), U, V)
    om = np.asarray(ac.omega_jet(U, V).val, dtype=float)
    target = -ac.constants.c * om
    ok = env.valid
    gap = np.abs(env.hover_k - target) / np.maximum(1.0, np.abs(target))
    assert np.max(gap[ok]) <= 1e-6


def test_envelope_of_integrated_fields(catenoid_data, enneper_data):
    # the integrator hands over W as an exact jet: it matches the closed
    # form to integration accuracy, the envelope masks no node, and the
    # middle-sphere residual is the first integral, pointwise, relative
    # to the identity's terms
    for ac in (catenoid_data, enneper_data):
        integ = integrate_system(ac.patch, _origin_state(ac), ac.constants,
                                 domain=SQUARE, step=0.01)
        U, V = integ.U, integ.V
        ref = ac.w_jet(U, V)
        for part in ("val", "du", "dv", "duu", "duv", "dvv"):
            gap = np.max(np.abs(getattr(integ.w, part) - getattr(ref, part)))
            assert gap <= 1e-8, (ac.name, part, gap)
        env = envelope(ac.patch, integ.w, U, V)
        ms = check_middle_sphere(env)
        assert ms.n_excluded == 0, ac.name
        F = np.asarray(first_integral(integ.state(), ac.constants))
        assert np.max(np.abs(ms.values - F / _middle_sphere_scale(env))) \
            <= 1e-12, ac.name
    # sampled values carry no partials, a closed form is evaluated on the
    # grid first, and a first-order jet has no second partials
    wj = integ.w
    for w in (wj.val, catenoid_data.w_jet, RJet2(wj.val, wj.du, wj.dv)):
        with pytest.raises(TypeError):
            envelope(catenoid_data.patch, w, U, V)


def test_hessian_identities(catenoid_data, enneper_data):
    for ac, tol in ((catenoid_data, 1e-6), (enneper_data, 1e-5)):
        U, V = _square_grid()
        report = check_hessian_identities(ac.patch, ac.w_jet(U, V),
                                          ac.omega_jet(U, V), ac.constants,
                                          U, V)
        assert report.n_compared > 0.9 * 41 * 41, ac.name
        assert report.max_hessian_omega <= tol, ac.name
        assert report.max_hessian_w <= tol, ac.name
        assert report.max_gradient_link <= tol, ac.name


def test_generated_forms(catenoid_data, enneper_data):
    for ac in (catenoid_data, enneper_data):
        U, V = _square_grid()
        wj, oj = ac.w_jet(U, V), ac.omega_jet(U, V)
        report = generated_forms_check(ac.patch, wj, oj, ac.constants, U, V)
        assert report.n_compared > 0, ac.name
        assert report.max_rel_first <= 1e-5, ac.name
        assert report.max_rel_second <= 1e-5, ac.name
        assert report.max_rel_third <= 1e-12, ac.name
        env = envelope(ac.patch, wj, U, V)
        hover = hover_ratio_residual(env, oj.val, ac.constants)
        assert hover.name == "envelope_hover_ratio"
        assert hover.max_abs <= 1e-5, ac.name


def test_a_nan_hover_ratio_is_excluded(catenoid_data):
    # a NaN H/K on a valid envelope sample gives a NaN relative gap, and
    # the record excludes that sample rather than count it as a valid 0
    ac = catenoid_data
    U, V = _square_grid(9)
    env = envelope(ac.patch, ac.w_jet(U, V), U, V)
    om = ac.omega_jet(U, V).val
    base = hover_ratio_residual(env, om, ac.constants)
    assert env.valid[4, 4] and base.valid[4, 4]
    hover = env.hover_k.copy()
    hover[4, 4] = np.nan
    env.hover_k = hover
    rec = hover_ratio_residual(env, om, ac.constants)
    assert np.isnan(rec.values[4, 4]) and not rec.valid[4, 4]
    assert rec.n_excluded == base.n_excluded + 1
    assert 0.0 < rec.max_abs <= base.max_abs


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_whole_grid_summaries_match_the_analytic_records(name):
    # the summaries kept for whole-grid callers give the maxima and
    # counts of the records the command folds
    ac = analytic_example(name)
    U, V = _square_grid()
    wj, oj = ac.w_jet(U, V), ac.omega_jet(U, V)
    env = envelope(ac.patch, wj, U, V)
    _, records = ac.envelope_block(U[:, 0], V[0])(slice(None),
                                                  ac.patch.chart(U, V))
    rec = {r.name: r for r in records}
    hess = check_hessian_identities(ac.patch, wj, oj, ac.constants, U, V)
    forms = generated_forms_check(ac.patch, wj, oj, ac.constants, U, V,
                                  env=env)
    for entry, value in (("hessian_identity_omega", hess.max_hessian_omega),
                         ("hessian_identity_w", hess.max_hessian_w),
                         ("gradient_link", hess.max_gradient_link)):
        assert _same_bits(rec[entry].max_abs, value), entry
        assert (rec[entry].n_valid, rec[entry].n_excluded) \
            == (hess.n_compared, hess.n_excluded), entry
    assert _same_bits(rec["generated_forms"].max_abs,
                      max(forms.max_rel_first, forms.max_rel_second,
                          forms.max_rel_third))
    assert (rec["generated_forms"].n_valid,
            rec["generated_forms"].n_excluded) \
        == (forms.n_compared, forms.n_excluded)
    assert _same_bits(rec["congruence_system"].max_abs, max(
        system_residuals(ac.patch, wj, oj, U, V).values()))
    assert rec["congruence_system"].n_excluded == 0
