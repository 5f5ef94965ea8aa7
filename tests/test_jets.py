"""Real second-order jets: chain-rule arithmetic and holomorphic bridges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import fd_partials_scalar, same_bits
from ribaucour.holoexpr import eval_jet, parse
from ribaucour.jets import RJet2, abs2_jet, im_jet, jet_finite, re_jet

# composite scalar functions assembled from coordinate jets; each is
# smooth on the sample box [0.2, 1.0]^2
COMPOSITES = [
    lambda u, v: u * u + 3.0 * u * v - v * v * v,
    lambda u, v: (u * u + 1.0) / (v * v + 2.0),
    lambda u, v: (u * u + v * v + 0.5).sqrt(),
    lambda u, v: (u * v + 3.0).log(),
    lambda u, v: (0.3 * u - 0.2 * v).exp(),
    lambda u, v: (u * u + 1.0).sqrt() * (0.1 * v).exp() + 2.0 / (u + v + 4.0),
    lambda u, v: ((u + 2.0 * v) ** 3 - u / (v + 2.0)),
]

SAMPLE_POINTS = [(0.3, 0.4), (0.8, 0.25), (0.55, 0.9), (0.2, 0.7)]


def _jet_at(fn, u0, v0) -> RJet2:
    return fn(RJet2(u0, 1, 0, 0, 0, 0), RJet2(v0, 0, 1, 0, 0, 0))


def test_coordinate_jets():
    ju = RJet2(2.0, 1, 0, 0, 0, 0)
    assert (ju.val, ju.du, ju.dv) == (2.0, 1.0, 0.0)
    jv = RJet2(-1.5, 0, 1, 0, 0, 0)
    assert (jv.val, jv.du, jv.dv) == (-1.5, 0.0, 1.0)
    jc = RJet2(4.0, 0, 0, 0, 0, 0)
    assert (jc.val, jc.du, jc.dv, jc.duu, jc.duv, jc.dvv) \
        == (4.0,) + (0.0,) * 5


def test_composite_partials_match_finite_differences():
    for fn in COMPOSITES:
        for u0, v0 in SAMPLE_POINTS:
            j = _jet_at(fn, u0, v0)
            value = lambda u, v: _jet_at(fn, u, v).val
            du, dv, duu, duv, dvv = fd_partials_scalar(value, u0, v0)
            scale = max(1.0, abs(j.val), abs(j.du), abs(j.dv),
                        abs(j.duu), abs(j.duv), abs(j.dvv))
            assert abs(j.du - du) <= 1e-8 * scale
            assert abs(j.dv - dv) <= 1e-8 * scale
            assert abs(j.duu - duu) <= 1e-6 * scale
            assert abs(j.duv - duv) <= 1e-6 * scale
            assert abs(j.dvv - dvv) <= 1e-6 * scale


def test_ring_identities():
    a = _jet_at(COMPOSITES[0], 0.7, 0.3)
    b = _jet_at(COMPOSITES[1], 0.7, 0.3)
    c = _jet_at(COMPOSITES[4], 0.7, 0.3)

    def entries(j):
        return np.array([j.val, j.du, j.dv, j.duu, j.duv, j.dvv])

    lhs = entries((a + b) * c)
    rhs = entries(a * c + b * c)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    quot = entries(a / a)
    assert abs(quot[0] - 1.0) <= 1e-14
    assert np.max(np.abs(quot[1:])) <= 1e-13

    cube = entries(a ** 3)
    ref = entries(a * a * a)
    assert np.max(np.abs(cube - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_scalar_mixed_arithmetic():
    j = _jet_at(COMPOSITES[3], 0.5, 0.5)
    assert (2.0 + j).val == 2.0 + j.val
    assert (2.0 - j).val == 2.0 - j.val
    assert (2.0 - j).du == -j.du
    assert (3.0 * j).duv == 3.0 * j.duv
    recip = 1.0 / j
    prod = recip * j
    assert abs(prod.val - 1.0) <= 1e-14
    assert abs(prod.du) <= 1e-14
    with pytest.raises(TypeError):
        j ** 1.5


def test_analytic_inverses():
    j = _jet_at(COMPOSITES[1], 0.6, 0.8)

    def entries(x):
        return np.array([x.val, x.du, x.dv, x.duu, x.duv, x.dvv])

    back = entries(j.exp().log())
    ref = entries(j)
    assert np.max(np.abs(back - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    sq = entries(j.sqrt() * j.sqrt())
    assert np.max(np.abs(sq - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_array_valued_jets_broadcast():
    U, V = np.meshgrid(np.linspace(0.2, 1.0, 7), np.linspace(0.2, 1.0, 5),
                       indexing="ij")
    j = COMPOSITES[5](RJet2(U, 1, 0, 0, 0, 0), RJet2(V, 0, 1, 0, 0, 0))
    assert j.val.shape == (7, 5)
    single = COMPOSITES[5](RJet2(U[3, 2], 1, 0, 0, 0, 0),
                           RJet2(V[3, 2], 0, 1, 0, 0, 0))
    assert np.isclose(j.val[3, 2], single.val, rtol=0, atol=1e-15)
    assert np.isclose(j.duv[3, 2], single.duv, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# bridges from complex jets
# ---------------------------------------------------------------------------

BRIDGE_EXPRS = ["z^3 - z", "exp(z)", "sin(z)", "exp(z)/(1 + exp(z))",
                "cosh(z - i)"]
BRIDGE_POINTS = [0.4 + 0.3j, -0.6 + 0.7j, 0.9 - 0.5j]


def test_re_im_jets_match_cauchy_riemann_structure():
    for text in BRIDGE_EXPRS:
        e = parse(text)
        for z0 in BRIDGE_POINTS:
            j = eval_jet(e, z0, 3)
            p, q = re_jet(j), im_jet(j)
            f1, f2 = j.values[1], j.values[2]
            assert p.du == f1.real and p.dv == -f1.imag
            assert q.du == f1.imag and q.dv == f1.real
            assert p.duu == f2.real and p.dvv == -f2.real
            assert q.duv == f2.real and p.duv == -f2.imag


def test_bridge_partials_match_finite_differences():
    for text in BRIDGE_EXPRS:
        e = parse(text)
        for z0 in BRIDGE_POINTS:
            for part, pick in ((re_jet, np.real), (im_jet, np.imag)):
                j = part(eval_jet(e, z0, 3))
                value = lambda u, v: float(
                    pick(eval_jet(e, complex(u, v), 0).values[0]))
                du, dv, duu, duv, dvv = fd_partials_scalar(
                    value, z0.real, z0.imag)
                scale = max(1.0, abs(j.val), abs(j.du), abs(j.dv),
                            abs(j.duu), abs(j.duv), abs(j.dvv))
                for got, want in ((j.du, du), (j.dv, dv), (j.duu, duu),
                                  (j.duv, duv), (j.dvv, dvv)):
                    assert abs(got - want) <= 1e-6 * scale, text


def test_abs2_jet_value_and_partials():
    e = parse("z^2*sin(z)")
    z0 = 0.7 + 0.4j
    j = abs2_jet(eval_jet(e, z0, 3))
    f0 = eval_jet(e, z0, 0).values[0]
    assert abs(j.val - abs(f0) ** 2) <= 1e-14 * abs(f0) ** 2
    value = lambda u, v: abs(eval_jet(e, complex(u, v), 0).values[0]) ** 2
    du, dv, duu, duv, dvv = fd_partials_scalar(value, z0.real, z0.imag)
    scale = max(1.0, abs(j.val))
    for got, want in ((j.du, du), (j.dv, dv), (j.duu, duu),
                      (j.duv, duv), (j.dvv, dvv)):
        assert abs(got - want) <= 1e-6 * scale


def test_bridges_require_order_one():
    # an order-0 jet has no partials to give; an order-1 jet gives Re f
    # and Im f to first order, with the bits of the order-2 jet's entries
    for bridge in (re_jet, im_jet, abs2_jet):
        with pytest.raises(ValueError):
            bridge(eval_jet(parse("z"), 0.5, 0))
    z = np.linspace(-1.0, 1.0, 7)[:, None] + 1j * np.linspace(-0.9, 0.9, 5)
    e = parse("exp(z)/(1+z^2)")
    for bridge in (re_jet, im_jet):
        one, two = bridge(eval_jet(e, z, 1)), bridge(eval_jet(e, z, 2))
        assert (one.order, two.order) == (1, 2)
        for part in ("val", "du", "dv"):
            assert same_bits(getattr(one, part), getattr(two, part)), part


def test_abs2_jet_of_order_one_is_the_first_order_part():
    # an order-1 complex jet gives |f|^2 to first order, with the bits of
    # the order-2 jet's entries, and no second partials to read
    z = np.linspace(-1.0, 1.0, 7)[:, None] + 1j * np.linspace(-0.9, 0.9, 5)
    j = eval_jet(parse("exp(z)/(1+z^2)"), z, 2)
    one = abs2_jet(eval_jet(parse("exp(z)/(1+z^2)"), z, 1))
    two = abs2_jet(j)
    assert isinstance(one, RJet2) and one.order == 1
    for part in ("val", "du", "dv"):
        assert same_bits(getattr(one, part), getattr(two, part)), part
    for part in ("duu", "duv", "dvv"):
        with pytest.raises(AttributeError):
            getattr(one, part)
    # the operations a log conformal factor is built with
    lhs = 0.5 * one.log() - (one + 1.0).log() + 0.25
    rhs = 0.5 * two.log() - (two + 1.0).log() + 0.25
    for part in ("val", "du", "dv"):
        assert same_bits(getattr(lhs, part), getattr(rhs, part)), part
    assert same_bits((-one).du, (-two).du)
    assert list(jet_finite(RJet2(np.ones(3), np.array([1.0, np.inf, 1.0]),
                                 0.0))) == [True, False, True]

    # every other operation on order-1 jets, and the binary ones with an
    # operand of each order, give an order-1 jet with the first-order bits
    # of the operation on order-2 jets
    def cases(a, b):
        return ([a - 1.0, 1.0 - a, a * a, 2.0 / a] + _combine(a, b)
                + [a + b, b - a, a * b, b * a, a / b, b / a])
    got = cases(one, one) + cases(one, two)[-6:]
    want = cases(two, two) + cases(two, two)[-6:]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.order == 1, k
        for part in ("val", "du", "dv"):
            assert same_bits(getattr(g, part), getattr(w, part)), (k, part)


def test_jet_finite_masks_bad_entries():
    vals = np.ones(4)
    bad = np.ones(4)
    bad[2] = np.nan
    j = RJet2(vals, bad, vals, vals, vals, vals)
    assert list(jet_finite(j)) == [True, True, False, True]


# ---------------------------------------------------------------------------
# structural zeros
# ---------------------------------------------------------------------------

_PARTS = ("val", "du", "dv", "duu", "duv", "dvv")
_N = 6
_finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_positive = st.floats(0.5, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _jet_pair(draw):
    """One jet with some partials structural zeros (the int 0), and the
    same jet with dense zero arrays in their place; the value is
    positive, so log, sqrt and the reciprocal stay finite."""
    val = draw(hnp.arrays(float, _N, elements=_positive))
    sparse, dense = [val], [val]
    for _ in _PARTS[1:]:
        if draw(st.booleans()):
            sparse.append(0)
            dense.append(np.zeros(_N))
        else:
            x = draw(hnp.arrays(float, _N, elements=_finite))
            sparse.append(x)
            dense.append(x)
    return RJet2(*sparse), RJet2(*dense)


def _combine(a, b):
    """Every operation of RJet2, on bounded finite data."""
    return [a + b, a - b, b - a, a * b, -a, 2.5 * a, a + 1.5, 1.5 - a,
            a / 3.0, a / b, 2.0 / b, a ** 3, b.sqrt(), b.log(),
            (0.5 * a).exp(), (a * b - a) * b.log() + (a + b).sqrt()]


@settings(max_examples=60, deadline=None)
@given(_jet_pair(), _jet_pair())
def test_structural_zeros_match_dense_zero_arrays(p, q):
    # skipping the terms with a structural-zero factor gives the bits of
    # the dense arithmetic on zero arrays; only the sign of an exact zero
    # may differ, since a skipped 0 * x is +-0
    for got, want in zip(_combine(p[0], q[0]), _combine(p[1], q[1])):
        for part in _PARTS:
            g = np.broadcast_to(np.asarray(getattr(got, part), float),
                                (_N,))
            w = getattr(want, part)
            assert np.array_equal(g, w), part
            assert same_bits(g[w != 0], w[w != 0]), part


def test_structural_zeros_stay_scalar():
    # a jet in one coordinate keeps the other coordinate's partials as
    # the int 0, and a grid line as its shape, through arithmetic
    u = RJet2(np.linspace(-1.0, 1.0, 5)[:, None], 1, 0, 0, 0, 0)
    j = (u * u + 1.0).log() * (-u).exp() / (u * u + 2.0)
    for part in ("dv", "duv", "dvv"):
        assert type(getattr(j, part)) is int and getattr(j, part) == 0
    assert np.shape(j.du) == np.shape(j.duu) == (5, 1)
    v = RJet2(np.linspace(-1.0, 1.0, 4)[None, :], 0, 1, 0, 0, 0)
    k = u * v
    assert type(k.duu) is int and type(k.dvv) is int
    assert np.shape(k.val) == (5, 4) and k.duv == 1.0


def test_structural_zero_times_inf_is_zero():
    # the one case that is not the dense bits: a structural zero times a
    # non-finite entry is 0, where a zero array gives NaN
    inf = np.array([np.inf])
    b = RJet2(inf, 1.0, 1.0, 0, 0, 0)
    # dv = 0 * inf + 2 * 1: the first term is skipped
    sparse = RJet2(np.array([2.0]), 1, 0, 0, 0, 0) * b
    assert sparse.dv == 2.0
    with np.errstate(invalid="ignore"):
        dense = RJet2(np.array([2.0]), np.ones(1), np.zeros(1), np.zeros(1),
                      np.zeros(1), np.zeros(1)) * b
    assert np.isnan(dense.dv).all()
