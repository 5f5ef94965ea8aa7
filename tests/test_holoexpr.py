"""Expression language: parsing, printing, jet evaluation, and the
symbolic differentiation oracle of the jets."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import differentiate, same_bits
from ribaucour import holoexpr
from ribaucour.holoexpr import (FUNCTIONS, BinOp, Call, Const, EvalError, Neg,
                                ParseError, Pow, Var, eval_jet, parse, to_text)


def _value(e, z):
    """The value of ``e`` at ``z``: its jet of order 0."""
    return eval_jet(e, z, 0).values[0]


W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

# Expression corpus exercising every node kind, nesting, and constant
# format.  All expressions are regular on EVAL_POINTS (poles and branch
# cuts kept at a distance).
CORPUS = [
    "z", "i", "0", "1", "2.5", "1e-3", "-z",
    "z + 1", "z - 1", "2*z", "z/2",
    "z^2", "z^3", "z^-1", "z^-2", "-z^2", "-(z^2)",
    "(z + 1)*(z - 1)", "z*z*z", "z + z + z", "z - z + 1",
    "1/z", "1/(1 + z^2)",
    "(1 + i)*z + 1", "2*z^2 + i", "-i*z", "(2 - 3*i)*z^2",
    "exp(z)", "log(z + 2)", "sin(z)", "cos(z)", "sinh(z)", "cosh(z)",
    "exp(2*z)", "exp(-z)", "exp(z^2)",
    "sin(z)*cos(z)", "sinh(z)*cosh(z)", "sin(z)^2 + cos(z)^2",
    "exp(z)/(1 + exp(z))", "log(2 + sin(z))", "cosh(z - i)",
    "sin(2*z + 1)", "z*exp(z)", "z^2*sin(z)", "(z + i)^3",
    "((z))", "z^2 - 2*z + 1", "3.25*z - 1.5",
    "exp(sin(z))", "cos(sinh(z))", "1 - 1/(z + 3)",
    "(z^2 + 1)/(z^2 + 2)", "0.5*(exp(z) + exp(-z))", "z/(1 + z*z)",
]

EVAL_POINTS = np.array([0.3 + 0.2j, -0.7 + 0.5j, 1.1 - 0.4j,
                        0.2 - 0.9j, -1.3 - 0.6j])

# subset regular on the box [0.3, 1.1] x [0.2, 0.9] used for stencils
FD_POINTS = np.array([0.4 + 0.3j, 0.7 + 0.6j, 1.0 + 0.25j, 0.55 + 0.85j])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_variable():
    assert parse("z") == Var()


def test_parse_precedence_tree():
    expected = BinOp("+", BinOp("*", Const(2.0 + 0j), Pow(Var(), 2)),
                     Const(1j))
    assert parse("2*z^2 + i") == expected
    assert parse("  2 * z ^ 2+i ") == expected


def test_parse_power_binds_tightest():
    # -z^2 reads as (-z)^2 because '-' applies to the atom
    assert parse("-z^2") != parse("-(z^2)")
    assert _value(parse("-z^2"), 3.0) == 9.0
    assert _value(parse("-(z^2)"), 3.0) == -9.0


def test_parse_left_associativity():
    assert _value(parse("8/4/2"), 0.0) == 1.0
    assert _value(parse("8 - 4 - 2"), 0.0) == 2.0


def test_parse_unbalanced_call_offset():
    with pytest.raises(ParseError) as err:
        parse("cosh(z")
    assert err.value.offset == 6


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("w + 1")
    assert err.value.offset == 0
    assert "unknown identifier" in str(err.value)


def test_parse_non_integer_exponent():
    with pytest.raises(ParseError) as err:
        parse("z^2.5")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse("z^z")


def test_parse_negative_integer_exponent():
    assert parse("z^-2") == Pow(Var(), -2)


def test_parse_rejects_overflowing_literal():
    # a literal beyond the float range must not become Const(inf)
    for text, offset in (("1e999*z", 0), ("z + 2e400", 4), ("9" * 400, 0)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset, text
        assert "overflows" in str(err.value)
    assert parse("1e308") == Const(1e308)


def test_parse_trailing_input():
    with pytest.raises(ParseError) as err:
        parse("z)")
    assert err.value.offset == 1


def test_parse_empty_and_truncated():
    for text in ("", "z +", "(z", "exp", "*z"):
        with pytest.raises(ParseError):
            parse(text)


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def test_roundtrip_corpus_evaluates_identically():
    assert len(CORPUS) >= 50
    for text in CORPUS:
        tree = parse(text)
        rebuilt = parse(to_text(tree))
        a = _value(tree, EVAL_POINTS)
        b = _value(rebuilt, EVAL_POINTS)
        assert np.array_equal(a, b), text


def test_roundtrip_printer_fixed_point():
    for text in CORPUS:
        once = to_text(parse(text))
        assert to_text(parse(once)) == once, text


def test_roundtrip_derivative_trees():
    # derivatives introduce synthesized constants; their printed form must
    # re-parse to the same values too
    for text in CORPUS:
        tree = differentiate(parse(text))
        rebuilt = parse(to_text(tree))
        a = _value(tree, EVAL_POINTS)
        b = _value(rebuilt, EVAL_POINTS)
        ok = np.isfinite(a.real) & np.isfinite(a.imag)
        assert np.array_equal(a[ok], b[ok]), text


# Random trees of bounded depth over finite constants.  Negative zeros are
# left out: the grammar has no literal for them, so -0.0 prints as 0.
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: x + 0.0)
_LEAVES = st.one_of(
    st.just(Var()),
    st.builds(lambda re, im: Const(complex(re, im)), _FINITE,
              st.one_of(st.just(0.0), _FINITE)))
TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
    st.builds(Pow, kids, st.integers(-3, 3)),
    st.builds(Neg, kids),
    st.builds(Call, st.sampled_from(FUNCTIONS), kids)), max_leaves=8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(TREES)
@example(Call("log", Const(-2 + 0j)))
def test_roundtrip_random_trees(tree):
    text = to_text(tree)
    rebuilt = parse(text)                       # never raises
    once = to_text(rebuilt)
    assert to_text(parse(once)) == once, text   # one more round is fixed
    a = _value(tree, EVAL_POINTS)
    b = _value(rebuilt, EVAL_POINTS)
    nan_a = np.isnan(a.real) | np.isnan(a.imag)
    assert np.array_equal(nan_a, np.isnan(b.real) | np.isnan(b.imag)), text
    assert np.allclose(a[~nan_a], b[~nan_a], rtol=1e-12, atol=0.0), text


def test_negative_real_constant_keeps_its_branch():
    # the sign of a zero imaginary part picks the branch of log on the
    # negative real axis: ln 2 + pi i for -2 + 0i, ln 2 - pi i for -2 - 0i
    for value in (complex(-2.0, 0.0), complex(-2.0, -0.0)):
        tree = Call("log", Const(value))
        text = to_text(tree)
        assert _value(parse(text), 0.0) == _value(tree, 0.0), text
    assert _value(Call("log", Const(-2 + 0j)), 0.0).imag == np.pi
    # a power rule constant: d/dz z^-2 = -2 z^-3
    d = differentiate(parse("z^-2"))
    assert _value(parse(to_text(d)), 2.0) == _value(d, 2.0) == -0.25
    # user input keeps its meaning: log(-2) is log of -(2 + 0i)
    assert parse("log(-2)") == Call("log", Neg(Const(2 + 0j)))
    assert to_text(parse("log(-2)")) == "log(-2)"
    assert _value(parse("log(-2)"), 0.0).imag == -np.pi


# ---------------------------------------------------------------------------
# the differentiation oracle
# ---------------------------------------------------------------------------

def test_differentiate_power_rule():
    d = differentiate(parse("z^2"))
    assert np.array_equal(_value(d, EVAL_POINTS), 2.0 * EVAL_POINTS)


def test_differentiate_exp_fixed_point():
    d = differentiate(parse("exp(z)"))
    assert np.array_equal(_value(d, EVAL_POINTS),
                          np.exp(EVAL_POINTS))


def test_differentiate_sinh_gives_cosh():
    d = differentiate(parse("sinh(z)"))
    assert np.allclose(_value(d, EVAL_POINTS), np.cosh(EVAL_POINTS),
                       rtol=0, atol=0)


def test_differentiate_quotient_rule():
    e = parse("z/(1 + z^2)")
    d = differentiate(e)
    z = EVAL_POINTS
    expected = (1.0 - z * z) / (1.0 + z * z) ** 2
    got = _value(d, z)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# jet evaluation
# ---------------------------------------------------------------------------

def test_jet_square_at_fixed_point():
    j = eval_jet(parse("z^2"), 1 + 1j, 2)
    assert j.values == (2j, 2 + 2j, 2 + 0j)
    assert j.order == 2


def test_jet_exp_at_origin():
    j = eval_jet(parse("exp(z)"), 0.0, 3)
    assert j.values == (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)


def test_jet_singularity_raises_on_scalar():
    with pytest.raises(EvalError):
        _value(parse("1/z"), 0.0)
    with pytest.raises(EvalError):
        eval_jet(parse("1/z"), 0.0, 0)
    with pytest.raises(EvalError):
        _value(parse("log(z)"), 0.0)


def test_jet_singularity_masked_on_arrays():
    out = _value(parse("1/z"), np.array([0.0 + 0j, 1.0, 2.0]))
    assert not np.isfinite(out[0].real)
    assert out[1] == 1.0 and out[2] == 0.5


def test_jet_order_validation():
    e = parse("z")
    for bad in (-1, 4, 1.5):
        with pytest.raises(ValueError):
            eval_jet(e, 0.0, bad)


def test_jet_derivative_shifts_entries():
    j = eval_jet(parse("sin(z)"), 0.4 + 0.1j, 3)
    dj = j.derivative()
    assert dj.order == 2
    assert dj.values == j.values[1:]
    with pytest.raises(ValueError):
        eval_jet(parse("z"), 0.0, 0).derivative()


def test_jet_entries_match_finite_differences():
    # entry k agrees with a 4th-order central difference of entry k-1,
    # step 1e-3, to relative error 1e-6
    h = 1e-3
    for text in CORPUS:
        e = parse(text)
        for z0 in FD_POINTS:
            zs = z0 + h * np.arange(-2, 3)
            j = eval_jet(e, zs, 3)
            for k in (1, 2, 3):
                fd = (W1 @ j.values[k - 1]) / h
                ref = j.values[k][2]
                # relative to the largest jet entry up to order k, so that
                # identically-vanishing derivatives (whose finite
                # differences are pure rounding noise) are judged against
                # the magnitude of the function they came from
                scale = max(np.max(np.abs(j.values[kk]))
                            for kk in range(k + 1))
                assert abs(fd - ref) <= 1e-6 * max(scale, 1e-30), (text, k)


def test_jet_product_follows_leibniz():
    # jet of a product equals the product rule applied to the factor jets
    rng = np.random.default_rng(7042)
    pairs = rng.choice(len(CORPUS), size=(12, 2))
    for ia, ib in pairs:
        ea, eb = parse(CORPUS[ia]), parse(CORPUS[ib])
        prod = BinOp("*", ea, eb)
        for z0 in FD_POINTS:
            ja = eval_jet(ea, complex(z0), 3).values
            jb = eval_jet(eb, complex(z0), 3).values
            jp = eval_jet(prod, complex(z0), 3).values
            expect = (
                ja[0] * jb[0],
                ja[1] * jb[0] + ja[0] * jb[1],
                ja[2] * jb[0] + 2 * ja[1] * jb[1] + ja[0] * jb[2],
                ja[3] * jb[0] + 3 * ja[2] * jb[1]
                + 3 * ja[1] * jb[2] + ja[0] * jb[3],
            )
            for got, want in zip(jp, expect):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_power_rule_at_zero_base():
    # f^(k)(0) of z^n is n! when k = n and 0 otherwise; the vanishing
    # falling factorials must give exact zeros, not 0 * 0^(n-k) = NaN
    for n in range(5):
        expected = tuple(complex(np.prod(range(1, n + 1)) if k == n else 0)
                         for k in range(4))
        assert eval_jet(parse(f"z^{n}"), 0.0, 3).values == expected, n
    assert eval_jet(parse("z^2"), 0.0, 3).values == (0, 0, 2, 0)
    with pytest.raises(EvalError):
        eval_jet(parse("z^-1"), 0.0, 0)


def _subtrees(e):
    yield e
    for child in vars(e).values():
        if isinstance(child, (Var, Const, BinOp, Pow, Neg, Call)):
            yield from _subtrees(child)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(TREES)
@example(parse("sin(z)*exp(z)/(z^2 + 2)"))
@example(parse("cos(z^2)^3 - log(z + 2)*sinh(z)"))
@example(parse("log(exp(z)/exp(z))"))
# chain arguments with a non-zero f'' and f'''
@example(parse("exp(z^2)"))
@example(parse("sin(z*z + 1)/(z + 2)"))
@example(parse("log(1 + z^3)"))
def test_jet_matches_differentiated_trees(tree):
    # the symbolic derivative is the independent oracle of the Taylor
    # pass: entry k equals the k-times differentiated tree wherever that
    # is finite, within 1e-12 of the largest |entry| up to order k.  Where
    # that largest entry is under 1e-2 of a subtree's, the tree cancels
    # (log(exp(z)/exp(z)) is 0 up to rounding of exp(z)), and the rounding
    # of either route is judged against the subtree's entries instead.
    jet = eval_jet(tree, EVAL_POINTS, 3).values
    subjets = [eval_jet(s, EVAL_POINTS, 3).values for s in _subtrees(tree)]
    oracle = tree
    for k in range(4):
        want = _value(oracle, EVAL_POINTS)
        finite = np.isfinite(want.real) & np.isfinite(want.imag)
        got = jet[k][finite]
        assert np.all(np.isfinite(got.real) & np.isfinite(got.imag)), \
            (to_text(tree), k)
        with np.errstate(invalid="ignore"):
            own = np.max([np.abs(jet[kk]) for kk in range(k + 1)], axis=0)
            sub = np.max([np.abs(sj[kk]) for sj in subjets
                          for kk in range(k + 1)], axis=0)
            scale = np.where(own < 1e-2 * sub, sub, own)[finite]
        ok = np.isfinite(scale)
        gap = np.abs(got - want[finite])[ok]
        assert np.all(gap <= 1e-12 * scale[ok]), (to_text(tree), k)
        if k < 3:
            oracle = differentiate(oracle)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(TREES)
def test_lower_order_jets_are_the_start_of_the_full_jet(tree):
    # entry k of every rule reads the entries up to k alone, so a jet of
    # order k is, bit for bit, the first k + 1 entries of the full jet:
    # the order-2 frames and the real jets rely on this
    full = eval_jet(tree, EVAL_POINTS, holoexpr.MAX_JET_ORDER).values
    for k in range(holoexpr.MAX_JET_ORDER + 1):
        low = eval_jet(tree, EVAL_POINTS, k).values
        assert len(low) == k + 1
        assert all(same_bits(a, b) for a, b in zip(low, full)), \
            (to_text(tree), k)


def _count_trig(monkeypatch) -> Counter:
    """Counts the calls of np.sin, np.cos, np.sinh and np.cosh that the
    jet pass makes."""
    calls = Counter()

    def counting(f):
        def call(x):
            calls[f.__name__] += 1
            return f(x)
        return call

    wrap = {f: counting(f) for f in (np.sin, np.cos, np.sinh, np.cosh)}
    monkeypatch.setattr(holoexpr, "_TRIG", {
        name: (wrap[f], wrap[df], *signs)
        for name, (f, df, *signs) in holoexpr._TRIG.items()})
    return calls


@pytest.mark.parametrize("text, shared, unshared", [
    # one argument: sin and cos (sinh and cosh) of z once each
    ("sin(z)*cos(z)", {"sin": 1, "cos": 1}, {"sin": 2, "cos": 2}),
    ("cosh(z) - sinh(z)*cosh(z)", {"sinh": 1, "cosh": 1},
     {"sinh": 3, "cosh": 3}),
    # z*z and z+1 are two arguments: nothing to share
    ("sin(z*z)*cos(z+1)", {"sin": 2, "cos": 2}, {"sin": 2, "cos": 2}),
])
def test_trig_pairs_of_one_argument_are_evaluated_once(
        text, shared, unshared, monkeypatch):
    tree = parse(text)
    calls = _count_trig(monkeypatch)
    points = (EVAL_POINTS, complex(EVAL_POINTS[0]))

    def jets():
        return [np.array(eval_jet(tree, z, order).values)
                for z in points for order in range(4)]

    def order_three_calls():
        calls.clear()
        eval_jet(tree, EVAL_POINTS, 3)
        return calls

    got = jets()
    assert order_three_calls() == Counter(shared)
    # without the memo, each node evaluates its own f and f'
    monkeypatch.setattr(holoexpr, "_once", lambda memo, f, x: f(x))
    assert order_three_calls() == Counter(unshared)
    for a, b in zip(got, jets()):
        assert same_bits(a, b), text
