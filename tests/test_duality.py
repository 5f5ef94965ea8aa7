"""Swapping the two generators: the dual surface and its invariants."""

import numpy as np
import pytest

from _oracles import rel_gap, support_quotient
from ribaucour import duality, holoexpr, ribaucour_core
from ribaucour.duality import (DualPair, evaluate_pair, make_dual, verify_c2,
                               verify_form_relations, verify_hk_equality)
from ribaucour.grids import Domain
from ribaucour.holoexpr import eval_jet
from ribaucour.report import TOLERANCES, identity_entry
from ribaucour.ribaucour_core import evaluate_patch, hopf_residual, make_patch

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def test_dual_swaps_generators():
    patch = make_patch("z", "exp(z)", SQUARE)
    pair = make_dual(patch)
    assert pair.patch is patch
    assert pair.dual.f1 is patch.f2
    assert pair.dual.f2 is patch.f1
    assert pair.dual.domain == patch.domain
    # applying the swap twice restores the original generators
    again = make_dual(pair.dual)
    assert again.dual.f1 is patch.f1
    assert again.dual.f2 is patch.f2


def test_support_functions_are_reciprocal():
    for f1, f2 in (("z", "2*z"), ("z", "exp(z)")):
        pair = make_dual(make_patch(f1, f2, SQUARE))
        _, _, Z = SQUARE.mesh(21, 21)
        fields, dual_fields = evaluate_pair(pair, Z=Z)
        ok = fields.valid & dual_fields.valid
        assert np.count_nonzero(ok) > 0
        prod = fields.rho_val * dual_fields.rho_val
        assert np.max(np.abs(prod[ok] - 1.0)) <= 1e-12, (f1, f2)
        # the dual's support jet by the other route: the quotient of
        # |.|^2 products with the generators swapped (no poles here)
        j1, j2 = (eval_jet(f, Z, 3) for f in (pair.patch.f1, pair.patch.f2))
        ref = support_quotient(j2, j1)
        for part in ("val", "du", "dv", "duu", "duv", "dvv"):
            a, b = getattr(dual_fields.rho, part), getattr(ref, part)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), \
                (f1, f2, part)


def test_curvature_switch_vacuous_on_round_spheres():
    # a sphere has no principal directions to exchange; the check must
    # leave no sample to compare instead of comparing NaNs
    for f1, f2 in (("z", "z"), ("z", "2*z")):
        pair = make_dual(make_patch(f1, f2, SQUARE))
        fields, dual_fields = evaluate_pair(pair, 21, 21)
        assert np.any(fields.valid & dual_fields.valid)
        for res in verify_c2(pair, fields=(fields, dual_fields)):
            assert res.n_valid == 0
            assert res.n_excluded == 21 * 21
            assert np.isnan(res.max_abs)


def test_curvature_switch_on_generic_patch():
    curv, dirs = verify_c2(make_dual(make_patch("z", "exp(z)", SQUARE)))
    assert (curv.name, dirs.name) == ("curvature_switch", "direction_switch")
    for res in (curv, dirs):
        assert res.values.shape == res.valid.shape == (41, 41)
        assert res.n_valid >= 0.5 * 41 * 41
    assert np.array_equal(curv.valid, dirs.valid)
    assert curv.max_abs <= 1e-8
    assert dirs.max_abs <= 1e-6


def test_curvature_values_cross_over():
    # spot-check the switch itself: k1 of the dual equals k1 of the
    # primal (radii negate and swap order, restoring the sorted labels)
    pair = make_dual(make_patch("z", "exp(z)", SQUARE))
    fields, dual_fields = evaluate_pair(pair, 21, 21)
    ok = (fields.valid & dual_fields.valid
          & ~fields.umbilic & ~dual_fields.umbilic)
    assert np.count_nonzero(ok) > 0
    assert np.max(rel_gap(fields.k1[ok], dual_fields.k1[ok])) <= 1e-8
    assert np.max(rel_gap(fields.k2[ok], dual_fields.k2[ok])) <= 1e-8


def test_fundamental_form_relations():
    names = ("first_form_relation", "second_form_relation",
             "third_form_relation")
    tols = (1e-7, 1e-7, 1e-8)
    for f1, f2 in (("z", "2*z"), ("z", "exp(z)")):
        checks = verify_form_relations(make_dual(make_patch(f1, f2, SQUARE)))
        assert tuple(r.name for r in checks) == names
        for res, tol in zip(checks, tols):
            assert res.n_valid >= 0.5 * 41 * 41, (f1, f2, res.name)
            assert res.max_abs <= tol, (f1, f2, res.name)


def test_hk_equality_and_hopf_antisymmetry():
    for f1, f2 in (("z", "2*z"), ("z", "exp(z)")):
        hk, mu = verify_hk_equality(make_dual(make_patch(f1, f2, SQUARE)))
        assert (hk.name, mu.name) == ("hover_k_equality", "hopf_antisymmetry")
        assert hk.n_valid > 0
        assert hk.max_abs <= 1e-8, (f1, f2)
        assert mu.max_abs <= TOLERANCES["hopf_antisymmetry"], (f1, f2)


@pytest.mark.parametrize("f1, f2, domain", [
    ("z", "exp(z)", SQUARE),
    ("z^2", "z+2", Domain(0.3, 1.3, 0.2, 1.2)),
])
def test_hopf_antisymmetry_is_relative(f1, f2, domain):
    # mu* off by a relative 1e-8 fails the entry, although |mu| < 100
    # keeps |mu + mu*| under an absolute 1e-6
    pair = make_dual(make_patch(f1, f2, domain))
    fa, fb = evaluate_pair(pair, 41, 41)
    assert np.max(np.abs(fa.mu[fa.valid])) < 100.0
    fb.mu = fb.mu * (1.0 + 1e-8)
    _, mu = verify_hk_equality(pair, fields=(fa, fb))
    assert mu.max_abs < 1e-6
    entry = identity_entry(mu.name, mu.max_abs,
                           TOLERANCES["hopf_antisymmetry"], mu.n_valid,
                           mu.n_excluded)
    assert not entry["pass"], entry


def test_unrelated_patch_is_not_a_dual():
    # negative control: pair a surface with a patch that is not its
    # dual; the invariant checks must reject it loudly
    wrong = DualPair(make_patch("z", "2*z", SQUARE),
                     make_patch("z", "3*z", SQUARE))
    hk, _ = verify_hk_equality(wrong)
    assert hk.n_valid > 0
    assert hk.max_abs > 1e-2
    third = verify_form_relations(wrong)[2]
    assert third.n_valid > 0
    assert third.max_abs > 1e-2


def test_reports_reuse_precomputed_fields():
    pair = make_dual(make_patch("z", "exp(z)", SQUARE))
    fields = evaluate_pair(pair, 21, 21)
    for a, b in zip(verify_c2(pair, 21, 21, fields=fields),
                    verify_c2(pair, 21, 21)):
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert a.max_abs == b.max_abs


def test_pair_evaluates_each_generator_once(monkeypatch):
    # the dual is the pair swapped: its fields reuse the primal's two jets
    pair = make_dual(make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)",
                                SQUARE))
    reference = (evaluate_patch(pair.patch, 21, 21),
                 evaluate_patch(pair.dual, 21, 21))
    calls = []

    def spy(e, z, order=3):
        calls.append(e)
        return holoexpr.eval_jet(e, z, order)

    for module in (duality, ribaucour_core):
        monkeypatch.setattr(module, "eval_jet", spy)
    fields = evaluate_pair(pair, 21, 21)
    assert calls == [pair.patch.f1, pair.patch.f2]
    for got, want in zip(fields, reference):
        for name in ("X", "N", "k1", "k2", "hover_k", "mu", "degenerate"):
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=name != "degenerate"), name


def test_pair_fields_carry_no_schwarzians():
    # no check of a pair reads S(f1), S(f2): evaluate_pair leaves them
    # unset, and hopf_residual refuses such fields instead of guessing
    pair = make_dual(make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)",
                                SQUARE))
    for fields in evaluate_pair(pair, 9, 9):
        assert fields.schwarzian is None
        with pytest.raises(ValueError):
            hopf_residual(fields)
