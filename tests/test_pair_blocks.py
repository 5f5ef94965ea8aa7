"""The pair commands in row blocks: every block's records, put together,
hold the values of the whole-grid evaluation, bit for bit, each summary
folded from them is the whole-grid record's, and the commands write the
same bytes whatever the block size."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import assemble_blocks, same_bits, same_summary, spy_blocks
from ribaucour import cli, grids
from ribaucour.cli import TOL_DUAL
from ribaucour.duality import (evaluate_pair, make_dual, pair_checks,
                               verify_c2, verify_form_relations,
                               verify_hk_equality)
from ribaucour.grids import Domain, _row_blocks
from ribaucour.ribaucour_core import (CheckSummary, GridChecks, ResidualField,
                                      check_middle_sphere, evaluate_patch,
                                      hopf_residual, make_patch,
                                      patch_checks, support_pde_residual,
                                      unit_sphere_gap)

# (block, nu, nv, blocks): 23 rows of 40 in blocks of 12 and 11 rows;
# 10 x 20 inside one block; rows of 600 samples, one row per block; the
# shipped block size on 161 x 161, above the 16,384 complex samples at
# which numpy starts to reuse temporaries as outputs
CASES = {"ragged": (500, 23, 40, 2), "one-block": (500, 10, 20, 1),
         "long-rows": (500, 4, 600, 4), "shipped": (None, 161, 161, 4)}

PAIRS = [
    ("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)", "0.1:0.9:0.1:0.9"),
    # a pole of f1 inside the chart
    ("1/(z-0.5-0.5*i)", "z^2+1", "-1:1:-1:1"),
    # a branch point of f1 on the node 0 of the odd grids
    ("z^2", "z+2", "-1:1:-1:1"),
]


def _patch(case, pair, monkeypatch):
    """(patch, nu, nv) of one block layout."""
    block, nu, nv, n_blocks = CASES[case]
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK", block)
    assert len(_row_blocks(nu, nv)) == n_blocks
    f1, f2, domain = pair
    return make_patch(f1, f2, Domain.parse(domain)), nu, nv


def _assert_same(got, blocks, refs, shape):
    """The blocks ``got`` was given hold the records ``refs`` sample by
    sample, and its summaries are theirs."""
    assert list(got.residuals) == [ref.name for ref in refs]
    whole = assemble_blocks(blocks[got], shape)
    assert list(whole) == list(got.residuals)
    for ref in refs:
        res = whole[ref.name]
        assert same_bits(res.values, ref.values), ref.name
        assert same_bits(res.valid, ref.valid), ref.name
        assert same_summary(got.residuals[ref.name], ref), ref.name


def _assert_surface(got, fields):
    assert same_bits(got.X, fields.X)
    assert same_bits(got.N, fields.N)
    assert same_bits(got.valid, fields.valid)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[0])
@pytest.mark.parametrize("case", list(CASES))
def test_patch_checks_match_the_whole_grid(case, pair, monkeypatch):
    patch, nu, nv = _patch(case, pair, monkeypatch)
    blocks = spy_blocks(monkeypatch)
    got = patch_checks(patch, nu, nv, surface=True)
    fields = evaluate_patch(patch, nu, nv)
    refs = (support_pde_residual(fields), check_middle_sphere(fields),
            hopf_residual(fields))
    _assert_same(got, blocks, refs, (nu, nv))
    _assert_surface(got, fields)
    assert got.usable
    assert same_bits(got.unit_sphere_gap, unit_sphere_gap(fields))
    # without a mesh to write, nothing but the checks is assembled; the
    # export asks for the surface alone
    bare = patch_checks(patch, nu, nv)
    assert bare.X is None and bare.N is None and bare.valid is None
    _assert_same(bare, blocks, refs, (nu, nv))
    surface = patch_checks(patch, nu, nv, checks=False, surface=True)
    assert not surface.residuals and not surface.usable
    _assert_surface(surface, fields)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[0])
@pytest.mark.parametrize("case", list(CASES))
def test_pair_checks_match_the_whole_grid(case, pair, monkeypatch):
    patch, nu, nv = _patch(case, pair, monkeypatch)
    dual_pair = make_dual(patch)
    blocks = spy_blocks(monkeypatch)
    got, dual = pair_checks(dual_pair, nu, nv, surface=True)
    fields = fa, fb = evaluate_pair(dual_pair, nu, nv)
    refs = (*verify_c2(dual_pair, fields=fields),
            *verify_hk_equality(dual_pair, fields=fields),
            *verify_form_relations(dual_pair, fields=fields))
    assert list(got.residuals) == list(TOL_DUAL)
    _assert_same(got, blocks, refs, (nu, nv))
    _assert_surface(got, fa)
    _assert_surface(dual, fb)
    assert not dual.residuals
    assert got.usable
    assert same_bits(got.unit_sphere_gap, unit_sphere_gap(fa))
    bare, none = pair_checks(dual_pair, nu, nv)
    assert none is None and bare.X is None
    _assert_same(bare, blocks, refs, (nu, nv))


def test_blocks_without_a_usable_sample():
    # f1 constant: every sample is a branch point, in every block
    patch = make_patch("1", "z")
    got = patch_checks(patch, 9, 9)
    assert not got.usable and np.isnan(got.unit_sphere_gap)
    assert all(res.n_valid == 0 for res in got.residuals.values())
    got, _ = pair_checks(make_dual(patch), 9, 9)
    assert not got.usable and np.isnan(got.unit_sphere_gap)


# exp(e^u) overflows from u = 5.7 on, so the rows of the chart's second
# half have no valid sample
OVERFLOW = ("exp(exp(z))", "z", "0:14:-0.3:0.3")


# the ragged layout's second block and the long rows' last two have no
# valid sample.  The shipped layout is left out: there some excluded
# samples' residual is a NaN of the other sign than in the whole-grid
# evaluation, whose longer arrays take other numpy loops.
@pytest.mark.parametrize("case", ["ragged", "long-rows"])
def test_blocks_without_a_valid_sample_fold_like_the_whole_grid(
        case, monkeypatch):
    patch, nu, nv = _patch(case, OVERFLOW, monkeypatch)
    dual_pair = make_dual(patch)
    blocks = spy_blocks(monkeypatch)
    got = patch_checks(patch, nu, nv)
    got_pair, _ = pair_checks(dual_pair, nu, nv)
    fields = evaluate_patch(patch, nu, nv)
    _assert_same(got, blocks, (support_pde_residual(fields),
                               check_middle_sphere(fields),
                               hopf_residual(fields)), (nu, nv))
    fields = evaluate_pair(dual_pair, nu, nv)
    _assert_same(got_pair, blocks,
                 (*verify_c2(dual_pair, fields=fields),
                  *verify_hk_equality(dual_pair, fields=fields),
                  *verify_form_relations(dual_pair, fields=fields)), (nu, nv))
    for record in (got, got_pair):
        n_valid = [res.n_valid for _, records in blocks[record]
                   for res in records]
        assert 0 in n_valid and max(n_valid) > 0


def _fold(values, valid, rows_per_block):
    """The summary a GridChecks folds from ``values`` and ``valid`` put
    in blocks of ``rows_per_block`` rows, and the whole-grid record."""
    got = GridChecks(values.shape)
    for i in range(0, len(values), rows_per_block):
        rows = slice(i, i + rows_per_block)
        got.put(rows, (ResidualField(values[rows], valid[rows], "r"),))
    return got.residuals["r"], ResidualField(values, valid, "r")


# 8 x 3 samples in blocks of 2 rows, of which the first and the third
# have no valid sample; True marks a valid sample
VALID = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 1], [0, 1, 0],
                  [0, 0, 0], [0, 0, 0], [0, 1, 0], [1, 0, 1]], bool)
# a NaN in the first block with valid samples (np.fmax would drop it), in
# the last (Python's max would), or only at excluded samples
NAN_AT = {"no-nan": (), "nan-first": ((2, 0),), "nan-last": ((7, 2),),
          "nan-excluded": ((0, 1), (4, 2), (7, 1))}


@pytest.mark.parametrize("nan_at", list(NAN_AT))
@pytest.mark.parametrize("valid", [VALID, np.zeros((8, 3), bool)],
                         ids=["some-blocks-empty", "none-valid"])
def test_summaries_fold_blocks_like_the_whole_grid(valid, nan_at):
    values = -np.arange(24.0).reshape(8, 3)
    for at in NAN_AT[nan_at]:
        values[at] = np.nan
    summary, whole = _fold(values, valid, 2)
    assert same_summary(summary, whole)
    assert summary.n_valid == np.count_nonzero(valid)
    assert summary.n_excluded == 24 - summary.n_valid
    expect_nan = not valid.any() or any(valid[at] for at in NAN_AT[nan_at])
    assert np.isnan(summary.max_abs) == expect_nan
    if not expect_nan:
        assert summary.max_abs == 23.0


# one block each: some samples excluded, a NaN among them; every sample
# valid, a NaN among them; no sample valid
FOLD_BLOCKS = {
    "mixed": ([[-3.0, np.nan, 2.0], [7.0, -9.0, 1.0]],
              [[1, 0, 1], [0, 1, 1]]),
    "all-valid-nan": ([[-3.0, 5.0, 2.0], [np.nan, -1.0, 4.0]],
                      [[1, 1, 1], [1, 1, 1]]),
    "all-excluded": ([[-30.0, np.nan, 2.0], [8.0, -1.0, 4.0]],
                     [[0, 0, 0], [0, 0, 0]]),
}


@pytest.mark.parametrize("before", [None, "mixed", "all-excluded"])
@pytest.mark.parametrize("block", list(FOLD_BLOCKS))
def test_fold_counts_each_mask_once(block, before, monkeypatch):
    # a fold counts the block's valid mask once, reads an all-valid block
    # without indexing it through its mask, and still lets a NaN win: the
    # summary is np.max(np.abs(values[valid])) of the blocks put together,
    # bit for bit, with their counts
    counted, count = [], np.count_nonzero

    def spy(*args, **kwargs):
        counted.append(1)
        return count(*args, **kwargs)
    names = [b for b in (before, block) if b is not None]
    values = np.concatenate([np.array(FOLD_BLOCKS[b][0]) for b in names])
    valid = np.concatenate([np.array(FOLD_BLOCKS[b][1], bool)
                            for b in names])
    got = CheckSummary("r")
    monkeypatch.setattr(np, "count_nonzero", spy)
    for i in range(len(names)):
        rows = slice(2 * i, 2 * i + 2)
        got.fold(ResidualField(values[rows], valid[rows], "r"))
    monkeypatch.undo()
    assert len(counted) == len(names)
    n = int(np.count_nonzero(valid))
    assert (got.n_valid, got.n_excluded) == (n, valid.size - n)
    want = np.max(np.abs(values[valid])) if n else np.nan
    assert same_bits(got.max_abs, float(want))
    assert np.isnan(got.max_abs) == ("nan" in block or not n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(hnp.arrays(float, st.tuples(st.integers(1, 7), st.integers(1, 4)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)),
       st.data())
def test_summaries_fold_any_blocks_like_the_whole_grid(values, data):
    valid = data.draw(hnp.arrays(bool, values.shape))
    rows_per_block = data.draw(st.integers(1, len(values)))
    summary, whole = _fold(values, valid, rows_per_block)
    assert same_summary(summary, whole)
    # the whole-grid record reads one fold of itself: the masked maximum,
    # a NaN kept, and the mask's counts
    n = int(np.count_nonzero(valid))
    want = np.max(np.abs(values[valid])) if n else np.nan
    assert same_bits(whole.max_abs, float(want))
    assert (whole.n_valid, whole.n_excluded) == (n, valid.size - n)


DEEP = ["--f1", "exp(z)/(1+z^2)", "--f2", "sin(z)*cos(z)/(z+3)",
        "--domain", "0.1:0.9:0.1:0.9", "--nu", "31", "--nv", "29"]


@pytest.mark.parametrize("argv, files", [
    (["build", *DEEP, "--out", "x.obj", "--report", "x.json"],
     ("x.obj", "x.json")),
    (["dual", *DEEP, "--out", "x.obj", "--report", "x.json"],
     ("x.obj", "x_dual.obj", "x.json")),
    (["export", *DEEP, "--out", "x.obj"], ("x.obj",)),
    (["dual", "--f1", "z^2", "--f2", "z+2", "--nu", "21", "--nv", "21",
      "--out", "x.obj", "--report", "x.json"],
     ("x.obj", "x_dual.obj", "x.json")),
], ids=["build", "dual", "export", "dual-branch-point"])
def test_commands_write_the_same_bytes_in_any_block_size(
        argv, files, monkeypatch, tmp_path, capsys):
    # blocks of 10 samples hold less than one row; blocks of 10^9 hold
    # the whole grid
    monkeypatch.chdir(tmp_path)
    runs = []
    for block in (10, 10 ** 9):
        monkeypatch.setattr(grids, "_BLOCK", block)
        code = cli.main(argv)
        runs.append((code, capsys.readouterr(),
                     [(tmp_path / name).read_bytes() for name in files]))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]
