"""Shape data on demand: each command computes only what it reads."""

import json
import tracemalloc
import warnings
import weakref
from collections import Counter
from functools import cached_property

import pytest

from ribaucour import cli, congruence, grids, minimal, ribaucour_core
from ribaucour.grids import _row_blocks
from ribaucour.minimal import MinimalChart
from ribaucour.ribaucour_core import SurfaceFields, evaluate_patch, make_patch

# the private helpers behind each group of derived quantities
HELPERS = ("conformal_hessian", "_eigenvalues", "_principal", "_directions",
           "_forms")
# cached quantities that only k1/k2, the directions and the forms need
CURVATURE_KEYS = {"_curvatures", "umbilic"}
DIRECTION_KEYS = {"_dir_pair"}
FORM_KEYS = {"_form_triples"}


@pytest.fixture
def spy(monkeypatch):
    """Counts calls of the private helpers and collects every
    SurfaceFields built while it is on."""
    calls, made = Counter(), []

    def counting(name, real):
        def helper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return helper

    for name in HELPERS:
        monkeypatch.setattr(ribaucour_core, name,
                            counting(name, getattr(ribaucour_core, name)))
    init = SurfaceFields.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(SurfaceFields, "__init__", recording_init)
    return calls, made


@pytest.fixture
def readings(monkeypatch):
    """Counts each derived quantity of a SurfaceFields and each reading
    of a MinimalChart, by (record, name), as it is computed: a blocked
    stage releases them, so what is left on a record says nothing of
    what was computed."""
    computed = Counter()

    def counting(name, real):
        def compute(record):
            computed[record, name] += 1
            return real(record)
        return compute

    for cls in (SurfaceFields, MinimalChart):
        for name, attr in vars(cls).items():
            if isinstance(attr, cached_property):
                monkeypatch.setattr(attr, "func", counting(name, attr.func))
    return computed


def _computed(readings, record) -> set:
    """The names of the readings computed on ``record``."""
    return {name for r, name in readings if r is record}


def test_build_computes_no_directions_or_forms(spy, readings, tmp_path):
    calls, made = spy
    code = cli.main(["build", "--f1", "exp(z)/(1+z^2)",
                     "--f2", "sin(z)*cos(z)/(z+3)",
                     "--domain", "0.1:0.9:0.1:0.9", "--nu", "21", "--nv", "21",
                     "--out", str(tmp_path / "b.obj"),
                     "--report", str(tmp_path / "b.json")])
    assert code == 0
    assert len(made) == 1
    # mu and the operator share one Hessian; valid is read by every
    # check and the mesh, its eigenvalues are computed once
    assert calls == Counter(conformal_hessian=1, _eigenvalues=1)
    computed = _computed(readings, made[0])
    assert not computed & (CURVATURE_KEYS | DIRECTION_KEYS | FORM_KEYS)
    assert {"X", "N", "mu", "hover_k", "degenerate"} <= computed


def test_integrated_congruence_reads_no_curvatures(spy, readings, tmp_path):
    calls, made = spy
    code = cli.main(["congruence", "--minimal", "catenoid",
                     "--mode", "integrate", "--step", "0.05",
                     "--out", str(tmp_path / "c.obj")])
    assert code == 0
    assert len(made) == 1
    assert calls == Counter(conformal_hessian=1, _eigenvalues=1)
    computed = _computed(readings, made[0])
    assert not computed & (CURVATURE_KEYS | DIRECTION_KEYS | FORM_KEYS
                           | {"mu"})
    assert {"X", "N", "hover_k", "degenerate"} <= computed


def test_each_quantity_is_computed_once(spy):
    calls, _ = spy
    fields = evaluate_patch(make_patch("z", "exp(z)"), 9, 9)
    assert not calls
    first = {name: getattr(fields, name)
             for name in ("k1", "dir1", "first", "mu", "umbilic", "X")}
    for name, value in first.items():
        again = getattr(fields, name)
        assert again is value, name
    assert fields.k2 is fields._curvatures[1]
    assert fields.dir2 is fields._dir_pair[1]
    assert fields.third is fields._form_triples[2]
    assert calls == Counter({name: 1 for name in HELPERS})


def test_dual_reports_every_entry(spy, tmp_path):
    calls, made = spy
    rpt = tmp_path / "dual.json"
    code = cli.main(["dual", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "21", "--nv", "21", "--report", str(rpt)])
    assert code == 0
    names = [e["name"] for e in json.loads(rpt.read_text())["identities"]]
    assert names == ["curvature_switch", "direction_switch",
                     "hover_k_equality", "hopf_antisymmetry",
                     "first_form_relation", "second_form_relation",
                     "third_form_relation"]
    assert len(made) == 2
    assert calls == Counter({name: 2 for name in HELPERS})


# pair_deep's pair on its domain
DEEP = ["--f1", "exp(z)/(1+z^2)", "--f2", "sin(z)*cos(z)/(z+3)",
        "--domain", "0.1:0.9:0.1:0.9"]


@pytest.mark.parametrize("command, per_block", [("build", 1), ("dual", 2)])
def test_pair_commands_build_one_record_per_block(command, per_block, spy,
                                                 readings, monkeypatch,
                                                 tmp_path):
    # 21 x 21 in blocks of 4 rows, the last of 1 row: each block gets its
    # own SurfaceFields (two for dual), each helper runs once for each,
    # and no SurfaceFields spans more than one block
    calls, made = spy
    monkeypatch.setattr(grids, "_BLOCK", 100)
    blocks = _row_blocks(21, 21)
    assert len(blocks) == 6
    code = cli.main([command, *DEEP, "--nu", "21", "--nv", "21",
                     "--out", str(tmp_path / "x.obj"),
                     "--report", str(tmp_path / "x.json")])
    assert code == 0
    assert [f.rho_val.shape for f in made] == \
        [(b.stop - b.start, 21) for b in blocks for _ in range(per_block)]
    n = per_block * len(blocks)
    if command == "build":
        assert calls == Counter(conformal_hessian=n, _eigenvalues=n)
        for fields in made:
            assert not _computed(readings, fields) & (
                CURVATURE_KEYS | DIRECTION_KEYS | FORM_KEYS)
    else:
        assert calls == Counter({name: n for name in HELPERS})


@pytest.mark.parametrize("argv", [
    ["build", *DEEP, "--nu", "21", "--nv", "21"],
    ["dual", *DEEP, "--nu", "21", "--nv", "21"],
    ["congruence", "--minimal", "enneper", "--nu", "21", "--nv", "21"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "0.05"],
])
def test_no_block_computes_a_reading_twice(argv, readings, monkeypatch,
                                           tmp_path):
    # in blocks of a few rows, with a mesh and a report written: each
    # record computes each of its readings once at most, although the
    # blocked stages release them after their last reader, and a pair
    # command's fields keep nothing derived past their block
    monkeypatch.setattr(grids, "_BLOCK", 100)
    code = cli.main(argv + ["--out", str(tmp_path / "x.obj"),
                            "--report", str(tmp_path / "x.json")])
    assert code == 0
    kinds = Counter(type(record) for record, _ in readings)
    assert kinds[SurfaceFields] and (kinds[MinimalChart]
                                     or argv[0] != "congruence")
    assert max(readings.values()) == 1, \
        [key for key, n in readings.items() if n > 1]
    if argv[0] != "congruence":
        for record, _ in readings:
            assert set(vars(record)) == {"frame", "rho", "schwarzian"}


@pytest.mark.parametrize("mode, held", [("integrate", 0), ("analytic", 1)])
def test_integrate_records_run_without_the_jet_of_g(mode, held, monkeypatch,
                                                    capsys):
    # every jet of g is watched by weak reference; while an envelope
    # record runs, none is reachable in integrate mode, whose records
    # read phi alone of the chart, while analytic mode holds its block's
    # one jet for the tangents of the gradient link
    monkeypatch.setattr(grids, "_BLOCK", 500)
    jets, alive = [], []
    evaluate = minimal.eval_jet

    def evaluating(expr, z, order):
        jet = evaluate(expr, z, order)
        jets.append(weakref.ref(jet))
        return jet

    def watching(record):
        def run(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in jets))
            return record(*args, **kwargs)
        return run
    monkeypatch.setattr(minimal, "eval_jet", evaluating)
    for name in ("_middle_sphere", "hover_ratio_residual"):
        monkeypatch.setattr(congruence, name,
                            watching(getattr(congruence, name)))
    argv = ["congruence", "--minimal", "catenoid"]
    if mode == "integrate":
        argv += ["--mode", "integrate", "--step", "0.05"]
    assert cli.main(argv) == 0, capsys.readouterr().out
    # 41 x 41 in blocks of 12 rows, two watched records per block
    assert alive == [held] * 2 * len(_row_blocks(41, 41)) == [held] * 8


def _peak(argv, capsys):
    """tracemalloc peak of one command."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    return peak


def _integrate_peak(step, capsys):
    """tracemalloc peak of one catenoid integrate command at ``step``."""
    return _peak(["congruence", "--minimal", "catenoid", "--mode",
                  "integrate", "--step", step], capsys)


def test_integrated_congruence_memory_stays_bounded(capsys):
    # tracemalloc peak of one 201 x 201 run: 22.3 MB when every shape
    # quantity and N's second partials were built eagerly, 17.9 MB on
    # demand, 12.2 MB with the chart scalars, the envelope and its checks
    # evaluated in blocks of rows (9.2 MB after later changes), 8.2 MB
    # with one fill and the node scalars held and W's jet built per
    # block (8.4 MB after later changes), 7.2 MB with the envelope's
    # frame built from an order-2 jet, structural zeros kept scalar and
    # both halves of a march stepped as one (7.0 MB after later changes),
    # 4.8 MB with each residual folded into a summary block by block and
    # each envelope block freed before the next (4.9 MB after later
    # changes), 4.3 MB with no whole-grid node scalars, each march
    # evaluating its own abscissae (4.6 MB after later changes), 3.9 MB
    # with each envelope block's chart dropping its jet of g and every
    # scalar but phi before the records run; the bound is 1.2 times the
    # last
    peak = _integrate_peak("0.01", capsys)
    assert peak <= 4.7e6, peak


def test_benchmark_congruence_memory_stays_bounded(capsys):
    # tracemalloc peak of the benchmark's 401 x 401 run: 41.4 MB with a
    # full-grid kernel-row array per march and a full-grid reference
    # state for the analytic agreement, 23.3 MB (22.9 MB after later
    # changes) with the kernel rows streamed into each march and the
    # agreement taken block by block, 17.2 MB with one fill and the node
    # scalars held, the row march's states compared block by block and
    # W's jet built per block of the envelope, 16.0 MB with the envelope's
    # frame built from an order-2 jet, structural zeros kept scalar and
    # both halves of a march stepped as one (its kernel-row buffer holds
    # both groups' lanes), 11.6 MB with each residual folded into a
    # summary block by block and each envelope block freed before the
    # next (11.5 MB after later changes), 8.0 MB with no whole-grid node
    # scalars, each march evaluating its own abscissae and the envelope
    # pass reading phi off each block's frame (8.5 MB after later
    # changes), 7.9 MB with each envelope block's chart dropping its jet
    # of g and every scalar but phi before the records run; the bound is
    # about 1.2 times the last
    peak = _integrate_peak("0.005", capsys)
    assert peak <= 9.4e6, peak


def test_pair_deep_dual_memory_stays_bounded(capsys):
    # tracemalloc peak of pair_deep's dual at 161 x 161: 26.6 MB with
    # whole-grid fields for the patch and its dual, 12.0 MB with a pair
    # of fields per row block, 10.4 MB with each residual folded into a
    # summary block by block, 7.1 MB with each derived array of a block
    # released after the last check that reads it; the bound sits
    # halfway between the last two
    peak = _peak(["dual", *DEEP, "--nu", "161", "--nv", "161"], capsys)
    assert peak <= 8.8e6, peak


def test_pair_deep_build_memory_stays_bounded(capsys, tmp_path):
    # tracemalloc peak of pair_deep's build --out --report at 161 x 161:
    # 12.4 MB with whole-grid fields, 8.4 MB with fields per row block
    # (8.3 MB after later changes), 7.6 MB with each residual folded into
    # a summary block by block, 6.9 MB with each derived array of a block
    # released after the last check that reads it; the bound sits halfway
    # between the last two
    peak = _peak(["build", *DEEP, "--nu", "161", "--nv", "161",
                  "--out", str(tmp_path / "b.obj"),
                  "--report", str(tmp_path / "b.json")], capsys)
    assert peak <= 7.3e6, peak


@pytest.mark.parametrize("argv, code", [
    # a pole on the node 0.25 + 0.25i
    (["build", "--f1", "1/(z-0.25-0.25*i)", "--f2", "z^2+1"], 0),
    (["build", "--f1", "z", "--f2", "z"], 3),
    # a branch point of f1 on the node 0
    (["dual", "--f1", "z^2", "--f2", "z+2"], 0),
    # far outside the closed forms' domains, where they overflow: the
    # analytic congruence fails its checks
    (["congruence", "--minimal", "catenoid", "--domain=-40:40:-800:800",
      "--nu", "5", "--nv", "5"], 1),
    (["congruence", "--minimal", "enneper", "--domain=-800:800:-40:40",
      "--nu", "5", "--nv", "5"], 1),
    # the marches and the envelope overflow there too
    (["congruence", "--minimal", "catenoid", "--mode", "integrate",
      "--domain=-40:40:-800:800", "--step", "10"], 1),
])
def test_lazy_reads_raise_no_warnings(argv, code, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main(argv + ["--out", str(tmp_path / "x.obj"),
                               "--report", str(tmp_path / "x.json")])
    assert got == code
    assert capsys.readouterr().err == ""
