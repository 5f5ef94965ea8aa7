"""Shape data on demand: each command computes only what it reads."""

import json
import tracemalloc
import warnings
from collections import Counter

import pytest

from ribaucour import cli, ribaucour_core
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


def test_build_computes_no_directions_or_forms(spy, tmp_path):
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
    computed = set(vars(made[0]))
    assert not computed & (CURVATURE_KEYS | DIRECTION_KEYS | FORM_KEYS)
    assert {"X", "N", "mu", "hover_k", "degenerate"} <= computed


def test_integrated_congruence_reads_no_curvatures(spy, tmp_path):
    calls, made = spy
    code = cli.main(["congruence", "--minimal", "catenoid",
                     "--mode", "integrate", "--step", "0.05",
                     "--out", str(tmp_path / "c.obj")])
    assert code == 0
    assert len(made) == 1
    assert calls == Counter(conformal_hessian=1, _eigenvalues=1)
    computed = set(vars(made[0]))
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
    assert sorted(names) == sorted(cli.TOL_DUAL)
    assert len(made) == 2
    assert calls == Counter({name: 2 for name in HELPERS})


def test_integrated_congruence_memory_stays_bounded(capsys):
    # tracemalloc peak of one 201 x 201 run: 22.3 MB when every shape
    # quantity and N's second partials were built eagerly, 17.9 MB on
    # demand, 12.2 MB with the chart scalars, the envelope and its checks
    # evaluated in blocks of rows; the bound sits halfway between the
    # last two
    argv = ["congruence", "--minimal", "catenoid", "--mode", "integrate",
            "--step", "0.01"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= 15.0e6, peak


@pytest.mark.parametrize("argv, code", [
    # a pole on the node 0.25 + 0.25i
    (["build", "--f1", "1/(z-0.25-0.25*i)", "--f2", "z^2+1"], 0),
    (["build", "--f1", "z", "--f2", "z"], 3),
    # a branch point of f1 on the node 0
    (["dual", "--f1", "z^2", "--f2", "z+2"], 0),
])
def test_lazy_reads_raise_no_warnings(argv, code, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main(argv + ["--out", str(tmp_path / "x.obj"),
                               "--report", str(tmp_path / "x.json")])
    assert got == code
    assert capsys.readouterr().err == ""
