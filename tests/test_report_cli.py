"""JSON verification reports and the command-line entry points."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ribaucour import (cli, congruence, duality, holoexpr, minimal,
                       ribaucour_core)
from ribaucour.grids import Domain
from ribaucour.report import (SCHEMA, TOLERANCES, identity_entry,
                              make_report,
                              report_exit_code, write_report)


# ---------------------------------------------------------------------------
# report entries
# ---------------------------------------------------------------------------

def test_identity_entry_pass_and_fail():
    good = identity_entry("check", 1e-10, 1e-8, 100, 0)
    assert good["pass"]
    assert good["comparable_fraction"] == 1.0
    bad = identity_entry("check", 1e-6, 1e-8, 100, 0)
    assert not bad["pass"]


def test_identity_entry_needs_majority_coverage():
    sparse = identity_entry("check", 1e-10, 1e-8, 10, 91)
    assert not sparse["pass"]
    exact_half = identity_entry("check", 1e-10, 1e-8, 50, 50)
    assert exact_half["pass"]
    empty = identity_entry("check", float("nan"), 1e-8, 0, 100)
    assert not empty["pass"]
    assert empty["max_residual"] is None


def test_identity_entry_vacuous_passes_without_samples():
    e = identity_entry("directions", float("nan"), 1e-6, 0, 400,
                       vacuous=True, note="nothing to switch")
    assert e["pass"]
    assert e["vacuous"]
    assert e["note"] == "nothing to switch"


def test_report_exit_codes():
    ok = make_report("build", {}, [identity_entry("a", 0.0, 1e-8, 1, 0)])
    assert report_exit_code(ok) == 0
    fail = make_report("build", {}, [identity_entry("a", 1.0, 1e-8, 1, 0)])
    assert report_exit_code(fail) == 1
    degen = make_report("build", {}, [], all_degenerate=True)
    assert report_exit_code(degen) == 3
    sphere = make_report("build", {}, [identity_entry("a", 0.0, 1e-8, 1, 0)],
                         unit_sphere=True)
    assert report_exit_code(sphere) == 3


def test_write_report_is_strict_json_and_deterministic(tmp_path):
    report = make_report("build", {"x": np.float64(1.5)},
                         [identity_entry("a", float("inf"), 1e-8, 1, 0)],
                         extra={"gap": float("nan"), "n": np.int64(3)})
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["schema"] == SCHEMA
    assert data["identities"][0]["max_residual"] is None
    assert data["details"]["gap"] is None
    assert data["details"]["n"] == 3
    assert data["inputs"]["x"] == 1.5


# ---------------------------------------------------------------------------
# build / dual commands
# ---------------------------------------------------------------------------

def test_build_passes_for_generic_pair(tmp_path, capsys):
    rpt = tmp_path / "build.json"
    code = cli.main(["build", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "41", "--nv", "41", "--report", str(rpt)])
    assert code == 0
    data = json.loads(rpt.read_text())
    assert data["schema"] == SCHEMA
    assert data["summary"]["passed"]
    names = {e["name"] for e in data["identities"]}
    assert {"support_pde", "middle_sphere", "hopf_holomorphy"} <= names
    assert all(e["pass"] for e in data["identities"])
    out = capsys.readouterr().out
    assert "build: PASS (exit 0)" in out


def test_build_checks_scale_with_the_surface(capsys):
    # |X|^2 reaches about 2.6e12: the support and middle-sphere residuals
    # are judged relative to their terms, so rounding alone passes
    code = cli.main(["build", "--f1", "z", "--f2", "exp(exp(exp(z)))"])
    assert code == 0, capsys.readouterr().out


def test_build_flags_the_unit_sphere_configuration(tmp_path):
    rpt = tmp_path / "sphere.json"
    code = cli.main(["build", "--f1", "z", "--f2", "z",
                     "--nu", "21", "--nv", "21", "--report", str(rpt)])
    assert code == 3
    data = json.loads(rpt.read_text())
    assert data["summary"]["unit_sphere"]


def test_build_flags_fully_degenerate_input(capsys):
    code = cli.main(["build", "--f1", "z", "--f2", "3",
                     "--nu", "11", "--nv", "11"])
    assert code == 3
    assert "DEGENERATE" in capsys.readouterr().out


def test_build_rejects_bad_expression(capsys):
    code = cli.main(["build", "--f1", "z(", "--f2", "z"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_build_rejects_empty_domain(capsys):
    code = cli.main(["build", "--f1", "z", "--f2", "2*z",
                     "--domain", "1:0:0:1"])
    assert code == 2


@pytest.mark.parametrize("command", [
    ["build", "--f1", "z", "--f2", "exp(z)"],
    ["dual", "--f1", "z", "--f2", "exp(z)"],
    ["export", "--f1", "z", "--f2", "exp(z)"],
    ["congruence", "--minimal", "enneper"],
])
def test_domain_with_negative_first_bound_is_one_argument(command, tmp_path,
                                                          capsys):
    # "--domain -0.5:..." reads like an option to argparse; it must act
    # exactly like "--domain=-0.5:..."
    outputs = []
    for i, domain in enumerate((["--domain", "-0.5:0.5:-0.4:0.6"],
                                ["--domain=-0.5:0.5:-0.4:0.6"])):
        out = str(tmp_path / f"{i}.obj")
        code = cli.main(command + domain + ["--nu", "9", "--nv", "9",
                                            "--out", out])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        outputs.append(printed.out.replace(out, "OUT"))
    assert outputs[0] == outputs[1]


def test_build_judges_one_grid(tmp_path, monkeypatch):
    # every entry is measured on the fields of the command's own grid:
    # one jet per generator, and samples plus excluded cover the grid
    grids = []
    real = holoexpr.eval_jet

    def spy(e, z, order=3):
        grids.append(np.shape(z))
        return real(e, z, order)

    for mod in (holoexpr, ribaucour_core, duality, minimal):
        monkeypatch.setattr(mod, "eval_jet", spy)
    rpt = tmp_path / "build.json"
    code = cli.main(["build", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "11", "--nv", "13", "--report", str(rpt)])
    assert code == 0
    assert grids == [(11, 13), (11, 13)]
    data = json.loads(rpt.read_text())
    assert "tolerances" not in data["inputs"]
    assert len(data["identities"]) == 3
    for e in data["identities"]:
        assert e["samples"] + e["excluded"] == 11 * 13, e


# 10**19 overflows numpy's index type; 9 * 10**18 fits it, but not its
# size in bytes
OVERSIZE = (10**19, 9 * 10**18)


@pytest.mark.parametrize("argv", [
    ["build", "--f1", "z", "--f2", "2*z", "--nu", "1"],
    ["build", "--f1", "z", "--f2", "2*z", "--domain", "0:inf:0:1"],
    ["congruence", "--minimal", "enneper", "--nu", "1"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "0"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "-0.1"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "nan"],
    # a step wider than the domain, and one whose nodes miss the origin
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "5"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "0.3"],
    # every tolerance is fixed: no command takes a --tol-* option
    ["dual", "--f1", "z", "--f2", "exp(z)", "--tol-c2", "inf"],
    ["build", "--f1", "z", "--f2", "2*z", "--tol-pde", "nan"],
    ["build", "--f1", "z", "--f2", "2*z", "--tol-pde", "-1"],
    ["congruence", "--minimal", "catenoid", "--tol-fi", "nan"],
    # a literal beyond the float range
    ["build", "--f1", "1e999*z", "--f2", "z"],
    # steps whose node count is not finite
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "1e-310"],
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "0.5", "--domain=-1e308:1e308:-1:1"],
    # a node count beyond any array numpy can allocate
    ["congruence", "--minimal", "catenoid", "--mode", "integrate",
     "--step", "1e-300"],
    # usage errors: no subcommand, an unknown one, a missing option, a
    # value of the wrong type, an option without its value
    [],
    ["frobnicate"],
    ["build", "--f2", "z"],
    ["build", "--f1", "z", "--f2", "2*z", "--nu", "x"],
    ["build", "--f1", "z", "--f2", "2*z", "--domain"],
    # sample counts beyond what numpy can index, on every command that
    # samples a grid
    *([*command, "--nu", str(n), "--nv", "2"]
      for command in (["build", "--f1", "z", "--f2", "exp(z)"],
                      ["dual", "--f1", "z", "--f2", "exp(z)"],
                      ["export", "--f1", "z", "--f2", "exp(z)",
                       "--out", "/nonexistent-dir/x.obj"],
                      ["congruence", "--minimal", "enneper"])
      for n in OVERSIZE),
])
def test_cli_rejects_bad_input(argv, capsys):
    # exit 2 with one line and no usage text or traceback, as a return
    # value, never SystemExit; exit 1 stays reserved for failed residuals
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "usage:" not in err
    if any(a.startswith("--tol-") for a in argv):
        assert err == ("error: unrecognized arguments: %s\n"
                       % " ".join(argv[-2:]))
    # the message names the user's inputs, not the library's arguments
    if argv[-2:] == ["--step", "0.3"]:
        assert err == ("error: the nodes of step 0.3 on the domain "
                       "-1:1:-1:1 miss the chart origin (0, 0)\n")
    if argv[-2:] == ["--step", "1e-300"]:
        assert err == ("error: not enough memory for this grid: 2e+300 x "
                       "2e+300 nodes exceed numpy's limit\n")
    nu = argv[argv.index("--nu") + 1] if "--nu" in argv else ""
    if nu in map(str, OVERSIZE):
        assert err == ("error: not enough memory for this grid: %.3g x 2 "
                       "samples exceed numpy's limit\n" % int(nu))


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["build", "--help"]])
def test_help_and_version_return_zero(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "ribaucour" in out
    assert err == ""


def test_out_dual_writes_the_dual_mesh_there(tmp_path, capsys):
    # the dual mesh goes to --out-dual, byte for byte the *_dual.obj that
    # --out alone writes, and no *_dual.obj appears
    pair = ["dual", "--f1", "z", "--f2", "exp(z)", "--nu", "11", "--nv", "11"]
    given, default = tmp_path / "given", tmp_path / "default"
    given.mkdir()
    default.mkdir()
    assert cli.main([*pair, f"--out={given / 'pair.obj'}",
                     f"--out-dual={given / 'mirror.obj'}"]) == 0
    assert cli.main([*pair, f"--out={default / 'pair.obj'}"]) == 0
    assert sorted(p.name for p in given.iterdir()) == ["mirror.obj",
                                                       "pair.obj"]
    assert (given / "mirror.obj").read_bytes() \
        == (default / "pair_dual.obj").read_bytes()
    assert (given / "pair.obj").read_bytes() \
        == (default / "pair.obj").read_bytes()
    capsys.readouterr()
    # without --out, the dual path is bad input, and nothing is written
    alone = tmp_path / "alone.obj"
    assert cli.main([*pair, f"--out-dual={alone}"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: --out-dual needs --out\n"
    assert out == ""
    assert not alone.exists()


def _out_of_memory(*args, **kwargs):
    # what numpy raises when a grid's arrays cannot be allocated
    raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                      "shape (100000, 100000) and data type float64")


@pytest.mark.parametrize("target, argv", [
    ("evaluate_patch", ["build", "--f1", "z", "--f2", "exp(z)",
                        "--nu", "11", "--nv", "11"]),
    ("integrate_system", ["congruence", "--minimal", "catenoid",
                          "--mode", "integrate", "--step", "0.1"]),
])
def test_cli_reports_exhausted_memory(target, argv, monkeypatch, capsys):
    # a grid too large for the machine is bad input: exit 2 with a
    # one-line message, never exit 1 or a traceback.  evaluate_patch is
    # called block by block inside ribaucour_core.patch_checks
    owner = ribaucour_core if target == "evaluate_patch" else congruence
    monkeypatch.setattr(owner, target, _out_of_memory)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_oversize_integration_grid_fails_before_any_step(monkeypatch,
                                                         capsys):
    # 100,001^2 nodes: the full-grid arrays are allocated (here: refused)
    # before any node line is built, any chart scalar is evaluated or any
    # march step is taken
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("_march", "_fill_rows"):
        monkeypatch.setattr(congruence, name,
                            spy(name, getattr(congruence, name)))
    monkeypatch.setattr(np, "linspace", spy("linspace", np.linspace))
    monkeypatch.setattr(congruence, "_grid_arrays", _out_of_memory)
    assert cli.main(["congruence", "--minimal", "catenoid",
                     "--mode", "integrate", "--step", "2e-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert calls == []


def test_domain_rejects_non_finite_bounds():
    for bounds in ((0.0, float("inf"), 0.0, 1.0),
                   (float("nan"), 1.0, 0.0, 1.0)):
        with pytest.raises(ValueError):
            Domain(*bounds)


def test_build_reports_io_failure(capsys):
    code = cli.main(["build", "--f1", "z", "--f2", "2*z",
                     "--nu", "11", "--nv", "11",
                     "--out", "/nonexistent-dir/x.obj"])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


PAIR = ["--f1", "z", "--f2", "exp(z)", "--nu", "11", "--nv", "11"]


@pytest.mark.parametrize("argv", [
    ["build", *PAIR, "--report", "{missing}/r.json"],
    ["dual", *PAIR, "--out", "{missing}/x.obj"],
    ["dual", *PAIR, "--out", "{tmp}/x.obj", "--out-dual", "{missing}/d.obj"],
    ["congruence", "--minimal", "catenoid", "--out", "{missing}/x.obj"],
    ["congruence", "--minimal", "catenoid", "--report", "{missing}/r.json"],
    ["export", *PAIR, "--out", "{missing}/x.obj"],
], ids=["build-report", "dual-out", "dual-out-dual", "congruence-out",
        "congruence-report", "export-out"])
def test_every_writer_reports_io_failure(argv, tmp_path, capsys):
    # an output in a missing directory: exit 4 with one line, and no
    # verdict on stdout
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
            for a in argv]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", *PAIR, "--out", "{tmp}/ok.obj", "--report", "{missing}/r.json"],
    ["dual", *PAIR, "--out", "{tmp}/x.obj", "--out-dual", "{missing}/d.obj"],
    ["dual", *PAIR, "--out", "{missing}/x.obj", "--report", "{tmp}/r.json"],
    ["congruence", "--minimal", "catenoid", "--out", "{tmp}/x.obj",
     "--report", "{missing}/r.json"],
    ["export", *PAIR, "--out", "{missing}/x.obj"],
], ids=["build", "dual-out-dual", "dual-default-dual", "congruence",
        "export"])
def test_a_missing_output_directory_stops_before_any_sample(argv, tmp_path,
                                                            monkeypatch):
    # every output's directory is checked before any grid is sampled, so
    # an exit 4 leaves no file behind
    sampled = []
    monkeypatch.setattr(Domain, "mesh", lambda *a: sampled.append(a))
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
            for a in argv]
    assert cli.main(argv) == 4
    assert sampled == []
    assert list(tmp_path.iterdir()) == []


def test_a_missing_output_directory_stops_before_integration(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    calls = []
    monkeypatch.setattr(congruence, "integrate_system",
                        lambda *a, **k: calls.append(a))
    assert cli.main(["congruence", "--minimal", "catenoid",
                     "--mode", "integrate", "--step", "0.005",
                     "--out", str(tmp_path / "missing" / "x.obj")]) == 4
    assert calls == []
    err = capsys.readouterr().err
    assert err == ("error: [Errno 2] No such file or directory: '%s'\n"
                   % (tmp_path / "missing" / "x.obj"))


# ---------------------------------------------------------------------------
# one tolerance table, one status rule (an overflowing congruence, whose
# entries fail, is test_fields_on_demand's test_lazy_reads_raise_no_warnings)
# ---------------------------------------------------------------------------

def test_every_entry_takes_its_tolerance_from_the_table(tmp_path):
    # build, dual and congruence in both modes make one entry per table
    # row between them, each judged against its row
    names = set()
    for i, argv in enumerate((
            ["build", *PAIR], ["dual", *PAIR],
            ["congruence", "--minimal", "catenoid", "--nu", "11",
             "--nv", "11"],
            ["congruence", "--minimal", "catenoid", "--mode", "integrate",
             "--step", "0.05", "--domain=0:0.5:0:0.5"])):
        rpt = tmp_path / f"{i}.json"
        assert cli.main([*argv, "--report", str(rpt)]) == 0, argv
        data = json.loads(rpt.read_text())
        assert "tolerances" not in data["inputs"]
        for e in data["identities"]:
            assert e["tolerance"] == TOLERANCES[e["name"]], e
            names.add(e["name"])
    assert names == set(TOLERANCES)


def _judged(argv, tmp_path, capsys):
    rpt = tmp_path / "r.json"
    code = cli.main([*argv, "--report", str(rpt)])
    return code, json.loads(rpt.read_text()), capsys.readouterr().out


@pytest.mark.parametrize("command, n_entries", [("build", 3), ("dual", 7)])
def test_the_unit_sphere_is_flagged_with_its_entries(command, n_entries,
                                                     tmp_path, capsys):
    code, data, out = _judged([command, "--f1", "z", "--f2", "z",
                               "--nu", "11", "--nv", "11"], tmp_path, capsys)
    assert code == 3
    summary = data["summary"]
    assert summary["unit_sphere"] and not summary["all_degenerate"]
    assert len(data["identities"]) == n_entries
    assert summary["notes"][0] == ("patch coincides with the fixed unit "
                                   "sphere (rho = 1, X = N)")
    assert data["details"] == {"unit_sphere_gap": 0.0}
    assert out.endswith(f"{command}: DEGENERATE (exit 3)\n")


def test_no_usable_sample_gives_no_entries(tmp_path, capsys):
    notes = []
    for command in ("build", "dual"):
        code, data, out = _judged([command, "--f1", "z", "--f2", "3",
                                   "--nu", "11", "--nv", "11"],
                                  tmp_path, capsys)
        assert code == 3
        assert data["identities"] == []
        assert data["summary"]["all_degenerate"]
        assert not data["summary"]["unit_sphere"]
        assert data["details"] == {"unit_sphere_gap": None}
        notes.append(data["summary"]["notes"])
        assert out == (f"  note: {notes[-1][0]}\n"
                       f"{command}: DEGENERATE (exit 3)\n")
    assert notes[0] == notes[1] and len(notes[0]) == 1


def test_dual_passes_and_marks_vacuous_entries(tmp_path, capsys):
    rpt = tmp_path / "dual.json"
    code = cli.main(["dual", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "41", "--nv", "41", "--report", str(rpt)])
    assert code == 0
    data = json.loads(rpt.read_text())
    by_name = {e["name"]: e for e in data["identities"]}
    for name in ("curvature_switch", "direction_switch", "hover_k_equality",
                 "hopf_antisymmetry", "first_form_relation",
                 "second_form_relation", "third_form_relation"):
        assert name in by_name, name
        assert by_name[name]["pass"], name
    assert not by_name["curvature_switch"]["vacuous"]
    # the entries are the only verdicts; details carry context alone
    assert list(data["details"]) == ["unit_sphere_gap"]

    # a round sphere: the two switch entries are vacuous, with one note
    capsys.readouterr()
    rpt2 = tmp_path / "dual_sphere.json"
    code = cli.main(["dual", "--f1", "z", "--f2", "2*z",
                     "--nu", "21", "--nv", "21", "--report", str(rpt2)])
    assert code == 0
    data2 = json.loads(rpt2.read_text())
    note = "totally umbilic patch: no principal data to switch"
    vacuous = [e for e in data2["identities"] if e["vacuous"]]
    assert [e["name"] for e in vacuous] == ["curvature_switch",
                                            "direction_switch"]
    for e in vacuous:
        assert e["note"] == note and e["pass"] and e["samples"] == 0, e
    assert data2["summary"]["notes"] == [note]
    out = capsys.readouterr().out
    assert out.startswith(
        f"  curvature_switch             vacuous ({note}) -> pass\n"
        f"  direction_switch             vacuous ({note}) -> pass\n")
    assert out.endswith(f"  note: {note}\ndual: PASS (exit 0)\n")


def test_dual_writes_both_meshes(tmp_path):
    out = tmp_path / "pair.obj"
    code = cli.main(["dual", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "21", "--nv", "21", "--out", str(out)])
    assert code == 0
    dual_path = tmp_path / "pair_dual.obj"
    assert out.exists() and dual_path.exists()
    assert out.read_text().startswith("# surface mesh: ")
    assert dual_path.read_text().startswith("# surface mesh: ")


# ---------------------------------------------------------------------------
# congruence command
# ---------------------------------------------------------------------------

def test_congruence_analytic_catenoid(tmp_path):
    rpt = tmp_path / "cat.json"
    code = cli.main(["congruence", "--minimal", "catenoid",
                     "--nu", "21", "--nv", "21", "--report", str(rpt)])
    assert code == 0
    data = json.loads(rpt.read_text())
    by_name = {e["name"]: e for e in data["identities"]}
    for name in ("congruence_system", "first_integral_drift",
                 "envelope_middle_sphere", "hessian_identity_omega",
                 "hessian_identity_w", "gradient_link", "generated_forms",
                 "envelope_hover_ratio"):
        assert by_name[name]["pass"], name
    assert data["details"] == {"constants": {"c": 0.5}}


def test_congruence_analytic_enneper_records_fallback(tmp_path):
    rpt = tmp_path / "enn.json"
    code = cli.main(["congruence", "--minimal", "enneper",
                     "--nu", "21", "--nv", "21", "--report", str(rpt)])
    assert code == 0
    data = json.loads(rpt.read_text())
    # the shipped Omega is the quadrature correction of the published one;
    # the report carries its constants and no note
    assert data["details"] == {"constants": {"c": 0.25}}
    assert data["summary"]["notes"] == []


@pytest.mark.parametrize("minimal, extra, grid", [
    pytest.param("catenoid", [], [41, 41], id="catenoid-square"),
    # a grid this coarse has no interior a stencil could use: every node
    # must carry its envelope sample
    pytest.param("catenoid", ["--domain", "0:0.5:0:0.5"], [11, 11],
                 id="catenoid-corner"),
    pytest.param("enneper", ["--domain", "0:0.5:0:0.5"], [11, 11],
                 id="enneper-corner"),
])
def test_congruence_integrate_mode(minimal, extra, grid, tmp_path):
    rpt = tmp_path / "integ.json"
    code = cli.main(["congruence", "--minimal", minimal,
                     "--mode", "integrate", "--step", "0.05", *extra,
                     "--report", str(rpt)])
    assert code == 0
    data = json.loads(rpt.read_text())
    by_name = {e["name"]: e for e in data["identities"]}
    for name in ("path_independence", "first_integral_drift",
                 "analytic_agreement", "envelope_middle_sphere",
                 "envelope_hover_ratio"):
        assert by_name[name]["pass"], name
    for name in ("envelope_middle_sphere", "envelope_hover_ratio"):
        assert by_name[name]["excluded"] == 0, name
    assert data["details"]["integration"]["grid"] == grid


def test_congruence_writes_envelope_mesh(tmp_path):
    out = tmp_path / "env.obj"
    code = cli.main(["congruence", "--minimal", "catenoid",
                     "--nu", "21", "--nv", "21", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="ascii").splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    n_f = sum(1 for l in lines if l.startswith("f "))
    assert lines[0] == "# surface mesh: %d vertices, %d faces" % (n_v, n_f)
    assert n_v > 0 and n_f > 0


# ---------------------------------------------------------------------------
# export command and determinism
# ---------------------------------------------------------------------------

def test_export_writes_valid_obj(tmp_path):
    out = tmp_path / "surface.obj"
    code = cli.main(["export", "--f1", "z", "--f2", "exp(z)",
                     "--nu", "21", "--nv", "21", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="ascii").splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    for l in lines:
        if l.startswith("f "):
            idx = [int(t) for t in l.split()[1:]]
            assert len(idx) == 3
            assert all(1 <= i <= n_v for i in idx)


def test_cli_outputs_are_byte_deterministic(tmp_path):
    files = []
    for tag in ("a", "b"):
        obj = tmp_path / f"{tag}.obj"
        rpt = tmp_path / f"{tag}.json"
        code = cli.main(["build", "--f1", "z^2", "--f2", "z+2",
                         "--domain", "0.3:1.3:0.2:1.2",
                         "--nu", "21", "--nv", "21",
                         "--out", str(obj), "--report", str(rpt)])
        assert code == 0
        files.append((obj.read_bytes(), rpt.read_bytes()))
    assert files[0] == files[1]


def test_main_parses_with_one_parser_per_process(tmp_path, capsys):
    # the parser is built once; every main call in the process parses
    # with it, and two calls write the same stdout, report and mesh
    assert cli.build_parser() is cli.build_parser()
    runs = []
    for tag in ("a", "b"):
        obj, rpt = tmp_path / f"{tag}.obj", tmp_path / f"{tag}.json"
        code = cli.main(["congruence", "--minimal", "enneper", "--mode",
                         "integrate", "--step", "0.02", "--domain",
                         "-0.6:1:-1:0.4", "--out", str(obj),
                         "--report", str(rpt)])
        runs.append((code, capsys.readouterr().out, obj.read_bytes(),
                     rpt.read_bytes()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_import_does_not_load_sympy(tmp_path):
    # sympy is a test dependency only: with every sympy import made to
    # raise, the package imports and both congruence modes run and pass.
    # The cases share one test id, run one after the other.
    report = tmp_path / "report.json"
    cases = [
        None,
        ["congruence", "--minimal", "enneper"],
        ["congruence", "--minimal", "catenoid", "--mode", "integrate",
         "--step", "0.05"],
    ]
    for argv in cases:
        code = "import sys; sys.modules['sympy'] = None; import ribaucour.cli"
        if argv is not None:
            argv = argv + ["--report", str(report)]
            code += f"; sys.exit(ribaucour.cli.main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        if argv is not None:
            entries = json.loads(report.read_text())["identities"]
            assert entries and all(e["pass"] for e in entries), argv
            report.unlink()


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ribaucour.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ribaucour" in proc.stdout
