"""Every public name resolves: the ``__all__`` lists of the package and
of each of its modules, and the names that the benchmark's traced replay
(``perfbench/replay.py``) takes from the package.  The replay is read as
source, and then run once per benchmark workload, so a changed signature
or return record breaks a test here and not only a traced benchmark
run.  And every public name is read by code other than the tests: a
name that only tests read belongs in ``tests/_oracles.py``."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import ribaucour

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REPLAY = PERFBENCH / "replay.py"
# the code whose reads keep a public name in the package
READERS = [*sorted((ROOT / "src").rglob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted(PERFBENCH.glob("*.py")), ROOT / "tests" / "_oracles.py"]


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function or
    class of a module, and of each public method of its public classes."""
    public = lambda node: (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
    for node in filter(public, tree.body):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in filter(public, node.body):
                yield f"{node.name}.{sub.name}", sub


def _reads(tree, out: dict) -> None:
    """Add to ``out`` the enclosing definitions of each name loaded and
    each attribute read in the tree, under that name.  Strings, such as
    those of ``__all__``, are not reads."""
    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside + (node,)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.setdefault(node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)
    walk(tree, ())


def test_every_public_name_is_read_outside_the_tests():
    # a read counts from the package, the demos, the benchmark or the
    # test oracles, outside the name's own definition; attributes match
    # by name alone
    # one tree per file, so that a definition is the node its reads see
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    reads = {}
    for tree in trees.values():
        _reads(tree, reads)
    unread = []
    for path in sorted((ROOT / "src" / "ribaucour").glob("*.py")):
        for qualname, node in _public_definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if not any(all(d is not node for d in inside)
                       for inside in reads.get(name, ())):
                unread.append(f"{path.stem}.{qualname}")
    assert unread == []


def test_replay_uses_only_existing_names():
    tree = ast.parse(REPLAY.read_text(), str(REPLAY))
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "ribaucour"}
    assert aliases == {"rb"}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "rb"}
    assert used
    assert sorted(n for n in used if not hasattr(ribaucour, n)) == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("ribaucour"):
            module = importlib.import_module(node.module)
            for a in node.names:
                assert hasattr(module, a.name), (node.module, a.name)


def test_all_lists_resolve():
    # the package and every module in it: a name removed from a module
    # but left in its __all__ fails here
    names = ["ribaucour"] + [f"ribaucour.{m.name}" for m in
                             pkgutil.iter_modules(ribaucour.__path__)]
    assert "ribaucour.sphere_geom" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name


def _load(monkeypatch, name):
    """The benchmark module ``perfbench/<name>.py`` of this checkout."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_replay_runs_every_workload(monkeypatch, tmp_path):
    replay = _load(monkeypatch, "replay")
    workloads = _load(monkeypatch, "workloads")
    for name, workload in workloads.WORKLOADS.items():
        outdir = tmp_path / name
        outdir.mkdir()
        tracer = replay.Tracer()
        replay.replay_op(tracer, workload.commands, str(outdir))
        spans = tracer.spans
        assert spans[0]["name"] == "cli.op", name
        assert all(s["end"] >= s["start"] for s in spans), name
        assert {"cli." + c.kind for c in workload.commands} \
            <= {s["name"] for s in spans}, name
        for cmd in workload.commands:
            if "report" in cmd.files:
                report = json.loads(
                    (outdir / ("replay_" + cmd.files["report"])).read_text())
                assert report["identities"], (name, cmd.kind)


def test_replay_runs_each_command_kind_on_small_grids(monkeypatch,
                                                      tmp_path):
    # the replay as a benchmark worker imports it, through sys.path, run
    # once per command kind on grids small enough for every test run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("replay", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import replay
    from workloads import DEEP_PAIR, Command

    pair = {**DEEP_PAIR, "nu": 33, "nv": 33}
    files = {"out": "pair.obj", "report": "pair.json"}
    runs = {
        "build": Command("build", pair, 33 * 33, files=files),
        "dual": Command("dual", pair, 33 * 33),
        "analytic": Command("congruence", {"minimal": "enneper"}, 41 * 41,
                            files={"report": "analytic.json"}),
        "integrate": Command("congruence",
                             {"minimal": "catenoid", "mode": "integrate",
                              "step": "0.05"}, 41 * 41,
                             files={"report": "integrate.json"}),
    }
    for run, cmd in runs.items():
        tracer = replay.Tracer()
        replay.replay_op(tracer, (cmd,), str(tmp_path))
        assert [s["name"] for s in tracer.spans[:2]] \
            == ["cli.op", "cli." + cmd.kind], run
        assert all(s["end"] is not None and s["end"] >= s["start"]
                   for s in tracer.spans), run
        for name in cmd.files.values():
            assert (tmp_path / ("replay_" + name)).stat().st_size > 0, run
