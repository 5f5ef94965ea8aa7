"""A fresh process loads only the modules its entry point uses: the
package's names resolve lazily, and each command imports its own
modules.  Every probe runs in a new interpreter, since one test process
has long since loaded the whole package."""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import ribaucour

# runs the steps of argv[1] in order, a step being Python source or a CLI
# argv, and prints per step the exit code (None for source) and the
# modules of interest loaded so far
PROBE = r"""
import contextlib, io, json, sys
out = []
for step in json.loads(sys.argv[1]):
    code = None
    if isinstance(step, str):
        exec(step)
    else:
        from ribaucour.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(step)
    out.append([code, sorted(m for m in sys.modules
                             if m.split(".")[0] == "ribaucour"
                             or m.startswith("numpy.polynomial"))])
print(json.dumps(out))
"""

SMALL = ["--nu", "9", "--nv", "9"]
PAIR = ["--f1", "z", "--f2", "exp(z)"] + SMALL
MINIMAL_SIDE = {"ribaucour.congruence", "ribaucour.minimal"}
POLY = {"numpy.polynomial"}


def _probes(tmp_path):
    """name -> [(step, exit code, modules that must not be loaded after
    it)]: the checks after a step hold for every earlier step too."""
    beyond_patch = {"ribaucour." + m for m in ("congruence", "minimal",
                                               "duality", "mesh", "report",
                                               "cli")}
    return {
        "library": [
            # checked below: no submodule at all
            ("import ribaucour", None, set()),
            ("ribaucour.make_patch", None, beyond_patch | POLY),
        ],
        "pair": [
            (["dual"] + PAIR, 0, MINIMAL_SIDE | {"ribaucour.mesh"} | POLY),
            (["build"] + PAIR, 0, MINIMAL_SIDE | POLY),
            (["export"] + PAIR + ["--out", str(tmp_path / "e.obj")], 0,
             MINIMAL_SIDE | POLY),
        ],
        "congruence": [
            (["congruence", "--minimal", "enneper"] + SMALL, 0,
             {"ribaucour.duality", "ribaucour.mesh"} | POLY),
            (["congruence", "--minimal", "catenoid", "--mode", "integrate",
              "--step", "0.05"], 0,
             {"ribaucour.duality", "ribaucour.mesh"} | POLY),
        ],
    }


def _run(steps):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([s for s, _, _ in steps])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_entry_point_loads_only_its_modules(tmp_path):
    probes = _probes(tmp_path)
    with ThreadPoolExecutor(max_workers=len(probes)) as pool:
        results = dict(zip(probes, pool.map(_run, probes.values())))
    for name, steps in probes.items():
        for (step, want_code, absent), (code, loaded) in zip(
                steps, results[name]):
            assert code == want_code, (name, step)
            assert sorted(absent & set(loaded)) == [], (name, step)
    # a bare import runs no submodule at all
    assert results["library"][0][1] == ["ribaucour"]


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from ribaucour import *", scope)
    assert sorted(n for n in ribaucour.__all__ if n not in scope) == []


def test_dir_lists_every_public_name():
    assert set(ribaucour.__all__) <= set(dir(ribaucour))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ribaucour.no_such_name
    assert not hasattr(ribaucour, "no_such_name")
