"""The walkthroughs in demos/ run to completion."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["build_surface.py", "dual_pair.py",
                                  "minimal_congruence.py"])
def test_demo_runs(name, tmp_path):
    # a copy, so files a demo writes next to itself land in tmp_path
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # pytest's warning filter does not reach the subprocess: it gets its
    # own, and any warning on stderr fails the demo
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
