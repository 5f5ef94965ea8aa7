"""Every public name resolves: the package's ``__all__`` lists, and the
names that the benchmark's traced replay (``perfbench/replay.py``) takes
from the package.  The replay is read as source, never imported."""

import ast
import importlib
from pathlib import Path

import ribaucour
from ribaucour import ribaucour_core

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


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
    for module in (ribaucour, ribaucour_core):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], module.__name__
