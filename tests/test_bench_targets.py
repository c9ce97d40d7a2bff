"""The names the benchmark's tracer wraps must exist in vnum.

bench/layers.py patches each (module, function) of TARGETS and SITE_TARGETS
by getattr, and tier-1 never runs a traced benchmark, so a renamed function
would otherwise go unnoticed.  The lists are read as literals, without
importing or changing the benchmark.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _targets():
    """{list name: [(module, function), ...]} for TARGETS and SITE_TARGETS."""
    lists = {}
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "SITE_TARGETS"):
                lists[name] = ast.literal_eval(node.value)
    return lists


def test_every_traced_name_resolves():
    lists = _targets()
    assert set(lists) == {"TARGETS", "SITE_TARGETS"} and all(lists.values())
    missing = [
        f"vnum.{module}.{name}"
        for pairs in lists.values()
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"vnum.{module}"), name, None))
    ]
    assert missing == []
