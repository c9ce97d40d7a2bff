"""The package namespace: the library's three entry points, the modules
an import of the package and its command line loads, and no public name
that nothing uses."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

from test_bench_targets import _targets

import vnum
import vnum.cycles
import vnum.edgeideals

MODULES = [
    "vnum", "vnum.cli", "vnum.cycles", "vnum.edgeideals", "vnum.errors",
    "vnum.graphs", "vnum.groebner", "vnum.idealops", "vnum.matroids", "vnum.poly",
]


def test_public_names_are_the_entry_points():
    public = {
        name for name, value in vars(vnum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"cycle_graph", "vnumber", "verify_cycle"}
    assert vnum.cycle_graph is vnum.cycles.cycle_graph
    assert vnum.verify_cycle is vnum.cycles.verify_cycle
    assert vnum.vnumber is vnum.edgeideals.vnumber


def test_import_loads_the_ten_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vnum.__file__)))
    code = "import sys, vnum, vnum.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'vnum'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == MODULES


def _runtime_references(trees):
    """{public top-level function or class name: its module} over trees,
    and the names the runtime refers to outside the definition of that
    name: Name ids, attributes and imported names."""
    defined, used = {}, set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined, used


def test_every_public_name_has_a_user():
    """Each public top-level function and class of the runtime is referred
    to by runtime code outside its own definition, wrapped by the
    benchmark's tracer, or named in a code span of README.md; a name with
    none of these belongs in tests/reference.py."""
    package = Path(vnum.__file__).parent
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in sorted(package.glob("*.py"))}
    defined, used = _runtime_references(trees)
    traced = {name for pairs in _targets().values() for _, name in pairs}
    readme = (package.parent.parent / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))
    unused = sorted(
        f"vnum.{module}.{name}" for name, module in defined.items()
        if name not in used | traced | documented
    )
    assert unused == []
