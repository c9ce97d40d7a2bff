"""The package namespace: the library's three entry points, and the modules
an import of the package and its command line loads."""

import os
import subprocess
import sys
import types

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
