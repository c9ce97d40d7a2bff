"""The names the benchmark's tracer wraps must exist in vnum, and the
tracer must still count a report.

bench/layers.py patches each (module, function) of TARGETS and SITE_TARGETS
by getattr, and its counters read the results of the calls it wraps; tier-1
never runs a traced benchmark, so a renamed function or a changed result
would otherwise go unnoticed.  The lists are read as literals, and the
tracer is loaded by path, without changing the benchmark.
"""

import ast
import importlib
import importlib.util
import sys
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


def test_the_tracer_counts_a_report_and_uninstalls_cleanly():
    import vnum.cli  # noqa: F401  the tracer patches every module it names
    from vnum import cycle_graph, vnumber

    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = [m for name, m in sys.modules.items() if name == "vnum" or name.startswith("vnum.")]
    before = [dict(vars(m)) for m in modules]
    tracer = layers.Tracer().install()
    try:
        assert vnumber(cycle_graph(5)).global_v == 3
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["groebner.buchberger.calls"] >= 1
    assert metrics["groebner.basis_polys"] > 0
    assert all(
        vars(m).get(attr) is value for m, names in zip(modules, before) for attr, value in names.items()
    )
