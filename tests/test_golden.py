"""Byte-stability: reports must equal the golden files in tests/data.

Each golden file is a report of a fixed set of graphs: the JSON report
(`report_document`, with the timing field `millis` removed); for
cycle6_table.txt, the `vnum cycle 6` table, which prints no timings; and
for gb.txt, the `vnum gb` output of each graph of GB_CASES.
Regenerate them, after a change that is meant to alter reports, with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import connected_graphs_upto_iso
from vnum.cli import main, render_json, report_document
from vnum.cycles import cycle_graph, s_consistent_permutation
from vnum.edgeideals import vnumber
from vnum.graphs import Graph
from reference import complete_graph, format_graph

DATA = Path(__file__).parent / "data"


def _document(g, **kwargs):
    rep = vnumber(g, **kwargs)
    doc = report_document(g, rep.per_prime, rep.global_v, rep.argmin)
    for entry in doc["primes"]:
        del entry["millis"]
    return doc


def _corpus5():
    graphs = [g for n in range(1, 6) for g in connected_graphs_upto_iso(n)]
    return json.dumps([_document(g, with_oracle=True) for g in graphs], indent=2) + "\n"


def _cycle6():
    return render_json(_document(cycle_graph(6)))


def _cycle6_table():
    out = io.StringIO()
    assert main(["cycle", "6"], out=out) == 0
    return out.getvalue()


def _bounds6():
    """The bounds-only report of each graph of the n <= 6 corpus, one per line.

    Three of these reports carry the open bounds-only global-v fault: the
    global value is taken over the primes with an exact combinatorial
    value only, ignoring a lower window elsewhere (ROADMAP item 1).  The fix
    for that fault will regenerate this file.
    """
    graphs = [g for n in range(1, 7) for g in connected_graphs_upto_iso(n)]
    return "".join(
        json.dumps(_document(g, algebraic=False)) + "\n"
        for g in graphs
    )


GB_CASES = [
    ("C_6", cycle_graph(6), None),
    ("C_6", cycle_graph(6), s_consistent_permutation(6, {1, 3, 5}).sigma),
    ("C_9", cycle_graph(9), None),
    ("K_5", complete_graph(5), None),
    ("3x3 grid", Graph.make(9, [(i, i + 1) for i in range(1, 9) if i % 3]
                            + [(i, i + 3) for i in range(1, 7)]), None),
    ("K_1,4", Graph.make(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), None),
    ("two-edge matching", Graph.make(4, [(1, 2), (3, 4)]), None),
]


def _gb():
    """For each of GB_CASES, a `# <name>` line, with ` sigma <images>` when
    it has a sigma (passed by --sigma), and then what `vnum gb` prints for
    it: the reduced basis of J_G, one line each."""
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, sigma_file = Path(tmp) / "graph.txt", Path(tmp) / "sigma.txt"
        for name, g, sigma in GB_CASES:
            graph_file.write_text(format_graph(g), encoding="utf-8")
            argv = ["gb", str(graph_file)]
            if sigma is not None:
                name += " sigma " + " ".join(map(str, sigma))
                sigma_file.write_text(" ".join(map(str, sigma)) + "\n", encoding="utf-8")
                argv += ["--sigma", str(sigma_file)]
            out = io.StringIO()
            assert main(argv, out=out) == 0
            chunks.append(f"# {name}\n{out.getvalue()}")
    return "".join(chunks)


GOLDEN = {
    "bounds6.jsonl": _bounds6,
    "corpus5_oracle.json": _corpus5,
    "cycle6.json": _cycle6,
    "cycle6_table.txt": _cycle6_table,
    "gb.txt": _gb,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden(name):
    assert GOLDEN[name]() == (DATA / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src:tests python tests/test_golden.py --write")
    DATA.mkdir(exist_ok=True)
    for name, make in GOLDEN.items():
        (DATA / name).write_text(make(), encoding="utf-8")
