"""Byte-stability: reports must equal the golden files in tests/data.

Each golden file is a report of a fixed set of graphs: the JSON report
(`report_document`, with the timing field `millis` removed), or, for
cycle6_table.txt, the `vnum cycle 6` table, which prints no timings.
Regenerate them, after a change that is meant to alter reports, with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from conftest import connected_graphs_upto_iso
from vnum.cli import main, render_json, report_document
from vnum.cycles import cycle_graph
from vnum.edgeideals import vnumber

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


GOLDEN = {
    "bounds6.jsonl": _bounds6,
    "corpus5_oracle.json": _corpus5,
    "cycle6.json": _cycle6,
    "cycle6_table.txt": _cycle6_table,
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
