"""Tests of the benchmark's reference checkers: known values, and
hand-corrupted reports that each check must reject.

Run from the repository root: python3 -m pytest bench -q
"""

import copy

import pytest

import checkers as c


@pytest.mark.parametrize("n", range(3, 9))
def test_connected_domination_of_cycles_and_paths(n):
    assert c.connected_domination_number(c.cycle(n)) == n - 2
    assert c.connected_domination_number(c.path(n)) == n - 2


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_domination_of_complete_graphs(n):
    assert c.connected_domination_number(c.complete(n)) == 1
    assert c.empty_cut_value(c.complete(n)) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_corpus_counts_match_oeis_a001349(n):
    graphs = c.connected_graphs(n)
    assert len(graphs) == c.A001349[n]
    assert len(set(graphs)) == len(graphs)
    assert all(c.is_connected(g, g.full) for g in graphs)


def test_corpus5_has_thirty_graphs():
    assert len(c.corpus(2, 5)) == 1 + 2 + 6 + 21


def test_minimal_cuts():
    assert c.minimal_cuts(c.path(4)) == [(), (2,), (3,)]
    assert c.minimal_cuts(c.cycle(4)) == [(), (1, 3), (2, 4)]
    assert len(c.minimal_cuts(c.cycle(6))) == 12
    # a vertex of S adjacent to only one side is not needed to cut
    assert (2, 3) not in c.minimal_cuts(c.path(4))
    assert c.minimal_cuts(c.complete(4)) == [()]


def test_pair_domination():
    # C_6 minus {1,3}: side {2} needs 1 vertex, side {4,5,6} needs all 3
    assert c.pair_domination_value(c.cycle(6), (1, 3)) == 4
    assert c.pair_domination_value(c.path(4), (2,)) == 2
    assert c.theorem_value(c.make_graph(4, [(1, 2), (1, 3), (1, 4)]), (1,)) is None


def test_cycle_windows():
    assert c.cycle_window(6, ()) == (4, 4)
    assert c.cycle_window(6, (1, 4)) == (4, 4)
    assert c.cycle_window(6, (1, 3, 5)) == (4, 6)  # three single-vertex arcs
    assert c.cycle_window(9, (1, 4, 7)) == (6, 6)  # three arcs of two
    assert c.cycle_window(8, (1, 3, 6)) == (5, 6)  # one single-vertex arc
    assert c.cycle_global_value(6) == 4
    assert c.cycle_global_value(9) == 6


def test_relabel_keeps_the_isomorphism_class():
    g = c.path(5)
    h = c.relabel(g, [3, 1, 5, 2, 4])
    assert h.edges == ((1, 3), (1, 5), (2, 4), (2, 5))
    assert len(c.minimal_cuts(h)) == len(c.minimal_cuts(g))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def reference_report(g, *, algebraic, windows=None):
    """A report with the reference values; where no theorem applies, the
    value is the window's upper end (algebraic) or absent (bounds-only)."""
    primes = []
    for s in c.minimal_cuts(g):
        exact = c.theorem_value(g, s)
        lo, hi = (exact, exact) if exact is not None else windows[s]
        v = exact if exact is not None else (hi if algebraic else None)
        primes.append({"s": list(s), "v": v, "window": {"lo": lo, "hi": hi},
                       "oracle_ok": True if algebraic else None})
    known = [p for p in primes if p["v"] is not None]
    best = min(known, key=lambda p: p["v"])
    return {"primes": primes, "global": {"v": best["v"], "argmin_s": best["s"]}}


def errors_of(g, doc, **kw):
    v = c.check_report(g, doc, **kw)
    return v.errors, v.bound_faults


C4 = c.cycle(4)


def test_a_correct_report_passes():
    doc = reference_report(C4, algebraic=True)
    assert [p["v"] for p in doc["primes"]] == [2, 2, 2]
    assert errors_of(C4, doc, algebraic=True, oracle=True) == ([], [])


def corrupt(doc, edit):
    bad = copy.deepcopy(doc)
    edit(bad)
    return bad


def _set_prime(i, key, value):
    def edit(doc):
        doc["primes"][i][key] = value
    return edit


CORRUPTIONS = {
    "empty-cut value": _set_prime(0, "v", 3),
    "two-cut value": _set_prime(1, "v", 1),
    "window": _set_prime(2, "window", {"lo": 1, "hi": 3}),
    "oracle disagreement": _set_prime(1, "oracle_ok", False),
    "missing prime": lambda doc: doc["primes"].pop(),
    "extra prime": lambda doc: doc["primes"].append(
        {"s": [1, 2], "v": 2, "window": {"lo": 2, "hi": 2}, "oracle_ok": True}),
    "global not the minimum": lambda doc: doc["global"].update(v=3),
    "argmin elsewhere": lambda doc: doc["global"].update(argmin_s=[1, 2]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_corruption_is_rejected(name):
    doc = corrupt(reference_report(C4, algebraic=True), CORRUPTIONS[name])
    errors, faults = errors_of(C4, doc, algebraic=True, oracle=True)
    assert errors
    assert not faults


def test_value_above_its_window_is_rejected():
    star = c.make_graph(4, [(1, 2), (1, 3), (1, 4)])
    doc = reference_report(star, algebraic=True, windows={(1,): (0, 2)})
    assert errors_of(star, doc, algebraic=True) == ([], [])
    doc["primes"][1]["v"] = 3
    errors, _ = errors_of(star, doc, algebraic=True)
    assert any("outside its window" in e for e in errors)


def test_bounds_only_global_above_a_window_is_a_bound_fault():
    # the star's centre is a 3-cut: no theorem there, only the window [0, hi]
    star = c.make_graph(4, [(1, 2), (1, 3), (1, 4)])
    ok = reference_report(star, algebraic=False, windows={(1,): (0, 2)})
    assert ok["global"]["v"] == 1
    assert errors_of(star, ok, algebraic=False) == ([], [])
    bad = corrupt(ok, _set_prime(1, "window", {"lo": 0, "hi": 0}))
    errors, faults = errors_of(star, bad, algebraic=False)
    assert errors == []
    assert faults == ["global v 1 above the upper bound 0 at (1,)"]


def test_c9_bounds_only_report_shows_the_fault():
    """The shape vnum's bounds-only report has on C_9: the global value is
    the least theorem-backed value, 7, above the window [0, 6] at the
    3-cuts with three two-vertex arcs and above the paper's 6."""
    g = c.cycle(9)
    windows = {s: (0, c.cycle_window(9, s)[1]) for s in c.minimal_cuts(g)}
    doc = reference_report(g, algebraic=False, windows=windows)
    assert doc["global"]["v"] == 7
    errors, faults = errors_of(
        g, doc, algebraic=False,
        paper_windows={s: c.cycle_window(9, s) for s in c.minimal_cuts(g)},
        paper_global=c.cycle_global_value(9),
    )
    assert errors == []
    assert faults == [
        "global v 7 above the upper bound 6 at (1, 4, 7)",
        "global v 7, the paper gives 6",
    ]


def test_upper_bound_below_the_paper_is_rejected():
    g = c.cycle(9)
    paper = {s: c.cycle_window(9, s) for s in c.minimal_cuts(g)}
    windows = {s: (0, hi) for s, (_, hi) in paper.items()}
    windows[(1, 4, 7)] = (0, 5)
    doc = reference_report(g, algebraic=False, windows=windows)
    errors, _ = errors_of(g, doc, algebraic=False, paper_windows=paper)
    assert errors == ["upper bound 5 at (1, 4, 7) below the paper's lower bound 6"]


def test_cycle_value_outside_the_paper_window_is_rejected():
    g = c.cycle(6)
    paper = {s: c.cycle_window(6, s) for s in c.minimal_cuts(g)}
    doc = reference_report(g, algebraic=True, windows=paper)
    kw = dict(algebraic=True, paper_windows=paper, paper_global=4)
    assert errors_of(g, doc, **kw) == ([], [])
    i = [p["s"] for p in doc["primes"]].index([1, 3, 5])
    doc["primes"][i]["v"] = 7
    doc["primes"][i]["window"] = {"lo": 4, "hi": 7}
    errors, _ = errors_of(g, doc, **kw)
    assert any("outside the paper's window" in e for e in errors)
    doc = reference_report(g, algebraic=True, windows=paper)
    doc["global"]["v"] = 5
    errors, _ = errors_of(g, doc, **kw)
    assert "global v 5, the paper gives 4" in errors
