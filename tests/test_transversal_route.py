"""The paper's transversal route to (J_G : P_S) against the colon fold.

The module's helpers also run the full comparison over every connected
non-complete graph on at most 7 vertices:

    PYTHONPATH=src:tests python -c "import test_transversal_route as t; \\
        print(t.compare(t.atlas_graphs(7)))"
"""

import time

import networkx as nx
import pytest

import vnum.edgeideals as ei
from vnum.cycles import cycle_graph
from vnum.edgeideals import GraphWork, edge_ideal_gens, prime_component, prime_entry
from vnum.errors import ResourceLimitError
from vnum.graphs import Graph
from vnum.groebner import Limits, buchberger
from vnum.idealops import colon_ideal
from vnum.matroids import packed_concise_generators, packed_transversal_generators
from vnum.poly import MonomialOrder

EXPIRED = Limits(deadline=0.0)


def atlas_graphs(max_n, step=1):
    """Every step-th connected non-complete graph on at most max_n vertices
    of networkx's atlas, relabelled onto 1..n."""
    graphs = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 3 <= n <= max_n and nx.is_connected(h) and h.number_of_edges() < n * (n - 1) // 2:
            graphs.append(Graph.make(n, [(u + 1, v + 1) for u, v in h.edges()]))
    return graphs[::step]


def _work(g):
    work = GraphWork.of(g)
    work.jg = buchberger(edge_ideal_gens(g), MonomialOrder(g.n))
    return work


def route_and_fold(g):
    """(S, route basis, fold basis, route s, fold s) at the empty cut and
    every cut with two sides of g, one J_G basis shared by all."""
    work = _work(g)
    order = work.jg.order
    out = []
    for rec in work.cuts:
        if rec.s and rec.k != 2:
            continue
        t0 = time.perf_counter()
        route = ei._transversal_colon(g, rec, work, order, Limits().start_clock())
        t1 = time.perf_counter()
        fold = colon_ideal(work.jg, list(prime_component(g, rec.s).gens), order)
        out.append((rec.s, route, fold, t1 - t0, time.perf_counter() - t1))
    return out


def compare(graphs):
    """Primes compared, primes where the route held and equalled the fold,
    and the seconds the route and the fold took in all."""
    rows = [row for g in graphs for row in route_and_fold(g)]
    return {
        "primes": len(rows),
        "route_equals_fold": sum(route == fold for _, route, fold, _, _ in rows),
        "route_s": round(sum(row[3] for row in rows), 1),
        "fold_s": round(sum(row[4] for row in rows), 1),
    }


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_route_equals_fold_on_cycles(n):
    rows = route_and_fold(cycle_graph(n))
    assert len(rows) == 1 + n * (n - 3) // 2  # the empty cut and the 2-cuts
    for s, route, fold, _, _ in rows:
        assert route is not None and route == fold, sorted(s)


def test_route_equals_fold_on_an_atlas_slice():
    result = compare(atlas_graphs(6, step=3))
    assert result["primes"] >= 100
    assert result["route_equals_fold"] == result["primes"]


def test_cuts_with_three_sides_go_to_the_fold(monkeypatch):
    g = cycle_graph(6)
    work = _work(g)
    rec = work.record({1, 3, 5})
    assert rec.k == 3
    assert ei._transversal_colon(g, rec, work, work.jg.order, Limits()) is None
    folded = []
    monkeypatch.setattr(ei, "colon_ideal", lambda *args: folded.append(1) or colon_ideal(*args))
    ei.vnumber_at_prime(g, rec.s, _work=work)
    assert folded == [1]
    ei.vnumber_at_prime(g, {1, 4}, _work=work)
    assert folded == [1]


def test_generator_builds_run_under_the_clock():
    g = cycle_graph(6)
    work = GraphWork.of(g)
    order = MonomialOrder(g.n)
    with pytest.raises(ResourceLimitError):
        packed_transversal_generators(g, frozenset(), work.dependents, order, EXPIRED)
    with pytest.raises(ResourceLimitError):
        packed_concise_generators(g, {1, 4}, order, EXPIRED)


@pytest.mark.parametrize("s", [frozenset(), frozenset({1, 4})])
def test_an_expired_clock_in_the_route_reads_resource_limit(s):
    g = cycle_graph(6)
    work = _work(g)  # the basis is there, so the route is the first to look
    entry = prime_entry(work.record(s), g, work, EXPIRED, with_oracle=False, algebraic=True)
    assert entry.status == "resource-limit"
    assert entry.v is None and entry.window == (4, 4)
