"""The paper's transversal route to (J_G : P_S) against the colon fold, and
the runtime builder of L_S against its definition.

The runtime builds L_S from connected dominating sets alone
(packed_concise_generators); the definition's generators, one set per
minimal transversal of the delta family, live in reference.py as
packed_transversal_generators.  At the empty cut the two give one generator
set; at a cut with two sides they give one sum with J_G.

The module's helpers also run the full comparison over every connected
non-complete graph on at most 7 vertices:

    PYTHONPATH=src:tests python -c "import test_transversal_route as t; \\
        print(t.compare(t.atlas_graphs(7)))"

and time the two builders of L_S at the two-sided cuts of C_8, C_9, C_10:

    PYTHONPATH=src:tests python -c "import test_transversal_route as t; \\
        [print(n, t.builder_totals(t.cycle_graph(n))) for n in (8, 9, 10)]"
"""

import time

import networkx as nx
import pytest

import vnum.edgeideals as ei
from test_golden import DATA, _cycle6
from vnum.cycles import cycle_graph
from vnum.edgeideals import GraphWork, edge_ideal_gens, prime_component, prime_entry
from vnum.errors import Limits, ResourceLimitError
from vnum.graphs import Graph
from vnum.groebner import buchberger, pack_poly, packed_radical_sum, unpack_poly
from vnum.idealops import colon_ideal
from vnum.matroids import cut_dependents, packed_concise_generators
from vnum.poly import MonomialOrder, poly_from_text, poly_to_text
from reference import packed_transversal_generators, path_graph

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
        fold = colon_ideal(work.jg, list(prime_component(g, rec.s).generators), order)
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


def builder_totals(g):
    """Per builder of L_S over the cuts with two sides of g: the seconds
    that building it and reducing J_G + L_S took in all and the generators
    built; and the cuts where the flag held and both bases were equal."""
    work = _work(g)
    order = work.jg.order
    dependents = cut_dependents(g, work.cuts)
    builders = {
        "concise": lambda s: packed_concise_generators(g, s, order),
        "generic": lambda s: packed_transversal_generators(g, s, dependents, order),
    }
    totals = {name: [0.0, 0] for name in builders}
    cuts = [rec.s for rec in work.cuts if rec.k == 2]
    agree = 0
    for s in cuts:
        bases = []
        for name, build in builders.items():
            t0 = time.perf_counter()
            gens = build(s)
            bases.append(packed_radical_sum(work.jg, gens, Limits()))
            totals[name][0] += time.perf_counter() - t0
            totals[name][1] += len(gens)
        agree += bases[0] is not None and bases[0] == bases[1]
    return {
        "cuts": len(cuts),
        "flag_and_equal": agree,
        **{name: (round(secs, 2), count) for name, (secs, count) in totals.items()},
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


def test_both_builders_give_one_basis_at_the_two_sided_cuts():
    totals = builder_totals(cycle_graph(7))
    assert totals["flag_and_equal"] == totals["cuts"] == 14
    assert totals["concise"][1] == 560 and totals["generic"][1] == 1197


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
    for s in (frozenset(), frozenset({1, 4})):
        with pytest.raises(ResourceLimitError):
            packed_concise_generators(g, s, MonomialOrder(g.n), EXPIRED)


def _as_set(polys):
    return {frozenset(p.items()) for p in polys}


def test_empty_cut_builder_equals_the_definition():
    # the minimal transversals of the empty cut's delta family are the
    # minimal connected dominating sets (packed_concise_generators' proof)
    graphs = atlas_graphs(7) + [cycle_graph(n) for n in range(5, 13)]
    for g in graphs:
        order = MonomialOrder(g.n)
        built = packed_concise_generators(g, frozenset(), order)
        want = packed_transversal_generators(g, frozenset(), None, order)
        assert _as_set(built) == _as_set(want), sorted(g.edges)
    assert len(graphs) == 989 + 8


@pytest.mark.parametrize("s", [frozenset(), frozenset({1, 4})])
def test_an_expired_clock_in_the_route_reads_resource_limit(s):
    g = cycle_graph(6)
    work = _work(g)  # the basis is there, so the route is the first to look
    entry = prime_entry(work.record(s), g, work, EXPIRED, with_oracle=False, algebraic=True)
    assert entry.status == "resource-limit"
    assert entry.v is None and entry.window == (4, 4)


def test_a_sum_with_a_square_leading_monomial_is_refused():
    g = path_graph(2)
    order = MonomialOrder(2)
    gb = buchberger(edge_ideal_gens(g), order)

    def radical_sum(q):
        basis = packed_radical_sum(gb, [pack_poly(poly_from_text(q, 2), order)], Limits())
        return basis if basis is None else [poly_to_text(unpack_poly(p, order)) for p in basis]

    assert radical_sum("x1^2") is None
    assert radical_sum("x1") == ["x2*y1", "x1"]


def test_a_refused_route_falls_back_to_the_fold(monkeypatch):
    attempts = []
    monkeypatch.setattr(ei, "packed_radical_sum", lambda *args: attempts.append(1))
    assert _cycle6() == (DATA / "cycle6.json").read_text(encoding="utf-8")
    assert len(attempts) == 10  # the empty cut and the nine 2-cuts of C_6
