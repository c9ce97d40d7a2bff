"""Graph layer: cuts, components, domination; brute-force cross-checks."""

import ast
import itertools
import pathlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import connected_graphs
from test_transversal_route import atlas_graphs

import vnum.graphs
from vnum.errors import GraphFormatError, PreconditionError
from vnum.graphs import (
    CutRecord,
    Graph,
    complete_graph,
    components_within,
    connected_components,
    connected_dominating_sets,
    enumerate_min_cuts,
    format_graph,
    gamma_c,
    gamma_c_pair,
    induced_subgraph,
    is_connected_dominating,
    is_minimal_kcut,
    parse_graph,
    path_graph,
    two_cut_sides,
)
from vnum.cycles import cycle_graph


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def test_make_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        Graph.make(3, [(1, 1)])
    with pytest.raises(GraphFormatError):
        Graph.make(3, [(1, 4)])
    with pytest.raises(GraphFormatError):
        Graph.make(3, [(1, 2), (2, 1)])


def test_induced_subgraph_examples():
    c4 = cycle_graph(4)
    sub = induced_subgraph(c4, {1, 2, 3})
    assert sub.vertices == frozenset({1, 2, 3})
    assert sub.edges == frozenset({(1, 2), (2, 3)})
    empty = induced_subgraph(c4, set())
    assert empty.vertices == frozenset() and empty.edges == frozenset()
    p4 = path_graph(4)
    sub = induced_subgraph(p4, {1, 3, 4})
    assert sub.edges == frozenset({(3, 4)})
    with pytest.raises(PreconditionError):
        induced_subgraph(c4, {5})


def test_connected_components_examples():
    c5 = cycle_graph(5)
    assert connected_components(c5) == [frozenset(range(1, 6))]
    c4 = cycle_graph(4)
    assert connected_components(induced_subgraph(c4, {2, 4})) == [frozenset({2}), frozenset({4})]
    p4 = path_graph(4)
    assert connected_components(induced_subgraph(p4, {1, 3, 4})) == [
        frozenset({1}),
        frozenset({3, 4}),
    ]


def test_is_minimal_kcut_examples():
    p4 = path_graph(4)
    assert is_minimal_kcut(p4, {2}) == (True, 2)
    assert is_minimal_kcut(p4, {2, 3})[0] is False
    assert is_minimal_kcut(cycle_graph(6), {1, 3, 5}) == (True, 3)
    with pytest.raises(PreconditionError):
        is_minimal_kcut(p4, set())
    with pytest.raises(PreconditionError):
        is_minimal_kcut(p4, {1, 2, 3, 4})


def brute_min_cuts(g):
    """Independent oracle: subset enumeration with networkx components."""
    out = [frozenset()]
    verts = sorted(g.vertices)
    for size in range(1, len(verts)):
        for combo in itertools.combinations(verts, size):
            s = set(combo)
            h = to_nx(g).copy()
            h.remove_nodes_from(s)
            comps = list(nx.connected_components(h))
            if len(comps) < 2:
                continue
            ok = True
            for i in s:
                hi = to_nx(g).subgraph(set(verts) - s | {i})
                if nx.number_connected_components(hi) >= len(comps):
                    ok = False
                    break
            if ok:
                out.append(frozenset(s))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def test_enumerate_min_cuts_examples():
    assert [r.s for r in enumerate_min_cuts(cycle_graph(4))] == [
        frozenset(),
        frozenset({1, 3}),
        frozenset({2, 4}),
    ]
    assert [r.s for r in enumerate_min_cuts(path_graph(4))] == [
        frozenset(),
        frozenset({2}),
        frozenset({3}),
    ]
    assert [r.s for r in enumerate_min_cuts(complete_graph(4))] == [frozenset()]
    with pytest.raises(PreconditionError):
        enumerate_min_cuts(Graph.make(4, [(1, 2), (3, 4)]))


def test_enumerate_min_cuts_against_bruteforce(small_connected_graphs):
    for g in small_connected_graphs:
        got = [r.s for r in enumerate_min_cuts(g)]
        assert got == brute_min_cuts(g), sorted(g.edges)


def test_min_cut_records_roundtrip(small_connected_graphs):
    for g in small_connected_graphs:
        for rec in enumerate_min_cuts(g):
            if rec.s:
                ok, k = is_minimal_kcut(g, rec.s)
                assert ok and k == rec.k and k == len(rec.components)
            merged = frozenset().union(*rec.components)
            assert merged == g.vertices - rec.s


def test_cycle_min_cuts_are_independent_sets():
    # nonempty minimal cuts of a cycle = independent subsets of size >= 2
    for n in range(4, 10):
        g = cycle_graph(n)
        got = {r.s for r in enumerate_min_cuts(g) if r.s}
        want = set()
        for size in range(2, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                s = set(combo)
                if all((v % n) + 1 not in s for v in s):
                    want.add(frozenset(s))
        assert got == want, n


def test_is_connected_dominating_examples():
    p4 = path_graph(4)
    assert is_connected_dominating(p4, {2, 3})
    assert not is_connected_dominating(p4, {1, 2})
    assert is_connected_dominating(cycle_graph(4), {1, 2})
    with pytest.raises(PreconditionError):
        is_connected_dominating(p4, set())


def brute_gamma_c(g):
    verts = sorted(g.vertices)
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            sub = to_nx(g).subgraph(combo)
            if not nx.is_connected(sub):
                continue
            if all(set(to_nx(g).adj[v]) & set(combo) for v in set(verts) - set(combo)):
                return size
    raise AssertionError


def test_gamma_c_examples():
    assert gamma_c(path_graph(4)) == (2, frozenset({2, 3}))
    assert gamma_c(cycle_graph(4))[0] == 2
    assert gamma_c(complete_graph(3)) == (1, frozenset({1}))
    assert gamma_c(Graph.make(1, []))[0] == 1  # one-vertex convention


def test_gamma_c_against_bruteforce(small_connected_graphs):
    for g in small_connected_graphs:
        size, witness = gamma_c(g)
        assert size == brute_gamma_c(g), sorted(g.edges)
        assert is_connected_dominating(g, witness)


def test_connected_dominating_sets_come_by_size_then_lexicographically():
    c5 = cycle_graph(5)
    sets = list(connected_dominating_sets(c5, c5.vertices))
    # the 5 quadruples and the whole cycle contain a triple, so only the triples come
    assert sets == [frozenset(b) for b in ([1, 2, 3], [1, 2, 5], [1, 4, 5], [2, 3, 4], [3, 4, 5])]
    # a side dominates the graph on side plus cut, from inside the side
    h = induced_subgraph(c5, {1, 2, 3, 4})
    assert list(connected_dominating_sets(h, [2, 3])) == [frozenset({2, 3})]


def test_connected_dominating_sets_match_the_one_set_test(small_connected_graphs):
    # the search's masks, connectivity walk and minimality filter against
    # is_connected_dominating, over the whole graph and over each side of
    # each minimal 2-cut
    def reference(g, within):
        verts = sorted(within)
        sets = [
            frozenset(combo)
            for size in range(1, len(verts) + 1)
            for combo in itertools.combinations(verts, size)
            if is_connected_dominating(g, combo)
        ]
        return [b for b in sets if not any(c < b for c in sets)]

    for g in small_connected_graphs:
        cases = [(g, g.vertices)]
        for rec in enumerate_min_cuts(g):
            if rec.k == 2:
                cases += [(induced_subgraph(g, side | rec.s), side) for side in rec.components]
        for h, within in cases:
            assert list(connected_dominating_sets(h, within)) == reference(h, within), sorted(g.edges)


def test_two_cut_sides():
    assert two_cut_sides(cycle_graph(6), [1, 4]) == [frozenset({2, 3}), frozenset({5, 6})]
    with pytest.raises(PreconditionError):
        two_cut_sides(cycle_graph(6), {1, 3, 5})


def nx_components(g, w):
    """Components of g[w] from networkx, sorted by least vertex."""
    return sorted((frozenset(c) for c in nx.connected_components(to_nx(g).subgraph(w))), key=min)


def proper_induced_subgraphs(graphs):
    """Every induced subgraph on a nonempty strict subset of the vertices: labels
    above the subgraph's size, and isolated vertices in the disconnected ones."""
    for g in graphs:
        verts = sorted(g.vertices)
        for size in range(1, len(verts)):
            for w in itertools.combinations(verts, size):
                yield induced_subgraph(g, w)


def test_is_connected_dominating_matches_networkx(small_connected_graphs):
    for h in proper_induced_subgraphs(small_connected_graphs):
        ref = to_nx(h)
        verts = sorted(h.vertices)
        for size in range(1, len(verts) + 1):
            for combo in itertools.combinations(verts, size):
                want = nx.is_connected(ref.subgraph(combo)) and nx.is_dominating_set(ref, combo)
                assert is_connected_dominating(h, combo) == want, (sorted(h.edges), combo)


def test_two_cut_sides_matches_networkx(small_connected_graphs):
    for h in proper_induced_subgraphs(small_connected_graphs):
        if not nx.is_connected(to_nx(h)):
            continue
        verts = sorted(h.vertices)
        for size in range(1, len(verts)):
            for combo in itertools.combinations(verts, size):
                s = frozenset(combo)
                if cut_point_definition(h, s) == (True, 2):
                    want = nx_components(h, h.vertices - s)
                    assert two_cut_sides(h, s) == want, (sorted(h.edges), combo)
                else:
                    with pytest.raises(PreconditionError):
                        two_cut_sides(h, s)


def test_gamma_c_pair_examples():
    assert gamma_c_pair(cycle_graph(4), {1, 3}) == (2, frozenset({2, 4}))
    assert gamma_c_pair(cycle_graph(6), {1, 4}) == (4, frozenset({2, 3, 5, 6}))
    assert gamma_c_pair(path_graph(4), {2}) == (2, frozenset({1, 3}))
    with pytest.raises(PreconditionError):
        gamma_c_pair(cycle_graph(6), {1, 3, 5})  # a 3-cut, not a 2-cut


def test_gamma_c_pair_witness_is_valid(small_connected_graphs):
    for g in small_connected_graphs:
        for rec in enumerate_min_cuts(g):
            if rec.k != 2:
                continue
            size, witness = gamma_c_pair(g, rec.s)
            assert len(witness) == size
            v1, v2 = rec.components
            for side in (v1, v2):
                trace = witness & side
                h = induced_subgraph(g, side | rec.s)
                assert is_connected_dominating(h, trace)


def test_graph_text_roundtrip():
    text = "# a comment\nn 4\n1 2\n2 3\n3 4\n1 4  # wrap\n"
    g = parse_graph(text)
    assert g == cycle_graph(4)
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize(
    "bad",
    [
        "1 2\n",  # missing n line
        "n 4\n2 1\n",  # u >= v
        "n 4\n1 5\n",  # out of range
        "n 4\n1 2\n1 2\n",  # duplicate
        "n 0\n",
        "n 4\n1\n",
    ],
)
def test_graph_text_errors(bad):
    with pytest.raises(GraphFormatError):
        parse_graph(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_components_partition_vertices(n, data):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph.make(n, edges)
    comps = connected_components(g)
    union = set()
    for c in comps:
        assert not (union & c)
        union |= c
    assert union == set(g.vertices)
    assert comps == sorted(comps, key=min)


def cut_point_definition(g, s):
    """(flag, k) straight from the definition, on networkx: G - S has k >= 2
    components and each i in S is a cut point of G[(V - S) + i]."""
    h = to_nx(g)
    rest = set(g.vertices) - s
    k = nx.number_connected_components(h.subgraph(rest))
    if k < 2:
        return False, k
    flag = all(nx.number_connected_components(h.subgraph(rest | {i})) < k for i in s)
    return flag, k


@settings(max_examples=25, deadline=None)
@given(connected_graphs(6, 9))
def test_one_pass_cut_test_matches_definition(g):
    """The one-pass cut test against networkx on 6-9 vertices: the whole
    enumeration, and the verdict on every nonempty proper subset."""
    assert [r.s for r in enumerate_min_cuts(g)] == brute_min_cuts(g), sorted(g.edges)
    verts = sorted(g.vertices)
    for size in range(1, len(verts)):
        for combo in itertools.combinations(verts, size):
            s = frozenset(combo)
            assert is_minimal_kcut(g, s) == cut_point_definition(g, s), (sorted(g.edges), combo)


def test_components_within_matches_induced_subgraph(small_connected_graphs):
    for g in small_connected_graphs:
        verts = sorted(g.vertices)
        for size in range(len(verts) + 1):
            for combo in itertools.combinations(verts, size):
                assert components_within(g, combo) == nx_components(g, combo)
    with pytest.raises(PreconditionError):
        components_within(cycle_graph(4), {5})


def min_cuts_by_definition(g):
    """The empty set's record, then that of every nonempty proper subset
    is_minimal_kcut accepts, in lexicographic order."""
    records = [CutRecord(frozenset(), 1, tuple(connected_components(g)))]
    verts = sorted(g.vertices)
    subsets = [c for size in range(1, len(verts)) for c in itertools.combinations(verts, size)]
    for combo in sorted(subsets):
        s = frozenset(combo)
        ok, k = is_minimal_kcut(g, s)
        if ok:
            records.append(CutRecord(s, k, tuple(components_within(g, g.vertices - s))))
    return records


def seeded_connected_graph(rng, n):
    """A random spanning tree on 1..n plus each other pair with chance 1/4."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    edges |= {e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.25}
    return Graph.make(n, edges)


def test_min_cut_enumeration_matches_the_definition():
    """Records, components and their order, on every connected
    non-complete graph on at most 7 vertices, seeded random graphs on 9 and
    10 vertices, and K_9 minus an edge, where the prune cuts least."""
    rng = random.Random(14)
    k9_minus_edge = Graph.make(9, complete_graph(9).edges - {(1, 2)})
    graphs = atlas_graphs(7) + [seeded_connected_graph(rng, n) for n in (9, 9, 10, 10)]
    for g in graphs + [k9_minus_edge]:
        assert enumerate_min_cuts(g) == min_cuts_by_definition(g), sorted(g.edges)
    assert [r.s for r in enumerate_min_cuts(k9_minus_edge)] == [
        frozenset(), frozenset(range(3, 10))
    ]


def test_cycle_cut_counts():
    # the empty cut plus the independent sets of size >= 2 of C_n
    counts = {n: len(enumerate_min_cuts(cycle_graph(n))) for n in (10, 11, 13, 14)}
    assert counts == {10: 113, 11: 188, 13: 508, 14: 829}


def test_graph_layer_imports_only_errors():
    """The graph layer sits below the engine: of vnum it imports errors alone."""
    modules = set()
    for node in ast.walk(ast.parse(pathlib.Path(vnum.graphs.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            modules.update(f"vnum.{m}" for m in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    assert {m for m in modules if m.split(".")[0] == "vnum"} == {"vnum.errors"}
