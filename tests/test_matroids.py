"""Matroids of cuts, dependency families, and exact transversal search."""

import itertools

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from vnum.errors import NoTransversalError, PreconditionError
from vnum.graphs import Graph, enumerate_min_cuts
from vnum.cycles import cycle_graph
from vnum.matroids import (
    TransversalFamily,
    _decode,
    cut_dependents,
    delta_family,
    min_transversal_weight,
    packed_concise_generators,
)
from vnum.poly import MonomialOrder, edge_binomial, one_poly, poly_to_text
from conftest import connected_graphs
from test_cli import GRID_EDGES
from test_transversal_route import atlas_graphs
from reference import (
    RankTwoMatroid,
    SetFamily,
    concise_cut_generators,
    cut_dependent_sets,
    complete_graph,
    cut_generators_full,
    delta_family_sets,
    is_connected_dominating,
    matroid_of_cut,
    min_transversal_weight_sets,
    minimal_transversals,
    path_graph,
    small_dependent_diff,
    transversal_ideal_generic,
)


def fs(*items):
    return frozenset(items)


def test_matroid_of_cut_examples():
    c4 = cycle_graph(4)
    m = matroid_of_cut(c4, {1, 3})
    assert m.loops == fs(1, 3)
    assert set(m.parallel_classes) == {fs(2), fs(4)}
    m0 = matroid_of_cut(c4, frozenset())
    assert m0.loops == frozenset()
    assert m0.parallel_classes == (fs(1, 2, 3, 4),)  # the uniform rank-one matroid
    c6 = cycle_graph(6)
    m6 = matroid_of_cut(c6, {1, 4})
    assert m6.loops == fs(1, 4)
    assert set(m6.parallel_classes) == {fs(2, 3), fs(5, 6)}
    with pytest.raises(PreconditionError):
        matroid_of_cut(c4, {1, 2})  # adjacent pair is not a minimal cut


def test_dependence_three_clause_rule():
    m = RankTwoMatroid(4, fs(1), (fs(2, 3), fs(4)))
    assert m.is_dependent({1})
    assert m.is_dependent({2, 3})
    assert not m.is_dependent({2, 4})
    assert m.is_dependent({2, 3, 4})
    assert not m.is_dependent(set())
    with pytest.raises(PreconditionError):
        RankTwoMatroid(4, fs(1), (fs(1, 2), fs(3, 4)))
    with pytest.raises(PreconditionError):
        RankTwoMatroid(4, fs(1), (fs(2),))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dependence_matches_displayed_formula(data):
    """Property: the predicate equals the literal three-clause definition on
    matroids of cuts of random small connected graphs."""
    n = data.draw(st.integers(3, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs), min_size=n - 1))
    g = Graph.make(n, edges)
    cuts = None
    try:
        cuts = enumerate_min_cuts(g)
    except PreconditionError:
        return  # disconnected sample
    rec = data.draw(st.sampled_from(cuts))
    m = matroid_of_cut(g, rec.s)
    for size in range(0, 4):
        for b in itertools.combinations(range(1, n + 1), size):
            bset = set(b)
            direct = (
                bool(bset & set(rec.s))
                or any(len(bset & cls) >= 2 for cls in m.parallel_classes)
                or len(bset) >= 3
            )
            assert m.is_dependent(bset) == direct


def test_small_dependent_diff_examples():
    c4 = cycle_graph(4)
    m13 = matroid_of_cut(c4, {1, 3})
    m0 = matroid_of_cut(c4, frozenset())
    assert small_dependent_diff(m13, m0) == fs(fs(1), fs(3))
    assert small_dependent_diff(m0, m13) == fs(fs(2, 4))
    assert small_dependent_diff(m13, m13) == frozenset()


def test_delta_family_examples():
    c4 = cycle_graph(4)
    fam = delta_family(c4, {1, 3})
    by_source = dict(zip(fam.sources, fam.members))
    assert by_source[frozenset()] == fs(fs(2, 4))
    assert by_source[fs(2, 4)] == fs(fs(2), fs(4), fs(2, 4))
    fam0 = delta_family(c4, frozenset())
    by_source = dict(zip(fam0.sources, fam0.members))
    assert by_source[fs(1, 3)] == fs(fs(1), fs(3))
    assert by_source[fs(2, 4)] == fs(fs(2), fs(4))
    famk = delta_family(complete_graph(4), frozenset())
    assert famk.members == ()


def brute_min_weight(members):
    """Exhaustive weighted hitting set over subsets of the union."""
    universe = sorted(set().union(*members), key=lambda e: (len(e), sorted(e)))
    best = None
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(m & chosen for m in members):
                w = sum(1 if len(e) == 1 else 2 for e in chosen)
                best = w if best is None else min(best, w)
    return best


def test_min_transversal_weight_examples():
    c4 = cycle_graph(4)
    w, t = min_transversal_weight(delta_family(c4, {1, 3}))
    assert w == 2 and t.singles == frozenset() and t.pairs == fs(fs(2, 4))
    w0, t0 = min_transversal_weight(delta_family(c4, frozenset()))
    assert w0 == 2 and t0.singles == fs(1, 2) and not t0.pairs
    we, te = min_transversal_weight(TransversalFamily(4, (), ()))
    assert we == 0 and te.weight == 0
    with pytest.raises(NoTransversalError):
        min_transversal_weight(TransversalFamily(4, (0,), (frozenset(),)))


def test_min_transversal_weight_against_bruteforce(small_connected_graphs):
    for g in small_connected_graphs:
        for rec in enumerate_min_cuts(g):
            fam = delta_family(g, rec.s)
            if not fam.members:
                continue
            w, t = min_transversal_weight(fam)
            assert w == brute_min_weight(fam.members), (sorted(g.edges), sorted(rec.s))
            # the witness really is a transversal of the family
            elements = t.elements()
            assert all(m & elements for m in fam.members)
            assert t.weight == w


def witness_key(elements):
    """The sorted keys of a set of singletons and pairs, which order sets
    of one weight lexicographically."""
    return sorted((len(e), sorted(e)) for e in elements)


def brute_least_optimal_key(members, w):
    """witness_key of the least transversal of weight w, by exhaustion."""
    pool = sorted(set().union(*members), key=lambda e: (len(e), sorted(e)))
    optimal = [
        set(combo)
        for size in range(w + 1)
        for combo in itertools.combinations(pool, size)
        if sum(1 if len(e) == 1 else 2 for e in combo) == w
        and all(m & set(combo) for m in members)
    ]
    return min(map(witness_key, optimal))


def test_min_transversal_witness_is_the_least_optimal_set(small_connected_graphs):
    # the tie-break against every transversal of the least weight
    checked = 0
    for g in small_connected_graphs + [cycle_graph(6)]:
        for rec in enumerate_min_cuts(g):
            fam = delta_family(g, rec.s)
            w, t = min_transversal_weight(fam)
            assert witness_key(t.elements()) == brute_least_optimal_key(fam.members, w), (
                sorted(g.edges), sorted(rec.s))
            checked += 1
    assert checked == 92


def small_subsets(n):
    """The singletons and pairs of 1..n in the numbering of the module
    docstring: element i of the list is bit i of a mask."""
    return [fs(v) for v in range(1, n + 1)] + [
        frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)
    ]


@st.composite
def set_families(draw):
    """(n, members): up to six arbitrary sets of singletons and pairs of
    1..n for n <= 5, not only the families that come from cuts."""
    n = draw(st.integers(1, 5))
    elements = st.sampled_from(small_subsets(n))
    return n, draw(st.lists(st.frozensets(elements, max_size=4), max_size=6))


@settings(max_examples=200, deadline=None)
@given(set_families())
@example((3, []))
@example((3, [fs(fs(1)), frozenset()]))
def test_masks_of_arbitrary_families_against_bruteforce(family):
    """The numbering read back as the members drawn; the least weight
    and the least optimal witness against exhaustion; an empty family has
    weight 0 and an empty member no transversal."""
    n, members = family
    bit = {e: i for i, e in enumerate(small_subsets(n))}
    masks = tuple(sum(1 << bit[e] for e in m) for m in members)
    fam = TransversalFamily(n, masks, (frozenset(),) * len(masks))
    assert fam.members == tuple(members)
    if frozenset() in members:
        with pytest.raises(NoTransversalError):
            min_transversal_weight(fam)
        return
    w, t = min_transversal_weight(fam)
    assert w == brute_min_weight(members)
    assert witness_key(t.elements()) == brute_least_optimal_key(members, w)


def test_minimal_transversals_are_minimal_transversals(small_connected_graphs):
    for g in small_connected_graphs[:12]:
        for rec in enumerate_min_cuts(g):
            fam = delta_family(g, rec.s)
            if not fam.members:
                assert minimal_transversals(fam) == [frozenset()]
                continue
            for elements in minimal_transversals(fam):
                assert all(m & elements for m in fam.members)
                for e in elements:
                    rest = elements - {e}
                    assert not all(m & rest for m in fam.members)


def test_transversal_ideal_generic_examples():
    c4 = cycle_graph(4)
    assert transversal_ideal_generic(c4, {1, 3}) == [edge_binomial(2, 4, 4)]
    gens0 = transversal_ideal_generic(c4, frozenset())
    texts = {poly_to_text(p) for p in gens0}
    want = set()
    for a, b in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        want |= {f"x{a}*x{b}", f"x{a}*y{b}", f"x{b}*y{a}", f"y{a}*y{b}"}
    assert texts == want
    assert transversal_ideal_generic(complete_graph(4), frozenset()) == [one_poly(4)]


def test_concise_cut_generators_examples():
    c4 = cycle_graph(4)
    assert concise_cut_generators(c4, {1, 3}) == [edge_binomial(2, 4, 4)]
    p4 = path_graph(4)
    assert concise_cut_generators(p4, {2}) == [edge_binomial(1, 3, 4)]
    c6 = cycle_graph(6)
    gens = concise_cut_generators(c6, {1, 4})
    assert len(gens) == 16
    for p in gens:
        assert p.degree() == 4
    with pytest.raises(PreconditionError):
        concise_cut_generators(cycle_graph(6), {1, 3, 5})


def test_concise_generators_are_distinct_on_the_atlas_and_cycles():
    """packed_concise_generators returns its list as built, and no two of
    its generators are equal, at the empty cut and every 2-cut of every
    connected non-complete atlas graph on at most 6 vertices and of C_5..C_9."""
    builds = 0
    for g in atlas_graphs(6) + [cycle_graph(n) for n in range(5, 10)]:
        order = MonomialOrder(g.n)
        for rec in enumerate_min_cuts(g):
            if rec.s and rec.k != 2:
                continue
            gens = packed_concise_generators(g, rec.s, order)
            assert len({frozenset(p.items()) for p in gens}) == len(gens), (sorted(g.edges), sorted(rec.s))
            builds += 1
    assert builds == 419 + sum(1 + n * (n - 3) // 2 for n in range(5, 10))


def test_cut_generators_full_contains_concise():
    c6 = cycle_graph(6)
    full = set(cut_generators_full(c6, {1, 4}))
    assert set(concise_cut_generators(c6, {1, 4})) <= full


def test_transversal_vs_concise_ideal_equality_mod_edge_ideal(small_connected_graphs):
    """The two generator recipes agree modulo the edge ideal (the concise
    generating set lemma); tested by mutual membership."""
    from vnum.groebner import buchberger, normal_form
    from vnum.edgeideals import edge_ideal_gens
    from vnum.poly import MonomialOrder

    checked = 0
    for g in small_connected_graphs:
        for rec in enumerate_min_cuts(g):
            if rec.k != 2 or len(g.vertices) > 5:
                continue
            order = MonomialOrder(g.n)
            jg = edge_ideal_gens(g)
            a = transversal_ideal_generic(g, rec.s)
            b = concise_cut_generators(g, rec.s)
            gb_a = buchberger(jg + a, order)
            gb_b = buchberger(jg + b, order)
            assert all(normal_form(p, gb_b).is_zero for p in a)
            assert all(normal_form(p, gb_a).is_zero for p in b)
            checked += 1
    assert checked >= 10


def test_transversal_characterization_for_2cuts(small_connected_graphs):
    """For a minimal 2-cut, the transversals are exactly the collections
    whose support traces connect-dominate each side-plus-cut graph and that
    contain at least one pair; checked by full enumeration."""
    from vnum.graphs import induced_subgraph

    checked = 0
    for g in small_connected_graphs:
        if len(g.vertices) > 5:
            continue
        for rec in enumerate_min_cuts(g):
            if rec.k != 2:
                continue
            fam = delta_family(g, rec.s)
            base = matroid_of_cut(g, rec.s)
            v1, v2 = rec.components
            universe = sorted(
                (e for m in fam.members for e in m), key=lambda e: (len(e), sorted(e))
            )
            universe = list(dict.fromkeys(universe))
            for size in range(len(universe) + 1):
                for combo in itertools.combinations(universe, size):
                    a = frozenset(combo)
                    is_transversal = bool(fam.members) and all(m & a for m in fam.members)
                    support = set().union(*a) if a else set()
                    pairs = [e for e in a if len(e) == 2]
                    cond = (
                        bool(pairs)
                        and support & v1
                        and support & v2
                        and is_connected_dominating(
                            induced_subgraph(g, v1 | rec.s), frozenset(support) & v1
                        )
                        and is_connected_dominating(
                            induced_subgraph(g, v2 | rec.s), frozenset(support) & v2
                        )
                    )
                    assert is_transversal == bool(cond), (sorted(g.edges), sorted(rec.s), a)
            checked += 1
            if checked >= 8:
                return
    assert checked > 0


def test_empty_cut_min_weight_is_domination_number(small_connected_graphs):
    """At the empty cut the family members consist of singletons, so the
    minimum transversal weight is the connected domination number."""
    from vnum.graphs import gamma_c

    for g in small_connected_graphs:
        if len(g.vertices) < 2 or g.is_complete():
            continue
        w, t = min_transversal_weight(delta_family(g, frozenset()))
        assert w == gamma_c(g)[0], sorted(g.edges)
        assert not t.pairs


def test_empty_cut_singleton_transversals_are_dominating_sets(small_connected_graphs):
    """Transversals of the empty-cut family consisting of singletons only
    correspond to connected dominating sets."""

    for g in small_connected_graphs:
        if len(g.vertices) < 2 or g.is_complete():
            continue
        fam = delta_family(g, frozenset())
        for elements in minimal_transversals(fam):
            if all(len(e) == 1 for e in elements):
                support = {next(iter(e)) for e in elements}
                assert is_connected_dominating(g, support), (sorted(g.edges), support)


def reference_family(g, s, cuts):
    """The Δ-family built from the public matroid construction."""
    base = matroid_of_cut(g, s)
    others = [rec.s for rec in cuts if rec.s != s]
    members = tuple(small_dependent_diff(matroid_of_cut(g, t), base) for t in others)
    return SetFamily(g.n, members, tuple(others))


def test_delta_family_equals_reference_construction(small_connected_graphs):
    """The set-difference Δ-families equal small_dependent_diff over
    matroid_of_cut, member by member and source by source, and give the
    same minimum transversal and witness."""
    graphs = list(small_connected_graphs) + [cycle_graph(n) for n in (7, 8, 9)]
    checked = 0
    for g in graphs:
        cuts = enumerate_min_cuts(g)
        for rec in cuts:
            fam = delta_family(g, rec.s)
            ref = reference_family(g, rec.s, cuts)
            assert fam.members == ref.members, (sorted(g.edges), sorted(rec.s))
            assert fam.sources == ref.sources, (sorted(g.edges), sorted(rec.s))
            assert min_transversal_weight(fam) == min_transversal_weight_sets(ref)
            checked += 1
    assert checked > 200
    with pytest.raises(PreconditionError):
        delta_family(cycle_graph(4), {1, 2})  # adjacent pair is not a minimal cut


def decoded(n, dependents):
    """cut_dependents with each mask decoded into frozensets."""
    return dict(zip(dependents, _decode(n, dependents.values())))


def assert_masks_equal_the_sets(g):
    """At every cut of g, the mask layer against the frozenset reference:
    the decoded dependents, the decoded members and sources of the delta
    family, and the (weight, witness) of the branch and bound.  Returns
    the number of cuts."""
    cuts = enumerate_min_cuts(g)
    masks = cut_dependents(g, cuts)
    sets = cut_dependent_sets(g, cuts)
    assert decoded(g.n, masks) == sets, sorted(g.edges)
    for rec in cuts:
        fam = delta_family(g, rec.s, masks)
        ref = delta_family_sets(g, rec.s, sets)
        assert (fam.members, fam.sources) == (ref.members, ref.sources), sorted(rec.s)
        got, want = min_transversal_weight(fam), min_transversal_weight_sets(ref)
        assert got == want, (sorted(g.edges), sorted(rec.s))
    return len(cuts)


def test_masks_equal_the_sets_on_the_atlas_and_cycles():
    """Every connected graph of networkx's atlas on at most 6 vertices and
    C_7..C_10, and the dependents of the 3 x 6 grid's 2,203 cuts."""
    graphs = [
        Graph.make(h.number_of_nodes(), [(u + 1, v + 1) for u, v in h.edges()])
        for h in nx.graph_atlas_g()
        if 1 <= h.number_of_nodes() <= 6 and nx.is_connected(h)
    ]
    assert len(graphs) == 143
    checked = sum(assert_masks_equal_the_sets(g) for g in graphs + [cycle_graph(n) for n in range(7, 11)])
    assert checked == 780
    grid = Graph.make(18, GRID_EDGES)
    cuts = enumerate_min_cuts(grid)
    assert len(cuts) == 2203
    assert decoded(grid.n, cut_dependents(grid, cuts)) == cut_dependent_sets(grid, cuts)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(8, 9))
def test_masks_equal_the_sets_on_random_graphs(g):
    assert_masks_equal_the_sets(g)
