"""One colon fold per automorphism orbit of the cuts.

An automorphism sigma of G fixes J_G and carries P_S onto P_sigma(S), so it
carries (J_G : P_S) onto (J_G : P_sigma(S)); edgeideals._orbit_colon folds
one representative per orbit and maps its reduced basis onto the others.
These tests check the automorphism search against brute force, the mapped
bases against a fold on a fresh basis of J_G, the invariance of values and
windows under relabelling, and that a prime that runs out of budget records
no representative.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnum.edgeideals as ei
import vnum.graphs as graphs
import vnum.idealops as ideal_ops
from test_transversal_route import atlas_graphs
from vnum.cycles import cycle_graph
from vnum.edgeideals import GraphWork, colon_generators, edge_ideal_gens, prime_entry, vnumber
from vnum.errors import DEFAULT_LIMITS, Limits
from vnum.graphs import Graph, cut_automorphism, cut_invariant
from vnum.groebner import buchberger
from vnum.idealops import colon_ideal
from vnum.poly import MonomialOrder

ATLAS6 = atlas_graphs(6)


def relabel(g, pi):
    """g with vertex v renamed pi[v]."""
    return Graph.make(g.n, [(pi[u], pi[v]) for u, v in g.edges])


def automorphisms(g):
    """The automorphism group of g by brute force, as {vertex: image} dicts."""
    verts = sorted(g.vertices)
    found = []
    for images in itertools.permutations(verts):
        pi = dict(zip(verts, images))
        if all(tuple(sorted((pi[u], pi[v]))) in g.edges for u, v in g.edges):
            found.append(pi)
    return found


def test_the_search_finds_an_automorphism_exactly_when_one_exists():
    pairs = mapped = 0
    for g in ATLAS6 + [cycle_graph(6)]:
        group = automorphisms(g)
        cuts = [rec.s for rec in graphs.enumerate_min_cuts(g)]
        for r, s in itertools.product(cuts, repeat=2):
            sigma = cut_automorphism(g, r, s)
            exists = any({pi[v] for v in r} == s for pi in group)
            assert (sigma is not None) == exists, (sorted(g.edges), sorted(r), sorted(s))
            if sigma is not None:
                assert sigma in group and {sigma[v] for v in r} == s
                mapped += 1
            pairs += 1
    assert pairs > mapped > 0


def test_the_search_never_lists_a_factorial_group():
    # the star K_{1,11} and K_{2,10} have groups of order 11! and 2 * 10!;
    # listing either would outrun the one-second budget and raise
    star = Graph.make(12, [(1, v) for v in range(2, 13)])
    k2m = Graph.make(12, [(u, v) for u in (1, 2) for v in range(3, 13)])
    limits = Limits(time_budget_secs=1.0).start_clock()
    assert cut_automorphism(star, {1}, {1}, limits) is not None
    sigma = cut_automorphism(k2m, {1, 2}, {1, 2}, limits)
    assert {sigma[1], sigma[2]} == {1, 2}
    sigma = cut_automorphism(k2m, {3, 4}, {5, 6}, limits)
    assert {sigma[3], sigma[4]} == {5, 6}


def test_cuts_whose_invariants_differ_never_reach_the_search(monkeypatch):
    g = cycle_graph(8)
    folds = [rec.s for rec in graphs.enumerate_min_cuts(g) if rec.k > 2]
    differ = [(r, s) for r, s in itertools.permutations(folds, 2)
              if cut_invariant(g, r) != cut_invariant(g, s)]
    assert differ
    monkeypatch.setattr(graphs, "_carry", lambda *args: pytest.fail("the search ran"))
    for r, s in differ:
        assert cut_automorphism(g, r, s) is None


def _fold_cut_bases(g):
    """(cuts mapped, pairs of the orbit path's basis and a fresh fold's) at
    every cut of g that the transversal route leaves to the fold."""
    order = MonomialOrder(g.n)
    work = GraphWork.of(g)
    work.jg = buchberger(edge_ideal_gens(g), order)
    fresh = buchberger(edge_ideal_gens(g), order)
    pairs = []
    for rec in work.cuts:
        if rec.k > 2:
            got = ei._orbit_colon(g, rec, work, order, DEFAULT_LIMITS.start_clock())
            want = colon_ideal(fresh, colon_generators(g, rec.s), order)
            pairs.append((rec.s, got.packed, want.packed))
    return len(pairs) - len(work.folded), pairs


def test_mapped_bases_equal_the_fold_on_cycles():
    images = list(range(1, 9))
    random.Random(8).shuffle(images)
    c8 = relabel(cycle_graph(8), dict(zip(range(1, 9), images)))
    for g in [cycle_graph(n) for n in (6, 7, 8, 9)] + [c8]:
        mapped, pairs = _fold_cut_bases(g)
        assert mapped > 0
        for s, got, want in pairs:
            assert got == want, (sorted(g.edges), sorted(s))


def test_mapped_bases_equal_the_fold_on_the_atlas():
    mapped_total = 0
    for g in ATLAS6:
        mapped, pairs = _fold_cut_bases(g)
        mapped_total += mapped
        for s, got, want in pairs:
            assert got == want, (sorted(g.edges), sorted(s))
    assert mapped_total > 0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ATLAS6), st.randoms(use_true_random=False))
def test_values_and_windows_are_invariant_under_relabelling(g, rng):
    images = sorted(g.vertices)
    rng.shuffle(images)
    pi = dict(zip(sorted(g.vertices), images))
    before, after = vnumber(g), vnumber(relabel(g, pi))
    assert before.global_v == after.global_v
    for e in before.per_prime:
        f = after.entry({pi[v] for v in e.s})
        assert (e.v, e.window, e.combinatorial_v, e.status) == (
            f.v, f.window, f.combinatorial_v, f.status)


def test_a_representative_out_of_budget_leaves_no_memo_entry(monkeypatch):
    g = cycle_graph(6)
    work = GraphWork.of(g)

    def slow_colon(*args):
        time.sleep(0.3)
        return colon(*args)

    colon = ideal_ops.packed_colon
    monkeypatch.setattr(ideal_ops, "packed_colon", slow_colon)
    rec = work.record({1, 3, 5})
    entry = prime_entry(rec, g, work, Limits(time_budget_secs=0.2), False, True)
    assert entry.status == "resource-limit" and entry.v is None
    assert work.folded == {}
    monkeypatch.setattr(ideal_ops, "packed_colon", colon)
    assert prime_entry(rec, g, work, DEFAULT_LIMITS, False, True).v == 6
    assert list(work.folded) == [rec.s]
