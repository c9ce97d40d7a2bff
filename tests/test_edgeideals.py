"""Edge ideals, prime components, path bases, and the v-number pipeline."""

import dataclasses
import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import connected_graphs
from reference import (
    assert_reduced_groebner,
    complete_graph,
    is_groebner_basis_all_pairs,
    leading_monomial,
    path_basis_by_definition,
    path_graph,
)

from vnum.errors import DEFAULT_LIMITS, PreconditionError
from vnum.graphs import (
    Graph,
    enumerate_min_cuts,
    gamma_c,
    gamma_c_pair,
)
from vnum.groebner import buchberger, is_groebner_basis, pack_poly
from vnum.idealops import as_basis, colon_ideal, colon_poly, intersect
from vnum.edgeideals import (
    GraphWork,
    admissible_path_basis,
    check_colon_equals_prime,
    edge_ideal_gens,
    oracle_vnumber_at_prime,
    prime_component,
    vnumber,
    vnumber_at_prime,
)
from vnum.poly import MonomialOrder, edge_binomial, one_poly, poly_to_text, x_poly, y_poly
from vnum.cycles import cycle_graph


def test_edge_ideal_gens_examples():
    assert edge_ideal_gens(complete_graph(3)) == [
        edge_binomial(1, 2, 3),
        edge_binomial(1, 3, 3),
        edge_binomial(2, 3, 3),
    ]
    assert edge_ideal_gens(path_graph(3)) == [edge_binomial(1, 2, 3), edge_binomial(2, 3, 3)]
    assert edge_ideal_gens(Graph.make(3, [])) == []


def test_prime_component_examples():
    p3 = path_graph(3)
    assert list(prime_component(p3, {2}).generators) == [y_poly(2, 3), x_poly(2, 3)]
    assert set(prime_component(p3, frozenset()).generators) == set(edge_ideal_gens(complete_graph(3)))
    c6 = cycle_graph(6)
    gens = set(prime_component(c6, {1, 4}).generators)
    assert gens == {
        x_poly(1, 6), y_poly(1, 6), x_poly(4, 6), y_poly(4, 6),
        edge_binomial(2, 3, 6), edge_binomial(5, 6, 6),
    }


def test_prime_component_is_reduced_basis(small_connected_graphs):
    for g in small_connected_graphs[:15]:
        order = MonomialOrder(g.n)
        for rec in enumerate_min_cuts(g):
            gb = prime_component(g, rec.s)
            if not gb.generators:
                continue
            assert gb.order == order
            assert is_groebner_basis(list(gb.generators), order)
            recomputed = buchberger(list(gb.generators), order)
            assert list(recomputed.generators) == list(gb.generators)


def test_admissible_path_basis_examples():
    assert set(admissible_path_basis(path_graph(3)).generators) == set(
        edge_ideal_gens(path_graph(3))
    )
    c4 = cycle_graph(4)
    got = set(admissible_path_basis(c4).generators)
    want = set(edge_ideal_gens(c4)) | {
        x_poly(4, 4) * edge_binomial(1, 3, 4),
        y_poly(1, 4) * edge_binomial(2, 4, 4),
    }
    assert got == want
    assert set(admissible_path_basis(complete_graph(3)).generators) == set(
        edge_ideal_gens(complete_graph(3))
    )


def test_admissible_path_basis_equals_engine_output(small_connected_graphs):
    """The engine's basis is the one built from the admissible paths,
    element by element, on every connected graph with n <= 5."""
    for g in small_connected_graphs:
        assert admissible_path_basis(g).packed == path_basis_by_definition(g).packed, sorted(g.edges)


def test_admissible_path_basis_sigma_order():
    c4 = cycle_graph(4)
    sigma = (2, 3, 4, 1)  # vertex 4 becomes least
    gb = admissible_path_basis(c4, sigma)
    assert gb.packed == path_basis_by_definition(c4, sigma).packed
    assert is_groebner_basis_all_pairs(list(gb.generators), MonomialOrder(4, sigma))


def test_vnumber_at_prime_examples():
    v, w = vnumber_at_prime(path_graph(3), frozenset())
    assert v == 1 and w in (x_poly(2, 3), y_poly(2, 3))
    v, w = vnumber_at_prime(cycle_graph(4), {1, 3})
    assert v == 2 and w == edge_binomial(2, 4, 4)
    v, w = vnumber_at_prime(complete_graph(4), frozenset())
    assert v == 0 and w == one_poly(4)
    with pytest.raises(PreconditionError):
        vnumber_at_prime(path_graph(4), {1})


def test_check_colon_equals_prime_examples():
    p3 = path_graph(3)
    assert check_colon_equals_prime(p3, x_poly(2, 3), frozenset())
    assert not check_colon_equals_prime(p3, x_poly(1, 3), frozenset())
    assert check_colon_equals_prime(cycle_graph(4), edge_binomial(2, 4, 4), {1, 3})
    with pytest.raises(PreconditionError):
        check_colon_equals_prime(p3, x_poly(1, 3) + one_poly(3), frozenset())


def test_certificate_equals_the_colon_it_replaces(small_connected_graphs):
    """check_colon_equals_prime decides (J_G : f) = P_S by memberships; the
    reference computes the colon and compares it with the reduced basis of
    P_S.  Both agree, with and without the report's GraphWork, at every
    prime of the connected non-complete graphs on at most 5 vertices, for
    the witnesses of all its primes, 1, x1, y_n, an edge binomial and the
    prime's own witness times x1."""
    checked = accepted = 0
    for g in small_connected_graphs:
        if g.is_complete():
            continue
        order = MonomialOrder(g.n)
        edges = edge_ideal_gens(g)
        work = GraphWork.of(g)
        witnesses = {rec.s: vnumber_at_prime(g, rec.s, _work=work)[1] for rec in work.cuts}
        common = [*witnesses.values(), one_poly(g.n), x_poly(1, g.n), y_poly(g.n, g.n), edges[0]]
        colons = {}
        for s, w in witnesses.items():
            target = list(prime_component(g, s).generators)
            for f in common + [w * x_poly(1, g.n)]:
                if f not in colons:
                    colons[f] = list(colon_poly(edges, f, order))
                want = colons[f] == target
                assert check_colon_equals_prime(g, f, s) == want, (sorted(g.edges), sorted(s), f)
                assert check_colon_equals_prime(g, f, s, _work=work) == want
                checked += 1
                accepted += want
    assert (checked, accepted) == (618, 130)


def test_every_prime_component_contains_the_edge_ideal():
    """The lemma that lets check_colon_equals_prime skip the membership of
    J_G in P_S: every edge binomial reduces to 0 modulo P_S, for every
    vertex subset S of every connected atlas graph on 2 to 6 vertices."""
    import networkx as nx

    checked = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 2 <= n <= 6 or not nx.is_connected(h):
            continue
        g = Graph.make(n, [(u + 1, v + 1) for u, v in h.edges()])
        order = MonomialOrder(n)
        edges = [pack_poly(e, order) for e in edge_ideal_gens(g)]
        for r in range(n + 1):
            for s in itertools.combinations(range(1, n + 1), r):
                table = prime_component(g, s).reducers
                assert not any(table.remainder(e, DEFAULT_LIMITS) for e in edges), (h.edges(), s)
                checked += 1
    assert checked == 7956


def test_oracle_examples():
    assert oracle_vnumber_at_prime(path_graph(3), frozenset()) == 1
    assert oracle_vnumber_at_prime(cycle_graph(4), {1, 3}) == 2
    assert oracle_vnumber_at_prime(complete_graph(4), frozenset()) == 0


def test_domination_theorems_on_random_n6_graphs():
    """Fixed-seed random 6-vertex graphs: the pipeline matches both
    domination formulas, beyond the curated acceptance sample."""
    import itertools
    import random

    from vnum.graphs import is_connected

    rng = random.Random(7)
    pairs = list(itertools.combinations(range(1, 7), 2))
    done = 0
    while done < 3:
        g = Graph.make(6, rng.sample(pairs, rng.randint(6, 9)))
        if not is_connected(g) or g.is_complete():
            continue
        done += 1
        v, _ = vnumber_at_prime(g, frozenset())
        assert v == gamma_c(g)[0], sorted(g.edges)
        two_cuts = [r for r in enumerate_min_cuts(g) if r.k == 2]
        if two_cuts:
            rec = two_cuts[0]
            v, _ = vnumber_at_prime(g, rec.s)
            assert v == gamma_c_pair(g, rec.s)[0], (sorted(g.edges), sorted(rec.s))


def test_oracle_agrees_on_c6_three_cut():
    # the one window on C_6 that is not pinned exactly; both routes give 6
    g = cycle_graph(6)
    v, _ = vnumber_at_prime(g, {1, 3, 5})
    assert v == 6
    assert oracle_vnumber_at_prime(g, {1, 3, 5}) == 6


def test_vnumber_reports():
    rep = vnumber(cycle_graph(4))
    assert rep.global_v == 2
    assert all(e.v == 2 for e in rep.per_prime)
    assert all(e.agree for e in rep.per_prime)
    rep = vnumber(path_graph(4))
    assert rep.global_v == 2
    assert {tuple(sorted(e.s)) for e in rep.per_prime} == {(), (2,), (3,)}
    rep = vnumber(complete_graph(5))
    assert rep.global_v == 0 and rep.argmin == frozenset()


def test_vnumber_bounds_only_mode():
    rep = vnumber(path_graph(4), algebraic=False)
    assert rep.global_v == 2
    assert all(e.method == "combinatorial" for e in rep.per_prime)
    assert all(e.witness is None for e in rep.per_prime)


def test_vnumber_with_oracle():
    rep = vnumber(path_graph(3), with_oracle=True)
    assert all(e.oracle_ok for e in rep.per_prime)


def test_decomposition_small():
    """J_G equals the intersection of its minimal primes (radical check)."""
    for g in [path_graph(3), cycle_graph(4), path_graph(4)]:
        order = MonomialOrder(g.n)
        inter = None
        for rec in enumerate_min_cuts(g):
            gens = list(prime_component(g, rec.s).generators)
            inter = gens if inter is None else intersect(inter, gens, order)
        jg = buchberger(edge_ideal_gens(g), order)
        assert set(as_basis(inter, order).generators) == set(jg.generators)


def test_colon_ideal_is_already_its_reduced_basis(small_connected_graphs):
    """vnumber_at_prime takes colon_ideal's result as a reduced basis without
    running Buchberger on it; the two agree term for term and in order at
    every prime of the n <= 4 corpus and of C_5."""
    graphs = [g for g in small_connected_graphs if len(g.vertices) <= 4] + [cycle_graph(5)]
    checked = 0
    for g in graphs:
        order = MonomialOrder(g.n)
        jg = buchberger(edge_ideal_gens(g), order)
        for rec in enumerate_min_cuts(g):
            if not rec.s and g.is_complete():
                continue  # the pipeline answers 0 here without a colon
            quot = list(colon_ideal(jg, list(prime_component(g, rec.s).generators), order))
            assert quot == list(buchberger(quot, order).generators), (
                sorted(g.edges), sorted(rec.s))
            checked += 1
    assert checked == 20


def test_theorem_bound_small(small_connected_graphs):
    """v at the empty cut is the connected domination number (non-complete)."""
    for g in small_connected_graphs:
        if len(g.vertices) > 4 or g.is_complete():
            continue
        v, _ = vnumber_at_prime(g, frozenset())
        assert v == gamma_c(g)[0], sorted(g.edges)


def test_two_cut_theorem_small(small_connected_graphs):
    for g in small_connected_graphs:
        if len(g.vertices) > 4:
            continue
        for rec in enumerate_min_cuts(g):
            if rec.k != 2:
                continue
            v, _ = vnumber_at_prime(g, rec.s)
            assert v == gamma_c_pair(g, rec.s)[0], (sorted(g.edges), sorted(rec.s))


def test_empty_cut_transversal_sum_has_squarefree_initial(small_connected_graphs):
    """J_G plus the empty-cut transversal generators has a squarefree
    initial ideal under the default order (hence is radical), so the
    weight bound is an equality there."""
    from reference import initial_ideal, transversal_ideal_generic

    for g in small_connected_graphs:
        if len(g.vertices) < 3 or len(g.vertices) > 4 or g.is_complete():
            continue
        order = MonomialOrder(g.n)
        gens = edge_ideal_gens(g) + transversal_ideal_generic(g, frozenset())
        _, squarefree = initial_ideal(buchberger(gens, order))
        assert squarefree, sorted(g.edges)


def test_saturation_by_variable_leading_terms():
    """Leading monomials of (J_Cn : x_i) lie in in(J_Cn) plus the four
    products over the two cycle-neighbours of i."""
    from vnum.idealops import colon_poly
    from reference import mono_divides

    for n in (5, 7):
        g = cycle_graph(n)
        order = MonomialOrder(n)
        jg = buchberger(edge_ideal_gens(g), order)
        in_j = [leading_monomial(p, order) for p in jg.generators]
        i = 1
        prev, nxt = n, 2
        extra = [
            (x_poly(prev, n) * x_poly(nxt, n)),
            (x_poly(prev, n) * y_poly(nxt, n)),
            (y_poly(prev, n) * x_poly(nxt, n)),
            (y_poly(prev, n) * y_poly(nxt, n)),
        ]
        extra_lms = [leading_monomial(p, order) for p in extra]
        col = colon_poly(jg, x_poly(i, n), order)
        for p in col:
            lm = leading_monomial(p, order)
            assert any(mono_divides(m, lm) for m in in_j + extra_lms), poly_to_text(p)


def test_saturation_by_bridging_binomial_initial_ideal():
    """in(J_Cn : f_{i-1,i+1}) = in(J_Cn) + (x_i, y_i) + the squarefree
    monomials over the remaining vertices, as monomial ideals."""
    import itertools as it

    from vnum.idealops import colon_poly
    from reference import mono_divides
    from vnum.poly import xy_monomial

    n = 5
    i = 1
    prev, nxt = n, 2
    g = cycle_graph(n)
    order = MonomialOrder(n)
    jg = buchberger(edge_ideal_gens(g), order)
    col = colon_poly(jg, edge_binomial(prev, nxt, n), order)
    left = [leading_monomial(p, order) for p in col]
    rest = sorted(set(range(1, n + 1)) - {prev, i, nxt})
    right_polys = (
        [leading_monomial(p, order) for p in jg.generators]
        + [leading_monomial(x_poly(i, n), order), leading_monomial(y_poly(i, n), order)]
        + [
            leading_monomial(xy_monomial(c, [v for v in rest if v not in c], n), order)
            for r in range(len(rest) + 1)
            for c in it.combinations(rest, r)
        ]
    )
    for lm in left:
        assert any(mono_divides(m, lm) for m in right_polys)
    for m in right_polys:
        assert any(mono_divides(lm, m) for lm in left)


def test_path_basis_check_rejects_a_basis_that_is_not_tail_reduced():
    from vnum.groebner import GroebnerBasis

    n = 2
    order = MonomialOrder(n)
    y1, x1 = pack_poly(y_poly(1, n), order), pack_poly(x_poly(1, n), order)
    # coprime leading terms y1 < x1 make both lists Groebner bases, ascending
    assert_reduced_groebner(GroebnerBasis([y1, x1], order), DEFAULT_LIMITS)
    untidy = GroebnerBasis([y1, {**x1, **y1}], order)  # tail y1 reduces
    assert is_groebner_basis(list(untidy.generators), order)
    with pytest.raises(AssertionError, match="tail-reduced"):
        assert_reduced_groebner(untidy, DEFAULT_LIMITS)


def test_path_basis_check_rejects_a_set_that_is_not_a_groebner_basis():
    from vnum.groebner import GroebnerBasis

    star = Graph.make(4, [(1, 2), (1, 3), (1, 4)])
    order = MonomialOrder(4)
    edges = sorted((pack_poly(e, order) for e in edge_ideal_gens(star)), key=max)
    assert not is_groebner_basis(edge_ideal_gens(star), order)
    with pytest.raises(AssertionError, match="Groebner basis"):
        assert_reduced_groebner(GroebnerBasis(edges, order), DEFAULT_LIMITS)


def test_every_division_of_a_prime_runs_under_its_deadline(monkeypatch):
    import vnum.groebner as gr

    deadlines = []
    division = gr._nf_terms

    def recording(terms, table, limits):
        deadlines.append(limits.deadline)
        return division(terms, table, limits)

    monkeypatch.setattr(gr, "_nf_terms", recording)
    vnumber(cycle_graph(5), with_oracle=True)
    assert deadlines and None not in deadlines


def test_each_prime_runs_under_one_clock(monkeypatch):
    """prime_entry starts each prime's clock, and the pipeline and the oracle
    of that prime share it: one deadline per prime, none of them None."""
    import vnum.edgeideals as ei

    seen = {}

    def recording(route):
        def call(g, s, limits, _work=None):
            seen.setdefault(frozenset(s), []).append(limits.deadline)
            return route(g, s, limits, _work)
        return call

    monkeypatch.setattr(ei, "vnumber_at_prime", recording(ei.vnumber_at_prime))
    monkeypatch.setattr(ei, "oracle_vnumber_at_prime", recording(ei.oracle_vnumber_at_prime))
    rep = vnumber(cycle_graph(5), with_oracle=True)
    assert len(seen) == len(rep.per_prime) == 6
    for pipeline, oracle in seen.values():
        assert pipeline is not None and pipeline == oracle
    assert len({deadlines[0] for deadlines in seen.values()}) == 6


def test_a_prime_computed_alone_divides_under_a_deadline(monkeypatch):
    import vnum.groebner as gr

    deadlines = []
    division = gr._nf_terms

    def recording(terms, table, limits):
        deadlines.append(limits.deadline)
        return division(terms, table, limits)

    monkeypatch.setattr(gr, "_nf_terms", recording)
    assert vnumber_at_prime(cycle_graph(5), {1, 3})[0] == 3
    assert deadlines and None not in deadlines


def test_colons_by_one_polynomial_are_memoised_on_the_jg_basis(monkeypatch):
    """verify_cycle(6) builds J_G in one Buchberger run and takes the
    transversal route, one run each, at its empty cut and its nine 2-cuts.
    Its two 3-cuts lie inside no other cut and in one automorphism orbit:
    {1,3,5} folds one colon, by its linear form h = sum of x_i over S, and
    the fold's containment shortcut skips its minors, one run; {2,4,6}
    re-reduces the rotated basis of {1,3,5}, one run.  Each 3-cut has an
    S-consistent relabelling, and the combined basis check builds J_G's
    basis under it, one run each: 15 runs.  The 12 certificates
    decide (J_G : w) = P_S by memberships in P_S and in the basis of J_G,
    so they add no colon and no run.  On C_7 the 3-cuts {1,3,5} and
    {1,3,6} are maximal too and lie in one orbit: the first folds only its
    own h, the second is mapped, and the basis of J_G keeps one colon."""
    import vnum.edgeideals as ei
    import vnum.groebner as gr
    import vnum.idealops as ideal_ops
    from vnum.cycles import verify_cycle

    calls = {"fold": 0, "certificate": 0, "certified": 0, "runs": 0, "route": 0}
    certifying = []

    def counting_colon(*args):
        calls["certificate" if certifying else "fold"] += 1
        return packed_colon(*args)

    def counting_certificate(*args, **kwargs):
        calls["certified"] += 1
        certifying.append(True)
        try:
            return certificate(*args, **kwargs)
        finally:
            certifying.pop()

    def counting_runs(*args):
        calls["runs"] += 1
        return run(*args)

    def counting_route(*args):
        basis = route(*args)
        calls["route"] += basis is not None
        return basis

    packed_colon, certificate, run = ideal_ops.packed_colon, ei.check_colon_equals_prime, gr._buchberger
    route = ei._transversal_colon
    monkeypatch.setattr(ideal_ops, "packed_colon", counting_colon)
    monkeypatch.setattr(ei, "check_colon_equals_prime", counting_certificate)
    monkeypatch.setattr(gr, "_buchberger", counting_runs)
    monkeypatch.setattr(ei, "_transversal_colon", counting_route)
    verify_cycle(6)
    assert calls == {"fold": 1, "certificate": 0, "certified": 12, "runs": 15, "route": 10}

    g = cycle_graph(7)
    work = ei.GraphWork.of(g)
    folds = []
    for s in ({1, 3, 5}, {1, 3, 6}):
        before = calls["fold"]
        vnumber_at_prime(g, s, _work=work)
        folds.append(calls["fold"] - before)
    assert folds == [1, 0]
    assert len(work.jg.colons) == 1 and list(work.folded) == [frozenset({1, 3, 5})]


def test_oracle_shares_its_intersections_within_a_report(monkeypatch):
    """The oracle meets the running intersections of the cuts before and
    after each prime, kept on the report's GraphWork: a serial report of
    k = 12 primes makes 3k - 6 intersections, not k(k - 2) = 120, and a
    prime alone makes k - 2, as a pool task does."""
    import vnum.edgeideals as ei

    made = []

    def counting(*args):
        made.append(1)
        return intersection(*args)

    intersection = ei.packed_intersection
    monkeypatch.setattr(ei, "packed_intersection", counting)
    g = cycle_graph(6)
    report = vnumber(g, with_oracle=True)
    assert len(made) == 3 * 12 - 6
    assert all(e.oracle_ok for e in report.per_prime)
    for s in (frozenset(), frozenset({1, 3, 5}), frozenset({4, 6})):
        made.clear()
        assert oracle_vnumber_at_prime(g, s) == report.entry(s).v
        assert len(made) == 12 - 2


def test_a_report_converts_only_its_witness_candidates(monkeypatch):
    """Bases pass between the engine, idealops and the pipeline packed: in a
    serial report the Polynomial view of the J_G basis is never read, and
    unpack_poly runs only on the witness candidates of each prime."""
    import sys

    import vnum.edgeideals as ei
    import vnum.groebner as gr
    import vnum.idealops as ideal_ops

    jg, read, unpacked, candidates = [], [], [], []
    build, view, unpack = ei.buchberger, gr.GroebnerBasis.generators, gr.unpack_poly
    candidates_of = ideal_ops.min_new_degree_candidates

    def building(*args):
        jg.append(build(*args))
        return jg[-1]

    def unpacking(p, order):
        unpacked.append(unpack(p, order))
        return unpacked[-1]

    def listing(*args):
        d, cands = candidates_of(*args)
        candidates.extend(cands)
        return d, cands

    monkeypatch.setattr(ei, "buchberger", building)
    monkeypatch.setattr(gr.GroebnerBasis, "generators",
                        property(lambda gb: read.append(gb) or view.func(gb)))
    for name, module in list(sys.modules.items()):
        if name.startswith("vnum.") and getattr(module, "unpack_poly", None) is unpack:
            monkeypatch.setattr(module, "unpack_poly", unpacking)
    monkeypatch.setattr(ideal_ops, "min_new_degree_candidates", listing)
    report = vnumber(cycle_graph(6))
    assert report.global_v == 4 and len(jg) == 1
    assert not any(gb is jg[0] for gb in read)
    assert len(candidates) >= len(report.per_prime) and unpacked == candidates


def test_vnumber_builds_the_jg_basis_once(monkeypatch):
    """The primes of one report share one basis of J_G; a prime whose build
    hits a limit records it, and the next prime builds the basis again."""
    import vnum.edgeideals as ei
    from vnum.errors import ResourceLimitError

    jg_gens = edge_ideal_gens(cycle_graph(5))
    builds = []

    def counting(gens, order, limits=None):
        if gens == jg_gens:
            builds.append(len(builds))
            if len(builds) == 1:
                raise ResourceLimitError("first build fails")
        return buchberger(gens, order, limits)

    monkeypatch.setattr(ei, "buchberger", counting)
    rep = vnumber(cycle_graph(5))
    assert len(builds) == 2
    assert [e.status for e in rep.per_prime] == ["resource-limit"] + ["ok"] * 5
    clean = vnumber(cycle_graph(5))
    assert len(builds) == 3  # nothing carries over between reports
    assert [e.v for e in rep.per_prime[1:]] == [e.v for e in clean.per_prime[1:]]


def test_vnumber_enumerates_cuts_once_per_report(monkeypatch):
    import vnum.edgeideals as ei
    import vnum.graphs
    import vnum.matroids as mt

    calls = []

    def counting(g, limits):
        calls.append(g)
        return vnum.graphs.enumerate_min_cuts(g, limits)

    monkeypatch.setattr(ei, "enumerate_min_cuts", counting)
    monkeypatch.setattr(mt, "enumerate_min_cuts", counting)
    g = cycle_graph(8)
    first = vnumber(g, algebraic=False)
    assert len(calls) == 1
    second = vnumber(cycle_graph(8), algebraic=False)
    assert len(calls) == 2  # an equal graph is enumerated again
    assert [e.window for e in first.per_prime] == [e.window for e in second.per_prime]
    vnumber(cycle_graph(5), with_oracle=True)
    assert len(calls) == 3  # the oracle reads the report's cuts


def test_only_the_windows_of_many_sided_cuts_build_the_dependents(monkeypatch):
    """The empty cut and the 2-cuts take their windows from the domination
    formulas and their L_S from connected dominating sets, so a report on
    C_5, whose cuts are all of these, builds no cut dependents; C_6 builds
    them once, for the delta families of its two 3-cuts.  A prime computed
    alone builds them in its window."""
    import vnum.edgeideals as ei
    import vnum.matroids as mt

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ei, "cut_dependents", counting("dependents", mt.cut_dependents))
    monkeypatch.setattr(ei, "delta_family", counting("family", mt.delta_family))
    vnumber(cycle_graph(5))
    assert calls == []
    vnumber(cycle_graph(6))
    assert calls == ["dependents", "family", "family"]
    calls.clear()
    g = cycle_graph(6)
    work = GraphWork.of(g)
    assert work.dependents is None
    entry = ei.prime_entry(work.record({1, 3, 5}), g, work, DEFAULT_LIMITS, False, False)
    assert calls == ["dependents", "family"] and entry.window == (0, 6)


def test_a_report_leaves_dependents_that_run_out_to_the_windows(monkeypatch):
    import vnum.edgeideals as ei
    import vnum.matroids as mt
    from vnum.errors import ResourceLimitError

    calls = []

    def first_runs_out(g, cuts, limits):
        calls.append(len(calls))
        if len(calls) == 1:
            raise ResourceLimitError("time budget exceeded")
        return mt.cut_dependents(g, cuts, limits)

    monkeypatch.setattr(ei, "cut_dependents", first_runs_out)
    rep = vnumber(cycle_graph(6), algebraic=False)
    assert calls == [0, 1]  # the report's build, then the first 3-cut's window
    assert [e.status for e in rep.per_prime] == ["ok"] * 12


def test_each_pool_worker_runs_its_share_on_one_set_up(monkeypatch, serial_pool):
    """A pooled run sends one task per worker, each a strided share of the
    primes run on one GraphWork, so J_G is built once per worker."""
    import vnum.edgeideals as ei

    tasks, builds = [], []

    class CountingPool(ei.ProcessPoolExecutor):
        def map(self, fn, items):
            items = list(items)
            tasks.extend(items)
            return super().map(fn, items)

    def counting(gens, order, limits=None):
        builds.append(len(gens))
        return buchberger(gens, order, limits)

    monkeypatch.setattr(ei, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(ei, "buchberger", counting)
    monkeypatch.setattr(ei.os, "cpu_count", lambda: 64)
    serial = vnumber(cycle_graph(6), with_oracle=True)
    assert len(builds) == 1
    pooled = vnumber(cycle_graph(6), with_oracle=True, jobs=2)
    assert serial_pool == [2] and len(tasks) == 2 and len(builds) == 3
    assert [[rec.s for rec in share] for share in tasks] == [
        [e.s for e in serial.per_prime[i::2]] for i in range(2)
    ]
    assert [dataclasses.replace(e, millis=0) for e in pooled.per_prime] == [
        dataclasses.replace(e, millis=0) for e in serial.per_prime
    ]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(connected_graphs(2, 5))
def test_serial_equals_pool_and_routes_agree(serial_pool, g):
    """One entry path: a pooled run equals the serial one field by field,
    and the pipeline, the formulas and the oracle never disagree."""
    serial = vnumber(g, with_oracle=True)
    started = len(serial_pool)
    pooled = vnumber(g, with_oracle=True, jobs=3)
    wide = min(3, len(serial.per_prime), os.cpu_count() or 1) > 1
    assert len(serial_pool) == started + wide  # the pool runs when wider than 1
    assert (serial.global_v, serial.argmin) == (pooled.global_v, pooled.argmin)
    assert len(serial.per_prime) == len(pooled.per_prime)
    for a, b in zip(serial.per_prime, pooled.per_prime):
        assert dataclasses.replace(a, millis=0) == dataclasses.replace(b, millis=0)
        assert a.status == "ok" and a.agree is not False and a.oracle_ok is not False


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(connected_graphs(6, 6))
def test_serial_equals_pool_and_routes_agree_n6(serial_pool, g):
    """test_serial_equals_pool_and_routes_agree on six vertices."""
    test_serial_equals_pool_and_routes_agree.hypothesis.inner_test(serial_pool, g)
