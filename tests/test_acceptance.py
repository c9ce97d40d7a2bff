"""Acceptance suite: one test per criterion, one pass/fail line per run.

Heavy shared computations (the cycle runs and the minimal-2-cut sample)
live in session fixtures so each is performed once.
"""

import itertools

import pytest

from conftest import connected_graphs_upto_iso
from reference import (
    cut_generators_full,
    initial_ideal,
    is_groebner_basis_all_pairs,
    leading_monomial,
    mono_is_squarefree,
    path_basis_by_definition,
    path_graph,
    radical_membership,
    transversal_ideal_generic,
)

from vnum.graphs import (
    Graph,
    enumerate_min_cuts,
    gamma_c,
    gamma_c_pair,
)
from vnum.groebner import buchberger, is_groebner_basis, normal_form
from vnum.idealops import (
    as_basis,
    colon_ideal,
    intersect,
)
from vnum.matroids import delta_family, min_transversal_weight
from vnum.edgeideals import (
    admissible_path_basis,
    edge_ideal_gens,
    oracle_vnumber_at_prime,
    prime_component,
    vnumber_at_prime,
)
from vnum.poly import MonomialOrder
from vnum.cycles import cycle_graph, global_bounds, intervals, verify_cycle


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def graphs_n5():
    return [g for n in range(1, 6) for g in connected_graphs_upto_iso(n)]


@pytest.fixture(scope="session")
def cycle_reports():
    """Full cycle verification for n = 3..8 (the heavy computation)."""
    return {n: verify_cycle(n) for n in range(3, 9)}


@pytest.fixture(scope="session")
def two_cut_sample():
    """Criterion-2 sample: every minimal 2-cut of all cycles and paths with
    n <= 6, plus a few assorted graphs; at least 25 (g, S) pairs."""
    graphs = [cycle_graph(n) for n in (4, 5, 6)]
    graphs += [path_graph(n) for n in (3, 4, 5, 6)]
    graphs += [
        Graph.make(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),  # triangle with a tail
        Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]),  # cycle with a tail
        Graph.make(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)]),  # theta-ish
    ]
    pairs = []
    for g in graphs:
        for rec in enumerate_min_cuts(g):
            if rec.k == 2:
                pairs.append((g, rec))
    assert len(pairs) >= 25
    return pairs


@pytest.fixture(scope="session")
def two_cut_values(two_cut_sample):
    """Algebraic localized values for the sample, computed once."""
    out = []
    for g, rec in two_cut_sample:
        v, w = vnumber_at_prime(g, rec.s)
        out.append((g, rec, v, w))
    return out


def relabel_order(g, rec):
    """Order for the side1 < cut < side2 vertex relabeling of a 2-cut."""
    v1, v2 = rec.components
    ranks = {}
    rank = 1
    for group in (sorted(v1), sorted(rec.s), sorted(v2)):
        for v in group:
            ranks[v] = rank
            rank += 1
    sigma = tuple(ranks[v] for v in range(1, g.n + 1))
    return MonomialOrder(g.n, sigma)


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------

def test_criterion_01_empty_cut_equals_connected_domination(graphs_n5):
    """v at the empty cut equals the connected domination number for every
    connected non-complete graph on up to five vertices."""
    checked = 0
    for g in graphs_n5:
        if g.is_complete():
            continue
        v, _ = vnumber_at_prime(g, frozenset())
        expected = gamma_c(g)[0]
        assert v == expected, (sorted(g.edges), v, expected)
        checked += 1
    report(1, checked >= 25, f"empty-cut value = gamma_c on {checked} non-complete graphs, n <= 5")


def test_criterion_02_two_cut_equals_pair_domination(two_cut_values):
    """v at every sampled minimal 2-cut equals the two-sided domination number."""
    for g, rec, v, _ in two_cut_values:
        expected = gamma_c_pair(g, rec.s)[0]
        assert v == expected, (sorted(g.edges), sorted(rec.s), v, expected)
    report(2, len(two_cut_values) >= 25,
           f"2-cut value = gamma_c(V1,V2) on {len(two_cut_values)} (g,S) pairs, n <= 6")


def test_criterion_03_cycle_anchor_and_windows(cycle_reports):
    """C_6 lands exactly on 4; C_7 and C_8 land inside their two-value
    windows and never above the ceiling."""
    assert cycle_reports[6].global_v == 4
    for n in (7, 8):
        lo, hi = global_bounds(n)
        v = cycle_reports[n].global_v
        assert v is not None and lo <= v <= hi, (n, v, lo, hi)
        assert v <= -(-2 * n // 3)
    report(3, True, f"C6 -> 4; C7 -> {cycle_reports[7].global_v} in {global_bounds(7)}; "
                    f"C8 -> {cycle_reports[8].global_v} in {global_bounds(8)}")


def test_criterion_04_transversal_weight_bound(two_cut_values):
    """The localized value never exceeds the minimum transversal weight and
    matches it whenever the squarefree-initial flag certifies radicality."""
    equalities = 0
    for g, rec, v, _ in two_cut_values:
        weight, witness = min_transversal_weight(delta_family(g, rec.s))
        assert v <= weight, (sorted(g.edges), sorted(rec.s), v, weight)
        order = relabel_order(g, rec)
        combined = edge_ideal_gens(g) + cut_generators_full(g, rec.s)
        gb = buchberger(combined, order)
        _, squarefree = initial_ideal(gb)
        if squarefree:
            assert v == weight, (sorted(g.edges), sorted(rec.s), v, weight)
            equalities += 1
    report(4, equalities > 0,
           f"v <= weight on all pairs; equality under the squarefree flag ({equalities} pairs)")


def test_criterion_05_colon_equals_radical_of_transversal_sum(graphs_n5):
    """Both inclusions between (J_G : P_S) and the radical of
    J_G + J_T(S), for every minimal prime of every graph with n <= 5."""
    checked = 0
    for g in graphs_n5:
        if len(g.vertices) < 2:
            continue
        order = MonomialOrder(g.n)
        jg = buchberger(edge_ideal_gens(g), order)
        for rec in enumerate_min_cuts(g):
            quotient = colon_ideal(jg, list(prime_component(g, rec.s).generators), order)
            tgens = transversal_ideal_generic(g, rec.s)
            summed = list(jg.generators) + tgens
            for q in quotient:
                assert radical_membership(q, summed, order), (sorted(g.edges), sorted(rec.s))
            for t in tgens:
                assert normal_form(t, quotient, order).is_zero, (sorted(g.edges), sorted(rec.s))
            checked += 1
    report(5, checked >= 60, f"bidirectional checks on {checked} (g,S) pairs, n <= 5")


def test_criterion_06a_path_bases_all_graphs_n6():
    """Admissible-path bases, built from the paths, pass the exhaustive
    Buchberger criterion and equal the engine's basis for every connected
    graph with n <= 6."""
    checked = 0
    for n in range(2, 7):
        for g in connected_graphs_upto_iso(n):
            if not g.edges:
                continue
            want = path_basis_by_definition(g)
            assert is_groebner_basis_all_pairs(list(want.generators), want.order)
            assert admissible_path_basis(g).packed == want.packed, sorted(g.edges)
            checked += 1
    report("6a", checked >= 140, f"path bases verified on {checked} connected graphs, n <= 6")


def test_criterion_06b_06c_combined_cut_bases(two_cut_sample):
    """Under the side1 < cut < side2 relabeling, the path basis plus the cut
    generators passes the Buchberger criterion (6b) with every leading term
    squarefree (6c), certifying radicality of the combined ideal."""
    for g, rec in two_cut_sample:
        order = relabel_order(g, rec)
        path_part = list(admissible_path_basis(g, order.sigma).generators)
        cut_part = cut_generators_full(g, rec.s)
        combined = path_part + cut_part
        assert is_groebner_basis(combined, order), (sorted(g.edges), sorted(rec.s))
        for p in combined:
            assert mono_is_squarefree(leading_monomial(p, order)), (
                sorted(g.edges), sorted(rec.s))
    report("6b/6c", True,
           f"combined bases pass with squarefree leading terms on {len(two_cut_sample)} pairs")


def test_criterion_07_oracle_equivalence(graphs_n5):
    """The intersection-based oracle agrees with the colon pipeline at every
    minimal prime of every graph with n <= 5."""
    checked = 0
    for g in graphs_n5:
        if len(g.vertices) < 2:
            continue
        for rec in enumerate_min_cuts(g):
            v, _ = vnumber_at_prime(g, rec.s)
            assert oracle_vnumber_at_prime(g, rec.s) == v, (sorted(g.edges), sorted(rec.s))
            checked += 1
    report(7, checked >= 60, f"oracle = pipeline on {checked} (g,S) pairs, n <= 5")


def test_criterion_08_decomposition(graphs_n5):
    """The edge ideal equals the intersection of its minimal primes, as
    reduced bases, for every connected graph with n <= 5."""
    for g in graphs_n5:
        order = MonomialOrder(g.n)
        inter = None
        for rec in enumerate_min_cuts(g):
            gens = list(prime_component(g, rec.s).generators)
            inter = gens if inter is None else intersect(inter, gens, order)
        lhs = set(as_basis(inter, order).generators) if inter else set()
        rhs = set(buchberger(edge_ideal_gens(g), order).generators)
        assert lhs == rhs, sorted(g.edges)
    report(8, True, f"reduced-basis equality on all {len(graphs_n5)} graphs, n <= 5")


def test_criterion_09_cycle_windows(cycle_reports):
    """Localized cycle values respect the lower bound n - |S| (for cuts of
    size at least three) and sit inside their interval windows, n <= 8; the
    combined basis check runs and passes exactly on the cuts with at least
    two singleton intervals."""
    checked = 0
    passes = {}
    for n, rep in cycle_reports.items():
        for check in rep.primes:
            assert check.status == "ok", (n, sorted(check.s))
            assert check.in_window, (n, sorted(check.s), check.v, check.window)
            if len(check.s) >= 3:
                assert check.v >= n - len(check.s), (n, sorted(check.s), check.v)
            two_singletons = bool(check.s) and len(intervals(n, check.s).c1) >= 2
            assert check.gb_check == ("pass" if two_singletons else "skipped"), (
                n, sorted(check.s), check.gb_check)
            passes[n] = passes.get(n, 0) + two_singletons
            checked += 1
    assert passes == {3: 0, 4: 2, 5: 0, 6: 2, 7: 7, 8: 10}
    report(9, checked >= 60, f"windows and lower bounds hold at {checked} cycle primes, n <= 8")


def test_criterion_10_saturation_lemmas():
    """Initial-ideal containment for colons by a cut variable, and equality
    for colons by the bridging binomial, on cycles with n <= 6, all i."""
    from vnum.idealops import colon_poly
    from reference import mono_divides
    from vnum.poly import edge_binomial, x_poly, xy_monomial, y_poly

    checked = 0
    for n in range(3, 7):
        g = cycle_graph(n)
        order = MonomialOrder(n)
        jg = buchberger(edge_ideal_gens(g), order)
        in_j = [leading_monomial(p, order) for p in jg.generators]
        for i in range(1, n + 1):
            prev = (i - 2) % n + 1
            nxt = i % n + 1
            # colon by x_i: leading terms inside in(J) + (x,y over prev)(x,y over nxt)
            products = [
                leading_monomial(a * b, order)
                for a in (x_poly(prev, n), y_poly(prev, n))
                for b in (x_poly(nxt, n), y_poly(nxt, n))
            ]
            for p in colon_poly(jg, x_poly(i, n), order):
                lm = leading_monomial(p, order)
                assert any(mono_divides(m, lm) for m in in_j + products), (n, i)
            # colon by f_{prev,nxt}: initial ideal equals
            # in(J) + (x_i, y_i) + squarefree monomials over the rest
            rest = sorted(set(range(1, n + 1)) - {prev, i, nxt})
            rhs = (
                in_j
                + [leading_monomial(x_poly(i, n), order), leading_monomial(y_poly(i, n), order)]
                + [
                    leading_monomial(xy_monomial(c, [v for v in rest if v not in c], n), order)
                    for r in range(len(rest) + 1)
                    for c in itertools.combinations(rest, r)
                ]
            )
            lhs = [
                leading_monomial(p, order)
                for p in colon_poly(jg, edge_binomial(prev, nxt, n), order)
            ]
            for lm in lhs:
                assert any(mono_divides(m, lm) for m in rhs), (n, i)
            for m in rhs:
                assert any(mono_divides(lm, m) for lm in lhs), (n, i)
            checked += 1
    report(10, checked == 3 + 4 + 5 + 6, f"saturation lemmas hold at {checked} (n,i) pairs, n <= 6")
