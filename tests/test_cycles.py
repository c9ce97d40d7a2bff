"""Cycle specialization: intervals, relabelings, bounds, verification."""

import pytest

from vnum.errors import PreconditionError
from vnum.groebner import is_groebner_basis
from vnum.poly import MonomialOrder, edge_binomial, poly_to_text
from vnum.edgeideals import admissible_path_basis, vnumber_at_prime
from vnum.cycles import (
    _consistency_checks,
    cut_polynomial,
    cycle_graph,
    cycle_transversal_ideal,
    global_bounds,
    intervals,
    localized_bounds,
    s_consistent_permutation,
    verify_cycle,
)


def test_cycle_graph_examples():
    assert cycle_graph(3).edges == frozenset({(1, 2), (2, 3), (1, 3)})
    assert cycle_graph(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    assert len(cycle_graph(6).edges) == 6
    with pytest.raises(PreconditionError):
        cycle_graph(2)


def test_intervals_examples():
    d = intervals(6, {1, 4})
    assert d.intervals == ((2, 3), (5, 6))
    assert d.c1 == () and d.c2 == (1, 2)
    assert d.f_set == frozenset({2, 3, 5, 6})
    d = intervals(6, {1, 3, 5})
    assert d.intervals == ((2, 2), (4, 4), (6, 6))
    assert d.c1 == (1, 2, 3) and d.c2 == ()
    d = intervals(7, {1, 3, 5})
    assert len(d.c1) == 2 and len(d.c2) == 1
    with pytest.raises(PreconditionError):
        intervals(6, {1, 2})  # adjacent
    with pytest.raises(PreconditionError):
        intervals(6, {1})  # too small


def test_intervals_wraparound():
    d = intervals(6, {2, 5})
    assert d.intervals == ((3, 4), (6, 1))
    assert d.members(2) == [6, 1]
    assert d.size(2) == 2


def test_interval_bookkeeping_reconstructs_cut():
    for n in range(4, 10):
        import itertools

        for size in range(2, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                s = set(combo)
                if any((v % n) + 1 in s for v in s):
                    continue
                d = intervals(n, s)
                rebuilt = {(b % n) + 1 for (_, b) in d.intervals}
                assert rebuilt == s
                assert len(d.c1) + len(d.c2) == len(s) == d.k


def test_sigma_certificate_examples():
    cert = s_consistent_permutation(6, {1, 3, 5})
    assert cert.valid
    assert cert.sigma == (5, 1, 2, 3, 4, 6)
    assert cert.sigma[1] == 1 and cert.sigma[5] == 6
    # no singleton intervals: no relabeling exists
    assert s_consistent_permutation(6, {1, 4}) is None
    cert = s_consistent_permutation(4, {1, 3})
    assert cert is not None and cert.valid


def test_consistent_relabeling_needs_two_singletons():
    """A brute force over every relabeling finds one passing all five checks
    exactly when at least two intervals are singletons (every cycle cut,
    n <= 7), and s_consistent_permutation agrees."""
    import itertools

    from vnum.graphs import enumerate_min_cuts

    for n in range(4, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        for rec in enumerate_min_cuts(cycle_graph(n)):
            if not rec.s:
                continue
            d = intervals(n, rec.s)
            exists = any(all(_consistency_checks(d, p)) for p in perms)
            assert exists == (len(d.c1) >= 2), (n, sorted(rec.s))
            assert (s_consistent_permutation(n, rec.s) is not None) == exists, (n, sorted(rec.s))


def test_cut_polynomial_examples():
    p = cut_polynomial(6, {1, 4})
    assert p == edge_binomial(3, 5, 6) * edge_binomial(6, 2, 6)
    assert p.degree() == 4
    p = cut_polynomial(4, {1, 3})
    f24 = edge_binomial(2, 4, 4)
    assert p == -1 * (f24 * f24)
    p = cut_polynomial(6, {1, 3, 5})
    assert p == (
        edge_binomial(2, 4, 6) * edge_binomial(4, 6, 6) * edge_binomial(6, 2, 6)
    )
    assert p.degree() == 6


def test_cycle_transversal_ideal_examples():
    gens = cycle_transversal_ideal(6, {1, 4})
    assert gens == [cut_polynomial(6, {1, 4})]
    gens = cycle_transversal_ideal(6, {1, 3, 5})
    assert gens == [cut_polynomial(6, {1, 3, 5})]
    gens = cycle_transversal_ideal(8, {1, 4})
    assert len(gens) == 4  # free vertices 6, 7 give four sign patterns
    p = cut_polynomial(8, {1, 4})
    texts = {poly_to_text(g) for g in gens}
    from vnum.poly import xy_monomial

    want = {
        poly_to_text(p * xy_monomial(c, d, 8))
        for c, d in (((6, 7), ()), ((6,), (7,)), ((7,), (6,)), ((), (6, 7)))
    }
    assert texts == want


def test_localized_bounds_examples():
    assert localized_bounds(6, {1, 4}) == (4, 4, True)
    assert localized_bounds(6, {1, 3, 5}) == (4, 6, False)
    assert localized_bounds(7, {1, 3, 5}) == (4, 6, False)
    assert localized_bounds(6, frozenset()) == (4, 4, True)
    assert localized_bounds(7, {1, 4}) == (5, 5, True)
    # |C1| = 1 window
    assert localized_bounds(8, {1, 3, 6}) == (5, 6, False)
    with pytest.raises(PreconditionError):
        localized_bounds(3, frozenset())


def test_global_bounds_examples():
    assert global_bounds(6) == (4, 4)
    assert global_bounds(7) == (4, 5)
    assert global_bounds(8) == (5, 6)
    assert global_bounds(9) == (6, 6)
    with pytest.raises(PreconditionError):
        global_bounds(5)


def test_combined_basis_is_groebner_for_c6_3cut():
    n, s = 6, frozenset({1, 3, 5})
    cert = s_consistent_permutation(n, s)
    order = MonomialOrder(n, cert.sigma)
    combined = list(admissible_path_basis(cycle_graph(n), cert.sigma).generators)
    combined += cycle_transversal_ideal(n, s)
    assert is_groebner_basis(combined, order)


def test_verify_cycle_4():
    rep = verify_cycle(4)
    assert rep.global_v == 2
    assert rep.global_window is None  # below the theorem's scope
    assert all(c.in_window for c in rep.primes)
    assert all(c.gb_check in ("pass", "skipped") for c in rep.primes)


def test_verify_cycle_3_complete():
    rep = verify_cycle(3)
    assert rep.global_v == 0
    assert [c.window for c in rep.primes] == [(0, 0, True)]


def test_verify_cycle_5():
    rep = verify_cycle(5)
    assert rep.global_v == 3
    assert all(c.v == 3 for c in rep.primes)
    assert all(c.in_window for c in rep.primes)


@pytest.mark.parametrize("n", [10, 11])
def test_large_empty_cut_is_n_minus_2(n):
    """At the empty cut of C_n the value is the connected domination number
    n - 2; vnumber_at_prime certifies its witness and raises if it fails."""
    v, w = vnumber_at_prime(cycle_graph(n), frozenset())
    assert v == w.degree() == n - 2


def test_cut_polynomial_ideal_matches_transversal_ideal_up_to_radical():
    """Adding either the generic transversal generators or the cut-polynomial
    products to the edge ideal gives the same radical (n <= 6, |S| >= 2)."""
    from vnum.graphs import enumerate_min_cuts
    from reference import transversal_ideal_generic
    from vnum.edgeideals import edge_ideal_gens
    from reference import radical_membership

    for n in (4, 5, 6):
        g = cycle_graph(n)
        order = MonomialOrder(n)
        jg = edge_ideal_gens(g)
        for rec in enumerate_min_cuts(g):
            if len(rec.s) < 2:
                continue
            tgens = transversal_ideal_generic(g, rec.s)
            igens = cycle_transversal_ideal(n, rec.s)
            for p in tgens:
                assert radical_membership(p, jg + igens, order), (n, sorted(rec.s))
            for p in igens:
                assert radical_membership(p, jg + tgens, order), (n, sorted(rec.s))


def test_cycle_transversal_weight_closed_form():
    """For a cycle cut of size k >= 3 the minimum transversal weight is
    n - k + |C1|: one pair per interval gap (endpoints shared where an
    interval is a singleton) plus singletons for the interior vertices."""
    import itertools

    from vnum.graphs import enumerate_min_cuts
    from vnum.matroids import delta_family, min_transversal_weight

    for n in range(6, 9):
        g = cycle_graph(n)
        for rec in enumerate_min_cuts(g):
            if len(rec.s) < 3:
                continue
            d = intervals(n, rec.s)
            weight, _ = min_transversal_weight(delta_family(g, rec.s))
            assert weight == n - len(rec.s) + len(d.c1), (n, sorted(rec.s))


def test_cycle_two_cut_weight_is_n_minus_2():
    from vnum.graphs import enumerate_min_cuts
    from vnum.matroids import delta_family, min_transversal_weight

    for n in (4, 5, 6):
        g = cycle_graph(n)
        for rec in enumerate_min_cuts(g):
            if len(rec.s) != 2:
                continue
            weight, _ = min_transversal_weight(delta_family(g, rec.s))
            assert weight == n - 2, (n, sorted(rec.s))


def test_interval_window_keeps_the_transversal_upper_end():
    """verify_cycle replaces each entry's window (0, transversal weight) by
    localized_bounds; at every cut of three or more vertices the upper ends
    agree, so the replacement only raises the lower end."""
    from vnum.edgeideals import GraphWork
    from vnum.matroids import cut_dependents, delta_family, min_transversal_weight

    cuts = {}
    for n in range(6, 11):
        g = cycle_graph(n)
        work = GraphWork.of(g)
        dependents = cut_dependents(g, work.cuts)
        big = [rec.s for rec in work.cuts if len(rec.s) >= 3]
        cuts[n] = len(big)
        for s in big:
            weight, _ = min_transversal_weight(delta_family(g, s, dependents))
            assert localized_bounds(n, s)[1] == weight, (n, sorted(s))
    assert cuts == {6: 2, 7: 7, 8: 18, 9: 39, 10: 77}
