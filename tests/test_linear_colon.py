"""The colon fold over the linear form h = sum of x_i over S and the 2-minors
of P_S against the fold over the generators of P_S.

J_G is radical, so (J_G : I) is the intersection of the minimal primes P_T
that do not contain I, and both folds keep exactly the P_T with T != S when
h lies in P_T only for T containing S.  Both facts are checked at every
nonempty cut of the connected graphs on at most six vertices and of C_6 to
C_9; each graph's two folds run on two bases of J_G, so neither reads the
other's memoised colons.
"""

import pytest

from test_transversal_route import atlas_graphs
from vnum.cycles import cycle_graph
from vnum.edgeideals import colon_generators, edge_ideal_gens, prime_component
from vnum.graphs import enumerate_min_cuts
from vnum.groebner import buchberger, normal_form
from vnum.idealops import colon_ideal
from vnum.poly import MonomialOrder

CASES = {"atlas6": atlas_graphs(6), **{f"C{n}": [cycle_graph(n)] for n in (6, 7, 8, 9)}}


def _cut_sets(g):
    return [rec.s for rec in enumerate_min_cuts(g)]


@pytest.mark.parametrize("name", CASES)
def test_linear_fold_equals_the_fold_over_the_prime(name):
    cuts = 0
    for g in CASES[name]:
        order = MonomialOrder(g.n)
        by_prime = buchberger(edge_ideal_gens(g), order)
        by_linear = buchberger(edge_ideal_gens(g), order)
        for s in _cut_sets(g):
            if s:
                want = colon_ideal(by_prime, prime_component(g, s), order).packed
                assert colon_ideal(by_linear, colon_generators(g, s), order).packed == want, (
                    sorted(g.edges), sorted(s))
                cuts += 1
    assert cuts


@pytest.mark.parametrize("name", CASES)
def test_linear_form_lies_in_the_primes_of_the_cuts_containing_s(name):
    for g in CASES[name]:
        cut_sets = _cut_sets(g)
        primes = {t: prime_component(g, t) for t in cut_sets}
        for s in cut_sets:
            if s:
                h = colon_generators(g, s)[0]
                for t, prime in primes.items():
                    assert normal_form(h, prime).is_zero == (s <= t), (
                        sorted(g.edges), sorted(s), sorted(t))


def test_empty_cut_folds_over_the_generators_of_its_prime():
    g = cycle_graph(6)
    gens = colon_generators(g, frozenset())
    assert len(gens) == 15 and set(gens) == set(prime_component(g, frozenset()).generators)
