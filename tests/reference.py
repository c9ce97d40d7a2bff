"""Reference operations that only the tests use: tuple monomial helpers,
membership tests on Polynomials, the definition-level generators of the
transversal ideal L_S from the minimal transversals of the delta family,
and Polynomial views of those and of the cut generators.  The runtime
package works on packed polynomials and needs none of them."""

from __future__ import annotations

import itertools

from vnum.errors import DEFAULT_LIMITS, STEPS_PER_CLOCK_CHECK, NoTransversalError
from vnum.graphs import induced_subgraph, is_connected_dominating, two_cut_sides
from vnum.groebner import (
    GroebnerBasis,
    _buchberger,
    _t_extension,
    _times_t,
    normal_form,
    pack_poly,
    packed_product,
    unpack_poly,
)
from vnum.idealops import _packed, as_basis
from vnum.matroids import (
    _distinct,
    _element_key,
    _split,
    _split_products,
    delta_family,
    packed_concise_generators,
)
from vnum.poly import MonomialOrder, edge_binomial, sorted_generators


def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def ideal_membership(f, gens, order=None, limits=DEFAULT_LIMITS):
    """True iff f lies in the ideal generated by gens."""
    if order is None:
        order = gens.order if isinstance(gens, GroebnerBasis) else MonomialOrder(f.width // 2)
    return normal_form(f, as_basis(gens, order, limits), limits=limits).is_zero


def packed_radical_contains(ps, f, order, limits):
    """Rabinowitsch test: f lies in the radical of (ps) iff 1 in (ps, 1 - t*f)."""
    eorder, t = _t_extension(order)
    return _buchberger(ps + [{0: 1, **_times_t(f, t, -1)}], eorder, limits) == [{0: 1}]


def radical_membership(f, gens, order, limits=DEFAULT_LIMITS):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - t*f)."""
    return packed_radical_contains(_packed(gens, order), pack_poly(f, order), order, limits)


def _set_key(elements):
    return tuple(sorted(_element_key(e) for e in elements))


def minimal_transversals(family, limits=DEFAULT_LIMITS):
    """All inclusion-minimal transversals, canonically sorted; the search
    checks the deadline of limits every STEPS_PER_CLOCK_CHECK nodes."""
    members = sorted((frozenset(m) for m in family.members), key=lambda m: (len(m), _set_key(m)))
    if any(not m for m in members):
        raise NoTransversalError("a family member is empty; no transversal exists")
    found = set()
    nodes = itertools.count(1)

    def is_minimal(chosen):
        for e in chosen:
            rest = chosen - {e}
            if all(m & rest for m in members):
                return False
        return True

    def search(chosen, idx):
        if not next(nodes) % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        while idx < len(members) and members[idx] & chosen:
            idx += 1
        if idx == len(members):
            if is_minimal(chosen):
                found.add(chosen)
            return
        for e in sorted(members[idx], key=_element_key):
            search(chosen | {e}, idx + 1)

    search(frozenset(), 0)
    return sorted(found, key=_set_key)


def packed_transversal_generators(g, s, dependents, order, limits=DEFAULT_LIMITS):
    """The generators of the transversal ideal L_S by its definition, packed
    by order and without repeats: for each inclusion-minimal transversal of
    the delta family of S, the product of the binomials f_{i,j} of its pairs
    times g_{C,D} for every split of its singletons into C and D.

    Any transversal contains a minimal one and its generator is then a
    multiple of the minimal one's, so restricting to minimal transversals
    leaves the ideal unchanged.  The empty family (no other minimal primes)
    gives the unit ideal.  dependents is as for delta_family; the build runs
    under the deadline of limits.
    """
    gens = []
    for elements in minimal_transversals(delta_family(g, s, dependents, limits), limits):
        limits.check_time()
        base = {0: 1}
        t = _split(elements)
        for pair in t.pairs:
            base = packed_product(base, pack_poly(edge_binomial(*sorted(pair), g.n), order), order)
        gens.extend(_split_products(base, sorted(t.singles), order))
    return _distinct(gens)


def _unpacked(packed, order):
    return sorted_generators(unpack_poly(p, order) for p in packed)


def transversal_ideal_generic(g, s):
    """packed_transversal_generators as Polynomials under the default order,
    sorted by degree and then canonical key."""
    order = MonomialOrder(g.n)
    return _unpacked(packed_transversal_generators(g, s, None, order), order)


def concise_cut_generators(g, s):
    """packed_concise_generators as Polynomials under the default order,
    sorted by degree and then canonical key."""
    order = MonomialOrder(g.n)
    return _unpacked(packed_concise_generators(g, s, order), order)


def cut_generators_full(g, s):
    """The concise recipe over every member (B1, B2) of D_c(V1, V2), not
    just the inclusion-minimal ones: each Bk a subset of side Vk that
    is_connected_dominating accepts on the graph of Vk and S.  This is the
    finite generating set whose union with the admissible-path basis is
    checked against the Buchberger criterion."""
    order = MonomialOrder(g.n)
    s = frozenset(s)
    per_side = []
    for side in two_cut_sides(g, s):
        h = induced_subgraph(g, side | s)
        verts = sorted(side)
        per_side.append([
            frozenset(combo)
            for size in range(1, len(verts) + 1)
            for combo in itertools.combinations(verts, size)
            if is_connected_dominating(h, combo)
        ])
    gens = []
    for b1 in per_side[0]:
        for b2 in per_side[1]:
            for i in sorted(b1):
                for j in sorted(b2):
                    f = pack_poly(edge_binomial(min(i, j), max(i, j), g.n), order)
                    gens.extend(_split_products(f, sorted((b1 | b2) - {i, j}), order))
    return _unpacked(_distinct(gens), order)
