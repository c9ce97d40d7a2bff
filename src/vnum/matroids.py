"""Dependency-difference families of cuts, minimum-weight transversals, and
the generators of the transversal ideal.

The matroid M(S) of a cut S has S as loops and the components of the graph
minus S as parallel classes; a subset is dependent exactly when it meets a
loop, hits some class twice, or has three or more elements.  Family members
below are sets of "small dependents", the subsets of 1..n of size one or
two, and each such set is an int bit mask over one numbering of them: the
singleton {v} is bit v - 1, and the pair {i, j} with i < j is bit n plus
its rank among the pairs in lexicographic order.  That is the order by size
and then by sorted elements, so a lower bit is always the lesser element:
the ranks of the transversal search, and with them its branching order and
its tie-break toward the lexicographically least optimal set, are the
ascending bits of a mask.  Frozensets are built only for what is read from
outside: a family's members and the witness Transversal.  The delta family
and its minimum transversal weight give the upper end of a prime's window.

The generators of the transversal ideal L_S that the pipeline sums with
J_G are built from connected dominating sets, with no delta family: at the
empty cut and at a minimal 2-cut the minimal transversals are known in
those terms (packed_concise_generators gives the proof).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import DEFAULT_LIMITS, STEPS_PER_CLOCK_CHECK, NoTransversalError, PreconditionError
from .graphs import (
    _mask,
    connected_dominating_sets,
    enumerate_min_cuts,
    induced_subgraph,
    two_cut_sides,
)
from .groebner import pack_poly
from .poly import (
    edge_binomial,
    monomial,
    x_index,
    y_index,
)


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.cache
def _small_subsets(n):
    """The singletons and pairs of 1..n in bit order; one tuple per n,
    shared by every decode."""
    pairs = map(frozenset, itertools.combinations(range(1, n + 1), 2))
    return (*(frozenset({v}) for v in range(1, n + 1)), *pairs)


def _decode(n, masks):
    """Each mask as the frozenset of its singletons and pairs of 1..n."""
    table = _small_subsets(n)
    return [frozenset(table[b] for b in _bits(m)) for m in masks]


@dataclass(frozen=True)
class TransversalFamily:
    """Per other minimal cut S', the small dependents of M(S') that are
    independent in M(S) as a mask; sources[i] is the S' that produced
    masks[i]."""

    n: int
    masks: tuple
    sources: tuple

    @functools.cached_property
    def members(self):
        """The masks as frozensets of singletons and pairs, built on first use."""
        return tuple(_decode(self.n, self.masks))


@dataclass(frozen=True)
class Transversal:
    """A set of singletons and pairs meeting every member of a family."""

    singles: frozenset
    pairs: frozenset

    @property
    def weight(self):
        return len(self.singles) + 2 * len(self.pairs)

    def elements(self):
        return frozenset({frozenset({v}) for v in self.singles}) | self.pairs


def _split(elements):
    singles = frozenset(next(iter(e)) for e in elements if len(e) == 1)
    pairs = frozenset(e for e in elements if len(e) == 2)
    return Transversal(singles, pairs)


def cut_dependents(g, cuts, limits=DEFAULT_LIMITS):
    """{S: D(M(S))} for the cut records of one enumeration of g, in their
    order: the mask of the singletons and pairs dependent in the matroid of
    each cut, read straight from its loops and parallel classes.  Each
    vertex carries the mask of its singleton and every pair through it,
    and the pairs {i, j > i} are consecutive bits, so the pairs inside a
    component are one shifted vertex mask per vertex.  Checks the deadline
    of limits every STEPS_PER_CLOCK_CHECK cuts."""
    n, verts = g.n, sorted(g.vertices)
    low = {i: n + (i - 1) * n - (i - 1) * i // 2 for i in verts}  # the bit of the pair {i, i + 1}
    through = {
        i: 1 << (i - 1) | sum(1 << (low[min(i, j)] + abs(i - j) - 1) for j in verts if j != i)
        for i in verts
    }
    out = {}
    for step, rec in enumerate(cuts, 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        deps = 0
        for i in rec.s:
            deps |= through[i]
        for comp in rec.components:
            w = _mask(comp)
            for i in comp:
                deps |= w >> (i + 1) << low[i]
        out[rec.s] = deps
    return out


def delta_family(g, s, dependents=None, limits=DEFAULT_LIMITS):
    """One member per other minimal prime: D(M(S')) minus D(M(S)).

    A set of at most two elements is dependent in M(S) exactly when it lies
    in D(M(S)), so the member for S' is the mask of D(M(S')) without the
    bits of D(M(S)).  dependents is cut_dependents of one enumeration of g,
    so a report that needs the family of every prime computes each D once;
    without it the cuts are enumerated here, and the clock of limits is
    started unless it already runs.  An s outside the enumeration raises
    PreconditionError.  The member loop checks the deadline of limits every
    STEPS_PER_CLOCK_CHECK cuts.
    """
    s = frozenset(s)
    if dependents is None:
        limits = limits.start_clock()
        dependents = cut_dependents(g, enumerate_min_cuts(g, limits), limits)
    base = dependents.get(s)
    if base is None:
        raise PreconditionError(f"{sorted(s)} is not the empty set or a minimal k-cut")
    masks = []
    sources = []
    for step, (other, deps) in enumerate(dependents.items(), 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        if other != s:
            masks.append(deps & ~base)
            sources.append(other)
    return TransversalFamily(g.n, tuple(masks), tuple(sources))


def min_transversal_weight(family, limits=DEFAULT_LIMITS):
    """Exact minimum of |singles| + 2|pairs| over all transversals.

    Ties between optimal witnesses break toward the lexicographically least
    element set.  A member that contains another is hit whenever that one
    is, so only the inclusion-minimal members are searched; the
    transversals, and so the result, are the same.

    Branch and bound over members ordered by ascending size and then by
    their ascending bits, branching on elements by descending coverage, on
    one additive cost: with the E elements of the members numbered 0..E-1
    in ascending bit order, element i costs its weight, its size 1 or 2,
    times 2^E, less 2^(E-1-i).  The subtracted parts of a set sum to less
    than 2^E, so cost orders sets by weight first; and of two sets of equal
    weight, neither contains the other, so the one holding the least
    element where they differ, the lexicographically lesser, has the
    larger subtracted sum and the lower cost.  Only the optimal set is
    decoded, into the witness.  The inclusion-minimal filter checks the
    deadline of limits every STEPS_PER_CLOCK_CHECK members, and the search
    every STEPS_PER_CLOCK_CHECK nodes.
    """
    members = []
    union = 0
    for step, m in enumerate(sorted(family.masks, key=int.bit_count), 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        if all(map((~m).__and__, members)):  # no kept member lies inside m
            members.append(m)
            union |= m
    if 0 in members:
        raise NoTransversalError("a family member is empty; no transversal exists")

    elements = _bits(union)
    top = 1 << len(elements)
    cost = {b: (1 if b < family.n else 2) * top - (top >> (i + 1)) for i, b in enumerate(elements)}
    bits = {m: _bits(m) for m in members}
    members.sort(key=lambda m: (len(bits[m]), bits[m]))
    coverage = Counter(b for m in members for b in bits[m])
    # per member, its elements as (bit, cost) in branching order, and the
    # cost of its cheapest element, its lowest bit (singletons lie below
    # pairs, and a lower rank subtracts more); the first unhit member is
    # always the one to branch on, since members are sorted
    branches = {
        m: [(1 << b, cost[b]) for b in sorted(bits[m], key=lambda b: (-coverage[b], b))]
        for m in members
    }
    cheapest = {m: cost[bits[m][0]] for m in members}
    best = [sum(cost.values()) + 1, 0]  # cost, set
    nodes = itertools.count(1)

    def lower_bound(unhit):
        # pairwise-disjoint unhit members must be hit by distinct elements,
        # each costing at least its member's cheapest element
        used = lb = 0
        for m in unhit:
            if not used & m:
                lb += cheapest[m]
                used |= m
        return lb

    def search(unhit, chosen, spent):
        if not next(nodes) % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        if not unhit:
            if spent < best[0]:
                best[:] = [spent, chosen]
            return
        if spent + lower_bound(unhit) >= best[0]:
            return
        for bit, c in branches[unhit[0]]:
            search([m for m in unhit if not m & bit], chosen | bit, spent + c)

    search(members, 0, 0)
    witness = _split(*_decode(family.n, [best[1]]))
    return witness.weight, witness


# ---------------------------------------------------------------------------
# generators of the transversal ideal
# ---------------------------------------------------------------------------

def _split_products(base, free, order):
    """base * g_{C,D}, packed by order, over the splits of the vertices free
    into C and D: one generator per split."""
    n, w = order.n, order.width
    choices = [
        (order.pack(monomial(w, {x_index(v, n): 1})), order.pack(monomial(w, {y_index(v, n): 1})))
        for v in free
    ]
    for picks in itertools.product(*choices):
        shift = sum(picks)
        yield {m + shift: c for m, c in base.items()}


def packed_concise_generators(g, s, order, limits=DEFAULT_LIMITS):
    """The generators of L_S, packed by order and pairwise distinct, at the
    empty cut of a non-complete connected g or at a minimal 2-cut S; any
    other nonempty s raises PreconditionError.  The build runs under the
    deadline of limits.

    At a minimal 2-cut with sides V1 and V2 they are g_{C,D} * f_{i,j} over
    the inclusion-minimal members (B1, B2) of D_c(V1, V2), each Bk a minimal
    set inside Vk that connect-dominates the graph on Vk and S; every i in
    B1 and j in B2; and every split C, D of the rest of B1 u B2.  With the
    edge ideal these generate the same ideal as the definition's generators
    of L_S, one product of f_{i,j} over the pairs times g_{C,D} over the
    splits of the singletons per minimal transversal of the delta family
    (the concise generating set).

    At the empty cut the one side is V and there is no pair: the generators
    are g_{C,D} over the splits of each inclusion-minimal connected
    dominating set (CDS) of g.  These are exactly the definition's:
        - g is connected, so D(M(0)) holds every pair, and the member of
          the delta family for a cut T is {{i} : i in T};
        - a CDS B leaves g - T connected for every T inside V - B, as the
          connected G[B] is left whole and dominates the rest, so B meets
          every cut;
        - if a nonempty B is not a CDS, some T inside V - B disconnects g:
          N(v) for a vertex v that B does not dominate, or V - B when G[B]
          is disconnected;
        - an inclusion-minimal disconnecting subset of that T is a cut,
          because putting back any one of its vertices reconnects g, so
          that vertex has neighbours in two components;
        - so a vertex set meets every cut exactly when it is a CDS, the
          minimal transversals are the minimal CDS, and both recipes give
          one generator set and so one basis with J_G.
    A complete graph has no cut, so its L_0 is the unit ideal; vnumber_at_prime
    settles that prime before any builder runs.

    The list is returned as built, as no two generators are equal:
        - at the empty cut, g_{C,D} over one split of one minimal CDS B has
          support B, so different sets or splits give different monomials;
        - at a 2-cut, f_{i,j} * g_{C,D} gives back its union U = B1 u B2
          (its support), the pair {i, j} (the variables where its two terms
          differ) and the split (C, D);
        - the sides are disjoint, so B1 = U n V1 and B2 = U n V2, and
          connected_dominating_sets yields each set once, so no two tuples
          (B1, B2, i, j, C, D) give one polynomial;
        - a repeat would be harmless anyway: _buchberger drops repeats
          from its start set.
    """
    s = frozenset(s)
    sides = two_cut_sides(g, s) if s else [g.vertices]
    per_side = [
        list(connected_dominating_sets(induced_subgraph(g, side | s), side, limits))
        for side in sides
    ]
    gens = []
    for picks in itertools.product(*per_side):
        limits.check_time()
        union = frozenset().union(*picks)
        # one f_{i,j} per i in B1 and j in B2 at a 2-cut, none at the empty cut
        for pair in itertools.product(*map(sorted, picks)) if s else [()]:
            base = pack_poly(edge_binomial(*sorted(pair), g.n), order) if pair else {0: 1}
            gens.extend(_split_products(base, sorted(union - set(pair)), order))
    return gens
