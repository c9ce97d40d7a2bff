"""Rank-two matroids attached to cuts, dependency-difference families, and
minimum-weight transversals.

The matroid of a cut S has S as loops and the components of the graph minus
S as parallel classes; a subset is dependent exactly when it meets a loop,
hits some class twice, or has three or more elements.  Family members below
are sets of "small dependents": subsets of the vertex set of size one or
two, encoded as frozensets.  The delta family and its minimum transversal
weight give the upper end of a prime's window.

The generators of the transversal ideal L_S that the pipeline sums with
J_G are built from connected dominating sets, with no delta family: at the
empty cut and at a minimal 2-cut the minimal transversals are known in
those terms (packed_concise_generators gives the proof).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DEFAULT_LIMITS, STEPS_PER_CLOCK_CHECK, NoTransversalError, PreconditionError
from .graphs import (
    components_within,
    connected_dominating_sets,
    enumerate_min_cuts,
    induced_subgraph,
    is_minimal_kcut,
    two_cut_sides,
)
from .groebner import pack_poly
from .poly import (
    edge_binomial,
    monomial,
    x_index,
    y_index,
)


@dataclass(frozen=True)
class RankTwoMatroid:
    """Loops plus a partition of the remaining ground set into parallel classes."""

    n: int
    loops: frozenset
    parallel_classes: tuple

    def __post_init__(self):
        cover = set(self.loops)
        for cls in self.parallel_classes:
            if cover & cls:
                raise PreconditionError("loops and classes must be disjoint")
            cover |= cls
        if cover != set(range(1, self.n + 1)):
            raise PreconditionError("loops and classes must cover the ground set")

    def is_dependent(self, b):
        b = frozenset(b)
        if b & self.loops:
            return True
        if any(len(b & cls) >= 2 for cls in self.parallel_classes):
            return True
        return len(b) >= 3

    def small_dependents(self):
        """All dependent subsets of size one or two."""
        out = set()
        for i in range(1, self.n + 1):
            if self.is_dependent({i}):
                out.add(frozenset({i}))
        for i, j in itertools.combinations(range(1, self.n + 1), 2):
            if self.is_dependent({i, j}):
                out.add(frozenset({i, j}))
        return out


def _require_in_min(g, s):
    s = frozenset(s)
    if s:
        ok, _ = is_minimal_kcut(g, s)
        if not ok:
            raise PreconditionError(f"{sorted(s)} is not the empty set or a minimal k-cut")
    return s


def matroid_of_cut(g, s):
    """Matroid with loops s and the components of g minus s as classes."""
    s = _require_in_min(g, s)
    return RankTwoMatroid(g.n, s, tuple(components_within(g, g.vertices - s)))


def small_dependent_diff(m1, m2):
    """Singletons and pairs dependent in m1 but independent in m2."""
    if m1.n != m2.n:
        raise PreconditionError("matroids live on different ground sets")
    return frozenset(e for e in m1.small_dependents() if not m2.is_dependent(e))


@dataclass(frozen=True)
class TransversalFamily:
    """Per other minimal cut S', the small dependents of M(S') that are
    independent in M(S); sources[i] is the S' that produced members[i]."""

    n: int
    members: tuple
    sources: tuple


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


def _element_key(e):
    return (len(e), tuple(sorted(e)))


def _split(elements):
    singles = frozenset(next(iter(e)) for e in elements if len(e) == 1)
    pairs = frozenset(e for e in elements if len(e) == 2)
    return Transversal(singles, pairs)


def cut_dependents(g, cuts, limits=DEFAULT_LIMITS):
    """{S: D(M(S))} for the cut records of one enumeration of g, in their
    order: the singletons and pairs dependent in the matroid of each cut,
    listed straight from its loops and parallel classes.  Each pair is one
    frozenset shared by every cut, and each vertex carries the set of its
    singleton and every pair through it, so a cut's dependents are a union
    of those.  Checks the deadline of limits every STEPS_PER_CLOCK_CHECK
    cuts."""
    verts = sorted(g.vertices)
    pair = {(i, j): frozenset({i, j}) for i, j in itertools.combinations(verts, 2)}
    through = {
        i: frozenset([frozenset({i})] + [pair[min(i, j), max(i, j)] for j in verts if j != i])
        for i in verts
    }
    out = {}
    for step, rec in enumerate(cuts, 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        deps = set().union(*(through[i] for i in rec.s))
        for comp in rec.components:
            deps.update(pair[e] for e in itertools.combinations(sorted(comp), 2))
        out[rec.s] = frozenset(deps)
    return out


def delta_family(g, s, dependents=None, limits=DEFAULT_LIMITS):
    """One member per other minimal prime: D(M(S')) minus D(M(S)).

    A set of at most two elements is dependent in M(S) exactly when it lies
    in D(M(S)), so the member for S' is the set difference
    D(M(S')) - D(M(S)), which equals
    small_dependent_diff(matroid_of_cut(g, S'), matroid_of_cut(g, S)).
    dependents is cut_dependents of one enumeration of g, so a report that
    needs the family of every prime computes each D once; without it the
    cuts are enumerated here.  An s outside the enumeration raises
    PreconditionError.  The member loop checks the deadline of limits every
    STEPS_PER_CLOCK_CHECK cuts.
    """
    s = frozenset(s)
    if dependents is None:
        dependents = cut_dependents(g, enumerate_min_cuts(g), limits)
    base = dependents.get(s)
    if base is None:
        raise PreconditionError(f"{sorted(s)} is not the empty set or a minimal k-cut")
    members = []
    sources = []
    for step, (other, deps) in enumerate(dependents.items(), 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        if other != s:
            members.append(deps - base)
            sources.append(other)
    return TransversalFamily(g.n, tuple(members), tuple(sources))


def min_transversal_weight(family, limits=DEFAULT_LIMITS):
    """Exact minimum of |singles| + 2|pairs| over all transversals.

    Ties between optimal witnesses break toward the lexicographically least
    element set.  A member that contains another is hit whenever that one
    is, so only the inclusion-minimal members are searched; the
    transversals, and so the result, are the same.

    Branch and bound over members ordered by ascending size, branching on
    elements by descending coverage, on one additive cost: with the E
    elements numbered 0..E-1 in key order, element i costs its weight, its
    size 1 or 2, times 2^E, less 2^(E-1-i).  The subtracted parts of a set sum to less
    than 2^E, so cost orders sets by weight first; and of two sets of equal
    weight, neither contains the other, so the one holding the least
    element where they differ, the lexicographically lesser, has the
    larger subtracted sum and the lower cost.  The inclusion-minimal filter
    checks the deadline of limits every STEPS_PER_CLOCK_CHECK members, and
    the search every STEPS_PER_CLOCK_CHECK nodes.
    """
    members = []
    for step, m in enumerate(sorted(map(frozenset, family.members), key=len), 1):
        if not step % STEPS_PER_CLOCK_CHECK:
            limits.check_time()
        if not any(k <= m for k in members):
            members.append(m)
    if any(not m for m in members):
        raise NoTransversalError("a family member is empty; no transversal exists")

    elements = sorted(set().union(*members), key=_element_key)
    top = 1 << len(elements)
    cost = {e: len(e) * top - (top >> (i + 1)) for i, e in enumerate(elements)}
    rank = {e: i for i, e in enumerate(elements)}
    members.sort(key=lambda m: (len(m), sorted(map(rank.get, m))))
    coverage = {e: sum(1 for m in members if e in m) for e in elements}
    # each member with its elements in branching order and the cost of its
    # cheapest element; the first unhit member is always the one to branch
    # on, since members are sorted
    branches = [
        (m, sorted(m, key=lambda e: (-coverage[e], rank[e])), min(map(cost.get, m)))
        for m in members
    ]
    best = [sum(cost.values()) + 1, None]  # cost, set
    nodes = itertools.count(1)

    def lower_bound(unhit):
        # pairwise-disjoint unhit members must be hit by distinct elements,
        # each costing at least its member's cheapest element
        used = set()
        lb = 0
        for m, _, cheapest in unhit:
            if used.isdisjoint(m):
                lb += cheapest
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
        for e in unhit[0][1]:
            search([b for b in unhit if e not in b[0]], chosen | {e}, spent + cost[e])

    search(branches, frozenset(), 0)
    witness = _split(best[1])
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


def _distinct(polys):
    """Packed polynomials without repeats, in first-seen order."""
    return list({frozenset(p.items()): p for p in polys}.values())


def packed_concise_generators(g, s, order, limits=DEFAULT_LIMITS):
    """The generators of L_S, packed by order and without repeats, at the
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
    return _distinct(gens)
