"""Reference operations that only the tests use: path and complete graphs,
the graph text writer, the minimal-cut and connected-domination tests on
one vertex set, tuple monomial helpers,
the monomial order's comparison and a Polynomial's leading monomial,
the unit test on a basis, the admissible-path basis of J_G built from
the paths of the graph and the reduced-basis check it passes,
membership tests on Polynomials, the all-pairs Buchberger criterion and
the initial ideal of a basis, the
definition-level rank-two matroid of a cut, the delta family and its
branch and bound on frozensets of singletons and pairs, the
definition-level generators of the transversal ideal L_S from the minimal
transversals of the delta family, and Polynomial views of those and of the
cut generators.  The runtime package works on packed polynomials and on
bit masks of singletons and pairs, and needs none of them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from vnum.errors import (
    DEFAULT_LIMITS,
    STEPS_PER_CLOCK_CHECK,
    NoTransversalError,
    PreconditionError,
)
from vnum.graphs import (
    Graph,
    _cut_test,
    _mask,
    _mask_components,
    components_within,
    enumerate_min_cuts,
    induced_subgraph,
    two_cut_sides,
)
from vnum.groebner import (
    GroebnerBasis,
    ReducerTable,
    _buchberger,
    _t_extension,
    _times_t,
    normal_form,
    pack_poly,
    packed_is_squarefree,
    packed_product,
    s_polynomial,
    unpack_poly,
)
from vnum.idealops import _packed, as_basis
from vnum.matroids import (
    _split,
    _split_products,
    delta_family,
    packed_concise_generators,
)
from vnum.poly import (
    MonomialOrder,
    Polynomial,
    edge_binomial,
    one_poly,
    sorted_generators,
    x_poly,
    y_poly,
)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def path_graph(n):
    return Graph.make(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph.make(n, list(itertools.combinations(range(1, n + 1), 2)))


def format_graph(g):
    """g in the text format parse_graph reads."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def is_minimal_kcut(g, s):
    """(flag, k): s disconnects g into k >= 2 parts and every vertex of s is
    a cut point of the graph induced on the complement plus that vertex."""
    ok, comps = _cut_test(g, s)
    return ok, len(comps)


def is_connected_dominating(g, b):
    """b induces a connected subgraph and dominates every outside vertex."""
    b = frozenset(b)
    if not b:
        raise PreconditionError("connected dominating sets are nonempty")
    if not b <= g.vertices:
        raise PreconditionError("set contains non-vertices")
    adj = g.adjacency
    inside = _mask(b)
    return len(_mask_components(adj, inside)) == 1 and all(adj[v] & inside for v in g.vertices - b)


# ---------------------------------------------------------------------------
# monomials, polynomials and bases
# ---------------------------------------------------------------------------

def mono_is_squarefree(a):
    return all(e <= 1 for e in a)


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


def greater(order, a, b):
    """a > b for tuple monomials under order."""
    return order.key(a) > order.key(b)


def leading_monomial(f, order):
    """The greatest monomial of a nonzero Polynomial under order."""
    if f.is_zero:
        raise PreconditionError("zero polynomial has no leading monomial")
    return max(f.terms, key=order.key)


def contains_one(gb):
    """The reduced basis gb is that of the unit ideal."""
    return any(max(p) == 0 for p in gb.packed)


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


def is_groebner_basis_all_pairs(polys, order, limits=DEFAULT_LIMITS):
    """Buchberger's criterion with no pair skipped: the S-polynomial of every
    pair of nonzero polys, those with coprime leading terms included,
    reduces to zero modulo polys."""
    gens = [p for p in polys if not p.is_zero]
    table = ReducerTable(order, [pack_poly(p, order) for p in gens])
    return all(
        normal_form(s_polynomial(f, g, order), table, limits=limits).is_zero
        for f, g in itertools.combinations(gens, 2)
    )


def initial_ideal(gb):
    """Leading monomials of a reduced basis, plus a squarefree flag.

    The flag is a sufficient condition only: when every leading monomial is
    squarefree the ideal is radical.
    """
    if not isinstance(gb, GroebnerBasis):
        raise PreconditionError("initial_ideal needs a reduced Groebner basis")
    order = gb.order
    lms = [max(p) for p in gb.packed]
    monos = [Polynomial(order.width, {order.unpack(lm): 1}) for lm in lms]
    return monos, all(packed_is_squarefree(lm, order.guard) for lm in lms)


# ---------------------------------------------------------------------------
# the admissible-path basis of J_G, from the paths
# ---------------------------------------------------------------------------

def _all_path_interiors(g, i, j, limits):
    """Vertex sets of interiors of all simple i-j paths; the walk carries
    each interior as a bit mask over the neighbour masks of g.adjacency."""
    interiors = set()
    adj = g.adjacency
    ends = 1 << i | 1 << j

    def walk(v, seen):
        limits.check_time()
        if adj[v] >> j & 1:
            interiors.add(frozenset(u for u in g.vertices if seen >> u & 1))
        step = adj[v] & ~seen & ~ends
        while step:
            low = step & -step
            walk(low.bit_length() - 1, seen | low)
            step ^= low

    walk(i, 0)
    return interiors


def path_basis_by_definition(g, sigma=None, limits=DEFAULT_LIMITS):
    """The reduced lex basis of J_G from the admissible paths of the graph
    (Herzog, Hibi, Hreinsdottir, Kahle and Rauh, 2010, Theorem 2.1), the
    expected side of the tests of the runtime's admissible_path_basis.

    A path from i to j (with sigma(i) < sigma(j)) is admissible when its
    interior vertices all sort below i or above j and no proper subset of
    the interior supports an i-j path; it contributes u_pi * f_{i,j} with
    u_pi collecting x over the high interior vertices and y over the low
    ones.  The construction is checked to be the reduced basis of its ideal
    before being returned.  Every simple path between every pair is listed,
    so the search is exponential on dense graphs.  The path search and that
    check run under the deadline of limits.
    """
    order = MonomialOrder(g.n, sigma)
    rank = {v: order.sigma[v - 1] for v in g.vertices}
    gens = {}
    for a, b in itertools.combinations(sorted(g.vertices), 2):
        i, j = (a, b) if rank[a] < rank[b] else (b, a)
        interiors = _all_path_interiors(g, i, j, limits)
        for interior in interiors:
            if any(rank[i] < rank[w] < rank[j] for w in interior):
                continue
            if any(other < interior for other in interiors):
                continue
            u = one_poly(g.n)
            for w in sorted(interior):
                u = u * (x_poly(w, g.n) if rank[w] > rank[j] else y_poly(w, g.n))
            gens[(i, j, interior)] = u * edge_binomial(i, j, g.n)
    gb = GroebnerBasis(sorted((pack_poly(p, order) for p in gens.values()), key=max), order)
    assert_reduced_groebner(gb, limits)
    return gb


def assert_reduced_groebner(gb, limits):
    """gb is the reduced basis of its ideal, ascending by leading monomial,
    exactly when the engine returns it unchanged: the engine returns the
    reduced basis of the ideal its input generates, and that basis is
    unique for the ideal and the order."""
    assert _buchberger(gb.packed, gb.order, limits) == gb.packed, (
        "path basis must be a Groebner basis, minimal, monic and tail-reduced"
    )


# ---------------------------------------------------------------------------
# the matroid of a cut, and the delta family on frozensets
# ---------------------------------------------------------------------------

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
class SetFamily:
    """A delta family with frozenset members: sources[i] is the other cut
    that produced members[i]."""

    n: int
    members: tuple
    sources: tuple


def _element_key(e):
    return (len(e), tuple(sorted(e)))


def cut_dependent_sets(g, cuts, limits=DEFAULT_LIMITS):
    """cut_dependents on frozensets: {S: D(M(S))} for the cut records of one
    enumeration of g, each D the frozenset of its singletons and pairs.
    Each pair is one frozenset shared by every cut, and each vertex carries
    the set of its singleton and every pair through it, so a cut's
    dependents are a union of those."""
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


def delta_family_sets(g, s, dependents=None, limits=DEFAULT_LIMITS):
    """delta_family on frozensets: one member D(M(S')) - D(M(S)) per other
    minimal prime, from cut_dependent_sets."""
    s = frozenset(s)
    if dependents is None:
        dependents = cut_dependent_sets(g, enumerate_min_cuts(g), limits)
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
    return SetFamily(g.n, tuple(members), tuple(sources))


def min_transversal_weight_sets(family, limits=DEFAULT_LIMITS):
    """min_transversal_weight on the frozenset members of any family: the
    same branch and bound, with each element a frozenset and its rank its
    place in _element_key order."""
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
    branches = [
        (m, sorted(m, key=lambda e: (-coverage[e], rank[e])), min(map(cost.get, m)))
        for m in members
    ]
    best = [sum(cost.values()) + 1, None]  # cost, set
    nodes = itertools.count(1)

    def lower_bound(unhit):
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
# the definition-level generators of L_S
# ---------------------------------------------------------------------------

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


def _distinct(polys):
    """Packed polynomials without repeats, in first-seen order."""
    return list({frozenset(p.items()): p for p in polys}.values())


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
