"""Simple graphs on 1..n: cuts, components, and connected domination.

The domination searches are exhaustive at desk scale (n up to roughly 12);
cut enumeration prunes its search by the rule below.  Induced subgraphs keep
their original vertex labels, so a Graph carries an explicit vertex set
alongside the ambient n.

Inside the module a vertex set is an int bit mask (bit v for vertex v) and
Graph.adjacency gives one neighbour mask per vertex.  _mask_components is
the one component search: components of an induced subgraph are read off
the parent's masks restricted to the vertex set, without building the
subgraph, and connectivity is one component.  Frozensets are built only
for what the public functions return.

A nonempty S is a minimal cut when G - S has c >= 2 components and every
i in S is a cut point of G[(V - S) + i].  That is tested in one pass over
the components of G - S: adding i back merges the a components it has
neighbours in into one, so G[(V - S) + i] has c - a + 1 components (c + 1
when a = 0), and c - a + 1 < c holds exactly when a >= 2.  So i is a cut
point iff it has neighbours in at least two components of G - S.

So each vertex of a minimal cut S has at least two neighbours outside S.
Adding vertices to S only takes outside neighbours away, so once a set
breaks that rule every superset breaks it too: the enumeration never
extends such a set, and never tries a vertex of degree below two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import DEFAULT_LIMITS, STEPS_PER_CLOCK_CHECK, GraphFormatError, PreconditionError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices is a subset of 1..n (all of it for
    top-level inputs, smaller for induced subgraphs)."""

    n: int
    edges: frozenset
    vertices: frozenset

    @staticmethod
    def make(n, edges, vertices=None):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        verts = frozenset(range(1, n + 1)) if vertices is None else frozenset(vertices)
        for v in verts:
            if not 1 <= v <= n:
                raise GraphFormatError(f"vertex {v} out of range 1..{n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            if u > v:
                u, v = v, u
            if u not in verts or v not in verts:
                raise GraphFormatError(f"edge {{{u},{v}}} leaves the vertex set")
            if (u, v) in norm:
                raise GraphFormatError(f"duplicate edge {{{u},{v}}}")
            norm.add((u, v))
        return Graph(n, frozenset(norm), verts)

    @cached_property
    def adjacency(self):
        """{vertex: bit mask of its neighbours}, the one neighbour table of
        the module, built once per graph object; the dataclass's eq, hash
        and repr still see only the fields."""
        adj = dict.fromkeys(self.vertices, 0)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def is_complete(self):
        k = len(self.vertices)
        return len(self.edges) == k * (k - 1) // 2


def path_graph(n):
    return Graph.make(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph.make(n, list(itertools.combinations(range(1, n + 1), 2)))


def induced_subgraph(g, w):
    """Subgraph on w with original labels and exactly the edges inside w."""
    w = frozenset(w)
    if not w <= g.vertices:
        raise PreconditionError(f"{sorted(w - g.vertices)} not vertices of the graph")
    edges = frozenset(e for e in g.edges if e[0] in w and e[1] in w)
    return Graph(g.n, edges, w)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _as_sets(masks):
    """Each bit mask as the frozenset of its vertices."""
    return [frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks]


def _mask_components(adj, rest):
    """Components of the subgraph on the bit mask rest, as masks sorted by
    least vertex: a flood fill over the neighbour masks adj."""
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest ^= comp
    return comps


def _splits(adj, s, rest, comps):
    """The one-pass cut test of the module docstring: comps, the components
    of the mask rest = V - s, are two or more, and each vertex of s has
    neighbours in rest outside every single component."""
    return len(comps) >= 2 and all(adj[u] & rest & ~c for u in s for c in comps)


def components_within(g, w):
    """Components of the subgraph induced on w, sorted by least vertex; the
    subgraph itself is never built."""
    w = frozenset(w)
    if not w <= g.vertices:
        raise PreconditionError(f"{sorted(w - g.vertices)} not vertices of the graph")
    return _as_sets(_mask_components(g.adjacency, _mask(w)))


def connected_components(g):
    """Maximal connected pieces, sorted by least vertex."""
    return components_within(g, g.vertices)


def is_connected(g):
    return len(_mask_components(g.adjacency, _mask(g.vertices))) <= 1


def _require_connected(g):
    if not is_connected(g):
        raise PreconditionError("graph must be connected")


def _cut_test(g, s):
    """(passes the one-pass cut test, component masks of g - s) for a
    nonempty proper vertex subset s of the connected g."""
    _require_connected(g)
    s = frozenset(s)
    if not s or s >= g.vertices:
        raise PreconditionError("cut must be a nonempty proper vertex subset")
    if not s <= g.vertices:
        raise PreconditionError("cut contains non-vertices")
    rest = _mask(g.vertices - s)
    comps = _mask_components(g.adjacency, rest)
    return _splits(g.adjacency, s, rest, comps), comps


def is_minimal_kcut(g, s):
    """(flag, k): s disconnects g into k >= 2 parts and every vertex of s is
    a cut point of the graph induced on the complement plus that vertex."""
    ok, comps = _cut_test(g, s)
    return ok, len(comps)


@dataclass(frozen=True)
class CutRecord:
    """One element of min(G): the cut, its component count and components."""

    s: frozenset
    k: int
    components: tuple


def enumerate_min_cuts(g, limits=DEFAULT_LIMITS):
    """{empty set} plus every minimal k-cut, sorted lexicographically.

    A depth-first search over the vertices of degree at least two, in
    increasing order, so it meets the sets in lexicographic order; it never
    extends a set with a vertex that has fewer than two neighbours outside
    it (the prune of the module docstring), and frozensets are built only
    for the cuts kept.  The search checks the deadline of limits every
    STEPS_PER_CLOCK_CHECK nodes.
    """
    _require_connected(g)
    adj = g.adjacency
    candidates = [v for v in sorted(g.vertices) if adj[v].bit_count() >= 2]
    records = [CutRecord(frozenset(), 1, tuple(connected_components(g)))]
    steps = itertools.count(1)

    def extend(members, outside, start):
        for idx in range(start, len(candidates)):
            if not next(steps) % STEPS_PER_CLOCK_CHECK:
                limits.check_time()
            v = candidates[idx]
            rest = outside ^ 1 << v
            grown = members + [v]
            if any((adj[u] & rest).bit_count() < 2 for u in grown):
                continue
            comps = _mask_components(adj, rest)
            if _splits(adj, grown, rest, comps):
                records.append(CutRecord(frozenset(grown), len(comps), tuple(_as_sets(comps))))
            extend(grown, rest, idx + 1)

    extend([], _mask(g.vertices), 0)
    return records


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


def connected_dominating_sets(g, within, limits=DEFAULT_LIMITS):
    """Every inclusion-minimal subset of within that connect-dominates g, by
    size and then lexicographically; within must be a set of vertices of g.
    The search checks the deadline of limits after every
    STEPS_PER_CLOCK_CHECK subsets of one size.

    The same test as is_connected_dominating, cheapest part first: a subset
    dominates when the bit masks of its closed neighbourhoods cover every
    vertex, and only then is it tested against the sets already yielded and
    its bit mask searched for components.  Sets come by size, so a
    set that is not minimal contains a minimal one yielded before it, and a
    set that contains none of those is minimal.  A first hit is a set of
    least size, hence minimal, so a search that stops there does no work
    for the filter.  A connected set of k vertices has at least k - 1 edges
    inside it, so it dominates at most k + (the sum of its degrees) - 2(k - 1)
    vertices; the sizes at which even the k largest degrees in within fall
    short are skipped.
    """
    adj = g.adjacency
    closed = {v: adj[v] | 1 << v for v in g.vertices}
    everything = _mask(g.vertices)
    verts = sorted(within)
    degrees = sorted((adj[v].bit_count() for v in verts), reverse=True)
    kept = []
    for size in range(1, len(verts) + 1):
        if sum(degrees[:size]) - size + 2 < len(g.vertices):
            continue
        for count, combo in enumerate(itertools.combinations(verts, size), 1):
            if not count % STEPS_PER_CLOCK_CHECK:
                limits.check_time()
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered != everything:
                continue
            mask = _mask(combo)
            if any(k & mask == k for k in kept):
                continue
            if len(_mask_components(adj, mask)) == 1:
                kept.append(mask)
                yield frozenset(combo)


def gamma_c(g, limits=DEFAULT_LIMITS):
    """Connected domination number with its lexicographically least witness,
    the first set connected_dominating_sets yields.

    The one-vertex graph gets gamma_c = 1 (its sole vertex dominates
    vacuously); the search never needs the empty set.  limits is as for
    connected_dominating_sets.
    """
    _require_connected(g)
    witness = next(connected_dominating_sets(g, g.vertices, limits))
    return len(witness), witness


def two_cut_sides(g, s):
    """The two components of g - s, sorted by least vertex; s must be a
    minimal 2-cut."""
    ok, comps = _cut_test(g, s)
    if not ok or len(comps) != 2:
        raise PreconditionError(f"{sorted(s)} is not a minimal 2-cut")
    return _as_sets(comps)


def gamma_c_pair(g, s, limits=DEFAULT_LIMITS):
    """Least size of A inside V1 u V2 whose trace on each side
    connect-dominates that side plus the cut, with the union of each side's
    lexicographically least witness; s must be a minimal 2-cut.  The whole
    side always connect-dominates side plus cut, so each search succeeds.
    limits is as for connected_dominating_sets."""
    s = frozenset(s)
    w1, w2 = (
        next(connected_dominating_sets(induced_subgraph(g, side | s), side, limits))
        for side in two_cut_sides(g, s)
    )
    return len(w1) + len(w2), w1 | w2


# ---------------------------------------------------------------------------
# automorphisms that carry one cut onto another
# ---------------------------------------------------------------------------

def cut_invariant(g, s):
    """(|S|, the sorted degrees on S, the sorted component sizes of g - S),
    equal for two vertex sets whenever an automorphism carries one onto the
    other."""
    adj = g.adjacency
    comps = _mask_components(adj, _mask(g.vertices - s))
    return len(s), sorted(adj[v].bit_count() for v in s), sorted(c.bit_count() for c in comps)


def cut_automorphism(g, r, s, limits=DEFAULT_LIMITS):
    """An automorphism sigma of the connected g with sigma(r) = s, as
    {vertex: image}, or None when there is none.  Sets whose cut_invariant
    differ are turned away before any search; otherwise _carry searches,
    under the deadline of limits."""
    r, s = frozenset(r), frozenset(s)
    if cut_invariant(g, r) != cut_invariant(g, s):
        return None
    return _carry(g, r, s, limits)


def _carry(g, r, s, limits):
    """The backtracking search of cut_automorphism; it stops at the first
    automorphism found and never lists the group.

    Vertices are placed in breadth-first order from the least vertex of r,
    so each one after the first has a placed neighbour p and may only go to
    a neighbour of sigma(p).  A vertex v goes to an unused w of the same
    degree, in s exactly when v is in r, whose neighbours among the images
    placed so far are exactly the images of v's placed neighbours.  A
    complete placement is then a bijection that keeps every edge and every
    non-edge, and carries r onto s.  The deadline is checked at every node.
    """
    adj = g.adjacency
    targets = {}
    for w in g.vertices:
        key = (adj[w].bit_count(), w in s)
        targets[key] = targets.get(key, 0) | 1 << w
    root = min(r or g.vertices)
    order, parent = [root], {root: None}
    for v in order:
        for u in sorted(g.vertices):
            if adj[v] >> u & 1 and u not in parent:
                parent[u] = v
                order.append(u)
    sigma = {}

    def place(i, used):
        if i == len(order):
            return True
        limits.check_time()
        v = order[i]
        image = 0
        for u in order[:i]:
            if adj[v] >> u & 1:
                image |= 1 << sigma[u]
        cands = targets.get((adj[v].bit_count(), v in r), 0) & ~used
        if parent[v] is not None:
            cands &= adj[sigma[parent[v]]]
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            if adj[w] & used == image:
                sigma[v] = w
                if place(i + 1, used | low):
                    return True
        return False

    return sigma if place(0, 0) else None


# ---------------------------------------------------------------------------
# graph text format
# ---------------------------------------------------------------------------

def parse_graph(text):
    """First non-comment line `n <count>`, then one `u v` line per edge with
    u < v; `#` starts a comment; Graph.make rejects a duplicate edge."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad edge {line!r}")
        if not (1 <= u < v <= n):
            raise GraphFormatError(f"line {lineno}: edge needs 1 <= u < v <= n")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <count>' line")
    return Graph.make(n, edges)


def format_graph(g):
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
