"""Reference computations that the benchmark checks vnum's reports against.

Nothing here imports vnum.  Every value is recomputed by brute force over
vertex bitmasks (bit v-1 stands for vertex v), so a fault in vnum cannot
hide behind the same fault in the checker.  The graphs are small (n <= 9),
which keeps exhaustive search cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

# OEIS A001349: connected graphs on n unlabeled vertices, n = 1..6.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on 1..n; adj[v] is the neighbour mask of vertex v."""

    n: int
    edges: tuple
    adj: tuple

    @property
    def full(self):
        return (1 << self.n) - 1


def make_graph(n, edges):
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    adj = [0] * (n + 1)
    for u, v in norm:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return SimpleGraph(n, tuple(norm), tuple(adj))


def cycle(n):
    return make_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def complete(n):
    return make_graph(n, itertools.combinations(range(1, n + 1), 2))


def graph_text(g):
    """The graph-file format vnum reads: `n <count>`, then one edge per line."""
    return "".join([f"n {g.n}\n"] + [f"{u} {v}\n" for u, v in g.edges])


def relabel(g, perm):
    """The graph with vertex v renamed perm[v - 1]."""
    return make_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def vertices(mask):
    v = 1
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def mask_of(vs):
    m = 0
    for v in vs:
        m |= 1 << (v - 1)
    return m


def components(g, mask):
    """Component masks of the subgraph induced on mask."""
    comps = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length()
            new = g.adj[v] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def is_connected(g, mask):
    return len(components(g, mask)) == 1


def is_complete(g):
    return len(g.edges) == g.n * (g.n - 1) // 2


def _neighbourhood(g, mask):
    out = mask
    for v in vertices(mask):
        out |= g.adj[v]
    return out


def _least_connected_dominating(g, candidates, target):
    """Least size of a subset B of candidates with B connected and every
    vertex of target in B or adjacent to B, looking only inside target."""
    pool = list(vertices(candidates))
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            b = mask_of(combo)
            if _neighbourhood(g, b) & target == target and is_connected(g, b):
                return size
    raise ValueError("no connected dominating subset")


def connected_domination_number(g):
    """gamma_c(G) by exhaustive search; needs a connected graph."""
    if not is_connected(g, g.full):
        raise ValueError("graph must be connected")
    return _least_connected_dominating(g, g.full, g.full)


@lru_cache(maxsize=None)
def minimal_cuts(g):
    """The empty set plus every minimal cut, as sorted vertex tuples in
    lexicographic order.

    S is a minimal cut when G - S has c >= 2 components and putting any one
    vertex of S back leaves fewer than c components.
    """
    full = g.full
    count = {}

    def c(mask):
        if mask not in count:
            count[mask] = len(components(g, mask))
        return count[mask]

    cuts = [()]
    for s in range(1, full):
        rest = full & ~s
        k = c(rest)
        if k < 2:
            continue
        if all(c(rest | (1 << (v - 1))) < k for v in vertices(s)):
            cuts.append(tuple(vertices(s)))
    cuts.sort()
    return cuts


def empty_cut_value(g):
    """The localized v-number at the empty cut: 0 when G is complete (J_G
    is then prime), the connected domination number otherwise."""
    return 0 if is_complete(g) else connected_domination_number(g)


def pair_domination_value(g, s):
    """The localized v-number at a minimal 2-cut S: the least |A| for A in
    V1 u V2 whose trace on each side connect-dominates that side plus S."""
    cut = mask_of(s)
    sides = components(g, g.full & ~cut)
    if len(sides) != 2:
        raise ValueError(f"{s} does not split the graph in two")
    return sum(_least_connected_dominating(g, side, side | cut) for side in sides)


@lru_cache(maxsize=None)
def theorem_value(g, s):
    """The value a domination theorem gives at the cut s, or None when s has
    three or more components (no theorem applies there)."""
    if not s:
        return empty_cut_value(g)
    if len(components(g, g.full & ~mask_of(s))) == 2:
        return pair_domination_value(g, s)
    return None


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def cycle_window(n, s):
    """The paper's window (lo, hi) for v at the cut s of C_n, n >= 4.

    The empty cut and 2-element cuts give n - 2.  A larger cut splits the
    cycle into |S| arcs: with no single-vertex arc the value is n - |S|;
    with one it lies in [n - |S|, n - |S| + 1]; with two or more it lies in
    [n - c2 - 2, n - c2], where c2 counts arcs of two or more vertices.
    """
    if len(s) in (0, 2):
        return n - 2, n - 2
    cut = sorted(s)
    arcs = [(b - a - 1) % n for a, b in zip(cut, cut[1:] + cut[:1])]
    singles = sum(1 for a in arcs if a == 1)
    c2 = sum(1 for a in arcs if a >= 2)
    if singles == 0:
        return n - len(s), n - len(s)
    if singles == 1:
        return n - len(s), n - len(s) + 1
    return n - c2 - 2, n - c2


def cycle_global_value(n):
    """v(C_n) = 2n/3 when 3 divides n (the paper's headline case)."""
    if n % 3:
        raise ValueError("exact only when 3 divides n")
    return 2 * n // 3


# ---------------------------------------------------------------------------
# the isomorphism-free corpus
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def connected_graphs(n):
    """One connected graph on 1..n per isomorphism class.

    The representative is the relabeling whose sorted edge list is least
    under the edge order of the pairs; classes are listed by edge count,
    then by that edge list.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    reps = []
    for m in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, m):
            if edges in seen:
                continue
            images = {
                tuple(sorted((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in edges))
                for p in perms
            }
            seen |= images
            g = make_graph(n, min(images))
            if is_connected(g, g.full):
                reps.append(g)
    return tuple(reps)


def corpus(n_lo=2, n_hi=5):
    return [g for n in range(n_lo, n_hi + 1) for g in connected_graphs(n)]


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Problems found in one report.

    errors are wrong values; bound_faults are global values that contradict
    the report's own windows (or the paper's exact value), which is the
    fault kept in the bounds workload.
    """

    errors: list
    bound_faults: list


def check_report(g, doc, *, algebraic, oracle=False, paper_windows=None, paper_global=None):
    """Check one report in vnum's JSON shape against the reference values.

    doc has `primes` (each with s, v, window {lo, hi}, oracle_ok) and
    `global` {v, argmin_s}.  algebraic says whether every prime must carry a
    value; oracle, whether every prime must carry oracle_ok = true.
    paper_windows maps a cut tuple to the paper's (lo, hi) and paper_global
    is the paper's exact global value, both for cycles.  In a bounds-only
    report a global value above a window's upper end is a bound fault; every
    other mismatch is an error.
    """
    errors, faults = [], []
    primes = doc["primes"]
    got_cuts = [tuple(p["s"]) for p in primes]
    want_cuts = minimal_cuts(g)
    if got_cuts != want_cuts:
        errors.append(f"primes {got_cuts} != minimal cuts {want_cuts}")
        return Verdict(errors, faults)
    for p in primes:
        s, v = tuple(p["s"]), p["v"]
        lo, hi = p["window"]["lo"], p["window"]["hi"]
        exact = theorem_value(g, s)
        if exact is not None:
            if v != exact:
                errors.append(f"v at {s} is {v}, the domination theorem gives {exact}")
            if (lo, hi) != (exact, exact):
                errors.append(f"window at {s} is [{lo},{hi}], expected [{exact},{exact}]")
        elif algebraic and v is None:
            errors.append(f"no value at {s}")
        elif not algebraic and v is not None:
            errors.append(f"bounds-only value {v} at {s}, where no theorem applies")
        if v is not None and ((lo is not None and v < lo) or (hi is not None and v > hi)):
            errors.append(f"v = {v} at {s} outside its window [{lo},{hi}]")
        if paper_windows is not None:
            plo, phi = paper_windows[s]
            if hi is not None and hi < plo:
                errors.append(f"upper bound {hi} at {s} below the paper's lower bound {plo}")
            if v is not None and not plo <= v <= phi:
                errors.append(f"v = {v} at {s} outside the paper's window [{plo},{phi}]")
        if oracle and p["oracle_ok"] is not True:
            errors.append(f"oracle_ok at {s} is {p['oracle_ok']}")
    least = min((p["v"] for p in primes if p["v"] is not None), default=None)
    gv = doc["global"]["v"]
    if gv != least:
        errors.append(f"global v {gv} is not the least prime value {least}")
    argmin = doc["global"]["argmin_s"]
    if gv is not None and not any(p["s"] == argmin and p["v"] == gv for p in primes):
        errors.append(f"argmin {argmin} does not attain the global value {gv}")
    bound_problems = errors if algebraic else faults
    his = [(p["window"]["hi"], tuple(p["s"])) for p in primes if p["window"]["hi"] is not None]
    if gv is not None and his and gv > min(his)[0]:
        hi, s = min(his)
        bound_problems.append(f"global v {gv} above the upper bound {hi} at {s}")
    if paper_global is not None and gv != paper_global:
        above = gv is not None and gv > paper_global
        (bound_problems if above else errors).append(
            f"global v {gv}, the paper gives {paper_global}"
        )
    return Verdict(errors, faults)
