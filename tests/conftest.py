"""Shared fixtures: small named graphs and the isomorphism-free corpus."""

from __future__ import annotations

import itertools
import pickle
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from vnum.graphs import Graph, complete_graph, path_graph
from vnum.cycles import cycle_graph


def graph_from_edges(n, edges):
    return Graph.make(n, edges)


@st.composite
def connected_graphs(draw, min_n, max_n):
    """A random spanning tree on a random labelling plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    tree = {
        tuple(sorted((order[i], order[draw(st.integers(0, i - 1))]))) for i in range(1, n)
    }
    pairs = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in tree]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=n + 3)) if pairs else set()
    return Graph.make(n, sorted(tree | extra))


@lru_cache(maxsize=None)
def connected_graphs_upto_iso(n):
    """All connected graphs on n labeled vertices, one per isomorphism class.

    A graph is kept when its edge bitmask is the minimum over all vertex
    relabelings; brute force, adequate for n <= 6.
    """
    if n == 1:
        return (Graph.make(1, []),)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    bit = {e: i for i, e in enumerate(pairs)}
    perms = list(itertools.permutations(range(1, n + 1)))
    # per permutation: where each edge bit lands
    moved = []
    for perm in perms:
        mapping = [0] * len(pairs)
        for (u, v), i in bit.items():
            pu, pv = perm[u - 1], perm[v - 1]
            if pu > pv:
                pu, pv = pv, pu
            mapping[i] = bit[(pu, pv)]
        moved.append(mapping)

    def connected(mask):
        adj = {v: set() for v in range(1, n + 1)}
        for (u, v), i in bit.items():
            if mask >> i & 1:
                adj[u].add(v)
                adj[v].add(u)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    out = []
    for mask in range(1 << len(pairs)):
        if not connected(mask):
            continue
        canonical = True
        for mapping in moved:
            other = 0
            for i in range(len(pairs)):
                if mask >> i & 1:
                    other |= 1 << mapping[i]
            if other < mask:
                canonical = False
                break
        if canonical:
            out.append(Graph.make(n, [e for e in pairs if mask >> bit[e] & 1]))
    return tuple(out)


@pytest.fixture(scope="session")
def small_connected_graphs():
    """Connected graphs up to isomorphism for n = 1..5 (31 graphs)."""
    return [g for n in range(1, 6) for g in connected_graphs_upto_iso(n)]


@pytest.fixture(scope="session")
def named_graphs():
    return {
        "P2": path_graph(2),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "star4": Graph.make(4, [(1, 2), (1, 3), (1, 4)]),
        "kite": Graph.make(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    }


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace vnumber's process pool by an in-process map that still sends
    each task and its result through pickle; returns the requested widths."""
    widths = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            ship = lambda obj: pickle.loads(pickle.dumps(obj))  # noqa: E731
            return (ship(ship(fn)(ship(item))) for item in items)

    import vnum.edgeideals

    monkeypatch.setattr(vnum.edgeideals, "ProcessPoolExecutor", SerialPool)
    return widths
