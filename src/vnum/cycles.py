"""Cycle-graph specialization: interval bookkeeping, consistent vertex
relabelings, the cut polynomial, and the bound calculators.

A minimal prime of the n-cycle other than the empty set is a set S of at
least two pairwise non-adjacent vertices; its complement splits into |S|
cyclic intervals.  The localized v-numbers are pinned exactly or within a
window of width at most two by the interval shape, and the global value
lands on 2n/3 when 3 | n and inside a two-value window otherwise.  An
S-consistent relabeling exists exactly when at least two of the intervals
are singletons, for every n (see s_consistent_permutation).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import DEFAULT_LIMITS, PreconditionError, ResourceLimitError
from .graphs import Graph
from .groebner import is_groebner_basis
from .poly import MonomialOrder, edge_binomial, one_poly, sorted_generators, xy_monomial
from .edgeideals import admissible_path_basis, vnumber


def cycle_graph(n):
    if n < 3:
        raise PreconditionError("a cycle needs at least three vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.make(n, edges)


def _wrap(v, n):
    return ((v - 1) % n) + 1


def _interval_members(a, b, n):
    out = [a]
    v = a
    while v != b:
        v = _wrap(v + 1, n)
        out.append(v)
    return out


@dataclass(frozen=True)
class IntervalDecomposition:
    """Cyclic intervals I_1..I_k covering the complement of the cut;
    interval j ends right before the (j+1)-th cut vertex."""

    n: int
    s: frozenset
    intervals: tuple  # ((a_j, b_j), ...)
    c1: tuple  # 1-based indices of singleton intervals
    c2: tuple  # 1-based indices of intervals of size >= 2
    f_set: frozenset  # all interval endpoints

    @property
    def k(self):
        return len(self.intervals)

    def members(self, j):
        a, b = self.intervals[j - 1]
        return _interval_members(a, b, self.n)

    def size(self, j):
        a, b = self.intervals[j - 1]
        return (b - a) % self.n + 1


def _check_cycle_cut(n, s):
    s = frozenset(s)
    if not s <= set(range(1, n + 1)):
        raise PreconditionError("cut contains non-vertices")
    if len(s) < 2:
        raise PreconditionError("cycle cuts have at least two vertices")
    for v in s:
        if _wrap(v + 1, n) in s:
            raise PreconditionError(f"{v} and {_wrap(v + 1, n)} are adjacent on the cycle")
    return s


def intervals(n, s):
    """Interval decomposition of the complement of a cycle cut."""
    s = _check_cycle_cut(n, s)
    cuts = sorted(s)
    ivs = []
    for idx, c in enumerate(cuts):
        nxt = cuts[(idx + 1) % len(cuts)]
        a = _wrap(c + 1, n)
        b = _wrap(nxt - 1, n)
        ivs.append((a, b))
    c1, c2, endpoints = [], [], set()
    for j, (a, b) in enumerate(ivs, start=1):
        size = (b - a) % n + 1
        (c1 if size == 1 else c2).append(j)
        endpoints.update({a, b})
    return IntervalDecomposition(n, s, tuple(ivs), tuple(c1), tuple(c2), frozenset(endpoints))


# ---------------------------------------------------------------------------
# consistent permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaCertificate:
    """A vertex relabeling together with its five monotonicity checks."""

    sigma: tuple
    checks: tuple

    @property
    def valid(self):
        return all(self.checks)


def _consistency_checks(decomp, sigma):
    """The five interval-monotonicity conditions for the relabeling."""
    n, k = decomp.n, decomp.k
    rank = {v: sigma[v - 1] for v in range(1, n + 1)}
    ok = [True] * 5
    for j in range(1, k + 1):
        a_j, b_j = decomp.intervals[j - 1]
        jn = j % k + 1
        a_next, _ = decomp.intervals[jn - 1]
        size_j = decomp.size(j)
        size_next = decomp.size(jn)
        if rank[b_j] < rank[a_next]:
            if size_next >= 2 and not rank[a_next] < rank[_wrap(a_next + 1, n)]:
                ok[0] = False
            if size_j >= 2 and not rank[_wrap(b_j - 1, n)] < rank[b_j]:
                ok[1] = False
        else:
            if size_next >= 2 and not rank[a_next] > rank[_wrap(a_next + 1, n)]:
                ok[2] = False
            if size_j >= 2 and not rank[_wrap(b_j - 1, n)] > rank[b_j]:
                ok[3] = False
        if size_j >= 3:
            ranks = [rank[v] for v in decomp.members(j)]
            inc = all(x < y for x, y in zip(ranks, ranks[1:]))
            dec = all(x > y for x, y in zip(ranks, ranks[1:]))
            if not (inc or dec):
                ok[4] = False
    return tuple(ok)


def _explicit_sigma(decomp):
    """The two-singleton construction: send the smaller singleton to rank 1,
    the larger to rank n, strictly increasing along both arcs between them."""
    n = decomp.n
    singles = sorted(decomp.intervals[j - 1][0] for j in decomp.c1)
    lo, hi = singles[0], singles[-1]
    sigma = [0] * n
    sigma[lo - 1] = 1
    sigma[hi - 1] = n
    rank = 2
    v = _wrap(lo + 1, n)
    while v != hi:
        sigma[v - 1] = rank
        rank += 1
        v = _wrap(v + 1, n)
    v = _wrap(lo - 1, n)
    while v != hi:
        sigma[v - 1] = rank
        rank += 1
        v = _wrap(v - 1, n)
    return tuple(sigma)


def s_consistent_permutation(n, s):
    """A relabeling passing all five checks, or None.

    With two singleton intervals the explicit construction applies and is
    verified.  With fewer, no relabeling passes, so None needs no search:

    Walk round the cycle skipping the cut vertices.  Each step, inside an
    interval or across a gap (from an interval's end over a cut vertex to
    the next interval's start), goes up or down in rank.  Checks 0-3 make
    the first step of a non-singleton interval go the way of the gap before
    it and its last step the way of the gap after it.  Check 4, or size 2,
    makes those two steps agree, so the gaps on both sides of a
    non-singleton interval point the same way.  With fewer than two
    singleton intervals the non-singleton intervals chain all gaps together,
    so every gap points the same way, say up, and then so does every step
    inside the intervals.  The ranks would rise strictly all the way round
    back to where they started, which is impossible.
    """
    decomp = intervals(n, s)
    if len(decomp.c1) < 2:
        return None
    sigma = _explicit_sigma(decomp)
    cert = SigmaCertificate(sigma, _consistency_checks(decomp, sigma))
    assert cert.valid, "explicit relabeling must pass its own checks"
    return cert


# ---------------------------------------------------------------------------
# the cut polynomial and its ideal
# ---------------------------------------------------------------------------

def cut_polynomial(n, s):
    """Product of the binomials bridging consecutive intervals; degree 2|S|."""
    decomp = intervals(n, s)
    p = one_poly(n)
    for j in range(1, decomp.k + 1):
        _, b_j = decomp.intervals[j - 1]
        a_next, _ = decomp.intervals[j % decomp.k]
        p = p * edge_binomial(b_j, a_next, n)
    return p


def cycle_transversal_ideal(n, s):
    """All products P * g_{C,D} over bipartitions of the interior vertices
    (complement of the cut and the interval endpoints)."""
    decomp = intervals(n, s)
    p = cut_polynomial(n, s)
    free = sorted(set(range(1, n + 1)) - decomp.s - decomp.f_set)
    gens = []
    for r in range(len(free) + 1):
        for cset in itertools.combinations(free, r):
            dset = [v for v in free if v not in cset]
            gens.append(p * xy_monomial(cset, dset, n))
    return sorted_generators(gens)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def localized_bounds(n, s):
    """(lo, hi, exact) window for the localized value at the cut s.

    The empty cut and two-element cuts are exactly n - 2 (connected
    domination of the cycle, and the two-sided domination theorem).  For
    |s| >= 3 the window depends on how many intervals are singletons.
    Below n = 4 the cycle is complete and no window applies.
    """
    if n < 4:
        raise PreconditionError("windows need n >= 4; smaller cycles are complete graphs")
    s = frozenset(s)
    if len(s) in (0, 2):
        if len(s) == 2:
            _check_cycle_cut(n, s)
        return n - 2, n - 2, True
    decomp = intervals(n, s)
    size = len(s)
    if not decomp.c1:
        return n - size, n - size, True
    if len(decomp.c1) == 1:
        return n - size, n - size + 1, False
    lo = n - len(decomp.c2) - 2
    hi = n - len(decomp.c2)
    return lo, hi, False


def global_bounds(n):
    """(lo, hi) for the global value: exactly 2n/3 when 3 | n, else the
    two-value window ending at ceil(2n/3).  Cycles below six vertices are
    outside the theorem's scope and must be computed directly."""
    if n < 6:
        raise PreconditionError("compute directly: the global window needs n >= 6")
    hi = -(-2 * n // 3)
    if n % 3 == 0:
        return hi, hi
    return hi - 1, hi


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class CyclePrimeCheck:
    s: frozenset
    v: int | None
    window: tuple  # (lo, hi, exact)
    in_window: bool | None
    gb_check: str  # "pass" | "fail" | "skipped" | "error"
    status: str
    millis: int


@dataclass
class CycleReport:
    n: int
    report: object  # the underlying VNumberReport
    primes: list
    global_v: int | None
    global_window: tuple | None
    global_in_window: bool | None
    resolved_value: int | None  # which of the two candidate values was computed


def _combined_basis_check(n, s, sigma, limits):
    order = MonomialOrder(n, sigma)
    path_part = list(admissible_path_basis(cycle_graph(n), sigma, limits).generators)
    cut_part = cycle_transversal_ideal(n, s)
    return is_groebner_basis(path_part + cut_part, order, limits=limits)


def verify_cycle(n, limits=DEFAULT_LIMITS, with_oracle=False, jobs=1):
    """Full cycle run: per-prime v-numbers (on up to jobs worker processes),
    window checks, and the combined Groebner-basis verification wherever a
    consistent relabeling exists; cycle_graph rejects n < 3."""
    g = cycle_graph(n)
    rep = vnumber(g, limits, with_oracle=with_oracle, jobs=jobs)
    checks = []
    for entry in rep.per_prime:
        t0 = time.monotonic()
        if n == 3:
            window = (0, 0, True)
        else:
            window = localized_bounds(n, entry.s)
        entry.window = (window[0], window[1])  # the interval window is sharper
        in_window = None
        if entry.v is not None:
            in_window = window[0] <= entry.v <= window[1]
        gb_check = "skipped"
        if entry.s and entry.status == "ok":
            cert = s_consistent_permutation(n, entry.s)
            if cert is not None:
                try:
                    ok = _combined_basis_check(n, entry.s, cert.sigma, limits.start_clock())
                    gb_check = "pass" if ok else "fail"
                except ResourceLimitError:
                    gb_check = "error"
        millis = int((time.monotonic() - t0) * 1000)
        checks.append(
            CyclePrimeCheck(entry.s, entry.v, window, in_window, gb_check, entry.status, millis)
        )
    global_window = global_in_window = resolved = None
    if n >= 6:
        lo, hi = global_bounds(n)
        global_window = (lo, hi)
        if rep.global_v is not None:
            global_in_window = lo <= rep.global_v <= hi
            resolved = rep.global_v if lo != hi else None
    return CycleReport(n, rep, checks, rep.global_v, global_window, global_in_window, resolved)
