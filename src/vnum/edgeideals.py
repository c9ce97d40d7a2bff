"""Binomial edge ideals, their minimal primes, and the v-number pipeline.

The v-number of a homogeneous ideal localized at an associated prime p is
the least degree of a homogeneous f with (I : f) = p.  For the binomial
edge ideal of a connected graph the minimal primes are indexed by the
empty set and the minimal k-cuts, and the localized value at P_S is the
least degree in (J_G : P_S) outside J_G.  The pipeline computes that colon
with the Groebner engine, validates the witness by the certificate
(J_G : w) = P_S, which two ideal memberships decide as P_S is prime and
contains J_G, and cross-checks against combinatorial formulas (connected
domination for the empty cut, two-sided domination for minimal 2-cuts) and
an independent intersection-based oracle.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field

from .errors import DEFAULT_LIMITS, PreconditionError, ResourceLimitError
from .graphs import (
    Graph,
    components_within,
    cut_automorphism,
    enumerate_min_cuts,
    gamma_c,
    gamma_c_pair,
)
from .groebner import (
    GroebnerBasis,
    _buchberger,
    buchberger,
    pack_poly,
    packed_intersection,
    packed_product,
    packed_radical_sum,
    relabelled_basis,
)
from .idealops import colon_ideal, min_new_degree
from .matroids import (
    cut_dependents,
    delta_family,
    min_transversal_weight,
    packed_concise_generators,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    edge_binomial,
    one_poly,
    x_poly,
    y_poly,
)


def edge_ideal_gens(g):
    """One binomial x_i y_j - x_j y_i per edge, i < j."""
    return [edge_binomial(u, v, g.n) for u, v in sorted(g.edges)]


def _component_minors(g, s):
    """The 2-minors x_a y_b - x_b y_a, a < b, inside each component of the
    graph minus S: the quadrics of P_S."""
    return [
        edge_binomial(a, b, g.n)
        for comp in components_within(g, g.vertices - s)
        for a, b in itertools.combinations(sorted(comp), 2)
    ]


def prime_component(g, s):
    """The prime P_S as its reduced basis under the default order: x_i and
    y_i for i in S, and the 2-minors x_a y_b - x_b y_a, a < b, inside each
    component of the graph minus S.  These generators already are that
    basis: the variable blocks and the minor blocks share no variable, and
    the 2-minors of a complete graph form a reduced basis under any of our
    lex orders."""
    s = frozenset(s)
    if not s <= g.vertices:
        raise PreconditionError("cut contains non-vertices")
    gens = [v(i, g.n) for i in sorted(s) for v in (x_poly, y_poly)]
    gens += _component_minors(g, s)
    order = MonomialOrder(g.n)
    return GroebnerBasis(sorted((pack_poly(p, order) for p in gens), key=max), order)


def colon_generators(g, s):
    """What vnumber_at_prime folds colon_ideal over at the cut S: the linear
    form h = sum of x_i over S, then the 2-minors of P_S.  The empty cut has
    no h, so it gets exactly the generators of P_0.  (J_G : h, minors) =
    (J_G : P_S); vnumber_at_prime gives the proof."""
    s = frozenset(s)
    minors = _component_minors(g, s)
    if not s:
        return minors
    return [sum((x_poly(i, g.n) for i in sorted(s)), Polynomial.zero(2 * g.n))] + minors


# ---------------------------------------------------------------------------
# admissible-path basis
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


def admissible_path_basis(g, sigma=None, limits=DEFAULT_LIMITS):
    """Reduced lex basis of J_G from the admissible paths of the graph.

    A path from i to j (with sigma(i) < sigma(j)) is admissible when its
    interior vertices all sort below i or above j and no proper subset of
    the interior supports an i-j path; it contributes u_pi * f_{i,j} with
    u_pi collecting x over the high interior vertices and y over the low
    ones.  The construction is checked to be the reduced basis of its ideal
    before being returned; failure is a bug, not an input error.  The path
    search and that check run under the deadline of limits.
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
    _assert_reduced_groebner(gb, limits)
    return gb


def _assert_reduced_groebner(gb, limits):
    """gb is the reduced basis of its ideal, ascending by leading monomial,
    exactly when the engine returns it unchanged: the engine returns the
    reduced basis of the ideal its input generates, and that basis is
    unique for the ideal and the order."""
    assert _buchberger(gb.packed, gb.order, limits) == gb.packed, (
        "path basis must be a Groebner basis, minimal, monic and tail-reduced"
    )


# ---------------------------------------------------------------------------
# v-numbers
# ---------------------------------------------------------------------------

def check_colon_equals_prime(g, f, s, limits=DEFAULT_LIMITS, _work=None):
    """Direct certificate for the v-number definition: (J_G : f) = P_S,
    decided by two memberships, each a normal form modulo a reduced basis:

        (a) f does not lie in P_S;
        (b) f p lies in J_G for every generator p of P_S.

    J_G lies in P_S for every vertex set S (Herzog, Hibi, Hreinsdottir,
    Kahle and Rauh, 2010): an edge with no end in S lies inside one
    component of the graph minus S, so its binomial is one of the 2-minors
    of P_S, and an edge with an end i in S has its binomial in (x_i, y_i).
    The test is sound because P_S is prime: J_G in P_S and (a) give
    (J_G : f) in (P_S : f) = P_S, and (b) gives P_S in (J_G : f).  It is
    complete because J_G is radical (same paper): if (J_G : f) = P_S, then
    P_S f lies in J_G, which is (b); and f in P_S would put f^2 in J_G, so
    f in J_G and (J_G : f) = (1), which is not P_S.  f is packed once, and
    each product f p is formed packed.  Runs under the deadline of limits.
    _work is the report's GraphWork, whose basis of J_G is read; without it
    the basis is built here.
    """
    if f.is_zero or not f.is_homogeneous():
        raise PreconditionError("witness must be homogeneous and nonzero")
    target = prime_component(g, s)
    order = target.order
    pf = pack_poly(f, order)
    if not target.reducers.remainder(pf, limits):
        return False
    jg = None if _work is None else _work.jg
    if jg is None:
        jg = buchberger(edge_ideal_gens(g), order, limits)
    return not any(
        jg.reducers.remainder(packed_product(pf, p, order), limits) for p in target.packed
    )


@dataclass
class GraphWork:
    """What the primes of one graph share within one report, or within one
    pool worker's share of it (see vnumber): its one cut enumeration; the
    cut_dependents of it, which only the windows of the cuts with three or
    more sides read, built by vnumber before its primes run or else, like
    the basis of J_G, under the clock of the first prime that needs it (a
    prime that hits a limit leaves it for the next); the basis carries the
    colons (J_G : f) that colon_ideal memoises; and the oracle's running
    intersections of the primes, before[m] that of the first m + 1 cuts and
    after[m] that of the last m + 1, each grown when first needed.

    The memoised f are the linear forms h = sum of x_i over S and the
    2-minors that vnumber_at_prime folds over (colon_generators).  As J_G
    is radical, (J_G : h) is the intersection of the P_T with T not
    containing S, and the minors then remove the P_T with T strictly
    containing S; vnumber_at_prime gives the proof.  Two cuts share the
    colon by a minor f_ab when a and b lie in one component of G - S for
    each; each cut has its own h.

    folded maps each cut whose colon was folded, the representative of its
    automorphism orbit, to the reduced basis of (J_G : P_S); _orbit_colon
    fills it and maps it.  An automorphism sigma of G permutes the edges,
    so it fixes J_G, and it carries the components of G - S onto those of
    G - sigma(S), so it carries P_S onto P_sigma(S).  It therefore carries
    (J_G : P_S) onto (J_G : P_sigma(S)), whose reduced basis under the
    default order is unique: one engine run on the image of the
    representative's basis gives the basis a fold of sigma(S) would give.
    A prime that hits a limit while folding records nothing, and a pool
    worker's copy fills its own memo."""

    cuts: list
    dependents: dict | None = None
    jg: GroebnerBasis | None = None
    before: list = field(default_factory=list)
    after: list = field(default_factory=list)
    folded: dict = field(default_factory=dict)

    @classmethod
    def of(cls, g, limits=DEFAULT_LIMITS):
        """The work of g with its cuts enumerated under the deadline of limits."""
        return cls(enumerate_min_cuts(g, limits))

    def record(self, s):
        """The cut record of S; the only test that S indexes a minimal prime."""
        s = frozenset(s)
        rec = next((r for r in self.cuts if r.s == s), None)
        if rec is None:
            raise PreconditionError(f"{sorted(s)} does not index a minimal prime")
        return rec

    def others(self, g, rec, order, limits):
        """Packed generators of the intersection of the primes of every cut
        but rec's, None when rec's is the only cut: the running intersection
        of the cuts before it met with that of the cuts after it.  A report
        whose primes all ask needs about three intersections per prime; one
        prime alone needs k - 2 of them for k cuts, each under limits."""
        i = self.cuts.index(rec)
        head = _running(self.before, self.cuts, i, g, order, limits)
        tail = _running(self.after, self.cuts[::-1], len(self.cuts) - 1 - i, g, order, limits)
        if head is None or tail is None:
            return tail if head is None else head
        return packed_intersection(head, tail, order, limits)


def _running(chain, recs, count, g, order, limits):
    """The intersection of the primes of recs[:count], None when count is 0;
    chain[m] keeps that of recs[:m + 1] for the calls to come."""
    while len(chain) < count:
        p = prime_component(g, recs[len(chain)].s).packed
        chain.append(packed_intersection(chain[-1], p, order, limits) if chain else p)
    return chain[count - 1] if count else None


def _transversal_colon(g, rec, work, order, limits):
    """The reduced basis of (J_G : P_S) by the paper's route, or None where
    the route does not apply or cannot vouch for itself.

    The paper gives (J_G : P_S) = sqrt(J_G + L_S), L_S the transversal ideal
    of the delta family of S.  When every leading monomial of the reduced
    basis of J_G + L_S is squarefree, the sum is radical, so that basis is
    the colon's.  At the empty cut and at a cut with two sides,
    packed_concise_generators builds L_S from connected dominating sets,
    with no delta family.  With J_G they give the same sum as the
    definition's generators, which run over the minimal transversals of the
    family (packed_transversal_generators in tests/reference.py); at a cut
    with two sides they are far fewer.  Build and sum over all two-sided
    cuts, on a 2-vCPU machine (builder_totals in
    tests/test_transversal_route.py):

        cycle  runtime builder          definition's generators
        C_8    0.16 s,  2,240 gens      0.71 s,   6,788 gens
        C_9    0.59 s,  8,064 gens      6.27 s,  37,215 gens
        C_10   1.97 s, 26,880 gens     59.4 s,  204,380 gens

    The flag has held at every such prime measured, and at no cut with
    three or more sides, which the route leaves to the fold.
    """
    if rec.k > 2:
        return None
    gens = packed_concise_generators(g, rec.s, order, limits)
    basis = packed_radical_sum(work.jg, gens, limits)
    return None if basis is None else GroebnerBasis(basis, order)


def _orbit_colon(g, rec, work, order, limits):
    """The reduced basis of (J_G : P_S) at a cut the transversal route
    leaves, once per automorphism orbit: the image, under an automorphism
    sigma of G with sigma(R) = S, of a representative R's basis in
    work.folded, re-reduced by one engine run (relabelled_basis); else the
    fold of colon_ideal over colon_generators, recorded in work.folded as
    a new representative.  GraphWork gives the proof that both give one
    basis.  The automorphism search (cut_automorphism) runs under limits,
    and turns away a representative whose cheap invariants differ from
    S's before it searches."""
    for r, basis in work.folded.items():
        sigma = cut_automorphism(g, r, rec.s, limits)
        if sigma is not None:
            return relabelled_basis(basis, sigma, limits)
    quot = work.folded[rec.s] = colon_ideal(work.jg, colon_generators(g, rec.s), order, limits)
    return quot


def vnumber_at_prime(g, s, limits=DEFAULT_LIMITS, _work=None):
    """Localized v-number at P_S with a certified witness.

    Computes (J_G : P_S) and takes min_new_degree's canonical witness, a
    least-degree element of it outside J_G.  At the empty cut and the cuts
    with two sides the colon is first sought as the basis of J_G + L_S (see
    _transversal_colon); otherwise, or when that basis has a leading
    monomial that is not squarefree, it is the fold of colon_ideal over
    colon_generators: the linear form h = sum of x_i over S, then the
    2-minors of P_S, in place of the 2|S| variables and the minors.  That
    fold gives (J_G : P_S) because J_G is radical and its minimal primes
    are the P_T of the cuts T, none inside another (Herzog, Hibi,
    Hreinsdottir, Kahle and Rauh, 2010):

        - P_T is generated by x_j and y_j for j in T and by quadrics, so
          its linear forms are spanned by those variables, and h lies in
          P_T exactly when S is a subset of T;
        - for a radical J, (J : I) is the intersection of the minimal
          primes of J that do not contain I; here I = (h, minors);
        - a T that does not contain S has h outside P_T;
        - a T that strictly contains S has some minor of P_S outside P_T,
          as P_S is not inside P_T and every x_i and y_i with i in S lies
          in P_T;
        - so (J_G : I) is the intersection of the P_T with T other than S,
          which is (J_G : P_S).

    At a cut inside no other cut, (J_G : h) already is that intersection,
    and the fold's containment shortcut skips every minor.

    The fold runs once per orbit of the automorphism group of G on these
    cuts (_orbit_colon).  An automorphism sigma permutes the edges, so it
    fixes J_G, and it carries the components of G - S onto those of
    G - sigma(S), hence P_S onto P_sigma(S) and (J_G : P_S) onto
    (J_G : P_sigma(S)).  The image of a reduced basis of (J_G : P_S)
    generates (J_G : P_sigma(S)), and one engine run on it gives that
    colon's reduced basis under the default order.

    All routes give the reduced basis of one ideal, which is unique, so the
    witness is the same either way.  Any such f has (J_G : f) = P_S,
    because J_G is radical: f P_S lies in J_G, so every minimal prime that
    misses f contains P_S and, being minimal, is P_S.  The certificate
    (J_G : f) = P_S is still checked, by two memberships against P_S and
    the report's basis of J_G (see check_colon_equals_prime), and its
    failure is an AssertionError; at the primes the route serves, the
    domination formulas also check the value independently.  For the
    complete graph at the empty cut the ideal is already prime and the
    value is 0 with witness 1.  Runs under the clock of limits, started
    here unless it already runs.  _work is the report's GraphWork; without
    it the cuts are enumerated here.
    """
    limits = limits.start_clock()
    work = GraphWork.of(g, limits) if _work is None else _work
    rec = work.record(s)
    s = rec.s
    if s == frozenset() and g.is_complete():
        return 0, one_poly(g.n)
    order = MonomialOrder(g.n)
    if work.jg is None:
        work.jg = buchberger(edge_ideal_gens(g), order, limits)
    quot = _transversal_colon(g, rec, work, order, limits)
    if quot is None:
        quot = _orbit_colon(g, rec, work, order, limits)
    d, w = min_new_degree(quot, work.jg, order, limits)
    if not check_colon_equals_prime(g, w, s, limits, _work=work):
        raise AssertionError("(J_G : w) != P_S for the witness w; impossible as J_G is radical")
    return d, w


def oracle_vnumber_at_prime(g, s, limits=DEFAULT_LIMITS, _work=None):
    """Independent route: the colon at a minimal prime of a radical ideal is
    the intersection of the other minimal primes, so the v-number is the
    least degree of a spanning element of that intersection outside P_S.
    The intersections come from the report's GraphWork, which keeps them
    for the primes to come.  Runs under the clock of limits, started here
    unless it already runs.  _work is the report's GraphWork; without it the
    cuts are enumerated here.
    """
    limits = limits.start_clock()
    work = GraphWork.of(g, limits) if _work is None else _work
    rec = work.record(s)
    order = MonomialOrder(g.n)
    q = work.others(g, rec, order, limits) or [{0: 1}]
    target = prime_component(g, rec.s).reducers
    # P_S is prime and Q is generated by homogeneous polynomials, so some
    # element of Q_d lies outside P_S exactly when a generator of degree
    # <= d does; any homogeneous generating set of Q will do
    return min(order.packed_degree(max(h)) for h in q if target.remainder(h, limits))


# ---------------------------------------------------------------------------
# the per-graph report
# ---------------------------------------------------------------------------

@dataclass
class PrimeResult:
    s: frozenset
    method: str
    v: int | None
    witness: Polynomial | None
    window: tuple  # (lo, hi) with possible Nones
    combinatorial_v: int | None
    agree: bool | None
    oracle_v: int | None
    oracle_ok: bool | None
    millis: int
    status: str  # "ok" | "resource-limit"
    detail: str = ""


@dataclass
class VNumberReport:
    graph: Graph
    per_prime: list
    global_v: int | None
    argmin: frozenset | None

    def entry(self, s):
        s = frozenset(s)
        for e in self.per_prime:
            if e.s == s:
                return e
        raise KeyError(sorted(s))


def _combinatorial_value(g, rec, limits):
    """Exact value from the domination theorems when available."""
    if rec.s == frozenset():
        return 0 if g.is_complete() else gamma_c(g, limits)[0]
    if rec.k == 2:
        return gamma_c_pair(g, rec.s, limits)[0]
    return None


def _window(g, rec, comb, work, limits):
    """(lo, hi) for one prime; work is the report's GraphWork, whose
    cut_dependents are built here, under the prime's clock, when the report
    has not built them."""
    if comb is not None:
        return (comb, comb)
    if work.dependents is None:
        work.dependents = cut_dependents(g, work.cuts, limits)
    weight, _ = min_transversal_weight(delta_family(g, rec.s, work.dependents, limits), limits)
    return (0, weight)


def global_minimum(entries):
    """(least v, first prime attaining it) over the entries with a value."""
    known = [e for e in entries if e.v is not None]
    global_v = min((e.v for e in known), default=None)
    argmin = next((e.s for e in known if e.v == global_v), None)
    return global_v, argmin


def prime_entry(rec, g, work, limits, with_oracle, algebraic):
    """The report entry for the prime of one cut record; the only place a
    per-prime entry is built, for serial runs, pool workers (through
    prime_entries) and --prime.

    work is the report's GraphWork, which rec comes from.  Runs the
    algebraic pipeline unless algebraic=False, which reports pure
    combinatorics and never touches the Groebner engine; a resource error
    is captured in the entry, with whatever was found before it.  The
    prime's one clock starts here, so the domination and window searches,
    the pipeline, its certificate and the oracle share one time budget.
    """
    t0 = time.monotonic()
    limits = limits.start_clock()
    comb = v = witness = oracle_v = oracle_ok = None
    window = (None, None)
    status, detail = "ok", ""
    try:
        comb = _combinatorial_value(g, rec, limits)
        window = _window(g, rec, comb, work, limits)
        if algebraic:
            v, witness = vnumber_at_prime(g, rec.s, limits, _work=work)
            if with_oracle:
                oracle_v = oracle_vnumber_at_prime(g, rec.s, limits, _work=work)
                oracle_ok = oracle_v == v
        else:
            v = comb
    except ResourceLimitError as exc:
        status, detail = "resource-limit", str(exc)
    agree = comb == v if comb is not None and v is not None else None
    return PrimeResult(
        s=rec.s,
        method="algebraic" if algebraic else "combinatorial",
        v=v,
        witness=witness,
        window=window,
        combinatorial_v=comb,
        agree=agree,
        oracle_v=oracle_v,
        oracle_ok=oracle_ok,
        millis=int((time.monotonic() - t0) * 1000),
        status=status,
        detail=detail,
    )


def prime_entries(recs, g, work, limits, with_oracle, algebraic):
    """The entries of the primes of recs, in order, on the one GraphWork
    work: a serial run passes every cut, a pool worker its share."""
    return [prime_entry(rec, g, work, limits, with_oracle, algebraic) for rec in recs]


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported only when a pool starts, so
    a serial run never loads concurrent.futures or multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


def vnumber(g, limits=DEFAULT_LIMITS, with_oracle=False, algebraic=True, jobs=1):
    """Localized v-numbers at every minimal prime plus the global minimum.

    Enumerates the cuts once and builds each prime's entry with prime_entry.
    When some cut has three or more sides, every such prime's window reads
    the cut_dependents, so they are built here once for the report.  The
    enumeration and that build share one clock of their own, started before
    any prime's clock.  If it runs out in the enumeration, ResourceLimitError
    leaves with no report; if it runs out in the build, each window tries
    again under its prime's clock.  The primes run on
    a process pool of at most one worker per prime and per cpu when that is
    wider than one worker, otherwise here.  Worker i of width takes the
    share cuts[i::width], every width-th prime, as one task, and runs it as
    a serial run does, on one GraphWork: its basis of J_G, the colons memoised
    on it, its folded orbit representatives and the oracle's running
    intersections serve all of its primes.
    Entries stay in prime order either way.
    """
    clock = limits.start_clock()
    work = GraphWork.of(g, clock)
    if any(rec.k > 2 for rec in work.cuts):
        try:
            work.dependents = cut_dependents(g, work.cuts, clock)
        except ResourceLimitError:
            pass
    run = functools.partial(
        prime_entries, g=g, work=work, limits=limits,
        with_oracle=with_oracle, algebraic=algebraic,
    )
    width = min(jobs, len(work.cuts), os.cpu_count() or 1)
    if width <= 1:
        entries = run(work.cuts)
    else:
        entries = [None] * len(work.cuts)
        with ProcessPoolExecutor(max_workers=width) as pool:
            shares = pool.map(run, [work.cuts[i::width] for i in range(width)])
            for i, share in enumerate(shares):
                entries[i::width] = share
    return VNumberReport(g, entries, *global_minimum(entries))
