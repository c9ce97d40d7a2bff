"""Binomial edge ideals, their minimal primes, and the v-number pipeline.

The v-number of a homogeneous ideal localized at an associated prime p is
the least degree of a homogeneous f with (I : f) = p.  For the binomial
edge ideal of a connected graph the minimal primes are indexed by the
empty set and the minimal k-cuts, and the localized value at P_S is the
least degree in (J_G : P_S) outside J_G.  The pipeline computes that colon
with the Groebner engine, validates the witness by the direct certificate
(J_G : w) = P_S, and cross-checks against combinatorial formulas (connected
domination for the empty cut, two-sided domination for minimal 2-cuts) and
an independent intersection-based oracle.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import PreconditionError, ResourceLimitError
from .graphs import (
    Graph,
    connected_components,
    enumerate_min_cuts,
    gamma_c,
    gamma_c_pair,
    induced_subgraph,
    is_minimal_kcut,
)
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    ReducerTable,
    buchberger,
    is_groebner_basis,
    normal_form,
)
from .idealops import as_basis, colon_ideal, colon_poly, min_new_degree_candidates
from .matroids import delta_family, min_transversal_weight
from .poly import (
    MonomialOrder,
    Polynomial,
    edge_binomial,
    mono_divides,
    one_poly,
    x_poly,
    y_poly,
)


def edge_ideal_gens(g):
    """One binomial x_i y_j - x_j y_i per edge, i < j."""
    return [edge_binomial(u, v, g.n) for u, v in sorted(g.edges)]


@dataclass(frozen=True)
class PrimeComponent:
    """The prime P_S: variables over S plus all 2-minors inside each
    component of the graph minus S."""

    n: int
    s: frozenset
    gens: tuple

    def groebner(self, order):
        """The generators are already the reduced basis: variable blocks and
        minor blocks are disjoint, and the 2-minors of a complete graph form
        a reduced basis under any of our lex orders."""
        basis = sorted(
            (p.monic(order) for p in self.gens),
            key=lambda p: order.key(p.leading_monomial(order)),
        )
        return GroebnerBasis(tuple(basis), order, reduced=True)


def prime_component(g, s):
    s = frozenset(s)
    if not s <= g.vertices:
        raise PreconditionError("cut contains non-vertices")
    gens = []
    for i in sorted(s):
        gens.append(x_poly(i, g.n))
        gens.append(y_poly(i, g.n))
    for comp in connected_components(induced_subgraph(g, g.vertices - s)):
        for a, b in itertools.combinations(sorted(comp), 2):
            gens.append(edge_binomial(a, b, g.n))
    return PrimeComponent(g.n, s, tuple(gens))


# ---------------------------------------------------------------------------
# admissible-path basis
# ---------------------------------------------------------------------------

def _all_path_interiors(g, i, j):
    """Vertex sets of interiors of all simple i-j paths."""
    interiors = set()
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}

    def walk(v, seen):
        for u in adj[v]:
            if u == j:
                interiors.add(frozenset(seen))
            elif u not in seen and u != i:
                walk(u, seen | {u})

    walk(i, frozenset())
    return interiors


def admissible_path_basis(g, sigma=None):
    """Reduced lex basis of J_G from the admissible paths of the graph.

    A path from i to j (with sigma(i) < sigma(j)) is admissible when its
    interior vertices all sort below i or above j and no proper subset of
    the interior supports an i-j path; it contributes u_pi * f_{i,j} with
    u_pi collecting x over the high interior vertices and y over the low
    ones.  The construction is verified against the Buchberger criterion
    before being returned; failure is a bug, not an input error.
    """
    order = MonomialOrder(g.n, sigma)
    rank = {v: order.sigma[v - 1] for v in g.vertices}
    gens = {}
    for a, b in itertools.combinations(sorted(g.vertices), 2):
        i, j = (a, b) if rank[a] < rank[b] else (b, a)
        interiors = _all_path_interiors(g, i, j)
        for interior in interiors:
            if any(rank[i] < rank[w] < rank[j] for w in interior):
                continue
            if any(other < interior for other in interiors):
                continue
            u = one_poly(g.n)
            for w in sorted(interior):
                u = u * (x_poly(w, g.n) if rank[w] > rank[j] else y_poly(w, g.n))
            gens[(i, j, interior)] = u * edge_binomial(i, j, g.n)
    basis = sorted(gens.values(), key=lambda p: order.key(p.leading_monomial(order)))
    gb = GroebnerBasis(tuple(basis), order, reduced=True)
    _assert_reduced_groebner(gb)
    return gb


def _assert_reduced_groebner(gb):
    order = gb.order
    lms = [p.leading_monomial(order) for p in gb.generators]
    for a, b in itertools.combinations(range(len(lms)), 2):
        assert not mono_divides(lms[a], lms[b]) and not mono_divides(
            lms[b], lms[a]
        ), "leading terms of the path basis must be pairwise non-dividing"
    for p in gb.generators:
        assert p.leading_coeff(order) == 1, "path basis elements must be monic"
        for m in p.terms:
            if m == p.leading_monomial(order):
                continue
            assert not any(
                mono_divides(lm, m) for lm in lms
            ), "path basis must be tail-reduced"
    assert is_groebner_basis(list(gb.generators), order), (
        "admissible-path set fails the Buchberger criterion"
    )


# ---------------------------------------------------------------------------
# v-numbers
# ---------------------------------------------------------------------------

def _require_min_prime(g, s):
    s = frozenset(s)
    if s:
        ok, _ = is_minimal_kcut(g, s)
        if not ok:
            raise PreconditionError(f"{sorted(s)} does not index a minimal prime")
    return s


def check_colon_equals_prime(g, f, s, limits=DEFAULT_LIMITS):
    """Direct certificate for the v-number definition: (J_G : f) = P_S,
    checked by mutual membership of both generator sets."""
    if f.is_zero or not f.is_homogeneous():
        raise PreconditionError("witness must be homogeneous and nonzero")
    order = MonomialOrder(g.n)
    s = frozenset(s)
    colon = colon_poly(edge_ideal_gens(g), f, order, limits)
    target = prime_component(g, s)
    target_gb = target.groebner(order)
    colon_table = ReducerTable(order, colon)
    if not all(normal_form(p, colon_table).is_zero for p in target.gens):
        return False
    return all(normal_form(c, target_gb).is_zero for c in colon)


def vnumber_at_prime(g, s, limits=DEFAULT_LIMITS, _cache=None):
    """Localized v-number at P_S with a certified witness.

    Computes (J_G : P_S), takes the least degree of a reduced-basis element
    outside J_G, and only reports a witness whose colon is exactly P_S; for
    the complete graph at the empty cut the ideal is already prime and the
    value is 0 with witness 1.
    """
    s = _require_min_prime(g, s)
    limits = limits.start_clock() if limits.deadline is None else limits
    if s == frozenset() and g.is_complete():
        return 0, one_poly(g.n)
    order = MonomialOrder(g.n)
    jg = buchberger(edge_ideal_gens(g), order, limits)
    pc = prime_component(g, s)
    quot = colon_ideal(jg, list(pc.gens), order, limits, poly_colon_cache=_cache)
    _, cands = min_new_degree_candidates(quot, jg, order, limits)
    for w in cands:
        if check_colon_equals_prime(g, w, s, limits):
            return w.degree(), w
    raise AssertionError(
        "no minimal-degree element certifies the prime; impossible for a "
        "radical ideal at a minimal prime"
    )


def oracle_vnumber_at_prime(g, s, limits=DEFAULT_LIMITS):
    """Independent route: the colon at a minimal prime of a radical ideal is
    the intersection of the other minimal primes, so the v-number is the
    least degree of a spanning element of that intersection outside P_S.
    """
    from .idealops import intersect

    s = _require_min_prime(g, s)
    limits = limits.start_clock() if limits.deadline is None else limits
    order = MonomialOrder(g.n)
    others = [rec.s for rec in enumerate_min_cuts(g) if rec.s != s]
    q = None
    for other in others:
        pgens = list(prime_component(g, other).gens)
        q = pgens if q is None else intersect(q, pgens, order, limits)
    if q is None:
        q = [one_poly(g.n)]
    else:
        q = list(as_basis(q, order, limits).generators)
    target = prime_component(g, s).groebner(order)
    cap = 2 * g.n
    width = order.width
    for d in range(cap + 1):
        for gen in q:
            k = d - gen.degree()
            if k < 0:
                continue
            for combo in itertools.combinations_with_replacement(range(width), k):
                exps = [0] * width
                for v in combo:
                    exps[v] += 1
                m = Polynomial(width, {tuple(exps): 1})
                if not normal_form(m * gen, target).is_zero:
                    return d
    raise ResourceLimitError(f"oracle degree cap {cap} exceeded; this indicates a bug")


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


def _combinatorial_value(g, rec):
    """Exact value from the domination theorems when available."""
    if rec.s == frozenset():
        return 0 if g.is_complete() else gamma_c(g)[0]
    if rec.k == 2:
        return gamma_c_pair(g, rec.s)[0]
    return None


def _window(g, rec, comb):
    if comb is not None:
        return (comb, comb)
    weight, _ = min_transversal_weight(delta_family(g, rec.s))
    return (0, weight)


def vnumber(g, limits=DEFAULT_LIMITS, with_oracle=False, algebraic=True):
    """Localized v-numbers at every minimal prime plus the global minimum.

    Runs the algebraic pipeline per prime (unless algebraic=False, which
    reports pure combinatorics and never touches the Groebner engine),
    records the combinatorial value where a theorem gives one, and flags
    agreement.  Resource errors are captured per prime.
    """
    cuts = enumerate_min_cuts(g)
    cache = {}
    entries = []
    for rec in cuts:
        t0 = time.monotonic()
        comb = _combinatorial_value(g, rec)
        window = _window(g, rec, comb)
        v = witness = None
        status, detail = "ok", ""
        method = "algebraic" if algebraic else "combinatorial"
        if algebraic:
            try:
                v, witness = vnumber_at_prime(g, rec.s, limits, _cache=cache)
            except ResourceLimitError as exc:
                status, detail = "resource-limit", str(exc)
        else:
            v = comb
        oracle_v = oracle_ok = None
        if with_oracle and algebraic and status == "ok":
            try:
                oracle_v = oracle_vnumber_at_prime(g, rec.s, limits)
                oracle_ok = oracle_v == v if v is not None else None
            except ResourceLimitError as exc:
                status, detail = "resource-limit", str(exc)
        agree = None
        if comb is not None and v is not None:
            agree = comb == v
        millis = int((time.monotonic() - t0) * 1000)
        entries.append(
            PrimeResult(
                s=rec.s,
                method=method,
                v=v,
                witness=witness,
                window=window,
                combinatorial_v=comb,
                agree=agree,
                oracle_v=oracle_v,
                oracle_ok=oracle_ok,
                millis=millis,
                status=status,
                detail=detail,
            )
        )
    known = [e for e in entries if e.v is not None]
    global_v = min((e.v for e in known), default=None)
    argmin = next((e.s for e in known if e.v == global_v), None)
    return VNumberReport(g, entries, global_v, argmin)
