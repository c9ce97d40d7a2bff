"""Buchberger engine over the rationals with lex orders and resource caps.

Pair selection uses the normal strategy (smallest lcm first, ties broken by
the lex key of the lcm and then by the pair's indices).  The pairs wait in
a heap whose entries carry that key, computed once when the pair is made;
pairs pruned later are dropped lazily when they surface.  The pair set is
maintained with the Gebauer-Moeller criteria, so the engine never computes
an S-polynomial it can prove redundant.

Division runs against a ReducerTable: the basis as (lm, lc, terms) entries
in ascending order of leading monomial, the first entry whose leading
monomial divides the current term being the reducer.  Buchberger grows one
table as the basis grows, and every GroebnerBasis caches its own, so
repeated normal forms modulo one basis share a single table.

All output bases are reduced (monic, tail-reduced, pairwise non-dividing
leading terms), which makes them unique for their ideal and order, hence
deterministic.  Exceeding a configured cap raises ResourceLimitError; the
engine never returns a partial basis.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError, ResourceLimitError
from .poly import (
    MonomialOrder,
    Polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class Limits:
    """Resource caps for a single computation (one prime, one verification)."""

    max_polys: int = 20000
    max_degree: int = 40
    time_budget_secs: float = 300.0
    deadline: float | None = None

    def start_clock(self):
        """Return a copy whose wall-clock deadline starts now."""
        return replace(self, deadline=time.monotonic() + self.time_budget_secs)

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("time budget exceeded")


DEFAULT_LIMITS = Limits()


def contains_unit(polys):
    """True when a nonzero constant is among polys, so they generate (1)."""
    return any(not g.is_zero and g.is_constant() for g in polys)


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    order: MonomialOrder
    reduced: bool = False

    @property
    def contains_one(self):
        return contains_unit(self.generators)

    @cached_property
    def reducers(self):
        """The division table of the generators, built on first use."""
        return ReducerTable(self.order, self.generators)

    def normal_form(self, f):
        return normal_form(f, self)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _unit_basis(order):
    return GroebnerBasis((Polynomial.constant(order.width, 1),), order, reduced=True)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

class ReducerTable:
    """Divisors (lm, lc, terms) of nonzero polynomials, ascending by lm.

    Polynomials with equal leading monomials keep their insertion order,
    so the table equals a stable sort of the polynomials by leading term.
    """

    __slots__ = ("order", "entries", "_keys")

    def __init__(self, order, polys=()):
        self.order = order
        self.entries = []
        self._keys = []
        for g in polys:
            self.add(g)

    def add(self, g):
        if g.is_zero:
            return
        lm = g.leading_monomial(self.order)
        key = self.order.key(lm)
        at = bisect_right(self._keys, key)
        self._keys.insert(at, key)
        self.entries.insert(at, (lm, g.terms[lm], g.terms))


def _nf_terms(terms, prep, okey):
    """Remainder of full multivariate division, operating on raw term dicts."""
    p = dict(terms)
    rem = {}
    while p:
        lm_p = max(p, key=okey)
        c_p = p.pop(lm_p)
        for lm_g, lc_g, terms_g in prep:
            if mono_divides(lm_g, lm_p):
                shift = mono_div(lm_p, lm_g)
                factor = c_p if lc_g == 1 else Fraction(c_p, 1) / lc_g
                for m, c in terms_g.items():
                    if m == lm_g:
                        continue
                    mm = mono_mul(m, shift)
                    nc = p.get(mm, 0) - factor * c
                    if nc:
                        p[mm] = nc
                    else:
                        p.pop(mm, None)
                break
        else:
            rem[lm_p] = c_p
    return rem


def normal_form(f, basis, order=None):
    """Full division remainder of f modulo a basis (zero iff f in the ideal,
    when the basis is a Groebner basis for the order).

    basis is a GroebnerBasis (its cached table is used), a ReducerTable, or
    a plain list of polynomials, which then needs the order.
    """
    if isinstance(basis, (GroebnerBasis, ReducerTable)):
        if order is None:
            order = basis.order
        elif not basis.order.same_as(order):
            raise PreconditionError("basis order does not match requested order")
        table = basis.reducers if isinstance(basis, GroebnerBasis) else basis
    elif order is None:
        raise PreconditionError("order required when basis is a plain list")
    else:
        table = ReducerTable(order, basis)
    return Polynomial(f.width, _nf_terms(f.terms, table.entries, order.key))


def s_polynomial(f, g, order):
    """lcm(in f, in g)/in(f) * f - lcm(in f, in g)/in(g) * g."""
    if f.is_zero or g.is_zero:
        raise PreconditionError("S-polynomial of the zero polynomial")
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    lcf, lcg = f.terms[lmf], g.terms[lmg]
    l = mono_lcm(lmf, lmg)
    a = f.mul_term(mono_div(l, lmf), Fraction(1, 1) / lcf if lcf != 1 else 1)
    b = g.mul_term(mono_div(l, lmg), Fraction(1, 1) / lcg if lcg != 1 else 1)
    return a - b


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair pruning
# ---------------------------------------------------------------------------

def _gm_update(lms, live, t):
    """Pairs (i, t) that survive the Gebauer-Moeller criteria, each with its
    lcm; prunes the live pairs {(i, j): lcm} in place by criterion B."""
    lmt = lms[t]
    lcms = [mono_lcm(lms[i], lmt) for i in range(t)]

    # pairs sharing an lcm share the verdicts of criteria M and F
    by_lcm = {}
    for i, l in enumerate(lcms):
        by_lcm.setdefault(l, []).append(i)

    new_pairs = {}
    minimal = []  # (degree, lcm) of the new lcms no other one strictly divides
    for d, l in sorted((mono_degree(l), l) for l in by_lcm):
        # criterion M: another new lcm strictly divides l.  A strict divisor
        # has smaller degree, so it came before l, and when it is not
        # minimal a minimal one of smaller degree divides it, and l too.
        if any(mono_divides(lo, l) for dlo, lo in minimal if dlo < d):
            continue
        minimal.append((d, l))
        # criterion F: one pair per lcm; drop the class when a coprime pair exists
        idxs = by_lcm[l]
        if any(mono_coprime(lms[i], lmt) for i in idxs):
            continue
        new_pairs[(idxs[0], t)] = l

    # criterion B: prune old pairs strictly refined by the new leading term
    for (i, j), lij in list(live.items()):
        if lcms[i] != lij and lcms[j] != lij and mono_divides(lmt, lij):
            del live[(i, j)]
    return new_pairs


def buchberger(gens, order, limits=DEFAULT_LIMITS):
    """Reduced Groebner basis of the ideal generated by gens.

    An empty generator list (the zero ideal) yields an empty basis.  Raises
    ResourceLimitError when a cap is exceeded, never a wrong answer.
    """
    start = [g for g in gens if not g.is_zero]
    for g in start:
        if g.width != order.width:
            raise PreconditionError("generator width does not match order")
    start = sorted(set(g.monic(order) for g in start), key=lambda p: p.sort_key(order))
    if contains_unit(start):
        return _unit_basis(order)

    G = []
    lms = []
    table = ReducerTable(order)
    live = {}  # pair -> lcm, for every pair not yet processed or pruned
    queue = []  # (deg lcm, lex key of lcm, pair); stale entries are skipped

    def push(h):
        limits.check_time()
        if len(G) >= limits.max_polys:
            raise ResourceLimitError(f"basis size cap {limits.max_polys} exceeded")
        if h.degree() > limits.max_degree:
            raise ResourceLimitError(f"degree cap {limits.max_degree} exceeded")
        t = len(G)
        G.append(h)
        lms.append(h.leading_monomial(order))
        table.add(h)
        for pair, l in _gm_update(lms, live, t).items():
            live[pair] = l
            heapq.heappush(queue, (mono_degree(l), order.key(l), pair))

    for g in start:
        push(g)

    while queue:
        i, j = heapq.heappop(queue)[2]
        if live.pop((i, j), None) is None:
            continue
        if mono_coprime(lms[i], lms[j]):
            continue
        limits.check_time()
        s = s_polynomial(G[i], G[j], order)
        h = normal_form(s, table, order)
        if h.is_zero:
            continue
        if h.is_constant():
            return _unit_basis(order)
        push(h.monic(order))

    return GroebnerBasis(tuple(reduce_basis(G, order)), order, reduced=True)


def reduce_basis(polys, order):
    """Turn a Groebner basis into the reduced one: minimal, monic, tail-reduced."""
    nonzero = [p.monic(order) for p in polys if not p.is_zero]
    if contains_unit(nonzero):
        return [Polynomial.constant(order.width, 1)]
    nonzero.sort(key=lambda p: order.key(p.leading_monomial(order)))
    minimal = []
    min_lms = []
    for p in nonzero:
        lm = p.leading_monomial(order)
        if any(mono_divides(q, lm) for q in min_lms):
            continue
        minimal.append(p)
        min_lms.append(lm)
    # No other leading term divides lm(p), and lm(p) divides no term below
    # it, so p reduces modulo the others as lm(p) plus its tail reduced
    # modulo the whole table.
    table = ReducerTable(order, minimal)
    out = []
    for p, lm in zip(minimal, min_lms):
        tail = Polynomial(p.width, {m: c for m, c in p.terms.items() if m != lm})
        r = normal_form(tail, table, order)
        out.append(Polynomial(p.width, {lm: 1, **r.terms}))
    out.sort(key=lambda p: order.key(p.leading_monomial(order)))
    return out


def is_groebner_basis(polys, order, skip_coprime=True, limits=DEFAULT_LIMITS):
    """Buchberger criterion: every S-pair reduces to zero modulo the set.

    With skip_coprime the pairs with coprime leading terms are skipped;
    their S-polynomials reduce to zero by Buchberger's first criterion, so
    the verdict is unaffected.  Pass skip_coprime=False for the exhaustive
    check.
    """
    ps = [p for p in polys if not p.is_zero]
    lms = [p.leading_monomial(order) for p in ps]
    table = ReducerTable(order, ps)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if skip_coprime and mono_coprime(lms[i], lms[j]):
                continue
            limits.check_time()
            s = s_polynomial(ps[i], ps[j], order)
            if not normal_form(s, table, order).is_zero:
                return False
    return True
