"""Buchberger engine over the rationals with lex orders and resource caps.

Inside the engine a monomial is one int packed by its MonomialOrder (see
MonomialOrder.pack): one 16-bit field per variable, the greatest variable
in the most significant field, the top bit of each field a guard bit.
Integer comparison is then the lex comparison, multiplication and division
are + and -, and divisibility and the lcm are a few integer operations on
the guard bits.  A polynomial is a {packed monomial: coefficient} dict.
The public functions take and return Polynomials; buchberger packs its
input once and unpacks its reduced basis once.  An exponent that would
outgrow its field (above MAX_EXPONENT) raises ResourceLimitError, checked
before every product the engine forms, so a field never wraps into its
neighbour.

Pair selection uses the normal strategy (smallest lcm first, ties broken by
the lex key of the lcm and then by the pair's indices).  The pairs wait in
a heap whose entries carry that key, computed once when the pair is made;
pairs pruned later are dropped lazily when they surface.  The pair set is
maintained with the Gebauer-Moeller criteria, so the engine never computes
an S-polynomial it can prove redundant.

Division runs against a ReducerTable: the basis as rows (lm, lc, tail,
tail lcm) in ascending order of leading monomial, the first row whose
leading monomial divides the current term being the reducer.  Buchberger
grows one table as the basis grows, and every GroebnerBasis caches its
own, so repeated normal forms modulo one basis share a single table.
Division checks the caller's time budget every few hundred steps.

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
    EXPONENT_CAP,
    MonomialOrder,
    Polynomial,
    packed_divides,
    packed_lcm,
)

# Division steps between two checks of the time budget.
STEPS_PER_CLOCK_CHECK = 256


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
        """The packed division table of the generators, built on first use."""
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
# packed polynomials
# ---------------------------------------------------------------------------

def _pack(f, order):
    return {order.pack(m): c for m, c in f.terms.items()}


def _unpack(p, order):
    return Polynomial(order.width, {order.unpack(m): c for m, c in p.items()})


def _monic(p, lm):
    """p scaled to leading coefficient 1, integral coefficients as int."""
    lc = p[lm]
    if lc != 1:
        inv = Fraction(1, 1) / lc
        p = {m: c * inv for m, c in p.items()}
    return {m: int(c) if c.denominator == 1 else c for m, c in p.items()}


def _row(p, guard):
    """Division row (lm, lc, tail, tail lcm) of a nonzero packed polynomial.

    The tail lcm bounds every tail exponent, so a shift that keeps it inside
    its fields keeps every tail term inside them."""
    lm = max(p)
    tail = tuple((m, c) for m, c in p.items() if m != lm)
    cap = 0
    for m, _ in tail:
        cap = packed_lcm(cap, m, guard)
    return lm, p[lm], tail, cap


class ReducerTable:
    """Division rows of nonzero polynomials, ascending by leading monomial.

    Rows with equal leading monomials keep their insertion order, so the
    table equals a stable sort of the polynomials by leading term.
    """

    __slots__ = ("order", "entries", "_lms")

    def __init__(self, order, polys=()):
        self.order = order
        self.entries = []
        self._lms = []
        for g in polys:
            self.add(g)

    def add(self, g):
        """Add a Polynomial; the zero polynomial is skipped."""
        if not g.is_zero:
            self.insert(_pack(g, self.order))

    def insert(self, p):
        """Add a nonzero packed polynomial and return its row."""
        row = _row(p, self.order.guard)
        at = bisect_right(self._lms, row[0])
        self._lms.insert(at, row[0])
        self.entries.insert(at, row)
        return row


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _nf_terms(terms, table, limits):
    """Remainder of full multivariate division of a packed polynomial by the
    table's rows; checks the time budget every STEPS_PER_CLOCK_CHECK steps."""
    guard = table.order.guard
    rows = table.entries
    p = dict(terms)
    rem = {}
    countdown = STEPS_PER_CLOCK_CHECK
    while p:
        countdown -= 1
        if not countdown:
            limits.check_time()
            countdown = STEPS_PER_CLOCK_CHECK
        lm_p = max(p)
        c_p = p.pop(lm_p)
        top = lm_p | guard
        for lm_g, lc_g, tail, cap in rows:
            if (top - lm_g) & guard == guard:  # packed_divides(lm_g, lm_p)
                shift = lm_p - lm_g
                if (cap + shift) & guard:
                    raise ResourceLimitError(EXPONENT_CAP)
                factor = c_p if lc_g == 1 else Fraction(c_p, 1) / lc_g
                for m, c in tail:
                    mm = m + shift
                    nc = p.get(mm, 0) - factor * c
                    if nc:
                        p[mm] = nc
                    else:
                        del p[mm]
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
    return _unpack(_nf_terms(_pack(f, order), table, DEFAULT_LIMITS), order)


def _spoly(f, g, lcm, guard):
    """S-polynomial of two rows whose leading monomials have this lcm; the
    leading terms cancel exactly and are left out."""
    lmf, lcf, tailf, capf = f
    lmg, lcg, tailg, capg = g
    sf, sg = lcm - lmf, lcm - lmg
    if (capf + sf) & guard or (capg + sg) & guard:
        raise ResourceLimitError(EXPONENT_CAP)
    if lcf == 1:
        s = {m + sf: c for m, c in tailf}
    else:
        kf = Fraction(1, 1) / lcf
        s = {m + sf: c * kf for m, c in tailf}
    kg = 1 if lcg == 1 else Fraction(1, 1) / lcg
    for m, c in tailg:
        mm = m + sg
        nc = s.get(mm, 0) - kg * c
        if nc:
            s[mm] = nc
        else:
            del s[mm]
    return s


def s_polynomial(f, g, order):
    """lcm(in f, in g)/in(f) * f - lcm(in f, in g)/in(g) * g."""
    if f.is_zero or g.is_zero:
        raise PreconditionError("S-polynomial of the zero polynomial")
    guard = order.guard
    rf, rg = _row(_pack(f, order), guard), _row(_pack(g, order), guard)
    return _unpack(_spoly(rf, rg, packed_lcm(rf[0], rg[0], guard), guard), order)


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair pruning
# ---------------------------------------------------------------------------

def _gm_update(lms, live, t, order):
    """Pairs (i, t) that survive the Gebauer-Moeller criteria, each with its
    lcm; prunes the live pairs {(i, j): lcm} in place by criterion B."""
    guard = order.guard
    lmt = lms[t]
    lcms = [packed_lcm(lm, lmt, guard) for lm in lms[:t]]

    # pairs sharing an lcm share the verdicts of criteria M and F
    by_lcm = {}
    for i, l in enumerate(lcms):
        by_lcm.setdefault(l, []).append(i)

    new_pairs = {}
    minimal = []  # the new lcms no other one strictly divides, ascending
    for l in sorted(by_lcm):
        # criterion M: another new lcm strictly divides l.  A strict divisor
        # is a smaller int, so it came before l, and when it is not minimal
        # a minimal one before it divides it, and l too.
        top = l | guard
        for lo in minimal:
            if (top - lo) & guard == guard:  # packed_divides(lo, l)
                break
        else:
            minimal.append(l)
            # criterion F: one pair per lcm; drop the class when a coprime
            # pair exists, that is one whose lcm is the product
            idxs = by_lcm[l]
            if not any(l == lms[i] + lmt for i in idxs):
                new_pairs[(idxs[0], t)] = l

    # criterion B: prune old pairs strictly refined by the new leading term
    for (i, j), lij in list(live.items()):
        if lcms[i] != lij and lcms[j] != lij and packed_divides(lmt, lij, guard):
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

    guard = order.guard
    G = []
    rows = []
    lms = []
    table = ReducerTable(order)
    live = {}  # pair -> lcm, for every pair not yet processed or pruned
    queue = []  # (deg lcm, packed lcm, pair); stale entries are skipped

    def push(h):
        limits.check_time()
        if len(G) >= limits.max_polys:
            raise ResourceLimitError(f"basis size cap {limits.max_polys} exceeded")
        if max(map(order.packed_degree, h)) > limits.max_degree:
            raise ResourceLimitError(f"degree cap {limits.max_degree} exceeded")
        t = len(G)
        G.append(h)
        row = table.insert(h)
        rows.append(row)
        lms.append(row[0])
        for pair, l in _gm_update(lms, live, t, order).items():
            live[pair] = l
            heapq.heappush(queue, (order.packed_degree(l), l, pair))

    for g in start:
        push(_pack(g, order))

    while queue:
        i, j = heapq.heappop(queue)[2]
        l = live.pop((i, j), None)
        if l is None or l == lms[i] + lms[j]:  # pruned, or coprime
            continue
        limits.check_time()
        h = _nf_terms(_spoly(rows[i], rows[j], l, guard), table, limits)
        if not h:
            continue
        lm = max(h)
        if lm == 0:
            return _unit_basis(order)
        push(_monic(h, lm))

    reduced = _reduce(G, order, limits)
    return GroebnerBasis(tuple(_unpack(p, order) for p in reduced), order, reduced=True)


def _reduce(polys, order, limits):
    """The reduced basis of a Groebner basis of nonzero packed polynomials,
    ascending by leading monomial."""
    monic = sorted((_monic(p, max(p)) for p in polys), key=max)
    if monic and max(monic[0]) == 0:  # a constant, the least leading term
        return [{0: 1}]
    guard = order.guard
    minimal = []
    min_lms = []
    for p in monic:
        lm = max(p)
        if any(packed_divides(q, lm, guard) for q in min_lms):
            continue
        minimal.append(p)
        min_lms.append(lm)
    # No other leading term divides lm(p), and lm(p) divides no term below
    # it, so p reduces modulo the others as lm(p) plus its tail reduced
    # modulo the whole table.
    table = ReducerTable(order)
    for p in minimal:
        table.insert(p)
    out = []
    for p, lm in zip(minimal, min_lms):
        tail = {m: c for m, c in p.items() if m != lm}
        out.append({lm: 1, **_nf_terms(tail, table, limits)})
    return out


def reduce_basis(polys, order, limits=DEFAULT_LIMITS):
    """Turn a Groebner basis into the reduced one: minimal, monic, tail-reduced."""
    packed = [_pack(p, order) for p in polys if not p.is_zero]
    return [_unpack(p, order) for p in _reduce(packed, order, limits)]


def is_groebner_basis(polys, order, skip_coprime=True, limits=DEFAULT_LIMITS):
    """Buchberger criterion: every S-pair reduces to zero modulo the set.

    With skip_coprime the pairs with coprime leading terms are skipped;
    their S-polynomials reduce to zero by Buchberger's first criterion, so
    the verdict is unaffected.  Pass skip_coprime=False for the exhaustive
    check.
    """
    table = ReducerTable(order)
    rows = [table.insert(_pack(p, order)) for p in polys if not p.is_zero]
    guard = order.guard
    for i, fi in enumerate(rows):
        for fj in rows[i + 1:]:
            lcm = packed_lcm(fi[0], fj[0], guard)
            if skip_coprime and lcm == fi[0] + fj[0]:
                continue
            limits.check_time()
            if _nf_terms(_spoly(fi, fj, lcm, guard), table, limits):
                return False
    return True
