"""Buchberger engine over the rationals with lex orders and resource caps.

Inside the engine a monomial is one int packed by its MonomialOrder (see
MonomialOrder.pack): one 16-bit field per variable, the greatest variable
in the most significant field, the top bit of each field a guard bit.
Integer comparison is then the lex comparison, multiplication and division
are + and -, and divisibility and the lcm are a few integer operations on
the guard bits.  A polynomial is a {packed monomial: coefficient} dict.
A GroebnerBasis carries its generators in this form, as the engine
returns them, so bases pass between the engine, idealops and edgeideals
without conversion; its Polynomial view is built only when read.  The
functions that take Polynomials pack them on entry.  An exponent that
would outgrow its field (above MAX_EXPONENT) raises ResourceLimitError,
checked before every product the engine forms, so a field never wraps
into its neighbour.

The auxiliary variable t of intersection and colon is the top field of
the t-elimination order, whose x and y fields are those of the order
without t: a t-free monomial is the same int in both, and multiplying by t
adds one constant.

Pair selection uses the normal strategy (smallest lcm first, ties broken by
the lex key of the lcm and then by the pair's indices).  The pairs wait in
a heap whose entries carry that key, computed once when the pair is made,
and every pair that enters the heap is reduced.  Of the Gebauer-Moeller
criteria only M and F run, on the pairs a new basis element makes: a pair
is dropped when another new lcm strictly divides its lcm (M), and of the
new pairs sharing one lcm at most one is kept, none when one of them has
coprime leading monomials (F).  Criterion B, which would prune queued
pairs after the fact, is not run.  A pair (i, j) it would prune for a new
element t has lcm(i, t) and lcm(j, t) strictly dividing its own lcm, so
under the normal strategy the pairs for those lcms surface first, and by
then (i, j) as a rule reduces to zero, costing one S-polynomial and no
basis element.  The output never depends on it: the reduced basis is
unique.

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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DEFAULT_LIMITS,
    STEPS_PER_CLOCK_CHECK,
    PreconditionError,
    ResourceLimitError,
)
from .poly import (
    EXPONENT_CAP,
    MonomialOrder,
    Polynomial,
    packed_divides,
    packed_is_squarefree,
    packed_lcm,
    x_index,
    y_index,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis of one ideal for one order: its nonzero
    packed generators, ascending by leading monomial, as _buchberger and
    _reduce return them, with what repeated work on that ideal shares: its
    Polynomial view, its division table and its colons."""

    packed: list
    order: MonomialOrder

    @cached_property
    def generators(self):
        """The generators as Polynomials, built on first use."""
        return tuple(unpack_poly(p, self.order) for p in self.packed)

    @cached_property
    def reducers(self):
        """The division table of the generators, built on first use."""
        return ReducerTable(self.order, self.packed)

    @cached_property
    def colons(self):
        """{f: packed reduced basis of (I : f)}, filled by idealops.colon_ideal;
        private to this ideal and order by construction."""
        return {}

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.packed)


# ---------------------------------------------------------------------------
# packed polynomials
# ---------------------------------------------------------------------------

def pack_poly(f, order):
    """A Polynomial as a {packed monomial: coefficient} dict."""
    if f.width != order.width:
        raise PreconditionError("polynomial width does not match order")
    return {order.pack(m): c for m, c in f.terms.items()}


def unpack_poly(p, order):
    """The Polynomial of a packed polynomial."""
    return Polynomial(order.width, {order.unpack(m): c for m, c in p.items()})


def _subtract(p, terms, shift, k):
    """p -= k * (terms shifted by the monomial shift), in place."""
    for m, c in terms:
        mm = m + shift
        nc = p.get(mm, 0) - k * c
        if nc:
            p[mm] = nc
        else:
            del p[mm]


def packed_product(p, q, order):
    """The product of two packed polynomials; an overflowing field sets its guard bit."""
    out = {}
    for m, c in q.items():
        _subtract(out, p.items(), m, -c)
    if any(m & order.guard for m in out):
        raise ResourceLimitError(EXPONENT_CAP)
    return out


def _sort_key(p):
    """Polynomial.sort_key of a packed polynomial: its terms, greatest first."""
    return tuple((m, c.numerator, c.denominator) for m, c in sorted(p.items(), reverse=True))


def _monic(p):
    """p scaled to leading coefficient 1, integral coefficients as int."""
    lc = p[max(p)]
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
    """Division rows of nonzero packed polynomials, ascending by leading
    monomial.

    Rows with equal leading monomials keep their insertion order, so the
    table equals a stable sort of the polynomials by leading term.
    """

    __slots__ = ("order", "entries", "_lms")

    def __init__(self, order, polys=()):
        self.order = order
        self.entries = []
        self._lms = []
        for p in polys:
            self.insert(p)

    def insert(self, p):
        """Add a nonzero packed polynomial and return its row."""
        row = _row(p, self.order.guard)
        at = bisect_right(self._lms, row[0])
        self._lms.insert(at, row[0])
        self.entries.insert(at, row)
        return row

    def remainder(self, p, limits):
        """The normal form of a packed polynomial modulo the rows."""
        return _nf_terms(p, self, limits)


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
                _subtract(p, tail, shift, c_p if lc_g == 1 else Fraction(c_p, 1) / lc_g)
                break
        else:
            rem[lm_p] = c_p
    return rem


def normal_form(f, basis, order=None, limits=DEFAULT_LIMITS):
    """Full division remainder of f modulo a basis (zero iff f in the ideal,
    when the basis is a Groebner basis for the order).

    basis is a GroebnerBasis (its cached table is used), a ReducerTable, or
    a plain list of Polynomials, which then needs the order and is packed
    here.  The division runs under the deadline of limits.
    """
    if isinstance(basis, (GroebnerBasis, ReducerTable)):
        if order is None:
            order = basis.order
        elif basis.order != order:
            raise PreconditionError("basis order does not match requested order")
        table = basis.reducers if isinstance(basis, GroebnerBasis) else basis
    elif order is None:
        raise PreconditionError("order required when basis is a plain list")
    else:
        table = ReducerTable(order, [pack_poly(g, order) for g in basis if not g.is_zero])
    return unpack_poly(table.remainder(pack_poly(f, order), limits), order)


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
    _subtract(s, tailg, sg, 1 if lcg == 1 else Fraction(1, 1) / lcg)
    return s


def s_polynomial(f, g, order):
    """lcm(in f, in g)/in(f) * f - lcm(in f, in g)/in(g) * g."""
    if f.is_zero or g.is_zero:
        raise PreconditionError("S-polynomial of the zero polynomial")
    guard = order.guard
    rf, rg = _row(pack_poly(f, order), guard), _row(pack_poly(g, order), guard)
    return unpack_poly(_spoly(rf, rg, packed_lcm(rf[0], rg[0], guard), guard), order)


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair pruning
# ---------------------------------------------------------------------------

def _gm_update(lms, t, order):
    """Heap entries (degree of lcm, lcm, (i, t)) of the new pairs (i, t) that
    survive the Gebauer-Moeller criteria M and F."""
    guard = order.guard
    lmt = lms[t]

    # pairs sharing an lcm share the verdicts of criteria M and F
    by_lcm = {}
    for i, lm in enumerate(lms[:t]):
        by_lcm.setdefault(packed_lcm(lm, lmt, guard), []).append(i)

    new_pairs = []
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
                new_pairs.append((order.packed_degree(l), l, (idxs[0], t)))
    return new_pairs


def buchberger(gens, order, limits=DEFAULT_LIMITS):
    """Reduced Groebner basis of the ideal generated by gens.

    An empty generator list (the zero ideal) yields an empty basis.  Raises
    ResourceLimitError when a cap is exceeded, never a wrong answer.
    """
    basis = _buchberger([pack_poly(g, order) for g in gens if not g.is_zero], order, limits)
    return GroebnerBasis(basis, order)


def _buchberger(polys, order, limits):
    """The reduced basis of nonzero packed polynomials, ascending by leading
    monomial; the start set, monic and without repeats, is in _sort_key order."""
    start = {_sort_key(p): p for p in map(_monic, polys)}
    if any(max(p) == 0 for p in start.values()):
        return [{0: 1}]

    guard = order.guard
    G = []
    rows = []
    lms = []
    table = ReducerTable(order)
    queue = []  # (deg lcm, packed lcm, pair)

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
        for entry in _gm_update(lms, t, order):
            heapq.heappush(queue, entry)

    for key in sorted(start):
        push(start[key])

    while queue:
        _, l, (i, j) = heapq.heappop(queue)
        limits.check_time()
        h = _nf_terms(_spoly(rows[i], rows[j], l, guard), table, limits)
        if not h:
            continue
        if max(h) == 0:
            return [{0: 1}]
        push(_monic(h))

    return _reduce(G, order, limits)


def _reduce(polys, order, limits):
    """The reduced basis of a Groebner basis of nonzero packed polynomials,
    ascending by leading monomial."""
    monic = sorted(map(_monic, polys), key=max)
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
    table = ReducerTable(order, minimal)
    out = []
    for p, lm in zip(minimal, min_lms):
        tail = {m: c for m, c in p.items() if m != lm}
        out.append({lm: 1, **_nf_terms(tail, table, limits)})
    return out


def is_groebner_basis(polys, order, limits=DEFAULT_LIMITS):
    """Buchberger criterion: every S-pair reduces to zero modulo the set.

    The pairs with coprime leading terms are skipped; their S-polynomials
    reduce to zero by Buchberger's first criterion, so the verdict is
    unaffected.
    """
    table = ReducerTable(order)
    rows = [table.insert(pack_poly(p, order)) for p in polys if not p.is_zero]
    guard = order.guard
    for i, fi in enumerate(rows):
        for fj in rows[i + 1:]:
            lcm = packed_lcm(fi[0], fj[0], guard)
            if lcm == fi[0] + fj[0]:
                continue
            limits.check_time()
            if _nf_terms(_spoly(fi, fj, lcm, guard), table, limits):
                return False
    return True


def packed_radical_sum(gb, qs, limits):
    """The reduced basis of I + (qs), for the reduced basis gb of I and
    packed qs, when all its leading monomials are squarefree, which makes
    the sum radical; None when one is not.  Each q enters reduced modulo
    gb, and the zeros are dropped; _buchberger drops the repeats."""
    extra = [r for r in (gb.reducers.remainder(q, limits) for q in qs) if r]
    basis = _buchberger(gb.packed + extra, gb.order, limits)
    if all(packed_is_squarefree(max(p), gb.order.guard) for p in basis):
        return basis
    return None


def relabelled_basis(gb, sigma, limits):
    """The reduced GroebnerBasis, under gb's order, of the image of gb's
    ideal under x_i -> x_sigma(i), y_i -> y_sigma(i), for sigma a
    {vertex: image} bijection of the vertices.  The images of the
    generators generate the image ideal, so one engine run on them gives
    its reduced basis."""
    order = gb.order
    n = order.n
    slot = list(range(order.width))
    for i, j in sigma.items():
        slot[x_index(i, n)], slot[y_index(i, n)] = x_index(j, n), y_index(j, n)

    def image(m):
        exps = [0] * order.width
        for k, e in enumerate(order.unpack(m)):
            exps[slot[k]] = e
        return order.pack(exps)

    mapped = [{image(m): c for m, c in p.items()} for p in gb.packed]
    return GroebnerBasis(_buchberger(mapped, order, limits), order)


# ---------------------------------------------------------------------------
# the auxiliary variable t: intersection and colon
# ---------------------------------------------------------------------------

def _t_extension(order):
    """The t-elimination order of order's ring and the packed monomial t."""
    eorder = MonomialOrder(order.n, order.sigma, elim_t=True)
    return eorder, eorder.pack((0,) * (eorder.width - 1) + (1,))


def _times_t(p, t, sign=1):
    return {m + t: sign * c for m, c in p.items()}


def packed_intersection(ps, qs, order, limits):
    """The reduced basis of (ps) cap (qs): the t-free elements, those whose
    leading monomial is below t, of the reduced basis of t*(ps) + (1-t)*(qs)
    under the elimination order.  ps and qs are t-free, so q and t*q share
    no monomial."""
    eorder, t = _t_extension(order)
    mixed = [_times_t(p, t) for p in ps] + [{**q, **_times_t(q, t, -1)} for q in qs]
    return [p for p in _buchberger(mixed, eorder, limits) if max(p) < t]


def packed_colon(ps, f, order, limits):
    """The reduced basis of ((ps) : f) for a nonconstant f: the quotients by f
    of a Groebner basis of (ps) cap (f) form a Groebner basis of the colon."""
    row = _row(f, order.guard)
    inter = packed_intersection(ps, [f], order, limits)
    return _reduce([_exact_quotient(h, row, order.guard) for h in inter], order, limits)


def _exact_quotient(p, row, guard):
    """p / f for a multiple p of the polynomial f of row; inexactness is an
    internal bug."""
    lm_f, lc_f, tail, cap = row
    p = dict(p)
    q = {}
    while p:
        lm = max(p)
        assert packed_divides(lm_f, lm, guard), "inexact division in colon computation"
        shift = lm - lm_f
        if (cap + shift) & guard:
            raise ResourceLimitError(EXPONENT_CAP)
        c = p.pop(lm)
        q[shift] = k = c if lc_f == 1 else Fraction(c, 1) / lc_f
        _subtract(p, tail, shift, k)
    return q
