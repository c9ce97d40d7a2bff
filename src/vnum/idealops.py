"""Ideal-theoretic operations built on the Buchberger engine.

One mechanism serves intersection, colon and radical membership: extend the
ring by a single auxiliary variable t, compute a Groebner basis under the
elimination order with t greatest, and read off the t-free part.  The
engine does that on packed polynomials (see groebner).  An ideal comes in
as a GroebnerBasis, whose packed generators are used as they are, or as a
list of Polynomials, packed on entry; intersect, colon_poly and
colon_ideal return the reduced GroebnerBasis the engine computed, still
packed.  Only min_new_degree_candidates converts a result to Polynomials,
and only its least-degree remainders, the witness candidates.
"""

from __future__ import annotations

from .errors import PreconditionError, VnumError
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    _sort_key,
    buchberger,
    normal_form,
    pack_poly,
    packed_colon,
    packed_intersection,
    packed_is_squarefree,
    packed_product,
    packed_radical_contains,
    unpack_poly,
)
from .poly import MonomialOrder, Polynomial


class NoNewElementError(VnumError):
    """min_new_degree was called on a pair of equal ideals."""


def as_basis(gens, order, limits=DEFAULT_LIMITS):
    """Coerce a generator list (or an existing basis for the order) to a GB."""
    if isinstance(gens, GroebnerBasis) and gens.order.same_as(order):
        return gens
    return buchberger(gens, order, limits)


def ideal_membership(f, gens, order=None, limits=DEFAULT_LIMITS):
    """True iff f lies in the ideal generated by gens."""
    if order is None:
        order = gens.order if isinstance(gens, GroebnerBasis) else MonomialOrder(f.width // 2)
    return normal_form(f, as_basis(gens, order, limits), limits=limits).is_zero


def _packed(gens, order):
    """The nonzero generators of a list or a basis, packed by order."""
    if isinstance(gens, GroebnerBasis) and gens.order.same_as(order):
        return gens.packed
    return [pack_poly(g, order) for g in gens if not g.is_zero]


def intersect(gens_i, gens_j, order, limits=DEFAULT_LIMITS):
    """The reduced GroebnerBasis of I cap J via t*I + (1-t)*J and elimination."""
    gi, gj = _packed(gens_i, order), _packed(gens_j, order)
    if not gi or not gj:
        return GroebnerBasis([], order)
    return GroebnerBasis(packed_intersection(gi, gj, order, limits), order)


def colon_poly(gens, f, order, limits=DEFAULT_LIMITS):
    """The reduced GroebnerBasis of (I : f) = (I cap (f)) / f."""
    if f.is_zero:
        raise PreconditionError("colon by the zero polynomial")
    gi = _packed(gens, order)
    if not gi:
        return GroebnerBasis([], order)
    if f.is_constant():
        return as_basis(gens, order, limits)
    return GroebnerBasis(packed_colon(gi, pack_poly(f, order), order, limits), order)


def _degree(p, order):
    """Total degree of a nonzero packed polynomial."""
    return max(map(order.packed_degree, p))


def colon_ideal(gens, pgens, order, limits=DEFAULT_LIMITS):
    """The reduced GroebnerBasis of (I : P), folding (I : f) over the
    generators f of P, a basis or a list, by degree and then _sort_key.

    Two exact shortcuts keep the fold cheap: a generator f already in I
    contributes the unit ideal, and a colon that the running intersection
    is already contained in changes nothing.  Each (I : f) is memoised in
    the colons of the basis of I, keyed by the _sort_key of the packed f,
    so calls that pass the same basis share them.
    """
    pg = {_sort_key(p): p for p in _packed(pgens, order)}
    if not pg:
        raise PreconditionError("colon by an ideal with no generators")
    gb_i = as_basis(gens, order, limits)
    if not gb_i.packed:
        return gb_i
    table, memo = gb_i.reducers, gb_i.colons
    result = None
    for key in sorted(pg, key=lambda k: (_degree(pg[k], order), k)):
        f = pg[key]
        if not table.remainder(f, limits):
            continue  # f in I, so (I : f) = (1)
        if result is not None and all(
            not table.remainder(packed_product(h, f, order), limits) for h in result
        ):
            continue  # current intersection already inside (I : f)
        if key not in memo:
            memo[key] = gb_i.packed if max(f) == 0 else packed_colon(gb_i.packed, f, order, limits)
        cf = memo[key]
        result = cf if result is None else packed_intersection(result, cf, order, limits)
    # with no result every generator of P lies in I, hence P subset I and (I : P) = (1)
    return GroebnerBasis([{0: 1}] if result is None else result, order)


def radical_membership(f, gens, order, limits=DEFAULT_LIMITS):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - t*f)."""
    return packed_radical_contains(_packed(gens, order), pack_poly(f, order), order, limits)


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


def min_new_degree(jgens, igens, order, limits=DEFAULT_LIMITS):
    """Least degree of an element of J outside I, with a canonical witness.

    Both ideals must be homogeneous with ideal(I) contained in ideal(J); the
    minimum is attained at a reduced-basis element of J, and the witness is
    its (homogeneous) remainder modulo I.
    """
    d, cands = min_new_degree_candidates(jgens, igens, order, limits)
    return d, cands[0]


def min_new_degree_candidates(jgens, igens, order, limits=DEFAULT_LIMITS):
    """All minimal-degree nonzero remainders, deterministically sorted: the
    packed generators of J divided by the table of I, and only the
    least-degree remainders converted to Polynomials."""
    gb_j = as_basis(jgens, order, limits)
    table = as_basis(igens, order, limits).reducers
    nonzero = []
    for p in gb_j.packed:
        assert len(set(map(order.packed_degree, p))) == 1, (
            "reduced basis of a homogeneous ideal must be homogeneous")
        r = table.remainder(p, limits)
        if r:
            nonzero.append(r)
    if not nonzero:
        raise NoNewElementError("the two ideals coincide; no new element exists")
    d = min(_degree(r, order) for r in nonzero)
    # canonical witness order: greatest leading monomial first
    cands = sorted((r for r in nonzero if _degree(r, order) == d), key=_sort_key, reverse=True)
    return d, [unpack_poly(r, order) for r in cands]
