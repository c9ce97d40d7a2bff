"""Ideal-theoretic operations built on the Buchberger engine.

One mechanism serves intersection, colon and radical membership: extend the
ring by a single auxiliary variable t, compute a Groebner basis under the
elimination order with t greatest, and read off the t-free part.  The
engine does that on packed polynomials (see groebner); this module packs
the Polynomials its public functions take, keeps the fold of colon_ideal
packed from one engine call to the next, and unpacks the results.
"""

from __future__ import annotations

from .errors import PreconditionError, VnumError
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    buchberger,
    normal_form,
    pack_poly,
    packed_colon,
    packed_intersection,
    packed_product,
    packed_radical_contains,
    unpack_poly,
)
from .poly import MonomialOrder, Polynomial, mono_is_squarefree, one_poly


class NoNewElementError(VnumError):
    """min_new_degree was called on a pair of equal ideals."""


def as_basis(gens, order, limits=DEFAULT_LIMITS):
    """Coerce a generator list (or an existing basis for the order) to a GB."""
    if isinstance(gens, GroebnerBasis):
        if gens.order.same_as(order):
            return gens
        gens = list(gens.generators)
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
    """Generators (a reduced GB) of I cap J via t*I + (1-t)*J and elimination."""
    gi, gj = _packed(gens_i, order), _packed(gens_j, order)
    if not gi or not gj:
        return []
    return [unpack_poly(p, order) for p in packed_intersection(gi, gj, order, limits)]


def colon_poly(gens, f, order, limits=DEFAULT_LIMITS):
    """Generators (a reduced GB) of (I : f) = (I cap (f)) / f."""
    if f.is_zero:
        raise PreconditionError("colon by the zero polynomial")
    gi = _packed(gens, order)
    if not gi:
        return []
    if f.is_constant():
        return list(as_basis(gens, order, limits).generators)
    return [unpack_poly(p, order) for p in packed_colon(gi, pack_poly(f, order), order, limits)]


def colon_ideal(gens, pgens, order, limits=DEFAULT_LIMITS):
    """Generators (a reduced GB) of (I : P), folding (I : f) over f in P.

    Two exact shortcuts keep the fold cheap: a generator f already in I
    contributes the unit ideal, and a colon that the running intersection
    is already contained in changes nothing.  Each (I : f) is memoised in
    the colons of the basis of I, so calls that pass the same basis share
    them.
    """
    pg = [p for p in pgens if not p.is_zero]
    if not pg:
        raise PreconditionError("colon by an ideal with no generators")
    gb_i = as_basis(gens, order, limits)
    if not gb_i.generators:
        return []
    table, memo = gb_i.reducers, gb_i.colons
    result = None
    for f in sorted(pg, key=lambda p: (p.degree(), p.sort_key(order))):
        pf = pack_poly(f, order)
        if not table.remainder(pf, limits):
            continue  # f in I, so (I : f) = (1)
        if result is not None and all(
            not table.remainder(packed_product(h, pf, order), limits) for h in result
        ):
            continue  # current intersection already inside (I : f)
        if f not in memo:
            memo[f] = gb_i.packed if f.is_constant() else packed_colon(gb_i.packed, pf, order, limits)
        cf = memo[f]
        result = cf if result is None else packed_intersection(result, cf, order, limits)
    if result is None:
        # every generator of P lies in I, hence P subset I and (I : P) = (1)
        return [one_poly(order.n)]
    return [unpack_poly(p, order) for p in result]


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
    monos = []
    squarefree = True
    for g in gb.generators:
        lm = g.leading_monomial(order)
        monos.append(Polynomial(g.width, {lm: 1}))
        squarefree = squarefree and mono_is_squarefree(lm)
    return monos, squarefree


def min_new_degree(jgens, igens, order, limits=DEFAULT_LIMITS):
    """Least degree of an element of J outside I, with a canonical witness.

    Both ideals must be homogeneous with ideal(I) contained in ideal(J); the
    minimum is attained at a reduced-basis element of J, and the witness is
    its (homogeneous) remainder modulo I.
    """
    d, cands = min_new_degree_candidates(jgens, igens, order, limits)
    return d, cands[0]


def min_new_degree_candidates(jgens, igens, order, limits=DEFAULT_LIMITS):
    """All minimal-degree nonzero remainders, deterministically sorted."""
    gb_j = as_basis(jgens, order, limits)
    gb_i = as_basis(igens, order, limits)
    nonzero = []
    for g in gb_j.generators:
        assert g.is_homogeneous(), "reduced basis of a homogeneous ideal must be homogeneous"
        r = normal_form(g, gb_i, limits=limits)
        if not r.is_zero:
            nonzero.append(r)
    if not nonzero:
        raise NoNewElementError("the two ideals coincide; no new element exists")
    d = min(r.degree() for r in nonzero)
    # canonical witness order: greatest leading monomial first
    cands = [r for r in nonzero if r.degree() == d]
    return d, sorted(cands, key=lambda p: p.sort_key(order), reverse=True)
