"""Ideal-theoretic operations built on the Buchberger engine.

One mechanism serves intersection, colon and radical membership: extend the
ring by a single auxiliary variable t, compute a Groebner basis under the
elimination order with t greatest, and read off the t-free part.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError, VnumError
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    buchberger,
    normal_form,
    reduce_basis,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_is_squarefree,
    one_poly,
    t_poly,
)


class NoNewElementError(VnumError):
    """min_new_degree was called on a pair of equal ideals."""


def as_basis(gens, order, limits=DEFAULT_LIMITS):
    """Coerce a generator list (or an existing basis for the order) to a GB."""
    if isinstance(gens, GroebnerBasis):
        if gens.order.same_as(order) and gens.reduced:
            return gens
        gens = list(gens.generators)
    return buchberger(gens, order, limits)


def ideal_membership(f, gens, order=None, limits=DEFAULT_LIMITS):
    """True iff f lies in the ideal generated by gens."""
    if order is None:
        order = gens.order if isinstance(gens, GroebnerBasis) else MonomialOrder(f.width // 2)
    gb = as_basis(gens, order, limits)
    if not gb.generators:
        return f.is_zero
    return normal_form(f, gb).is_zero


def _elim_order(order):
    return MonomialOrder(order.n, order.sigma, elim_t=True)


def intersect(gens_i, gens_j, order, limits=DEFAULT_LIMITS):
    """Generators (a reduced GB) of I cap J via t*I + (1-t)*J and elimination."""
    gi = [g for g in _plain(gens_i) if not g.is_zero]
    gj = [g for g in _plain(gens_j) if not g.is_zero]
    if not gi or not gj:
        return []
    n = order.n
    eorder = _elim_order(order)
    t = t_poly(n)
    one_t = one_poly(n, with_t=True)
    mixed = [g.with_t() * t for g in gi] + [h.with_t() * (one_t - t) for h in gj]
    gb = buchberger(mixed, eorder, limits)
    kept = [p.drop_t() for p in gb.generators if p.t_free()]
    # the t-free part of the reduced elimination basis is the reduced basis
    # of the intersection, so only a deterministic re-sort is needed
    kept.sort(key=lambda p: order.key(p.leading_monomial(order)))
    return kept


def _plain(gens):
    return list(gens.generators) if isinstance(gens, GroebnerBasis) else list(gens)


def exact_div(p, f, order):
    """p / f for an exact multiple p of f; inexactness is an internal bug."""
    if f.is_zero:
        raise PreconditionError("division by the zero polynomial")
    q = {}
    rest = p
    lmf = f.leading_monomial(order)
    lcf = f.terms[lmf]
    while not rest.is_zero:
        lm = rest.leading_monomial(order)
        assert mono_divides(lmf, lm), "inexact division in colon computation"
        shift = mono_div(lm, lmf)
        c = rest.terms[lm]
        coeff = c if lcf == 1 else Fraction(c, 1) / lcf
        q[shift] = coeff
        rest = rest - f.mul_term(shift, coeff)
    return Polynomial(p.width, q)


def colon_poly(gens, f, order, limits=DEFAULT_LIMITS):
    """Generators (a reduced GB) of (I : f) = (I cap (f)) / f."""
    if f.is_zero:
        raise PreconditionError("colon by the zero polynomial")
    gi = [g for g in _plain(gens) if not g.is_zero]
    if not gi:
        return []
    if f.is_constant():
        return list(as_basis(gens, order, limits).generators)
    inter = intersect(gi, [f], order, limits)
    quotients = [exact_div(h, f, order) for h in inter]
    return reduce_basis(quotients, order, limits)


def colon_ideal(gens, pgens, order, limits=DEFAULT_LIMITS, poly_colon_cache=None):
    """Generators (a reduced GB) of (I : P), folding (I : f) over f in P.

    Two exact shortcuts keep the fold cheap: a generator f already in I
    contributes the unit ideal, and a colon that the running intersection
    is already contained in changes nothing.  poly_colon_cache, when given,
    memoises (I : f) by f and must be private to one ideal I.
    """
    pg = [p for p in _plain(pgens) if not p.is_zero]
    if not pg:
        raise PreconditionError("colon by an ideal with no generators")
    gb_i = as_basis(gens, order, limits)
    if not gb_i.generators:
        return []
    result = None
    for f in sorted(pg, key=lambda p: (p.degree(), p.sort_key(order))):
        if normal_form(f, gb_i).is_zero:
            continue  # f in I, so (I : f) = (1)
        if result is not None and all(
            normal_form(h * f, gb_i).is_zero for h in result
        ):
            continue  # current intersection already inside (I : f)
        if poly_colon_cache is not None and f in poly_colon_cache:
            cf = poly_colon_cache[f]
        else:
            cf = colon_poly(gb_i, f, order, limits)
            if poly_colon_cache is not None:
                poly_colon_cache[f] = cf
        result = cf if result is None else intersect(result, cf, order, limits)
    if result is None:
        # every generator of P lies in I, hence P subset I and (I : P) = (1)
        return [one_poly(order.n)]
    return result


def radical_membership(f, gens, order, limits=DEFAULT_LIMITS):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - t*f)."""
    n = order.n
    eorder = _elim_order(order)
    t = t_poly(n)
    trick = one_poly(n, with_t=True) - t * f.with_t()
    mixed = [g.with_t() for g in _plain(gens) if not g.is_zero] + [trick]
    gb = buchberger(mixed, eorder, limits)
    return gb.contains_one


def initial_ideal(gb):
    """Leading monomials of a reduced basis, plus a squarefree flag.

    The flag is a sufficient condition only: when every leading monomial is
    squarefree the ideal is radical.
    """
    if not isinstance(gb, GroebnerBasis) or not gb.reduced:
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
        r = normal_form(g, gb_i) if gb_i.generators else g
        if not r.is_zero:
            nonzero.append(r)
    if not nonzero:
        raise NoNewElementError("the two ideals coincide; no new element exists")
    d = min(r.degree() for r in nonzero)
    # canonical witness order: greatest leading monomial first
    cands = sorted(
        (r for r in nonzero if r.degree() == d),
        key=lambda p: p.sort_key(order),
        reverse=True,
    )
    return d, cands
