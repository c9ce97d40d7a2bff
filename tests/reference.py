"""Reference operations that only the tests use: tuple monomial helpers,
membership tests on Polynomials, and Polynomial views of the packed
transversal and cut generators.  The runtime package works on packed
polynomials and needs none of them."""

from __future__ import annotations

from vnum.groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    _buchberger,
    _t_extension,
    _times_t,
    normal_form,
    pack_poly,
    unpack_poly,
)
from vnum.idealops import _packed, as_basis
from vnum.matroids import _cut_generators, packed_concise_generators, packed_transversal_generators
from vnum.poly import MonomialOrder, sorted_generators


def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def ideal_membership(f, gens, order=None, limits=DEFAULT_LIMITS):
    """True iff f lies in the ideal generated by gens."""
    if order is None:
        order = gens.order if isinstance(gens, GroebnerBasis) else MonomialOrder(f.width // 2)
    return normal_form(f, as_basis(gens, order, limits), limits=limits).is_zero


def packed_radical_contains(ps, f, order, limits):
    """Rabinowitsch test: f lies in the radical of (ps) iff 1 in (ps, 1 - t*f)."""
    eorder, t = _t_extension(order)
    return _buchberger(ps + [{0: 1, **_times_t(f, t, -1)}], eorder, limits) == [{0: 1}]


def radical_membership(f, gens, order, limits=DEFAULT_LIMITS):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - t*f)."""
    return packed_radical_contains(_packed(gens, order), pack_poly(f, order), order, limits)


def _unpacked(packed, order):
    return sorted_generators(unpack_poly(p, order) for p in packed)


def transversal_ideal_generic(g, s):
    """packed_transversal_generators as Polynomials under the default order,
    sorted by degree and then canonical key."""
    order = MonomialOrder(g.n)
    return _unpacked(packed_transversal_generators(g, s, None, order), order)


def concise_cut_generators(g, s):
    """packed_concise_generators as Polynomials under the default order,
    sorted by degree and then canonical key."""
    order = MonomialOrder(g.n)
    return _unpacked(packed_concise_generators(g, s, order), order)


def cut_generators_full(g, s):
    """Same recipe over every member of D_c(V1, V2); this is the finite
    generating set whose union with the admissible-path basis is checked
    against the Buchberger criterion."""
    order = MonomialOrder(g.n)
    return _unpacked(_cut_generators(g, s, False, order, DEFAULT_LIMITS), order)
