"""Exact sparse multivariate polynomials in x_1..x_n, y_1..y_n.

The ambient ring for a graph on n vertices has 2n variables.  A monomial
is a dense exponent tuple of width 2n; coefficients are exact rationals
stored as int when integral and fractions.Fraction otherwise.  No floating
point enters this module.

Inside the Groebner engine a monomial is instead one int, packed by its
MonomialOrder (see MonomialOrder.pack and the packed_* helpers).  This
module owns the layout, groebner the kernels and the conversion of
Polynomials (pack_poly, unpack_poly).  The auxiliary variable t of the
engine's eliminations exists only there: with elim_t, t takes the field
above the x and y fields, which keep the fields they have without t.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import GraphFormatError, PreconditionError, ResourceLimitError


# ---------------------------------------------------------------------------
# variable indexing
# ---------------------------------------------------------------------------

def width_for(n):
    """Number of exponent slots for the ring on n vertices."""
    return 2 * n


def x_index(i, n):
    """Slot of x_i (vertices are 1-based)."""
    if not 1 <= i <= n:
        raise PreconditionError(f"x{i} outside ring on {n} vertices")
    return i - 1


def y_index(i, n):
    if not 1 <= i <= n:
        raise PreconditionError(f"y{i} outside ring on {n} vertices")
    return n + i - 1


def variable_name(v, width):
    n = width // 2
    return f"x{v + 1}" if v < n else f"y{v - n + 1}"


# ---------------------------------------------------------------------------
# monomials (dense exponent tuples)
# ---------------------------------------------------------------------------

def mono_one(width):
    return (0,) * width


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


# ---------------------------------------------------------------------------
# packed monomials (one int each, laid out by a MonomialOrder)
# ---------------------------------------------------------------------------

# Each variable owns a FIELD_BITS-wide field whose top bit is a guard bit,
# clear in every valid monomial; exponents therefore stay below 2^15.  The
# fields are read back as native unsigned shorts ("H"), hence 16 bits.
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
EXPONENT_CAP = f"exponent cap {MAX_EXPONENT} exceeded"


def packed_divides(a, b, guard):
    """a | b: subtracting a from b with every guard bit set borrows no guard."""
    return ((b | guard) - a) & guard == guard


def packed_lcm(a, b, guard):
    """Fieldwise max: the guard bits left after the same subtraction mark the
    fields where a >= b, and widen into a mask selecting a's fields there.
    The lcm equals the product a + b exactly when a and b are coprime."""
    ge = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))


def packed_is_squarefree(a, guard):
    """Every exponent of a is at most 1: no bit above the lowest of a field."""
    return not a & ~(guard >> (FIELD_BITS - 1))


def monomial(width, exps):
    """Build a monomial from a {variable slot: exponent} map."""
    m = [0] * width
    for v, e in exps.items():
        if e < 0:
            raise PreconditionError("negative exponent")
        m[v] = e
    return tuple(m)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Pure lexicographic order induced by a vertex permutation sigma.

    Variables compare as
    x_{sigma^-1(1)} > ... > x_{sigma^-1(n)} > y_{sigma^-1(1)} > ... > y_{sigma^-1(n)},
    and with elim_t the auxiliary variable t is greatest, which makes the
    order an elimination order for t.  sigma = identity gives the default
    lex order x1 > ... > xn > y1 > ... > yn.
    """

    __slots__ = ("n", "sigma", "elim_t", "width", "priority", "guard",
                 "_shifts", "_fields", "_nbytes")

    def __init__(self, n, sigma=None, elim_t=False):
        if sigma is None:
            sigma = tuple(range(1, n + 1))
        else:
            sigma = tuple(sigma)
        if sorted(sigma) != list(range(1, n + 1)):
            raise PreconditionError(f"sigma is not a permutation of 1..{n}")
        self.n = n
        self.sigma = sigma
        self.elim_t = bool(elim_t)
        self.width = width_for(n) + self.elim_t
        # x-slot of the greatest variable first; sigma[j] is the rank of vertex j+1
        xs = sorted(range(n), key=lambda j: sigma[j])
        head = (2 * n,) if elim_t else ()
        self.priority = head + tuple(xs) + tuple(n + j for j in xs)
        # packed layout: the greatest variable in the most significant field
        fields = [0] * self.width  # field number of each slot, 0 lowest
        for rank, v in enumerate(self.priority):
            fields[v] = self.width - 1 - rank
        self._fields = tuple(fields)
        self._shifts = tuple(FIELD_BITS * f for f in self._fields)
        self._nbytes = self.width * FIELD_BITS // 8
        self.guard = sum(1 << (FIELD_BITS * f + FIELD_BITS - 1) for f in range(self.width))

    def pack(self, m):
        """m as one int; integer comparison is this order and + the product.
        Raises ResourceLimitError for an exponent above MAX_EXPONENT."""
        if max(m, default=0) > MAX_EXPONENT:
            raise ResourceLimitError(EXPONENT_CAP)
        return sum(e << s for e, s in zip(m, self._shifts))

    def _field_values(self, p):
        return memoryview(p.to_bytes(self._nbytes, sys.byteorder)).cast("H")

    def unpack(self, p):
        """The exponent tuple of a packed monomial."""
        fields = self._field_values(p)
        return tuple(fields[f] for f in self._fields)

    def packed_degree(self, p):
        """Total degree of a packed monomial."""
        return sum(self._field_values(p))

    def key(self, m):
        """Sort key: tuple comparison of keys is the lex comparison."""
        return tuple(m[v] for v in self.priority)

    def greater(self, a, b):
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        """Orders are values: equal n, sigma and elim_t give the same order."""
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.n, self.sigma, self.elim_t) == (other.n, other.sigma, other.elim_t)

    def __hash__(self):
        return hash((self.n, self.sigma, self.elim_t))

    def __repr__(self):
        tag = ", elim_t" if self.elim_t else ""
        return f"MonomialOrder(n={self.n}, sigma={self.sigma}{tag})"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _clean_coeff(c):
    """Normalise exact coefficients: integral Fractions become int."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise PreconditionError(f"coefficient {c!r} is not an exact rational")


class Polynomial:
    """Immutable sparse polynomial: {monomial tuple: nonzero coefficient}."""

    __slots__ = ("width", "terms")

    def __init__(self, width, terms=None):
        if width % 2:
            raise PreconditionError("a polynomial ring has an x and a y per vertex; odd width")
        tidy = {}
        for m, c in (terms or {}).items():
            c = _clean_coeff(c)
            if c:
                if len(m) != width:
                    raise PreconditionError("monomial width mismatch")
                tidy[m] = c
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "terms", tidy)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.width, self.terms))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, width):
        return cls(width)

    @classmethod
    def constant(cls, width, c):
        return cls(width, {mono_one(width): c})

    @classmethod
    def variable(cls, width, v):
        return cls(width, {monomial(width, {v: 1}): 1})

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.width != other.width:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.width, other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            nc = res.get(m, 0) + c
            if nc:
                res[m] = nc
            else:
                res.pop(m, None)
        return Polynomial(self.width, res)

    def __neg__(self):
        return Polynomial(self.width, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.width, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.width, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                nc = res.get(m, 0) + c1 * c2
                if nc:
                    res[m] = nc
                else:
                    res.pop(m, None)
        return Polynomial(self.width, res)

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(mono_degree(m) == 0 for m in self.terms)

    def leading_monomial(self, order):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def sorted_terms(self, order=None):
        order = order or MonomialOrder(self.width // 2)
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def sort_key(self, order=None):
        """Canonical key for deterministic sorting of polynomial lists."""
        return tuple(
            (order.key(m) if order else m, Fraction(c).numerator, Fraction(c).denominator)
            for m, c in self.sorted_terms(order)
        )

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __hash__(self):
        return hash((self.width, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({poly_to_text(self)!r})"


# ---------------------------------------------------------------------------
# convenience builders
# ---------------------------------------------------------------------------

def x_poly(i, n):
    return Polynomial.variable(width_for(n), x_index(i, n))


def y_poly(i, n):
    return Polynomial.variable(width_for(n), y_index(i, n))


def one_poly(n):
    return Polynomial.constant(width_for(n), 1)


def edge_binomial(i, j, n):
    """x_i*y_j - x_j*y_i, the 2-minor on columns i, j of the generic 2 x n matrix."""
    if i == j:
        raise PreconditionError("minor needs two distinct columns")
    w = width_for(n)
    return Polynomial(w, {
        monomial(w, {x_index(i, n): 1, y_index(j, n): 1}): 1,
        monomial(w, {x_index(j, n): 1, y_index(i, n): 1}): -1,
    })


def xy_monomial(cset, dset, n):
    """g_{C,D} = prod_{k in C} x_k * prod_{k in D} y_k as a polynomial."""
    exps = {}
    for k in cset:
        v = x_index(k, n)
        exps[v] = exps.get(v, 0) + 1
    for k in dset:
        v = y_index(k, n)
        exps[v] = exps.get(v, 0) + 1
    w = width_for(n)
    return Polynomial(w, {monomial(w, exps): 1})


def sorted_generators(gens):
    """The distinct polynomials of gens, by degree and then canonical key."""
    return sorted(set(gens), key=lambda p: (p.degree(), p.sort_key()))


# ---------------------------------------------------------------------------
# text format: "3/2*x1^2*y3 - x2*y4"
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^(x|y)(\d*)(?:\^(\d+))?$")
_NUMBER_RE = re.compile(r"^\d+(?:/\d+)?$")


def poly_to_text(p):
    """Canonical text form: terms descending in the identity lex order."""
    if p.is_zero:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for v, e in enumerate(m):
            if e:
                name = variable_name(v, p.width)
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def poly_from_text(text, n):
    """Parse the text format, variables x_i and y_i only; whitespace-insensitive;
    inverse of poly_to_text."""
    width = width_for(n)
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise GraphFormatError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens) != s:
        raise GraphFormatError(f"cannot tokenise polynomial {text!r}")
    terms = {}
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok[1:]
        if not body:
            raise GraphFormatError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = {}
        for factor in body.split("*"):
            if _NUMBER_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise GraphFormatError(f"bad factor {factor!r} in {text!r}")
            kind, idx, exp = m.group(1), m.group(2), m.group(3)
            e = int(exp) if exp else 1
            if not idx:
                raise GraphFormatError(f"bad factor {factor!r}: missing index")
            i = int(idx)
            if not 1 <= i <= n:
                raise GraphFormatError(f"variable {factor!r} outside ring on {n} vertices")
            v = x_index(i, n) if kind == "x" else y_index(i, n)
            exps[v] = exps.get(v, 0) + e
        m = monomial(width, exps)
        nc = terms.get(m, 0) + coeff
        if nc:
            terms[m] = nc
        else:
            terms.pop(m, None)
    return Polynomial(width, terms)
