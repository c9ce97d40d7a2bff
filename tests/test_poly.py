"""Polynomial arithmetic, monomial orders, and the text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vnum.errors import GraphFormatError, PreconditionError, ResourceLimitError
from vnum.poly import (
    FIELD_BITS,
    MAX_EXPONENT,
    MonomialOrder,
    Polynomial,
    edge_binomial,
    mono_degree,
    mono_mul,
    one_poly,
    packed_divides,
    packed_is_squarefree,
    packed_lcm,
    poly_from_text,
    poly_to_text,
    x_poly,
    xy_monomial,
    y_poly,
)
from reference import mono_coprime, mono_div, mono_divides, mono_is_squarefree, mono_lcm


def test_edge_binomial_text():
    assert poly_to_text(edge_binomial(1, 2, 3)) == "x1*y2 - x2*y1"
    assert poly_to_text(edge_binomial(2, 1, 3)) == "-x1*y2 + x2*y1"
    with pytest.raises(PreconditionError):
        edge_binomial(1, 1, 3)


def test_arithmetic_basics():
    n = 3
    f = edge_binomial(1, 2, n)
    assert (f - f).is_zero
    assert f + Polynomial.zero(f.width) == f
    g = f * f
    assert g.degree() == 4
    assert (2 * f).terms == {m: 2 * c for m, c in f.terms.items()}
    assert (f * 0).is_zero
    h = x_poly(1, n) * y_poly(2, n) - x_poly(2, n) * y_poly(1, n)
    assert h == f


def test_homogeneity():
    n = 2
    assert edge_binomial(1, 2, n).is_homogeneous()
    assert not (x_poly(1, n) + one_poly(n)).is_homogeneous()
    assert Polynomial.zero(4).is_homogeneous()
    assert Polynomial.zero(4).degree() == -1


def test_coefficients_stay_exact():
    n = 2
    p = Polynomial.constant(4, Fraction(3, 2)) * x_poly(1, n)
    q = p + p
    (m, c), = q.terms.items()
    assert c == 3 and isinstance(c, int)  # integral Fractions normalise to int


def test_floats_are_rejected():
    with pytest.raises(PreconditionError):
        Polynomial(4, {(0, 0, 0, 0): 0.5})
    with pytest.raises(PreconditionError):
        Polynomial.constant(4, 1.0)


def test_an_odd_width_is_refused():
    # the ring on n vertices has 2n variables, so an odd width would name
    # the y of a vertex the ring does not have
    with pytest.raises(PreconditionError, match="odd width"):
        Polynomial(5, {(1, 0, 0, 0, 1): 1})
    with pytest.raises(PreconditionError, match="odd width"):
        Polynomial.zero(5)


def test_polynomial_is_immutable():
    p = x_poly(1, 2)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_default_order_is_lex_x_before_y():
    n = 3
    order = MonomialOrder(n)
    x1 = x_poly(1, n).leading_monomial(order)
    x3 = x_poly(3, n).leading_monomial(order)
    y1 = y_poly(1, n).leading_monomial(order)
    assert order.greater(x1, x3)
    assert order.greater(x3, y1)
    f = edge_binomial(1, 2, n)
    lm = f.leading_monomial(order)
    assert poly_to_text(Polynomial(f.width, {lm: 1})) == "x1*y2"


def test_sigma_order_permutes_priorities():
    n = 3
    order = MonomialOrder(n, sigma=(3, 1, 2))  # vertex 2 gets rank 1: x2 greatest
    x1 = x_poly(1, n).leading_monomial(order)
    x2 = x_poly(2, n).leading_monomial(order)
    assert order.greater(x2, x1)
    with pytest.raises(PreconditionError):
        MonomialOrder(3, sigma=(1, 1, 2))


def test_elim_order_puts_t_first():
    n = 2
    order = MonomialOrder(n, elim_t=True)
    assert order.width == 2 * n + 1
    # monomials (x1, x2, y1, y2, t)
    t, x1 = (0, 0, 0, 0, 1), (1, 0, 0, 0, 0)
    assert order.greater(t, x1)
    # with t greatest, any t-multiple beats any t-free monomial
    big = (1, 1, 0, 0, 0)
    assert order.greater(t, big)


def test_xy_monomial():
    assert poly_to_text(xy_monomial([1, 2], [3], 3)) == "x1*x2*y3"
    assert poly_to_text(xy_monomial([], [], 3)) == "1"


def test_text_examples():
    p = poly_from_text("+3/2*x1^2*y3 - x2*y4", 4)
    assert poly_to_text(p) == "3/2*x1^2*y3 - x2*y4"
    assert poly_from_text("0", 3).is_zero
    assert poly_from_text(" x1 * y2   -x2*y1", 2) == edge_binomial(1, 2, 2)
    assert poly_from_text("2*x1 + x1", 2) == 3 * x_poly(1, 2)


@pytest.mark.parametrize("bad", ["", "x0", "x5", "z1", "t", "x1^", "1//2", "x1**2"])
def test_text_errors(bad):
    with pytest.raises(GraphFormatError):
        poly_from_text(bad, 4)


def test_t_in_text_only_when_allowed():
    with pytest.raises(GraphFormatError):
        poly_from_text("t*x1", 2)


@st.composite
def polynomials(draw, n=3):
    width = 2 * n
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        m = tuple(draw(st.integers(0, 3)) for _ in range(width))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            terms[m] = terms.get(m, 0) + c
    return Polynomial(width, terms)


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_text_roundtrip(p):
    assert poly_from_text(poly_to_text(p), 3) == p


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_print_is_canonical(p):
    text = poly_to_text(p)
    assert poly_to_text(poly_from_text(text, 3)) == text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_order_is_multiplicative(data):
    n = 3
    order = MonomialOrder(n)
    draw_mono = lambda: tuple(data.draw(st.integers(0, 3)) for _ in range(2 * n))
    a, b, c = draw_mono(), draw_mono(), draw_mono()
    if order.greater(a, b):
        assert order.greater(mono_mul(a, c), mono_mul(b, c))
    if mono_divides(a, b):
        assert mono_degree(a) <= mono_degree(b)
        assert not order.greater(a, b)  # divisor never beats its multiple in lex
    l = mono_lcm(a, b)
    assert mono_divides(a, l) and mono_divides(b, l)


# small exponents make divisibility and shared variables likely; the large
# ones reach the top of a field
exponents = st.one_of(st.integers(0, 2), st.integers(0, MAX_EXPONENT))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_monomials_match_the_tuple_helpers(data):
    n = data.draw(st.integers(1, 5))
    sigma = data.draw(st.permutations(range(1, n + 1)))
    order = MonomialOrder(n, sigma, elim_t=data.draw(st.booleans()))
    a, b = (tuple(data.draw(exponents) for _ in range(order.width)) for _ in "ab")
    pa, pb, guard = order.pack(a), order.pack(b), order.guard
    assert order.unpack(pa) == a and not pa & guard
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert order.packed_degree(pa) == mono_degree(a)
    assert packed_is_squarefree(pa, guard) == mono_is_squarefree(a)
    assert packed_divides(pa, pb, guard) == mono_divides(a, b)
    if mono_divides(a, b):
        assert pb - pa == order.pack(mono_div(b, a))
    lcm = packed_lcm(pa, pb, guard)
    assert order.unpack(lcm) == mono_lcm(a, b)
    assert (lcm == pa + pb) == mono_coprime(a, b)  # the engine's coprimality test
    product = mono_mul(a, b)
    if max(product, default=0) <= MAX_EXPONENT:
        assert pa + pb == order.pack(product)
    else:
        assert (pa + pb) & guard  # an overflowing field shows in its guard bit


def test_pack_refuses_an_exponent_past_the_field():
    order = MonomialOrder(2)
    assert order.unpack(order.pack((MAX_EXPONENT, 0, 1, 0))) == (MAX_EXPONENT, 0, 1, 0)
    with pytest.raises(ResourceLimitError, match=f"exponent cap {MAX_EXPONENT}"):
        order.pack((0, MAX_EXPONENT + 1, 0, 0))


@pytest.mark.parametrize("n", range(1, 9))
def test_elimination_order_adds_t_as_the_top_field(n):
    # the packed t trick of the ideal operations rests on this layout: a
    # t-free monomial packs to the same int with and without t, and t^e adds
    # e in the field above all others
    shuffled = tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2))
    t_shift = FIELD_BITS * 2 * n
    for sigma in (None, shuffled):
        order, eorder = MonomialOrder(n, sigma), MonomialOrder(n, sigma, elim_t=True)
        for m in [(0,) * 2 * n, tuple(range(1, 2 * n + 1)), (MAX_EXPONENT,) * 2 * n]:
            assert eorder.pack(m + (0,)) == order.pack(m)
            for e in (1, 2, MAX_EXPONENT):
                assert eorder.pack(m + (e,)) == order.pack(m) + (e << t_shift)
        assert eorder.guard ^ order.guard == 1 << (t_shift + FIELD_BITS - 1)
