"""Buchberger engine and ideal operations, cross-checked against sympy."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vnum.errors import Limits, PreconditionError, ResourceLimitError
from vnum.groebner import (
    ReducerTable,
    _exact_quotient,
    _reduce,
    _row,
    buchberger,
    normal_form,
    pack_poly,
    s_polynomial,
    unpack_poly,
)
from vnum.idealops import (
    NoNewElementError,
    colon_ideal,
    colon_poly,
    intersect,
    min_new_degree,
)
from vnum.edgeideals import edge_ideal_gens, prime_component
from vnum.poly import (
    MonomialOrder,
    Polynomial,
    edge_binomial,
    one_poly,
    poly_from_text,
    poly_to_text,
    x_poly,
    y_poly,
)
from vnum.cycles import cycle_graph
from reference import (
    complete_graph,
    contains_one,
    ideal_membership,
    initial_ideal,
    is_groebner_basis_all_pairs,
    leading_monomial,
    path_basis_by_definition,
    path_graph,
    radical_membership,
)


def sympy_ring(n):
    """The symbols x1 > ... > xn > y1 > ... > yn of the default lex order."""
    return sympy.symbols([f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)])


def sympy_expr(p, syms):
    e = 0
    for m, c in p.terms.items():
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for v, k in enumerate(m):
            if k:
                term *= syms[v] ** k
        e += term
    return e


def sympy_termsets(exprs, syms):
    return {
        frozenset((m, sympy.Rational(c)) for m, c in sympy.Poly(e, *syms).terms())
        for e in exprs
    }


def sympy_reduced_gb(polys, n):
    """Independent reduced lex basis via sympy, as a set of term dicts."""
    syms = sympy_ring(n)
    gb = sympy.groebner([sympy_expr(p, syms) for p in polys], *syms, order="lex", domain="QQ")
    return sympy_termsets(gb.exprs, syms)


def sympy_intersection(ps, qs, n):
    """The t-free elements of sympy's reduced basis of t*(ps) + (1-t)*(qs)
    under lex with t greatest: the reduced lex basis of (ps) cap (qs)."""
    syms = sympy_ring(n)
    t = sympy.Symbol("t")
    mixed = [t * sympy_expr(p, syms) for p in ps] + [(1 - t) * sympy_expr(q, syms) for q in qs]
    gb = sympy.groebner(mixed, t, *syms, order="lex", domain="QQ")
    return [e for e in gb.exprs if not e.has(t)]


def to_termset(p):
    return frozenset(
        (m, sympy.Rational(Fraction(c).numerator, Fraction(c).denominator))
        for m, c in p.terms.items()
    )


def test_s_polynomial_examples():
    n = 3
    order = MonomialOrder(n)
    f = edge_binomial(1, 2, n)
    g = edge_binomial(2, 3, n)
    s = s_polynomial(f, g, order)
    # coprime-ish leading terms: the S-polynomial reduces to zero mod {f, g}
    assert normal_form(s, [f, g], order).is_zero
    assert s_polynomial(f, f, order).is_zero
    s2 = s_polynomial(x_poly(1, n), y_poly(1, n), order)
    assert normal_form(s2, [x_poly(1, n), y_poly(1, n)], order).is_zero
    with pytest.raises(PreconditionError):
        s_polynomial(f, Polynomial.zero(f.width), order)


def test_buchberger_p3_already_reduced():
    n = 3
    order = MonomialOrder(n)
    gens = edge_ideal_gens(path_graph(3))
    gb = buchberger(gens, order)
    assert set(gb.generators) == set(gens)
    assert _reduce(gb.packed, order, Limits()) == gb.packed


def test_buchberger_c4_matches_admissible_paths():
    g = cycle_graph(4)
    order = MonomialOrder(4)
    gb = buchberger(edge_ideal_gens(g), order)
    path_basis = path_basis_by_definition(g)
    assert set(gb.generators) == set(path_basis.generators)
    assert len(gb.generators) == 6


def test_buchberger_pins_admissible_path_bases(small_connected_graphs):
    # the HHHKR closed form fixes the reduced basis, and both sides list it
    # by ascending leading term, so the engine must match it element by element
    for g in small_connected_graphs:
        n = g.n
        for sigma in (None, tuple(range(n, 0, -1)), tuple(range(2, n + 1)) + (1,)):
            gb = buchberger(edge_ideal_gens(g), MonomialOrder(n, sigma))
            expected = path_basis_by_definition(g, sigma).generators
            assert gb.generators == expected, (sorted(g.edges), sigma)


def test_reducer_table_is_a_stable_sort_by_leading_term():
    n = 3
    order = MonomialOrder(n)
    texts = ["x2*y3 - x3*y2", "x1*y2 - x2*y1", "x1*y3", "x1*y2 + y3^2", "y1", "x1*y2"]
    polys = [poly_from_text(t, n) for t in texts]
    packed = [pack_poly(p, order) for p in polys]
    table = ReducerTable(order)
    for p in packed:
        table.insert(p)
    expected = sorted(polys, key=lambda p: order.key(leading_monomial(p, order)))
    unpack = order.unpack
    assert [
        {unpack(lm): lc, **{unpack(m): c for m, c in tail}}
        for lm, lc, tail, _ in table.entries
    ] == [p.terms for p in expected]
    assert [unpack(lm) for lm, *_ in ReducerTable(order, packed).entries] == [
        leading_monomial(p, order) for p in expected
    ]


def test_buchberger_monomial_ideal():
    order = MonomialOrder(2)
    x1 = x_poly(1, 2)
    gb = buchberger([x1], order)
    assert list(gb.generators) == [x1]


def test_buchberger_matches_sympy(small_connected_graphs):
    for g in small_connected_graphs:
        if len(g.vertices) < 2 or not g.edges:
            continue
        order = MonomialOrder(g.n)
        gb = buchberger(edge_ideal_gens(g), order)
        assert {to_termset(p) for p in gb.generators} == sympy_reduced_gb(
            edge_ideal_gens(g), g.n
        ), sorted(g.edges)


def test_normal_form_examples():
    n = 3
    order = MonomialOrder(n)
    gb = buchberger(edge_ideal_gens(path_graph(3)), order)
    f13 = edge_binomial(1, 3, n)
    assert normal_form(x_poly(2, n) * f13, gb).is_zero
    assert normal_form(x_poly(1, n), gb) == x_poly(1, n)
    assert normal_form(Polynomial.zero(2 * n), gb).is_zero


def test_normal_form_idempotent(small_connected_graphs):
    for g in small_connected_graphs[:12]:
        if not g.edges:
            continue
        order = MonomialOrder(g.n)
        gb = buchberger(edge_ideal_gens(g), order)
        probe = x_poly(1, g.n) * y_poly(1, g.n) + edge_binomial(
            min(g.vertices), max(g.vertices), g.n
        )
        r = normal_form(probe, gb)
        assert normal_form(r, gb) == r


def test_ideal_membership_examples():
    n = 3
    j = edge_ideal_gens(path_graph(3))
    f13 = edge_binomial(1, 3, n)
    assert ideal_membership(x_poly(2, n) * f13, j, MonomialOrder(n))
    assert not ideal_membership(f13, j, MonomialOrder(n))
    assert ideal_membership(Polynomial.zero(2 * n), j, MonomialOrder(n))


def test_intersect_examples():
    n = 3
    order = MonomialOrder(n)
    x1, y1 = x_poly(1, n), y_poly(1, n)
    assert list(intersect([x1], [y1], order)) == [x1 * y1]
    assert list(intersect([x1], [x1], order)) == [x1]
    # P_{2} cap P_empty = J_{P3}
    g = path_graph(3)
    p2 = prime_component(g, {2}).generators
    p0 = prime_component(g, frozenset()).generators
    inter = intersect(list(p2), list(p0), order)
    jg = buchberger(edge_ideal_gens(g), order)
    assert set(inter) == set(jg.generators)


def test_intersect_symmetric(small_connected_graphs):
    order3 = MonomialOrder(3)
    a = [x_poly(1, 3) * y_poly(2, 3), edge_binomial(1, 2, 3)]
    b = [y_poly(3, 3), x_poly(2, 3)]
    assert intersect(a, b, order3) == intersect(b, a, order3)


def test_exact_div():
    n = 3
    order = MonomialOrder(n)
    guard = order.guard
    f = edge_binomial(1, 2, n)
    q = x_poly(3, n) + y_poly(1, n)
    p = pack_poly(q * f, order)
    assert unpack_poly(_exact_quotient(p, _row(pack_poly(f, order), guard), guard), order) == q
    # a leading coefficient other than 1 divides the quotient's coefficients
    row2 = _row(pack_poly(2 * f, order), guard)
    assert unpack_poly(_exact_quotient(p, row2, guard), order) == Fraction(1, 2) * q
    with pytest.raises(AssertionError):
        _exact_quotient(pack_poly(x_poly(1, n), order), row2, guard)


def test_colon_poly_examples():
    n = 3
    order = MonomialOrder(n)
    x1, y2 = x_poly(1, n), y_poly(2, n)
    assert list(colon_poly([x1 * y2], x1, order)) == [y2]
    # (J_P3 : x2) = all three 2-minors on {1,2,3}
    g = path_graph(3)
    col = colon_poly(edge_ideal_gens(g), x_poly(2, n), order)
    k3 = buchberger(edge_ideal_gens(complete_graph(3)), order)
    assert set(col) == set(k3.generators)
    # colon by a constant is the identity
    ident = colon_poly(edge_ideal_gens(g), one_poly(n), order)
    assert set(ident) == set(buchberger(edge_ideal_gens(g), order).generators)


def test_colon_ideal_examples():
    order4 = MonomialOrder(4)
    c4 = cycle_graph(4)
    jg = edge_ideal_gens(c4)
    q = colon_ideal(jg, list(prime_component(c4, {1, 3}).generators), order4)
    f24 = edge_binomial(2, 4, 4)
    assert ideal_membership(f24, q, order4)
    d, _ = min_new_degree(q, jg, order4)
    assert d == 2
    # (I : I) = (1)
    unit = colon_ideal(jg, jg, order4)
    assert list(unit) == [one_poly(4)]
    # (J_P3 : P_empty) has a new element of degree 1
    order3 = MonomialOrder(3)
    p3 = path_graph(3)
    q = colon_ideal(edge_ideal_gens(p3), list(prime_component(p3, frozenset()).generators), order3)
    d, w = min_new_degree(q, edge_ideal_gens(p3), order3)
    assert d == 1


def test_bases_under_equal_orders_compare_equal():
    """MonomialOrder is a value: two colons of J_{C_5} under distinct but
    equal order objects give equal bases."""
    c5 = cycle_graph(5)
    jg = buchberger(edge_ideal_gens(c5), MonomialOrder(5))
    first, second = (
        colon_ideal(jg, prime_component(c5, {1, 3}), MonomialOrder(5)) for _ in range(2))
    assert first.order is not second.order
    assert first == second
    assert hash(MonomialOrder(5)) == hash(MonomialOrder(5))
    assert MonomialOrder(5) != MonomialOrder(5, elim_t=True)
    assert MonomialOrder(5) != MonomialOrder(5, (2, 1, 3, 4, 5))


def test_colon_correctness_property(small_connected_graphs):
    # every returned generator h of (I : f) satisfies h*f in I, and (I:f) contains I
    for g in small_connected_graphs[:10]:
        if not g.edges:
            continue
        order = MonomialOrder(g.n)
        jg = buchberger(edge_ideal_gens(g), order)
        f = x_poly(min(g.vertices), g.n)
        col = colon_poly(jg, f, order)
        for h in col:
            assert normal_form(h * f, jg).is_zero
        for gen in jg.generators:
            assert ideal_membership(gen, col, order)


def test_radical_membership_examples():
    n = 4
    order = MonomialOrder(n)
    x1, x2 = x_poly(1, n), x_poly(2, n)
    assert radical_membership(x1, [x1 * x1], order)
    assert not radical_membership(x1, [x2], order)
    c4 = cycle_graph(4)
    from reference import transversal_ideal_generic

    gens = edge_ideal_gens(c4) + transversal_ideal_generic(c4, {1, 3})
    assert radical_membership(edge_binomial(2, 4, 4), gens, order)
    # zero is in every radical
    assert radical_membership(Polynomial.zero(2 * n), [x1], order)


def test_radical_membership_vs_powers(small_connected_graphs):
    n = 3
    order = MonomialOrder(n)
    g = path_graph(3)
    jg = edge_ideal_gens(g)
    f = edge_binomial(1, 3, n)
    # one-sided sanity: power membership implies radical membership
    for k in range(1, 5):
        p = one_poly(n)
        for _ in range(k):
            p = p * f
        if ideal_membership(p, jg, order):
            assert radical_membership(f, jg, order)


def test_initial_ideal_examples():
    order = MonomialOrder(4)
    gb = buchberger(edge_ideal_gens(cycle_graph(4)), order)
    monos, squarefree = initial_ideal(gb)
    texts = {poly_to_text(m) for m in monos}
    assert texts == {"x1*y2", "x2*y3", "x3*y4", "x1*y4", "x1*x4*y3", "x2*y1*y4"}
    assert squarefree
    order1 = MonomialOrder(1)
    x1 = x_poly(1, 1)
    _, sq = initial_ideal(buchberger([x1 * x1], order1))
    assert not sq
    _, sq = initial_ideal(buchberger([x1], order1))
    assert sq


def test_min_new_degree_examples():
    n = 2
    order = MonomialOrder(n)
    x1, y2 = x_poly(1, n), y_poly(2, n)
    d, w = min_new_degree([x1, y2 * y2], [x1], order)
    assert (d, w) == (2, y2 * y2)
    with pytest.raises(NoNewElementError):
        min_new_degree([x1], [x1], order)
    order3 = MonomialOrder(3)
    p3 = path_graph(3)
    q = colon_ideal(edge_ideal_gens(p3), list(prime_component(p3, frozenset()).generators), order3)
    d, w = min_new_degree(q, edge_ideal_gens(p3), order3)
    assert d == 1 and w in (x_poly(2, 3), y_poly(2, 3))


def test_buchberger_postcheck(small_connected_graphs):
    # exhaustive S-pair check on a sample of computed bases
    for g in small_connected_graphs[:15]:
        if not g.edges:
            continue
        order = MonomialOrder(g.n)
        gb = buchberger(edge_ideal_gens(g), order)
        assert is_groebner_basis_all_pairs(list(gb.generators), order)


def test_resource_limits():
    order = MonomialOrder(4)
    gens = edge_ideal_gens(cycle_graph(4))
    with pytest.raises(ResourceLimitError):
        buchberger(gens, order, Limits(max_polys=2))
    with pytest.raises(ResourceLimitError):
        buchberger(
            [edge_binomial(1, 2, 4) * edge_binomial(3, 4, 4)],
            order,
            Limits(max_degree=3),
        )
    expired = Limits(time_budget_secs=0.0).start_clock()
    with pytest.raises(ResourceLimitError):
        buchberger(gens, order, expired)


def test_exponent_overflow_raises_instead_of_wrapping():
    # the basis of (x1 - y1^20000, x1^2) is {x1 - y1^20000, y1^40000}, whose
    # exponent does not fit a packed field: every route must refuse, not wrap
    order = MonomialOrder(1)
    f = poly_from_text("x1 - y1^20000", 1)
    x1_squared = poly_from_text("x1^2", 1)
    roomy = Limits(max_degree=10**6)
    with pytest.raises(ResourceLimitError, match="exponent cap 32767"):
        buchberger([f, x1_squared], order, roomy)
    with pytest.raises(ResourceLimitError, match="exponent cap 32767"):
        normal_form(x1_squared, [f], order)
    with pytest.raises(ResourceLimitError, match="exponent cap 32767"):
        s_polynomial(
            poly_from_text("x1*y1^20000", 1), poly_from_text("x1^2 + y1^20000", 1), order
        )
    # right at the edge of the field the same shape still computes
    g = poly_from_text("x1 - y1^16383", 1)
    gb = buchberger([g, x1_squared], order, roomy)
    assert [poly_to_text(p) for p in gb.generators] == ["y1^32766", "x1 - y1^16383"]


def test_a_running_clock_is_not_restarted():
    started = Limits().start_clock()
    assert started.deadline is not None
    assert started.start_clock() is started
    assert Limits().start_clock() is not Limits().start_clock()


def test_division_checks_the_deadline():
    # x1^300 modulo x1 - y1 takes 301 division steps, past one clock check
    from vnum.groebner import _nf_terms

    order = MonomialOrder(1)
    f = poly_from_text("x1^300", 1)
    table = ReducerTable(order, [pack_poly(poly_from_text("x1 - y1", 1), order)])
    expired = Limits(time_budget_secs=0.0).start_clock()
    with pytest.raises(ResourceLimitError, match="time budget"):
        _nf_terms(pack_poly(f, order), table, expired)
    with pytest.raises(ResourceLimitError, match="time budget"):
        normal_form(f, table, limits=expired)
    # the public normal form runs without a deadline unless given one
    assert normal_form(f, table) == poly_from_text("y1^300", 1)
    # a short division finishes before its first check
    assert _nf_terms(pack_poly(poly_from_text("x1^3", 1), order), table, expired)


def test_a_polynomial_of_another_width_is_refused():
    # packing zips exponents with field shifts, so a wider monomial would
    # lose its last exponent without this check
    order = MonomialOrder(2)
    wide = Polynomial(6, {(1, 0, 0, 0, 0, 1): 1})
    with pytest.raises(PreconditionError, match="width"):
        buchberger([wide], order)
    with pytest.raises(PreconditionError, match="width"):
        normal_form(wide, [x_poly(1, 2)], order)


def test_unit_ideal_detection():
    order = MonomialOrder(2)
    gb = buchberger([one_poly(2), x_poly(1, 2)], order)
    assert contains_one(gb)
    assert list(gb.generators) == [one_poly(2)]


def test_zero_ideal():
    order = MonomialOrder(2)
    gb = buchberger([], order)
    assert len(gb) == 0
    assert ideal_membership(Polynomial.zero(4), [], order)
    assert not ideal_membership(x_poly(1, 2), [], order)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_groebner_random_binomials(data):
    """Random small binomial ideals: engine output passes the full criterion
    and agrees with sympy."""
    n = 3
    order = MonomialOrder(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    gens = [edge_binomial(i, j, n) for i, j in sorted(chosen)]
    gens.append(data.draw(st.sampled_from([x_poly(1, n), y_poly(3, n), x_poly(2, n)])))
    gb = buchberger(gens, order)
    assert is_groebner_basis_all_pairs(list(gb.generators), order)
    assert {to_termset(p) for p in gb.generators} == sympy_reduced_gb(gens, n)


def random_binomials(rng, n, count):
    """count binomials m1 - c*m2 in the ring of n vertices, with distinct
    monomials m1 and m2 of degree one or two and c in {1, -1, 2}."""
    width = 2 * n
    monos = [
        tuple(vs.count(v) for v in range(width))
        for d in (1, 2)
        for vs in itertools.combinations_with_replacement(range(width), d)
    ]
    out = []
    for _ in range(count):
        m1, m2 = rng.sample(monos, 2)
        out.append(Polynomial(width, {m1: 1, m2: -rng.choice((1, -1, 2))}))
    return out


def t_elimination_cases():
    """(n, I, f): seeded random binomial ideals on two and three vertices,
    each with a random binomial f, and J_G of C_4 and P_4 against a 2-minor
    and against x_1."""
    rng = random.Random(2024)
    for k in range(12):
        n = 2 + k % 2
        gens_i, (f,) = random_binomials(rng, n, 2), random_binomials(rng, n, 1)
        yield n, gens_i, f
    for g in (cycle_graph(4), path_graph(4)):
        for f in (edge_binomial(1, 3, 4), x_poly(1, 4)):
            yield 4, edge_ideal_gens(g), f


def test_t_elimination_runs_match_sympy():
    """intersect and colon_poly, both t-elimination runs of the engine,
    against sympy: I cap (f) is the t-free part of sympy's lex basis of
    t*I + (1-t)*(f), and (I : f) the reduced lex basis of the quotients of
    that part by f."""
    for n, gens_i, f in t_elimination_cases():
        order = MonomialOrder(n)
        syms = sympy_ring(n)
        expected = sympy_intersection(gens_i, [f], n)
        inter = intersect(gens_i, [f], order)
        assert {to_termset(p) for p in inter} == sympy_termsets(expected, syms), (gens_i, f)
        fe = sympy_expr(f, syms)
        quotients = []
        for e in expected:
            q, r = sympy.div(e, fe, *syms)
            assert r == 0
            quotients.append(q)
        col = colon_poly(gens_i, f, order)
        expected = sympy.groebner(quotients, *syms, order="lex", domain="QQ").exprs
        assert {to_termset(p) for p in col} == sympy_termsets(expected, syms), (gens_i, f)
