"""Exact polynomial ring: arithmetic, determinants, division, evaluation."""

import math
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactforge import config
from contactforge.errors import DimensionError, IncompleteAssignmentError, TermLimitError
from contactforge.exterior import Form, VField
from contactforge.polyring import (
    Poly,
    determinant,
    divmod_principal,
    exact_divide,
    minor,
    minor_table,
    reduce_mod_principal,
    sum_of_products,
    symbolic_matrix,
)
from contactforge.slcontact import matrix_point, sample_group_point

from conftest import poly_strategy, rand_poly
import random

a = lambda r, c: Poly.variable(2, r, c)


def test_additive_inverse():
    assert (a(1, 1) + (-a(1, 1))).is_zero


def test_multiplicative_identity():
    delta2 = a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)
    assert delta2 * Poly.const(2, 1) == delta2


def test_hand_expansion():
    lhs = (a(1, 1) + a(1, 2)) * (a(1, 1) - a(1, 2))
    assert lhs == a(1, 1) * a(1, 1) - a(1, 2) * a(1, 2)


def test_no_zero_terms_stored():
    p = a(1, 1) - a(1, 1) + Poly.const(2, 0)
    assert p.terms == {}
    q = Poly(2, {((1, 1, 1),): Fraction(0)})
    assert q.is_zero


def test_size_mismatch_raises():
    with pytest.raises(DimensionError):
        Poly.variable(2, 1, 1) + Poly.variable(3, 1, 1)
    with pytest.raises(DimensionError):
        Poly.variable(2, 1, 1) * Poly.variable(3, 1, 1)
    with pytest.raises(DimensionError):
        Poly.variable(2, 3, 1)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def test_determinant_2x2_symbolic():
    mat = symbolic_matrix(2)
    assert determinant(mat) == a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)


def test_minor_of_2x2():
    mat = symbolic_matrix(2)
    assert minor(mat, 1, 1) == a(2, 2)
    assert minor(mat, 2, 1) == a(1, 2)


def test_determinant_identity_4x4():
    eye = [
        [Poly.const(4, 1 if i == j else 0) for j in range(4)]
        for i in range(4)
    ]
    assert determinant(eye) == Poly.const(4, 1)


def test_non_square_raises():
    mat = symbolic_matrix(2)
    with pytest.raises(DimensionError):
        determinant([mat[0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_laplace_expansion_every_row(n):
    mat = symbolic_matrix(n)
    det = determinant(mat)
    for i in range(1, n + 1):
        acc = Poly.zero(n)
        for j in range(1, n + 1):
            term = mat[i - 1][j - 1] * minor(mat, i, j)
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        assert acc == det


def test_bareiss_matches_symbolic_at_points():
    rng = random.Random(11)
    n = 3
    sym = determinant(symbolic_matrix(n))
    for _ in range(10):
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        const = [[Poly.const(n, x) for x in row] for row in m]
        assert determinant(const).constant_value() == sym.evaluate(matrix_point(m))


def test_grlex_leading_term_of_det():
    delta = determinant(symbolic_matrix(3))
    mono, coeff = delta.leading_term()
    assert mono == ((1, 1, 1), (2, 2, 1), (3, 3, 1))
    assert coeff == 1


def test_reduce_self():
    delta = determinant(symbolic_matrix(2))
    shift = delta - 1
    assert reduce_mod_principal(shift, shift).is_zero


def test_reduce_multiple_of_divisor():
    rng = random.Random(3)
    delta = determinant(symbolic_matrix(2))
    shift = delta - 1
    for _ in range(10):
        q = rand_poly(rng, 2)
        assert reduce_mod_principal(delta * q - q, shift).is_zero


def test_reduce_leaves_underivable_term():
    delta = determinant(symbolic_matrix(2))
    x = a(1, 1)
    assert reduce_mod_principal(x, delta - 1) == x


@settings(max_examples=30, deadline=None)
@given(poly_strategy(max_terms=3), poly_strategy(max_terms=3))
def test_reduce_kills_multiples(p, r):
    delta = determinant(symbolic_matrix(2))
    f = delta - 1
    assert reduce_mod_principal(p * f + r, f) == reduce_mod_principal(r, f)


def test_exact_divide():
    delta = determinant(symbolic_matrix(2))
    q = a(1, 2) * a(2, 1) + 3
    assert exact_divide(delta * q, delta) == q
    with pytest.raises(ValueError):
        exact_divide(a(1, 1), delta)


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        reduce_mod_principal(a(1, 1), Poly.zero(2))


def test_eval_identity_matrix():
    delta = determinant(symbolic_matrix(2))
    eye = {(i, j): Fraction(int(i == j)) for i in (1, 2) for j in (1, 2)}
    assert delta.evaluate(eye) == 1
    assert a(1, 2).evaluate(eye) == 0


def test_eval_missing_variable_raises():
    with pytest.raises(IncompleteAssignmentError):
        a(1, 1).evaluate({(1, 2): Fraction(1)})


def test_eval_at_sampled_so3_point():
    delta3 = determinant(symbolic_matrix(3))
    for seed in range(5):
        pt = matrix_point(sample_group_point("SO", 3, seed))
        assert delta3.evaluate(pt) == 1


@settings(max_examples=30, deadline=None)
@given(poly_strategy(), poly_strategy(), st.integers(min_value=0, max_value=2**30))
def test_eval_is_ring_homomorphism(p, q, s):
    rng = random.Random(s)
    pt = {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in (1, 2) for j in (1, 2)}
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_diff_product_rule():
    p = a(1, 1) * a(1, 2) + a(2, 2)
    q = a(1, 1) - a(2, 1)
    var = (1, 1)
    lhs = (p * q).diff(var)
    rhs = p.diff(var) * q + p * q.diff(var)
    assert lhs == rhs


# -- the packed kernel against a tuple-monomial Fraction reference ---------------
#
# The reference below shares no code with polyring: monomials are sorted
# (row, col, exp) tuples, coefficients Fractions, and the term order is the
# graded row-major lex key the kernel replaced.


def ref_grlex_key(m):
    return (sum(e for _, _, e in m), tuple((-r, -c, e) for r, c, e in m))


def ref_mono_mul(m1, m2):
    exps = {}
    for r, c, e in m1 + m2:
        exps[(r, c)] = exps.get((r, c), 0) + e
    return tuple((r, c, e) for (r, c), e in sorted(exps.items()))


def ref_accumulate(out, mono, coeff):
    out[mono] = out.get(mono, Fraction(0)) + coeff
    if not out[mono]:
        del out[mono]


def ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        ref_accumulate(out, m, c)
    return out


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            ref_accumulate(out, ref_mono_mul(m1, m2), c1 * c2)
    return out


def ref_diff(p, var):
    out = {}
    for m, c in p.items():
        for i, (r, col, e) in enumerate(m):
            if (r, col) == var:
                rest = m[:i] + (((r, col, e - 1),) if e > 1 else ()) + m[i + 1:]
                ref_accumulate(out, rest, c * e)
    return out


def ref_divmod(p, f):
    lt = max(f, key=ref_grlex_key)
    quotient, remainder, work = {}, {}, dict(p)
    while work:
        m = max(work, key=ref_grlex_key)
        c = work.pop(m)
        exps = {(r, col): e for r, col, e in m}
        if any(exps.get((r, col), 0) < e for r, col, e in lt):
            remainder[m] = c
            continue
        for r, col, e in lt:
            exps[(r, col)] -= e
        qm = tuple((r, col, e) for (r, col), e in sorted(exps.items()) if e)
        quotient[qm] = c / f[lt]
        for fm, fc in f.items():
            if fm != lt:
                ref_accumulate(work, ref_mono_mul(qm, fm), -quotient[qm] * fc)
    return quotient, remainder


def random_terms(rng, size, count, max_vars=3, max_exp=3):
    """Tuple-monomial terms with Fraction coefficients and exponents above 1."""
    terms = {}
    for _ in range(count):
        exps = {}
        for _ in range(rng.randint(0, max_vars)):
            var = (rng.randint(1, size), rng.randint(1, size))
            exps[var] = exps.get(var, 0) + rng.randint(1, max_exp)
        mono = tuple((r, c, e) for (r, c), e in sorted(exps.items()))
        terms[mono] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
    return {m: c for m, c in terms.items() if c}


def ref_scale(p, factor):
    return {m: c * factor for m, c in p.items()}


def ref_evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        for r, col, e in m:
            c *= point[(r, col)] ** e
        total += c
    return total


def assert_int_exactly_when_integral(p: Poly):
    """Every view gives an int for an integral coefficient and a Fraction otherwise."""
    views = [*p.terms.values(), *(c for _, c in p.sorted_terms()), p.constant_term()]
    if not p.is_zero:
        views.append(p.leading_term()[1])
    for c in views:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_kernel_matches_tuple_reference(size):
    rng = random.Random(100 + size)
    for trial in range(24):
        pt, qt = random_terms(rng, size, rng.randint(0, 8)), random_terms(rng, size, rng.randint(1, 8))
        if trial % 2:  # operands scaled by one common Fraction: integral sums over shared dens
            common = Fraction(rng.choice((1, 5, 7, 12)), rng.choice((2, 6, 9, 10)))
            pt, qt = ref_scale(pt, common), ref_scale(qt, common)
        p, q = Poly(size, pt), Poly(size, qt)
        assert p.terms == pt and q.terms == qt
        results = [p + q, p - q, p * q]
        assert results[0].terms == ref_add(pt, qt)
        assert results[1].terms == ref_add(pt, {m: -c for m, c in qt.items()})
        assert results[2].terms == ref_mul(pt, qt)
        for var in {(r, c) for m in pt for r, c, _ in m} | {(1, size)}:
            results.append(p.diff(var))
            assert results[-1].terms == ref_diff(pt, var)
        ft = random_terms(rng, size, rng.randint(1, 4), max_vars=2, max_exp=2)
        if ft:
            # a divisor whose numerators share a factor its denominator does not cancel
            ft = ref_scale(ft, Fraction(rng.choice((2, 3, 4)), rng.choice((1, 3, 7))))
            f = Poly(size, ft)
            for dividend in (pt, ref_add(ref_mul(pt, ft), qt)):
                quotient, remainder = divmod_principal(Poly(size, dividend), f)
                ref_q, ref_r = ref_divmod(dividend, ft)
                assert quotient.terms == ref_q and remainder.terms == ref_r
                assert quotient * f + remainder == Poly(size, dividend)
                results += [quotient, remainder]
        point = {(r, c): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for r in range(1, size + 1) for c in range(1, size + 1)}
        assert p.evaluate(point) == ref_evaluate(pt, point)
        for r in (p, q, *results):
            assert_int_exactly_when_integral(r)


@pytest.mark.parametrize("size", [2, 3, 6])
def test_sorted_terms_follow_the_grlex_key(size):
    rng = random.Random(7 * size)
    for _ in range(10):
        terms = random_terms(rng, size, 12, max_vars=4, max_exp=4)
        if not terms:
            continue
        p = Poly(size, terms)
        expected = sorted(terms, key=ref_grlex_key, reverse=True)
        assert [m for m, _ in p.sorted_terms()] == expected
        assert p.leading_term() == (expected[0], terms[expected[0]])


def test_integral_coefficients_are_ints():
    half = a(1, 1) * Fraction(1, 2) + a(2, 2) * Fraction(3, 2)
    doubled = half * 2
    assert doubled == a(1, 1) + a(2, 2) * 3
    assert all(type(c) is int for c in doubled.terms.values())
    assert all(type(c) is Fraction for c in half.terms.values())
    assert all(type(c) is int for c in (half + half).terms.values())
    # denominators that cancel leave the integral representation
    x, y = a(1, 1), a(2, 2)
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x * Fraction(1, 6)) * 6 == x == 6 * (Fraction(1, 6) * x)
    assert (x * x * Fraction(1, 2)).diff((1, 1)) == x
    assert x * Fraction(1, 6) + x * Fraction(1, 3) == x * Fraction(1, 2)
    # one polynomial reached by different routes compares equal
    routes = [
        Poly(2, {((1, 1, 1),): Fraction(1, 2), ((2, 2, 1),): Fraction(3, 2)}),
        (x + 3 * y) * Fraction(1, 2),
        x * Fraction(5, 10) + y * Fraction(9, 6),
        (x * 2 + y * 6) * Fraction(1, 4),
        (x * x * Fraction(1, 4)).diff((1, 1)) + y * Fraction(3, 2),
        exact_divide((x + 3 * y) * (x - y), (x - y) * 2),
        divmod_principal(x * x + 3 * x * y, x * Fraction(4, 3))[0] * Fraction(2, 3),
    ]
    assert all(r == half and r.terms == half.terms for r in routes)
    for r in routes + [doubled, (x + y) * Fraction(1, 2) * 2, x * Fraction(2, 3) * Fraction(3, 2)]:
        assert_int_exactly_when_integral(r)


def test_constant_value_and_evaluate_return_fractions():
    assert type(Poly.const(3, 2).constant_value()) is Fraction
    assert type(Poly.zero(3).constant_value()) is Fraction
    assert Poly.const(3, Fraction(4, 2)).constant_value() == 2
    point = {(i, j): i + j for i in (1, 2) for j in (1, 2)}
    value = (a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)).evaluate(point)
    assert type(value) is Fraction and value == 2 * 4 - 3 * 3


def test_degree_guard_raises_term_limit():
    x, y = a(1, 1), a(2, 2)
    assert (x ** 127).terms == {((1, 1, 127),): 1}
    assert (x ** 100 * y ** 27).leading_term() == (((1, 1, 100), (2, 2, 27)), 1)
    with pytest.raises(TermLimitError):
        x ** 128
    with pytest.raises(TermLimitError):
        x ** 100 * y ** 28
    with pytest.raises(TermLimitError):
        Poly(2, {((1, 1, 64), (1, 2, 64)): 1})


def test_variable_outside_matrix_raises():
    with pytest.raises(DimensionError):
        Poly(2, {((3, 1, 1),): 1})


def test_terms_view():
    p = Poly(3, {((1, 2, 1), (3, 3, 2)): Fraction(1, 2), (): 4})
    assert isinstance(p.terms, Mapping) and len(p.terms) == 2
    assert p.terms == {((1, 2, 1), (3, 3, 2)): Fraction(1, 2), (): 4}
    assert p.terms != {((1, 2, 1), (3, 3, 2)): Fraction(1, 2), (): 5}
    assert p.terms != {((1, 2, 1), (3, 3, 2)): Fraction(1, 2), ((4, 4, 1),): 4}
    assert p.terms[()] == 4 and ((9, 9, 1),) not in p.terms
    assert dict(p.terms) == dict(p.terms.items())


def test_budget_is_read_once_and_checked_per_row(monkeypatch):
    reads = []

    def limit():
        reads.append(1)
        return 500

    monkeypatch.setattr(config, "get_max_terms", limit)
    p = Poly(6, {((1, c, 1),): 1 for c in range(1, 7)})
    q = Poly(6, {((r, c, 1),): 1 for r in range(2, 7) for c in range(1, 7)})
    pq = p * q
    assert len(pq.terms) == 6 * 30 and len(reads) == 1
    with pytest.raises(TermLimitError) as info:
        q * pq
    assert len(reads) == 2
    # the check after each row stops the product at no more than the budget
    # plus one row of the longer factor, long before all of its terms exist
    reached = int(str(info.value).split("reached ")[1].split()[0])
    assert 500 < reached <= 500 + len(pq.terms)


def general_kernel(p: Poly, q: Poly) -> tuple[list, int]:
    """(terms in order, denominator) by the row loop of the general product, uncancelled."""
    small, big = (p._terms, q._terms) if len(p._terms) <= len(q._terms) else (q._terms, p._terms)
    out = {}
    for m1, c1 in small.items():
        for m2, c2 in big.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return [(m, c) for m, c in out.items() if c], p._den * q._den


@pytest.mark.parametrize("size", [2, 3, 6])
def test_a_one_term_factor_matches_the_general_kernel(size):
    rng = random.Random(200 + size)
    x = Poly.variable(size, 1, size)
    for trial in range(30):
        big = Poly(size, random_terms(rng, size, rng.randint(1, 9)))
        scale = rng.choice((-5, -2, 1, 3, 7))
        one = [x * x * scale, Poly.const(size, scale),
               Poly(size, random_terms(rng, size, 1) or {(): 1}),
               x * Fraction(scale, rng.choice((2, 6, 35)))][trial % 4]
        assert len(one.terms) == 1
        if trial % 3 == 0:
            big = big * Fraction(rng.choice((3, 10)), rng.choice((4, 21)))
        terms, den = general_kernel(one, big)
        for product in (one * big, big * one):
            assert product.terms == ref_mul(one.terms, big.terms)
            g = math.gcd(den, *(c for _, c in terms))  # the cancellation the kernel applies
            assert list(product._terms.items()) == [(m, c // g) for m, c in terms]
            assert product._den == den // g
            assert_int_exactly_when_integral(product)


def test_a_one_term_factor_keeps_the_budget_and_degree_checks(monkeypatch):
    x = a(1, 1)
    big = Poly(2, {((1, 2, e), (2, 1, 1)): e for e in range(1, 11)})
    monkeypatch.setattr(config, "get_max_terms", lambda: 10)
    assert len((x * big).terms) == 10
    with pytest.raises(TermLimitError, match="reached 11 terms \\(budget 10\\)"):
        x * (big + a(2, 2))
    with pytest.raises(TermLimitError, match="reached 11 terms"):
        (big + a(2, 2)) * Fraction(1, 3)
    with pytest.raises(TermLimitError, match="degree 128 exceeds 127"):
        x ** 117 * big


def test_a_foreign_operand_falls_back_or_raises_type_error():
    x = Poly.variable(2, 1, 2)
    dx = Form.generator(2, (1, 1))
    assert x * dx == dx * x
    with pytest.raises(TypeError):
        x + dx
    with pytest.raises(TypeError):
        x - dx
    with pytest.raises(TypeError):
        x * "a"


# -- one accumulator, the one-pass directional derivative, one minor table ------


def pairwise_sum(size, items):
    """sum_of_products as the loop it replaces: one Poly per product and per sum."""
    acc = Poly.zero(size)
    for s, f, g in items:
        acc = acc + s * f * g
    return acc


@pytest.mark.parametrize("size", [2, 3, 4])
def test_sum_of_products_matches_the_pairwise_loop(size):
    rng = random.Random(160 + size)
    x = Poly.variable(size, 1, size)
    for trial in range(40):
        items = []
        for _ in range(rng.randint(0, 5)):
            f = Poly(size, random_terms(rng, size, rng.randint(1, 6)))
            g = [x * x, Poly.const(size, rng.choice((-3, 2, 7))),
                 x * Fraction(rng.randint(1, 5), rng.choice((2, 9))),
                 Poly(size, random_terms(rng, size, rng.randint(1, 6)))][rng.randrange(4)]
            items.append((rng.choice((-2, -1, 0, 1, 3)), f, g))
        result = sum_of_products(size, items)
        assert result == pairwise_sum(size, items)
        reference = {}
        for s, f, g in items:
            reference = ref_add(reference, ref_scale(ref_mul(f.terms, g.terms), s))
        assert result.terms == reference
        assert_int_exactly_when_integral(result)


def test_sum_of_products_drops_a_full_cancellation():
    p = a(1, 1) * Fraction(2, 3) + a(2, 2)
    q = a(1, 2) - Fraction(1, 5)
    for items in ([(1, p, q), (-1, q, p)], [(2, p, q), (-1, p, q * 2)], [], [(0, p, q)],
                  [(3, p, Poly.zero(2))]):
        result = sum_of_products(2, items)
        assert result.is_zero and result == Poly.zero(2) and result._den == 1


def test_sum_of_products_keeps_the_budget_and_degree_checks(monkeypatch):
    x, y = a(1, 1), a(2, 2)
    big = Poly(2, {((1, 2, e), (2, 1, 1)): e for e in range(1, 6)})
    monkeypatch.setattr(config, "get_max_terms", lambda: 10)
    assert len(sum_of_products(2, [(1, x, big), (1, y, big)]).terms) == 10
    with pytest.raises(TermLimitError, match="reached 15 terms \\(budget 10\\)"):
        sum_of_products(2, [(1, x, big), (1, y, big), (1, x * y, big)])
    with pytest.raises(TermLimitError, match="degree 128 exceeds 127"):
        sum_of_products(2, [(1, x, big), (1, x ** 117, a(1, 2) ** 10 * a(2, 1))])
    with pytest.raises(DimensionError):
        sum_of_products(3, [(1, x, big)])


def test_every_sum_of_products_stops_one_row_past_the_budget(monkeypatch):
    # f, g and the partial of p along a[1,1] have 6 terms each; every product has 36 distinct ones
    f = Poly(2, {((1, 1, 1), (1, 2, e)): 1 for e in range(1, 7)})
    g = Poly(2, {((2, 1, 1), (2, 2, e)): 1 for e in range(1, 7)})
    p = Poly(2, {((1, 1, 2), (1, 2, e)): 1 for e in range(1, 7)})
    monkeypatch.setattr(config, "get_max_terms", lambda: 10)
    runs = {
        "Poly.__mul__": lambda: f * g,
        "sum_of_products": lambda: sum_of_products(2, [(1, f, g)]),
        "Poly.directional": lambda: p.directional({(1, 1): g}),
        "VField.apply": lambda: VField(2, {(1, 1): g}).apply(p),
    }
    for name, run in runs.items():
        with pytest.raises(TermLimitError) as info:
            run()
        reached = int(str(info.value).split("reached ")[1].split()[0])
        assert 10 < reached <= 10 + 6, name


@pytest.mark.parametrize("size", [2, 3, 4])
def test_directional_matches_the_sum_of_partials(size):
    rng = random.Random(170 + size)
    for trial in range(40):
        p = Poly(size, random_terms(rng, size, rng.randint(0, 8)))
        field = {}
        for _ in range(rng.randint(0, 5)):
            var = (rng.randint(1, size), rng.randint(1, size))
            field[var] = Poly(size, random_terms(rng, size, rng.randint(0, 4)))
        expected = Poly.zero(size)
        for var, coeff in field.items():
            expected = expected + coeff * p.diff(var)
        result = p.directional(field)
        assert result == expected
        reference = {}
        for var, coeff in field.items():
            reference = ref_add(reference, ref_mul(coeff.terms, ref_diff(p.terms, var)))
        assert result.terms == reference
        assert_int_exactly_when_integral(result)


def test_directional_skips_absent_variables_and_keeps_its_guards(monkeypatch):
    x, y = a(1, 1), a(2, 2)
    p = x * x * Fraction(3, 4) + a(1, 2)
    assert p.directional({}) == Poly.zero(2)
    assert p.directional({(2, 1): x, (2, 2): y, (3, 1): x}) == Poly.zero(2)  # absent or outside
    assert p.directional({(1, 1): y * Fraction(2, 7), (2, 2): x}) == x * y * Fraction(3, 7)
    assert p.directional({(1, 1): Poly.zero(2), (1, 2): Poly.const(2, 5)}) == Poly.const(2, 5)
    with pytest.raises(TermLimitError, match="degree 128 exceeds 127"):
        (x ** 118).directional({(1, 1): y ** 11})
    wide = Poly(2, {((1, 1, 1), (1, 2, e)): 1 for e in range(1, 12)})
    monkeypatch.setattr(config, "get_max_terms", lambda: 10)
    with pytest.raises(TermLimitError, match="reached 11 terms"):
        wide.directional({(1, 1): Poly.const(2, 1)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minor_table_matches_minor_entrywise(n):
    rng = random.Random(180 + n)
    constant = [[Poly.const(n, Fraction(rng.randint(-4, 4), rng.choice((1, 3)))) for _ in range(n)]
                for _ in range(n)]
    mixed = [[rand_poly(rng, n, max_terms=2) for _ in range(n)] for _ in range(n)]
    for mat in (symbolic_matrix(n), constant, mixed):
        table = minor_table(mat)
        assert list(table) == [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for (i, j), entry in table.items():
            assert entry == minor(mat, i, j)
    with pytest.raises(DimensionError):
        minor_table([[a(1, 1), a(1, 2)]])
