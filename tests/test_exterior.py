"""Exterior calculus kernel: wedge, d, contraction, Lie derivative, bracket,
covector transport."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactforge.errors import DegreeError
from contactforge.exterior import (
    Form,
    VField,
    covector_transport,
    ext_d,
    interior_product,
    lie_derivative,
    vf_bracket,
    wedge,
    wedge_power,
)
from contactforge.polyring import Poly, reduce_mod_principal, symbolic_matrix
from contactforge.slcontact import identity_point

from conftest import rand_poly

SIZE = 2


def dvar(r, c, size=SIZE):
    return Form(size, 1, {((r, c),): Poly.const(size, 1)})


def rand_form(rng: random.Random, degree: int, size=SIZE) -> Form:
    all_vars = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
    terms = {}
    for _ in range(rng.randint(0, 3)):
        gens = tuple(sorted(rng.sample(all_vars, degree)))
        coeff = rand_poly(rng, size)
        if not coeff.is_zero:
            terms[gens] = terms.get(gens, Poly.zero(size)) + coeff
    return Form(size, degree, {g: c for g, c in terms.items() if not c.is_zero})


def rand_vfield(rng: random.Random, size=SIZE) -> VField:
    all_vars = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
    return VField(size, {v: rand_poly(rng, size) for v in rng.sample(all_vars, rng.randint(1, 3))})


def seeded(fn):
    return st.integers(min_value=0, max_value=2**30).map(lambda s: fn(random.Random(s)))


def test_wedge_repeated_generator_is_zero():
    assert wedge(dvar(1, 1), dvar(1, 1)).is_zero


def test_wedge_anticommutes_on_one_forms():
    assert wedge(dvar(1, 1), dvar(1, 2)) == -wedge(dvar(1, 2), dvar(1, 1))


def test_wedge_power_of_d_omega_p1(frame_p1):
    d_omega = ext_d(frame_p1.omega)
    square = wedge_power(d_omega, 2)
    vol = ((1, 1), (1, 2), (2, 1), (2, 2))
    assert square.terms == {vol: Poly.const(2, 8)}


def test_adding_a_non_form_raises_type_error():
    dx = dvar(1, 1)
    x = Poly.variable(2, 1, 2)
    for operand in (1, x):
        with pytest.raises(TypeError):
            dx + operand
        with pytest.raises(TypeError):
            dx - operand
        with pytest.raises(TypeError):
            operand + dx
        with pytest.raises(TypeError):
            operand - dx
    assert dx - dx == Form.zero(2, 1)

    # only a Poly, an int or a Fraction scales; a str or a float is refused
    field = VField(2, {(1, 1): x})
    for value in (field, dx):
        for operand in ("1/2", 0.1):
            with pytest.raises(TypeError):
                value * operand
            with pytest.raises(TypeError):
                operand * value
    for operand in (1, x, dx):
        with pytest.raises(TypeError):
            field + operand
        with pytest.raises(TypeError):
            field - operand
        with pytest.raises(TypeError):
            operand + field
        with pytest.raises(TypeError):
            operand - field
    assert x * field == field * x == VField(2, {(1, 1): x * x})
    half = Form(2, 1, {((1, 1),): Poly.const(2, Fraction(1, 2))})
    assert Fraction(1, 2) * dx == dx * Fraction(1, 2) == half


def test_ext_d_of_constant():
    assert ext_d(Form.from_poly(Poly.const(2, 5))).is_zero


def test_ext_d_of_det_matches_cofactor_form(frame_p1):
    # a[2,2] da[1,1] - a[2,1] da[1,2] - a[1,2] da[2,1] + a[1,1] da[2,2]
    expected = Form(
        2,
        1,
        {
            ((1, 1),): Poly.variable(2, 2, 2),
            ((1, 2),): -Poly.variable(2, 2, 1),
            ((2, 1),): -Poly.variable(2, 1, 2),
            ((2, 2),): Poly.variable(2, 1, 1),
        },
    )
    assert frame_p1.d_delta == expected
    assert ext_d(Form.from_poly(frame_p1.delta)) == expected


def test_d_omega_p1(frame_p1):
    expected = Form(
        2,
        2,
        {
            ((1, 1), (1, 2)): Poly.const(2, -2),
            ((2, 1), (2, 2)): Poly.const(2, -2),
        },
    )
    assert ext_d(frame_p1.omega) == expected  # 2(da12^da11 + da22^da21)


def test_interior_dual_pairing():
    x = VField(SIZE, {(1, 1): Poly.const(SIZE, 1)})
    assert interior_product(x, dvar(1, 1)).as_poly() == Poly.const(SIZE, 1)


def test_interior_second_slot_sign():
    x = VField(SIZE, {(1, 1): Poly.const(SIZE, 1)})
    f = wedge(dvar(1, 2), dvar(1, 1))  # da12 ^ da11, generator (1,1) in slot two
    assert interior_product(x, f) == -dvar(1, 2)


def test_interior_degree_error():
    x = VField(SIZE, {(1, 1): Poly.const(SIZE, 1)})
    with pytest.raises(DegreeError):
        interior_product(x, Form.from_poly(Poly.const(SIZE, 1)))


def test_lie_derivative_of_zero_form_and_constants():
    x = VField(SIZE, {(1, 1): Poly.const(SIZE, 1)})
    assert lie_derivative(x, Form.zero(SIZE, 0)).is_zero
    assert lie_derivative(x, dvar(1, 1)).is_zero


def test_lie_derivative_right_field_kills_alpha(frame_p1):
    shift = frame_p1.delta - 1
    lform = lie_derivative(frame_p1.Y[(1, 2)], frame_p1.alpha[(1, 2)])
    assert all(reduce_mod_principal(c, shift).is_zero for c in lform.terms.values())


def test_bracket_self_is_zero(frame_p1):
    x = frame_p1.X[(1, 2)]
    assert vf_bracket(x, x).is_zero


def test_bracket_sl2_relation(frame_p1):
    # [X12, X21] agrees with the diagonal frame field, the coefficient form of [E, F] = H
    lhs = vf_bracket(frame_p1.X[(1, 2)], frame_p1.X[(2, 1)])
    assert lhs == frame_p1.X[(1, 1)]


def test_bracket_left_right_commute(frame_p1):
    assert vf_bracket(frame_p1.X[(1, 2)], frame_p1.Y[(1, 2)]).is_zero


def test_transport_identity_fixes_covector(frame_p1):
    omega_e = frame_p1.omega.evaluate_coefficients(identity_point(2))
    eye = [[Poly.const(2, int(i == j)) for j in range(2)] for i in range(2)]
    assert covector_transport(eye, "left", omega_e) == omega_e
    assert covector_transport(eye, "right", omega_e) == omega_e


def test_transport_left_p1_display(frame_p1):
    # sum over i,j of (-1)^i (A[i,2j] da[i,2j-1] + A[i,2j-1] da[i,2j])
    omega_e = frame_p1.omega.evaluate_coefficients(identity_point(2))
    got = covector_transport(symbolic_matrix(2), "left", omega_e)
    expected_terms = {}
    for i in (1, 2):
        sign = -1 if i % 2 else 1  # (-1)^i
        expected_terms[((i, 1),)] = frame_p1.minors[(i, 2)] * sign
        expected_terms[((i, 2),)] = frame_p1.minors[(i, 1)] * sign
    assert got == Form(2, 1, expected_terms)


def test_transport_right_p1_display(frame_p1):
    # sum over i,j of (-1)^(j-1) (A[2i,j] da[2i-1,j] + A[2i-1,j] da[2i,j])
    omega_e = frame_p1.omega.evaluate_coefficients(identity_point(2))
    got = covector_transport(symbolic_matrix(2), "right", omega_e)
    expected_terms = {}
    for j in (1, 2):
        sign = 1 if j % 2 else -1  # (-1)^(j-1)
        expected_terms[((1, j),)] = frame_p1.minors[(2, j)] * sign
        expected_terms[((2, j),)] = frame_p1.minors[(1, j)] * sign
    assert got == Form(2, 1, expected_terms)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=2))
def test_d_squared_is_zero(seed, degree):
    f = rand_form(random.Random(seed), degree)
    assert ext_d(ext_d(f)).is_zero


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
def test_graded_anticommutativity(seed, d1, d2):
    rng = random.Random(seed)
    f, g = rand_form(rng, d1), rand_form(rng, d2)
    lhs = wedge(f, g)
    rhs = wedge(g, f)
    if (d1 * d2) % 2:
        rhs = -rhs
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
def test_leibniz_rule(seed, d1, d2):
    rng = random.Random(seed)
    f, g = rand_form(rng, d1), rand_form(rng, d2)
    lhs = ext_d(wedge(f, g))
    rhs = wedge(ext_d(f), g)
    second = wedge(f, ext_d(g))
    rhs = rhs + (-second if d1 % 2 else second)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
)
def test_interior_antiderivation(seed, d1, d2):
    rng = random.Random(seed)
    x = rand_vfield(rng)
    f, g = rand_form(rng, d1), rand_form(rng, d2)
    lhs = interior_product(x, wedge(f, g))
    rhs = wedge(interior_product(x, f), g)
    second = wedge(f, interior_product(x, g))
    rhs = rhs + (-second if d1 % 2 else second)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=2))
def test_lie_derivative_commutes_with_d(seed, degree):
    rng = random.Random(seed)
    x = rand_vfield(rng)
    f = rand_form(rng, degree)
    assert lie_derivative(x, ext_d(f)) == ext_d(lie_derivative(x, f))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_bracket_jacobi(seed):
    rng = random.Random(seed)
    x, y, z = (rand_vfield(rng) for _ in range(3))
    acc = vf_bracket(x, vf_bracket(y, z))
    acc = acc + vf_bracket(y, vf_bracket(z, x))
    acc = acc + vf_bracket(z, vf_bracket(x, y))
    assert acc.is_zero


def test_interior_squares_to_zero():
    rng = random.Random(12)
    for _ in range(10):
        x = rand_vfield(rng)
        f = rand_form(rng, 2)
        assert interior_product(x, interior_product(x, f)).is_zero


# -- contraction and linear combinations against pairwise Form sums -------------


def pairwise_interior(x: VField, f: Form) -> Form:
    """i(X)f term by term: one Poly product and one Form sum per generator met."""
    acc = Form.zero(f.size, f.degree - 1)
    for gens, coeff in f.terms.items():
        for i, var in enumerate(gens):
            if var in x.coeffs:
                rest = gens[:i] + gens[i + 1:]
                acc = acc + Form(f.size, f.degree - 1, {rest: coeff * x.coeffs[var] * (-1) ** i})
    return acc


@pytest.mark.parametrize("size", [2, 3])
def test_interior_product_matches_the_pairwise_reference(size):
    rng = random.Random(190 + size)
    for trial in range(60):
        degree = 1 + trial % 3
        f = rand_form(rng, degree, size) * Fraction(rng.randint(1, 5), rng.choice((1, 2, 3, 7)))
        x = rand_vfield(rng, size) * Fraction(rng.randint(-4, 4), rng.choice((1, 5, 6)))
        result = interior_product(x, f)
        assert result == pairwise_interior(x, f) and result.degree == degree - 1
    # c1 dy + c2 dz (wedged with dw) contracted with c2 d/dy - c1 d/dz cancels on every mask
    y, z, w = (1, 2), (2, 1), (2, 2)
    for _ in range(10):
        c1, c2 = (rand_poly(rng, 2) * Fraction(rng.randint(1, 5), rng.choice((2, 3))) for _ in "12")
        x = VField(2, {y: c2, z: -c1})
        for f in (Form(2, 1, {(y,): c1, (z,): c2}), Form(2, 2, {(y, w): c1, (z, w): c2}),
                  Form(2, 3, {((1, 1), y, w): c1, ((1, 1), z, w): c2})):
            result = interior_product(x, f)
            assert result.is_zero and result == pairwise_interior(x, f)
