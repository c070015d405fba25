"""SO(n) constraint system and the SO(3) contact verification."""

from fractions import Fraction
from itertools import combinations

import pytest

from contactforge.errors import ParameterError
from contactforge.orthogroup import (
    constraint_order,
    induced_one_form,
    phi_transport_difference,
    so3_contact_check,
    so_constraint_system,
    theta_coefficient_via_minors,
)
from contactforge.polyring import Poly, row_major_vars
from contactforge.report import REPORTED_ONLY
from contactforge.slcontact import (
    identity_point,
    matrix_point,
    sample_group_point,
)
from contactforge.exterior import wedge

F = Fraction


def a(i, j, n=3):
    return Poly.variable(n, i, j)


def test_constraint_n2():
    system = so_constraint_system(2)
    assert system.f[(1, 1)] == a(1, 1, 2) * a(1, 1, 2) + a(2, 1, 2) * a(2, 1, 2) - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constraints_match_the_pairwise_build(n):
    system = so_constraint_system(n)
    assert list(system.f) == constraint_order(n)
    for k, l in constraint_order(n):
        acc = Poly.zero(n)
        for j in range(1, n + 1):
            acc = acc + a(j, k, n) * a(j, l, n)
        if k == l:
            acc = acc - 1
        assert system.f[(k, l)] == acc


def test_constraint_count_and_theta_degree():
    system = so_constraint_system(3)
    assert len(system.f) == 6
    assert system.theta.degree == 6


def test_jacobian_first_row():
    system = so_constraint_system(3)
    expected = [a(1, 1), Poly.zero(3), Poly.zero(3), a(2, 1), Poly.zero(3), Poly.zero(3), a(3, 1), Poly.zero(3), Poly.zero(3)]
    assert system.jacobian[0] == expected


def test_jacobian_matches_reference_matrix():
    """Entry-for-entry match with the quoted 6x9 coefficient matrix."""
    system = so_constraint_system(3)
    z = Poly.zero(3)
    reference = [
        [a(1, 1), z, z, a(2, 1), z, z, a(3, 1), z, z],
        [a(1, 2), a(1, 1), z, a(2, 2), a(2, 1), z, a(3, 2), a(3, 1), z],
        [a(1, 3), z, a(1, 1), a(2, 3), z, a(2, 1), a(3, 3), z, a(3, 1)],
        [z, a(1, 2), z, z, a(2, 2), z, z, a(3, 2), z],
        [z, a(1, 3), a(1, 2), z, a(2, 3), a(2, 2), z, a(3, 3), a(3, 2)],
        [z, z, a(1, 3), z, z, a(2, 3), z, z, a(3, 3)],
    ]
    assert system.jacobian == reference


def test_row_symmetry_in_the_two_columns():
    # d f[k,l] carries a[j,l] on da[j,k] and a[j,k] on da[j,l]
    system = so_constraint_system(3)
    order = constraint_order(3)
    for row, (k, l) in zip(system.rows, order):
        if k == l:
            continue
        for j in (1, 2, 3):
            assert row.coefficient(((j, k),)) == a(j, l)
            assert row.coefficient(((j, l),)) == a(j, k)


def test_theta_coefficients_equal_jacobian_minors():
    """Two computation paths, one answer, for every maximal column subset."""
    system = so_constraint_system(3)
    columns = row_major_vars(3)
    for subset in combinations(columns, 6):
        wedge_coeff = system.theta.coefficient(subset)
        minor_coeff = theta_coefficient_via_minors(system, subset)
        assert wedge_coeff == minor_coeff


def test_so3_check_values():
    result = so3_contact_check(samples=12, seed=4)
    assert result.sample_values == [F(1)] * 12
    assert result.oriented_values == [F(-1)] * 12
    assert result.is_contact_at_samples
    assert result.report.ok
    verdicts = {c.anchor: c.verdict for c in result.report.claims}
    assert (
        verdicts["quoted identity phi ^ dphi ^ Theta_3 = -det * V with ascending factor order"]
        == REPORTED_ONLY
    )


def test_so3_coefficient_at_identity():
    result = so3_contact_check(samples=1, seed=0)
    assert result.top_coefficient.evaluate(identity_point(3)) == 1


def test_so3_offvariety_value_reported():
    result = so3_contact_check(samples=1, seed=0)
    pt = matrix_point([[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1, 2)]])
    assert result.offvariety_value == result.top_coefficient.evaluate(pt)


def test_phi_is_left_invariant_on_so3():
    diff = phi_transport_difference(3)
    system = so_constraint_system(3)
    assert not diff.is_zero  # off the variety the extensions differ
    wedged = wedge(diff, system.theta)
    for seed in range(10):
        pt = matrix_point(sample_group_point("SO", 3, seed))
        assert all(c.evaluate(pt) == 0 for c in diff.terms.values())
        assert all(c.evaluate(pt) == 0 for c in wedged.terms.values())


def test_constraints_vanish_only_on_variety():
    system = so_constraint_system(3)
    pt = matrix_point([[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1, 2)]])
    assert any(f.evaluate(pt) != 0 for f in system.f.values())


def test_bad_size_raises():
    with pytest.raises(ParameterError):
        so_constraint_system(1)


def test_induced_form_shape():
    phi = induced_one_form(3)
    assert phi.degree == 1
    assert set(phi.terms) == {((1, 2),), ((2, 2),), ((3, 2),)}
