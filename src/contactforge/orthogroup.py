"""Induced forms on SO(n): the quadratic constraint system, the constraint
volume form, and the exact SO(3) contact verification.

The orthogonality constraints f[k,l] = sum_j a[j,k] a[j,l] - delta(k,l) cut
SO(n) out of the ambient matrix space. A 1-form is contact on SO(n) exactly
when wedging it and its differential with the constraint volume Theta_n
produces a nonvanishing top form on the variety; that top coefficient is a
polynomial, so the check is exact at rational sample points.

Orientation note. Theta_n depends on the order of its n(n+1)/2 factors only
through a global sign. This module builds it in ascending row-wise order of
the index pairs (1,1) < (1,2) < ... < (n,n), with the conventional 1/2 weight
on the diagonal differentials so that the coefficient matrix reproduces the
standard displayed Jacobian. Under this orientation the SO(3) identity comes
out as phi ^ dphi ^ Theta_3 = +det * V; the quoted endpoint -det * V
corresponds to the opposite orientation of the constraint volume (an odd
permutation of the factors). Both values are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError
from .exterior import Form, ext_d, wedge
from .polyring import Poly, row_major_vars, sum_of_products, symbolic_matrix
from .report import CONFIRMED, REPORTED_ONLY, VerifyReport
from .slcontact import matrix_point, sample_group_point


def constraint_order(n: int) -> list[tuple[int, int]]:
    return [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]


@dataclass
class SOConstraints:
    """Constraints f[k,l], their differentials, Theta_n and the Jacobian."""

    n: int
    f: dict[tuple[int, int], Poly]
    rows: list[Form]  # d f[k,l] in ascending order, halved on the diagonal
    theta: Form
    jacobian: list[list[Poly]]  # n(n+1)/2 x n^2, columns in row-major variable order


def so_constraint_system(n: int) -> SOConstraints:
    if n < 2:
        raise ParameterError("so constraint system needs n >= 2")
    size = n
    a = symbolic_matrix(n)

    constraints = {
        (k, l): sum_of_products(size, [(1, row[k - 1], row[l - 1]) for row in a]) - int(k == l)
        for k, l in constraint_order(n)
    }

    rows: list[Form] = []
    for k, l in constraint_order(n):
        d = ext_d(Form.from_poly(constraints[(k, l)]))
        if k == l:
            d = d * Fraction(1, 2)
        rows.append(d)

    theta = rows[0]
    for row in rows[1:]:
        theta = wedge(theta, row)

    columns = row_major_vars(n)
    jacobian = [
        [row.coefficient((var,)) for var in columns]
        for row in rows
    ]
    return SOConstraints(n=n, f=constraints, rows=rows, theta=theta, jacobian=jacobian)


def induced_one_form(n: int) -> Form:
    """The left-invariant extension of da[1,2]: phi = sum_i a[i,1] da[i,2]."""
    size = n
    return Form(
        size,
        1,
        {((i, 2),): Poly.variable(size, i, 1) for i in range(1, n + 1)},
    )


@dataclass
class InducedFormReport:
    """Exact top-form data for the SO(3) contact check."""

    n: int
    phi: Form
    top_coefficient: Poly
    sample_values: list[Fraction]
    oriented_values: list[Fraction]
    offvariety_value: Fraction
    is_contact_at_samples: bool
    report: VerifyReport = field(default=None)


def so3_contact_check(samples: int = 50, seed: int = 0) -> InducedFormReport:
    """Evaluate the 9-form coefficient of phi ^ dphi ^ Theta_3 at SO(3) points.

    The coefficient restricted to the variety is det up to the orientation of
    Theta_3: +1 per sample in ascending factor order, -1 under the reversed
    orientation that reproduces the quoted -det * V endpoint.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    system = so_constraint_system(3)
    phi = induced_one_form(3)
    top = wedge(wedge(phi, ext_d(phi)), system.theta)
    vol = row_major_vars(3)
    stray = [g for g in top.terms if g != vol]
    rep = VerifyReport("so3-check", {"samples": samples, "seed": seed})
    rep.check("top form is supported on the volume tuple only", stray, [], "derived")
    coeff = top.coefficient(vol)

    values: list[Fraction] = []
    constraint_failures = []
    for k in range(samples):
        point_mat = sample_group_point("SO", 3, seed * 100003 + k)
        point = matrix_point(point_mat)
        if any(f.evaluate(point) != 0 for f in system.f.values()):
            constraint_failures.append(k)
        values.append(coeff.evaluate(point))
    oriented = [-v for v in values]

    rep.check(
        f"all constraints vanish exactly at {samples} sampled SO(3) points",
        constraint_failures,
        [],
        "definition",
    )
    rep.check(
        "phi ^ dphi ^ Theta_3 = +det * V at every sample (ascending factor order)",
        [v for v in values if v != 1],
        [],
        "derived",
        note="det = 1 on SO(3), so the coefficient evaluates to +1",
    )
    rep.check(
        "quoted endpoint -det * V reproduced under the reversed orientation of Theta_3",
        [v for v in oriented if v != -1],
        [],
        "derived",
        note="the orientation of the constraint volume is the only free sign",
    )
    rep.add(
        "quoted identity phi ^ dphi ^ Theta_3 = -det * V with ascending factor order",
        "+det * V",
        "-det * V",
        "claimed",
        REPORTED_ONLY,
        note=(
            "the quoted minor expansion applies cofactor-style signs (+,-,+) where "
            "the complementary-split signs are (-,+,-); the endpoint therefore "
            "holds for the orientation-reversed constraint volume"
        ),
    )

    contact = all(abs(v) == 1 for v in values)
    rep.check(
        "induced form is contact at every sample (|coefficient| = 1 there)",
        contact,
        True,
        "claimed",
    )

    off_mat = [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1, 2)],
    ]
    off_value = coeff.evaluate(matrix_point(off_mat))
    rep.add(
        "coefficient at a non-orthogonal point diag(2, 1, 1/2)",
        off_value,
        None,
        "definition",
        CONFIRMED,
        note="reported only; off the variety nothing is claimed",
    )

    return InducedFormReport(
        n=3,
        phi=phi,
        top_coefficient=coeff,
        sample_values=values,
        oriented_values=oriented,
        offvariety_value=off_value,
        is_contact_at_samples=contact,
        report=rep,
    )
