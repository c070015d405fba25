"""Determinants, minors and division remainders checked against sympy.

sympy is not a dependency of contactforge; these tests are skipped when it
is not installed. Generators are the matrix entries in row-major order, so
sympy's grlex order is the kernel's graded row-major lex order.
"""

import random
from fractions import Fraction

import pytest

from contactforge.polyring import Poly, determinant, divmod_principal, minor, symbolic_matrix

from conftest import rand_poly

sympy = pytest.importorskip("sympy")


def generators(n):
    return [sympy.Symbol(f"a{r}{c}") for r in range(1, n + 1) for c in range(1, n + 1)]


def to_sympy(p: Poly, gens):
    """The Poly as a sympy Poly over QQ, built from its tuple-monomial terms."""
    n = p.size
    terms = {}
    for mono, coeff in p.terms.items():
        exps = [0] * (n * n)
        for r, c, e in mono:
            exps[(r - 1) * n + (c - 1)] = e
        terms[tuple(exps)] = sympy.Rational(coeff.numerator, coeff.denominator)
    return sympy.Poly.from_dict(terms, *gens, domain="QQ") if terms else sympy.Poly(0, *gens, domain="QQ")


def test_generic_4x4_determinant_and_3x3_minors():
    gens = generators(4)
    mat = symbolic_matrix(4)
    ref = sympy.Matrix(4, 4, gens)
    assert to_sympy(determinant(mat), gens) == sympy.Poly(ref.det(), *gens, domain="QQ")
    for i in range(1, 5):
        for j in range(1, 5):
            expected = ref.minor_submatrix(i - 1, j - 1).det()
            assert to_sympy(minor(mat, i, j), gens) == sympy.Poly(expected, *gens, domain="QQ")


@pytest.mark.parametrize("n", [2, 3])
def test_division_by_det_and_det_minus_one_matches_sympy_reduced(n):
    gens = generators(n)
    delta = determinant(symbolic_matrix(n))
    rng = random.Random(40 + n)
    for divisor in (delta, delta - 1):
        f = to_sympy(divisor, gens).as_expr()
        for _ in range(8):
            p = (rand_poly(rng, n, max_terms=4, max_deg=2) * divisor
                 + rand_poly(rng, n, max_terms=6, max_deg=2) * rand_poly(rng, n, max_deg=3)
                 + rand_poly(rng, n) * Fraction(1, rng.randint(2, 5)))
            q, r = divmod_principal(p, divisor)
            quotients, ref_r = sympy.reduced(to_sympy(p, gens).as_expr(), [f], *gens,
                                             order="grlex")
            assert to_sympy(r, gens) == sympy.Poly(ref_r, *gens, domain="QQ")
            # sympy returns no quotient at all for a zero dividend
            assert to_sympy(q, gens) == sympy.Poly(sum(quotients), *gens, domain="QQ")
