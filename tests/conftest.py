"""Shared helpers and hypothesis strategies for the suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from contactforge import linalg
from contactforge.polyring import Poly, determinant


def rand_poly(rng: random.Random, size: int, max_terms: int = 4, max_deg: int = 2) -> Poly:
    """Small random polynomial over the size x size matrix entries."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = {}
        for _ in range(rng.randint(0, max_deg)):
            var = (rng.randint(1, size), rng.randint(1, size))
            mono[var] = mono.get(var, 0) + 1
        key = tuple((r, c, e) for (r, c), e in sorted(mono.items()))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return Poly(size, terms)


def ref_minor(mat: list[list[Poly]], i: int, j: int) -> Poly:
    """Unsigned minor (1-based): a fresh determinant of mat without row i and
    column j, by linalg.det_adj when every entry left is constant."""
    n, size = len(mat), mat[0][0].size
    sub = [[mat[r][c] for c in range(n) if c != j - 1] for r in range(n) if r != i - 1]
    if not sub:
        return Poly.const(size, 1)
    if all(e.is_constant for row in sub for e in row):
        return Poly.const(size, linalg.det_adj([[e.constant_term() for e in row] for row in sub])[0])
    return determinant(sub)


def poly_strategy(size: int = 2, max_terms: int = 4, max_deg: int = 2):
    """Hypothesis strategy producing small exact polynomials."""
    return st.integers(min_value=0, max_value=2**30).map(
        lambda s: rand_poly(random.Random(s), size, max_terms, max_deg)
    )


def poly_eval_float(p: Poly, point: dict) -> float:
    total = 0.0
    for mono, coeff in p.terms.items():
        value = float(coeff)
        for r, c, e in mono:
            value *= point[(r, c)] ** e
        total += value
    return total


@pytest.fixture(scope="session")
def frame_p1():
    from contactforge.slcontact import build_frame

    return build_frame(1)


@pytest.fixture(scope="session")
def frame_p2():
    from contactforge.slcontact import build_frame

    return build_frame(2)


@pytest.fixture(scope="session")
def frame_p3():
    from contactforge.slcontact import build_frame

    return build_frame(3)
