"""Exact rational linear algebra helpers."""

import random
from fractions import Fraction

from contactforge import linalg


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


def test_rank_and_nullspace_consistency():
    rng = random.Random(5)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = linalg.rank(m)
        ns = linalg.nullspace(m)
        assert r + len(ns) == len(m[0])
        for v in ns:
            image = [sum(row[j] * v[j] for j in range(len(v))) for row in m]
            assert all(x == 0 for x in image)


def test_solve_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = linalg.solve(m, b)
        assert sol is not None
        check = [sum(m[i][j] * sol[j] for j in range(cols)) for i in range(rows)]
        assert check == b


def test_solve_inconsistent():
    m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve(m, [Fraction(1), Fraction(3)]) is None


def test_inverse():
    rng = random.Random(7)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 4, 4)
        inv = linalg.inverse(m)
        if inv is None:
            continue
        found += 1
        assert linalg.mat_mul(m, inv) == linalg.identity(4)
        assert linalg.mat_mul(inv, m) == linalg.identity(4)


def test_bareiss_rank_matches_rref_rank():
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols, lo=-6, hi=6)
        if rng.random() < 0.5:  # force rank deficiency sometimes
            k = rng.randrange(rows)
            scale = Fraction(rng.randint(-2, 2))
            m[k] = [scale * x for x in m[0]]
        assert linalg.rank(m) == len(linalg.rref(m)[1])


def test_in_row_space():
    m = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(-1)]]
    assert linalg.in_row_space(m, [Fraction(2), Fraction(3), Fraction(1)])
    assert not linalg.in_row_space(m, [Fraction(0), Fraction(0), Fraction(1)])


def _mixed_matrix(rng, rows, cols):
    """Zeros, plain ints and Fractions with assorted denominators."""
    pick = (
        lambda: 0,
        lambda: rng.randint(-5, 5),
        lambda: Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 7, 12))),
    )
    return [[rng.choice(pick)() for _ in range(cols)] for _ in range(rows)]


def test_mat_mul_equals_dense_triple_sum():
    rng = random.Random(17)
    for _ in range(60):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _mixed_matrix(rng, rows, inner), _mixed_matrix(rng, inner, cols)
        product = linalg.mat_mul(a, b)
        dense = [
            [sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)]
            for i in range(rows)
        ]
        assert product == dense
        assert all(type(x) is Fraction for row in product for x in row)


def test_rank_with_mixed_denominators_and_zero_rows():
    rng = random.Random(19)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _mixed_matrix(rng, rows, cols)
        for k in range(rows):
            roll = rng.random()
            if roll < 0.2:
                m[k] = [0] * cols
            elif roll < 0.5 and k >= 2:  # a rational combination of two earlier rows
                u, v = Fraction(rng.randint(-3, 3), rng.randint(1, 5)), rng.randint(-2, 2)
                m[k] = [u * x + v * y for x, y in zip(m[0], m[1])]
        assert linalg.rank(m) == len(linalg.rref(m)[1])
    assert linalg.rank([[0, 0], [Fraction(0), 0]]) == 0


def test_residual_after_one_rref_agrees_with_solving_the_transpose():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        if rows > 2:  # rank deficiency
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        red, pivots = linalg.rref(m)
        for _ in range(4):
            if rng.random() < 0.5:  # a combination of the rows, or anything
                coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rows)]
                v = [sum(c * row[j] for c, row in zip(coef, m)) for j in range(cols)]
            else:
                v = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            member = linalg.solve(linalg.transpose(m), v) is not None
            assert (not any(linalg.residual(red, pivots, v))) == member
            assert linalg.in_row_space(m, v) == member
