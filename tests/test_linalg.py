"""Exact rational linear algebra helpers."""

import itertools
import random
from fractions import Fraction

import pytest

from contactforge import linalg


def reference_rref(a):
    """Gauss-Jordan over Fractions, sharing no code with linalg's integer elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


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


def test_inverse():
    rng = random.Random(7)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 4, 4)
        d, adj = linalg.det_adj(m)
        if not d:
            continue
        found += 1
        inv = [[x / d for x in row] for row in adj]
        assert linalg.mat_mul(m, inv) == linalg.identity(4)
        assert linalg.mat_mul(inv, m) == linalg.identity(4)


def leibniz_det(m):
    """Sum over permutations, sharing no code with the elimination routines."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_det_adj_matches_leibniz_and_rref_inverse():
    rng = random.Random(17)
    swaps = singular = 0
    for n in range(1, 7):
        for trial in range(12):
            m = rand_matrix(rng, n, n)
            if trial % 4 == 1:  # zero first column: singular
                for row in m:
                    row[0] = Fraction(0)
            elif trial % 4 == 2 and n > 1:  # zero corner: the first step swaps rows
                m[0][0] = Fraction(0)
            elif trial % 4 == 3 and n > 1:  # a repeated row: singular
                m[-1] = list(m[0])
            det, adj = linalg.det_adj(m)
            assert det == leibniz_det(m)
            red, pivots = reference_rref([row + linalg.identity(n)[i] for i, row in enumerate(m)])
            if det == 0:
                singular += 1
                assert adj is None
                assert pivots[:n] != list(range(n))
                continue
            swaps += m[0][0] == 0
            assert pivots[:n] == list(range(n))
            assert adj == [[det * x for x in row[n:]] for row in red]
            assert [[x / det for x in row] for row in adj] == [row[n:] for row in red]
    assert swaps >= 5 and singular >= 10


def test_det_adj_of_integer_entries():
    det, adj = linalg.det_adj([[0, 2], [3, 4]])
    assert det == -6
    assert adj == [[4, -2], [-3, 0]]


def test_det_adj_gives_ints_for_int_entries_and_fractions_otherwise():
    rng = random.Random(23)
    kinds = {True: 0, False: 0}
    for trial in range(120):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1:  # a repeated row: singular
            m[-1] = list(m[0])
        fractions = trial % 2 == 1
        if fractions:  # one entry a Fraction, possibly integral
            m[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
        det, adj = linalg.det_adj(m)
        assert det == leibniz_det(m)
        kind = Fraction if fractions else int
        assert type(det) is kind
        assert adj is None or all(type(x) is kind for row in adj for x in row)
        kinds[adj is None] += 1
    assert min(kinds.values()) >= 20, kinds


def test_bareiss_rank_matches_rref_rank():
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols, lo=-6, hi=6)
        if rng.random() < 0.5:  # force rank deficiency sometimes
            k = rng.randrange(rows)
            scale = Fraction(rng.randint(-2, 2))
            m[k] = [scale * x for x in m[0]]
        assert linalg.rank(m) == len(reference_rref(m)[1])


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
    zero_lines = all_int = 0
    for trial in range(180):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        if trial % 3 == 1:  # 1 x n times n x m
            rows = 1
        elif trial % 3 == 2:  # n x m times m x 1
            cols = 1
        a, b = _mixed_matrix(rng, rows, inner), _mixed_matrix(rng, inner, cols)
        if rng.random() < 0.5:  # an all-zero row of A or of B, or column of B
            line = rng.randrange(3)
            if line == 0:
                a[rng.randrange(rows)] = [0] * inner
            elif line == 1:
                b[rng.randrange(inner)] = [Fraction(0)] * cols
            else:
                j = rng.randrange(cols)
                for row in b:
                    row[j] = 0
            zero_lines += 1
        product = linalg.mat_mul(a, b)
        dense = [
            [sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)]
            for i in range(rows)
        ]
        assert product == dense
        if not any(type(x) is Fraction for m in (a, b) for row in m for x in row):
            assert all(type(x) is int for row in product for x in row)
            all_int += 1
    assert zero_lines >= 60 and all_int >= 10


def test_mat_mul_refuses_mismatched_shapes():
    # zip would truncate the longer side and return a wrong product
    for a, b in (([[1, 2]], [[1], [2], [3]]), ([[1, 2, 3]], [[1], [2]]), ([[1], [1, 2]], [[1, 2]])):
        with pytest.raises(AssertionError):
            linalg.mat_mul(a, b)


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
        assert linalg.rank(m) == len(reference_rref(m)[1])
    assert linalg.rank([[0, 0], [Fraction(0), 0]]) == 0


def reference_nullspace(a, cols):
    red, pivots = reference_rref(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def test_elimination_entry_points_match_the_reference_rref():
    rng = random.Random(29)
    shapes = {"deficient": 0, "zero_line": 0, "thin": 0, "empty": 0, "singular": 0}
    for trial in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = trial % 6
        if kind == 1:  # 1 x n
            rows = 1
        elif kind == 2:  # n x 1
            cols = 1
        elif kind == 3:  # square, for det_adj and inverse
            cols = rows
        elif kind == 4:  # no rows, or rows of length zero
            rows, cols = rng.choice(((0, 0), (rng.randint(1, 3), 0)))
        m = _mixed_matrix(rng, rows, cols)
        if rows >= 3 and rng.random() < 0.5:  # a rational combination of two rows
            u, v = Fraction(rng.randint(-3, 3), rng.randint(1, 5)), rng.randint(-2, 2)
            m[rng.randrange(2, rows)] = [u * x + v * y for x, y in zip(m[0], m[1])]
            shapes["deficient"] += 1
        if rows and cols and rng.random() < 0.3:  # an all-zero row or column
            if rng.random() < 0.5:
                m[rng.randrange(rows)] = [0] * cols
            else:
                j = rng.randrange(cols)
                for row in m:
                    row[j] = Fraction(0)
            shapes["zero_line"] += 1
        shapes["thin"] += rows == 1 or cols == 1
        shapes["empty"] += rows == 0 or cols == 0
        red, pivots = reference_rref(m)
        assert linalg.rref(m) == (red, pivots)
        assert linalg.rank(m) == len(pivots)
        assert linalg.nullspace(m) == reference_nullspace(m, cols)
        if rows == cols and rows <= 5:
            det, adj = linalg.det_adj(m)
            assert det == leibniz_det(m)
            aug, aug_pivots = reference_rref(
                [list(row) + linalg.identity(rows)[i] for i, row in enumerate(m)])
            if aug_pivots[:rows] != list(range(rows)):
                shapes["singular"] += 1
                assert det == 0 and adj is None
                continue
            inv = [row[rows:] for row in aug]
            assert [[Fraction(x) / det for x in row] for row in adj] == inv  # int adj for int m
            assert adj == [[det * x for x in row] for row in inv]
    assert min(shapes.values()) >= 20, shapes


def test_int_rows_give_the_results_of_the_same_rows_as_fractions():
    # all-int rows skip the rescaling; every entry point must not notice
    rng = random.Random(31)
    zero_rows = 0
    for trial in range(300):
        rows = rng.randint(1, 6)
        cols = rows if trial % 2 else rng.randint(1, 6)
        m = [[rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.4:
            m[rng.randrange(rows)] = [0] * cols
            zero_rows += 1
        if rows >= 3 and rng.random() < 0.4:  # an integer combination of two rows
            u, v = rng.randint(-3, 3), rng.randint(-2, 2)
            m[rng.randrange(2, rows)] = [u * x + v * y for x, y in zip(m[0], m[1])]
        if rows >= 2 and rng.random() < 0.3:  # one row of Fractions among int rows
            k = rng.randrange(rows)
            m[k] = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
        before = [list(row) for row in m]
        fractions = [[Fraction(x) for x in row] for row in m]
        assert linalg.rank(m) == linalg.rank(fractions)
        assert linalg.rref(m) == linalg.rref(fractions)
        if rows == cols:
            assert linalg.det_adj(m) == linalg.det_adj(fractions)
        assert m == before and all(type(x) is type(y) for r, s in zip(m, before)
                                   for x, y in zip(r, s))
    assert zero_rows >= 60
    assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert linalg.rref([[0, 2], [0, 0]]) == ([[0, 1], [0, 0]], [1])
    assert linalg.det_adj([[0, 0], [1, 2]]) == (0, None)
