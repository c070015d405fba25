"""Exact linear algebra over rational matrices (lists of lists).

A matrix entry is an int or a Fraction; callers that accumulate over the
integers (the Lie-algebra pairing and ad matrices) hand in int entries
wherever a value is integral. mat_mul takes dense dot products, so an entry
is an int when its row and column are all ints, and det_adj returns ints for
all-int input, else Fractions: a rational matrix held as an int matrix over
one denominator (slcontact's sampled points) needs no Fraction. One
fraction-free (Bareiss) elimination over the integers serves rank, rref
(and through it nullspace) and det/adj: rows are scaled to integers by the
lcm of their denominators once, in one helper, which copies an all-int row
as it is. rank eliminates forward only; rref and det/adj also clear above
each pivot. The matrices in scope are small (tens of rows), so clarity
beats asymptotics. Nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Mat = list[list[int | Fraction]]
Vec = list[int | Fraction]


def identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Product A B by dense dot products; an entry is an int when its row of A
    and column of B are all ints."""
    assert all(len(r) == len(b) for r in a)  # zip would truncate a short row
    columns = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _integer_rows(a: Mat) -> tuple[list[list[int]], int, bool]:
    """Each row times the lcm of its denominators; returns (integer rows,
    product of the lcms, whether every row was all ints).

    An all-int row has lcm 1 and is copied unchanged.
    """
    rows = []
    scale = 1
    ints = True
    for row in a:
        if all(type(x) is int for x in row):
            rows.append(list(row))
            continue
        ints = False
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
    return rows, scale, ints


def _eliminate(m: list[list[int]], jordan: bool) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place.

    At the pivot of row r and column c, each updated row becomes
    (pivot * row - row[c] * pivot row) / previous pivot. The division is exact
    even when columns are skipped, since every entry stays a minor of m
    (Bareiss 1968; Nakos, Turner & Williams 1997 for the Gauss-Jordan form). With jordan the rows above the pivot are cleared too, over
    the whole row, so every pivot row ends with the last pivot in its pivot
    column. Without it only the rows below are updated, right of c: rank
    needs no more, and clearing above measured 2.5x slower on the
    Cartan-class rank calls. Returns (pivot columns, parity sign of the row
    swaps, last pivot).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        row_r = m[r]
        pivot = row_r[c]
        for i in range(0 if jordan else r + 1, rows):
            if i == r:
                continue
            row_i = m[i]
            f = row_i[c]
            for j in range(0 if i < r else c + 1, cols):
                row_i[j] = (row_i[j] * pivot - f * row_r[j]) // prev
            row_i[c] = 0
        pivots.append(c)
        prev = pivot
        r += 1
    return pivots, sign, prev


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (non-destructive); returns (R, pivot columns)."""
    m = _integer_rows(a)[0]
    pivots, _, last = _eliminate(m, True)
    zero = Fraction(0)
    cols = len(m[0]) if m else 0
    red = [[Fraction(x, last) for x in row] for row in m[:len(pivots)]]
    return red + [[zero] * cols for _ in m[len(pivots):]], pivots


def rank(a: Mat) -> int:
    """Exact rank, by forward fraction-free elimination of the rows scaled to integers."""
    return len(_eliminate(_integer_rows(a)[0], False)[0])


def det_adj(a: Mat) -> tuple[int | Fraction, Mat | None]:
    """det(A) and adj(A) from one fraction-free Gauss-Jordan elimination of [A | I].

    The rows of [A | I] are scaled to integers, the identity block with them.
    A is singular, giving (0, None), unless the pivots are the first n
    columns. Then the left block ends as d I and the right block as d A^-1,
    so det(A) = sign * d / scale and adj(A) = sign * right / scale, sign
    being the parity of the row swaps and scale the product of the row lcms.
    Both are ints when every entry of A is an int, else Fractions.
    """
    n = len(a)
    m, scale, ints = _integer_rows([[*row, *(int(j == i) for j in range(n))] for i, row in enumerate(a)])
    pivots, sign, last = _eliminate(m, True)
    exact = (lambda v: v) if ints else (lambda v: Fraction(v, scale))
    if pivots[:n] != list(range(n)):
        return exact(0), None
    return exact(sign * last), [[exact(sign * x) for x in row[n:]] for row in m]


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the exact kernel of A."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis

