"""Exact linear algebra over Fraction matrices (lists of lists).

Plain Gaussian elimination everywhere: the matrices in scope are small
(dimension at most 36), so clarity beats asymptotics. Nothing here ever
touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Mat = list[list[Fraction]]
Vec = list[Fraction]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Product A B, accumulated row by row over the nonzero entries only."""
    inner, cols = len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for x, row_b in zip(row, b):
            if x:
                for j, y in enumerate(row_b):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (non-destructive); returns (R, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
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


def _int_rank(m: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
    return r


def rank(a: Mat) -> int:
    """Exact rank; each row is scaled by the lcm of its denominators to integers."""
    if not a:
        return 0
    scaled = []
    for row in a:
        lcm = math.lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (lcm // x.denominator) for x in row])
    return _int_rank(scaled)


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of A x = b, or None when inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


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


def inverse(a: Mat) -> Mat | None:
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def residual(red: Mat, pivots: list[int], v: Vec) -> Vec:
    """v minus the combination of the rows of an rref that agrees with v on the pivots.

    `red, pivots` is the output of rref(A). Each pivot row has 1 in its pivot
    column and 0 in the others, so reducing v by the rows in turn leaves a
    vector that is zero exactly when v lies in the row space of A. Eliminate
    A once with rref and call this for every vector to be tested.
    """
    out = list(v)
    for row, c in zip(red, pivots):
        f = out[c]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return out


def in_row_space(a: Mat, v: Vec) -> bool:
    """True if v is a rational combination of the rows of A (one rref, then residual)."""
    red, pivots = rref(a)
    return not any(residual(red, pivots, v))
