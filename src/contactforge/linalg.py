"""Exact linear algebra over Fraction matrices (lists of lists).

Gaussian elimination everywhere: rref over Fractions, and fraction-free
(Bareiss) elimination over integers for rank, det and the adjugate. The
matrices in scope are small (dimension at most 36), so clarity beats
asymptotics. Nothing here ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Mat = list[list[Fraction]]
Vec = list[Fraction]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Product A B, accumulated over the integers on the nonzero entries only.

    Row k of B is scaled to integers by the lcm d_k of its denominators (once,
    on first use). In each row of A the nonzero x_k / d_k are put on one
    common denominator D, the integer weights times the integer rows of B are
    summed, and one Fraction(sum, D) is built per nonzero output entry.
    """
    inner, cols = len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    scaled: list = [None] * inner  # row k of B as (d_k, [(j, d_k * B[k][j]) if nonzero])
    zero = Fraction(0)
    out = []
    for row in a:
        terms = []
        for k, x in enumerate(row):
            if x:
                if scaled[k] is None:
                    nz = [(j, y) for j, y in enumerate(b[k]) if y]
                    lcm = math.lcm(*(y.denominator for _, y in nz))
                    scaled[k] = (lcm, [(j, y.numerator * (lcm // y.denominator)) for j, y in nz])
                lcm, entries = scaled[k]
                terms.append((x.numerator, x.denominator * lcm, entries))
        common = math.lcm(*(d for _, d, _ in terms))
        acc = [0] * cols
        for num, d, entries in terms:
            w = num * (common // d)
            for j, y in entries:
                acc[j] += w * y
        out.append([Fraction(v, common) if v else zero for v in acc])
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
    """Rank by fraction-free (Bareiss) elimination over the integers.

    Forward elimination only: the Gauss-Jordan loop of det_adj, which also
    clears above each pivot, measured 2.5x slower on the Cartan-class rank calls.
    """
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


def det_adj(a: Mat) -> tuple[Fraction, Mat | None]:
    """det(A) and adj(A) from one fraction-free Gauss-Jordan elimination of [A | I].

    Rows of [A | I] are scaled to integers by their lcms, whose product is
    `scale`. Step k sets every other row to (pivot * row - row[k] * pivot row)
    / previous pivot, an exact division (Bareiss 1968). At the end the left
    block is d I and the right block d A^-1, so det(A) = sign * d / scale and
    adj(A) = sign * right / scale, sign being the parity of the row swaps.
    A singular A gives (0, None).
    """
    n = len(a)
    scale = 1
    m = []
    for i, row in enumerate(a):
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        m.append([x.numerator * (lcm // x.denominator) for x in row]
                 + [lcm if j == i else 0 for j in range(n)])
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], row_k)]
        prev = pivot
    return (
        Fraction(sign * prev, scale),
        [[Fraction(sign * x, scale) for x in row[n:]] for row in m],
    )


def det(a: Mat) -> Fraction:
    """Exact determinant of a square matrix (through det_adj)."""
    return det_adj(a)[0]


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
    """Exact inverse adj(A) / det(A), or None when A is singular."""
    d, adj = det_adj(a)
    if not d:
        return None
    return [[x / d for x in row] for row in adj]


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
