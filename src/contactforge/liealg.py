"""Lie algebras by structure constants and the Cartan class of dual forms.

Two independent computations of the class are provided and cross-checked in
the test suite: a linear-algebra route (the rank of the bracket pairing
matrix with alpha appended as a row) and a wedge route that never calls
linalg. The rank route and the ad matrices accumulate over the integers on
one scaled table per algebra (the structure constants times the lcm of their
denominators, built with the algebra) and hand linalg int entries wherever a
value is integral. The wedge route scales the public brackets itself, never
reads that table, borders d(alpha) with alpha and eliminates it over the
integers one generator pair at a time, each live entry a Pfaffian on the
pivots plus two rows, by Knuth's overlapping-Pfaffian identity: O(dim^3)
steps instead of the 2^dim Pfaffians of the divided-power chain. Matrix
bases (sl, so) are int matrices and yield their structure constants from
only the products that can be nonzero. Surveys draw seeded random
covectors and score them against the classical bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import InvalidAlgebraError, ParameterError

Covector = tuple[Fraction, ...]


@dataclass(frozen=True)
class LieAlg:
    """Finite-dimensional Lie algebra given by sparse structure constants.

    brackets maps (i, j) with i < j (1-based) to {k: coefficient} so that
    [e_i, e_j] = sum_k coeff * e_k. Antisymmetry is built into the storage;
    the Jacobi identity is validated on construction. _int_table is
    (den, ((i, j, ((k, den * coeff), ...)), ...)), den the lcm of the
    coefficient denominators, so every entry is an int.
    """

    dim: int
    brackets: dict[tuple[int, int], dict[int, Fraction]]
    label: str = ""
    _int_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for (i, j), comp in self.brackets.items():
            if not (1 <= i < j <= self.dim):
                raise InvalidAlgebraError(f"bracket key ({i},{j}) out of range for dim {self.dim}")
            for k in comp:
                if not (1 <= k <= self.dim):
                    raise InvalidAlgebraError(f"bracket target e_{k} out of range")
        den = math.lcm(*(c.denominator for comp in self.brackets.values() for c in comp.values()))
        table = tuple(
            (i, j, tuple((k, c.numerator * (den // c.denominator)) for k, c in comp.items()))
            for (i, j), comp in self.brackets.items()
        )
        object.__setattr__(self, "_int_table", (den, table))
        _validate_jacobi(self)

    def ad_matrix(self, x: list[Fraction]) -> linalg.Mat:
        """Matrix of ad(x): column j is [x, e_j], accumulated per bracket key.

        Summed over the ints on the scaled table with x scaled once; an entry
        is an int when it is integral and a Fraction otherwise.
        """
        n = self.dim
        coords, scale = _integer_coords(x)
        den, table = self._int_table
        m = [[0] * n for _ in range(n)]
        for i, j, items in table:
            xi, xj = coords[i - 1], coords[j - 1]
            if xi or xj:
                for k, c in items:
                    row = m[k - 1]
                    row[j - 1] += xi * c
                    row[i - 1] -= xj * c
        return _over(m, den * scale)


def _integer_coords(x) -> tuple[list[int], int]:
    """x times the lcm of its denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for v in x))
    return [v.numerator * (scale // v.denominator) for v in x], scale


def _exact(v: int, d: int) -> int | Fraction:
    """v / d as an int when d divides v, else as a Fraction."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


def _over(m: list[list[int]], d: int) -> linalg.Mat:
    """The int matrix m divided by d, entry by entry as _exact does."""
    return m if d == 1 else [[_exact(v, d) for v in row] for row in m]


def _validate_jacobi(g: LieAlg) -> None:
    """Check the Jacobi identity on every triple e_i, e_j, e_k with i < j < k.

    A term [e_a,[e_b,e_c]] of the cyclic sum is zero unless (b, c) is a
    bracket key, so only the triples holding a key pair are summed, each
    from the first of its pairs (i,j), (i,k), (j,k) that is a key. The
    sum runs over the ints on g's scaled table: every term carries den^2, so
    the scaled sum is zero exactly when the true one is, and a failure reports
    the true values.
    """
    den, scaled = g._int_table
    # each bracket's items are stored once; the reversed pair reads them with sign -1
    table: dict[tuple[int, int], tuple[int, tuple]] = {}
    for i, j, items in scaled:
        table[i, j], table[j, i] = (1, items), (-1, items)

    for b, c in g.brackets:
        triples = [(b, c, a) for a in range(c + 1, g.dim + 1)]
        triples += [(b, a, c) for a in range(b + 1, c) if (b, a) not in table]
        triples += [(a, b, c) for a in range(1, b) if (a, b) not in table and (a, c) not in table]
        for i, j, k in triples:
            acc: dict[int, int] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                s1, outer = table.get((y, z), (1, ()))
                for m, coeff in outer:
                    s2, inner = table.get((x, m), (1, ()))
                    for t, v in inner:
                        acc[t] = acc.get(t, 0) + s1 * s2 * coeff * v
            if any(acc.values()):
                bad = {t: _exact(v, den * den) for t, v in sorted(acc.items()) if v}
                raise InvalidAlgebraError(f"Jacobi identity fails on (e_{i}, e_{j}, e_{k}): {bad}")


# -- builders -----------------------------------------------------------------


def _from_matrix_basis(basis: list[list[list[int]]], coords, label: str) -> LieAlg:
    """Structure constants from an explicit matrix basis and a linear coordinate map.

    coords is linear, so [A, B] has coordinates coords(AB) - coords(BA); only
    the coordinates where the two products differ are subtracted. AB is zero
    unless a nonzero column of A meets a nonzero row of B (row and column
    sets are bitmasks), so linalg.mat_mul computes only the products that can
    be nonzero, and a pair with neither is skipped. The basis matrices are
    int matrices, so every product is one, and each bracket component is
    made a Fraction once.
    """
    dim = len(basis)
    rows = [sum(1 << r for r, row in enumerate(m) if any(row)) for m in basis]
    cols = [sum(1 << c for c, col in enumerate(zip(*m)) if any(col)) for m in basis]
    zero = [0] * dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            meet_ab, meet_ba = cols[i] & rows[j], cols[j] & rows[i]
            if not (meet_ab or meet_ba):
                continue
            ab = coords(linalg.mat_mul(basis[i], basis[j])) if meet_ab else zero
            ba = coords(linalg.mat_mul(basis[j], basis[i])) if meet_ba else zero
            comp = {k + 1: Fraction(x - y) for k, (x, y) in enumerate(zip(ab, ba)) if x != y}
            if comp:
                brackets[(i + 1, j + 1)] = comp
    return LieAlg(dim, brackets, label)


def _unit_matrix(n: int, r: int, c: int) -> list[list[int]]:
    return [[int(i == r and j == c) for j in range(n)] for i in range(n)]


def sl_basis_indices(n: int) -> list[tuple[int, int]]:
    """Basis order for sl(n): diagonal frame (k,k), k < n, then off-diagonal row-major."""
    idx = [(k, k) for k in range(1, n)]
    idx += [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    return idx


def sl_algebra(n: int) -> LieAlg:
    """sl(n) in the elementary-matrix frame E[k,k] - E[n,n] and E[k,l]."""
    if n < 2:
        raise InvalidAlgebraError("sl(n) needs n >= 2")
    order = sl_basis_indices(n)
    basis = []
    for (k, l) in order:
        if k == l:
            m = _unit_matrix(n, k - 1, k - 1)
            m[n - 1][n - 1] = -1
            basis.append(m)
        else:
            basis.append(_unit_matrix(n, k - 1, l - 1))

    def coords(m):  # a traceless m has m[k][k] on E[k,k] - E[n,n]
        return [m[k - 1][l - 1] for k, l in order]

    return _from_matrix_basis(basis, coords, f"sl({n})")


def so_algebra(n: int) -> LieAlg:
    """so(n) on the skew basis E[i,j] - E[j,i], i < j.

    For n = 3 the axis rotation generators are used instead, so the brackets
    come out positively cyclic: [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2.
    """
    if n < 3:
        raise InvalidAlgebraError("so(n) needs n >= 3")
    if n == 3:
        jx = linalg.mat_sub(_unit_matrix(3, 2, 1), _unit_matrix(3, 1, 2))
        jy = linalg.mat_sub(_unit_matrix(3, 0, 2), _unit_matrix(3, 2, 0))
        jz = linalg.mat_sub(_unit_matrix(3, 1, 0), _unit_matrix(3, 0, 1))
        basis = [jx, jy, jz]

        def coords3(m):
            return [m[2][1], m[0][2], m[1][0]]

        return _from_matrix_basis(basis, coords3, "so(3)")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    basis = [
        linalg.mat_sub(_unit_matrix(n, i - 1, j - 1), _unit_matrix(n, j - 1, i - 1))
        for (i, j) in pairs
    ]

    def coords(m):
        return [m[i - 1][j - 1] for (i, j) in pairs]

    return _from_matrix_basis(basis, coords, f"so({n})")


def heisenberg_algebra(dim: int) -> LieAlg:
    """Heisenberg algebra of odd dimension 2p+1: [e_{2i-1}, e_{2i}] = e_dim."""
    if dim < 3 or dim % 2 == 0:
        raise InvalidAlgebraError("heisenberg algebra needs odd dimension >= 3")
    brackets = {
        (2 * i - 1, 2 * i): {dim: Fraction(1)} for i in range(1, (dim - 1) // 2 + 1)
    }
    return LieAlg(dim, brackets, f"heisenberg({dim})")


def _number(kind, text: str, where: str):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        noun = "an integer" if kind is int else "a rational"
        raise InvalidAlgebraError(f"{where}: {text!r} is not {noun}") from None


def algebra_from_file(path: str) -> LieAlg:
    """Parse the structure-constant text format.

    Header line `dim n` with n >= 1, then lines `i j k value` giving the e_k
    component of [e_i, e_j] for i < j; unlisted components are zero. Values
    are rationals. Any malformed line raises InvalidAlgebraError naming the
    path and the line number.
    """
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    dim = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidAlgebraError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{path}:{lineno}"
        if dim is None:
            if len(parts) != 2 or parts[0] != "dim":
                raise InvalidAlgebraError(f"{where}: expected header 'dim n'")
            dim = _number(int, parts[1], where)
            if dim < 1:
                raise InvalidAlgebraError(f"{where}: dim must be >= 1, got {dim}")
            continue
        if len(parts) != 4:
            raise InvalidAlgebraError(f"{where}: expected 'i j k value'")
        i, j, k = (_number(int, x, where) for x in parts[:3])
        if not i < j:
            raise InvalidAlgebraError(f"{where}: need i < j, got {i} {j}")
        brackets.setdefault((i, j), {})[k] = _number(Fraction, parts[3], where)
    if dim is None:
        raise InvalidAlgebraError(f"{path}: empty structure-constant file")
    return LieAlg(dim, brackets, f"file:{path}")


def build_algebra(kind: str, n: int | None = None) -> LieAlg:
    """Build one of the named families, or load `file:PATH`."""
    if kind.startswith("file:"):
        return algebra_from_file(kind[5:])
    if kind == "sl":
        return sl_algebra(n)
    if kind == "so":
        return so_algebra(n)
    if kind == "heisenberg":
        return heisenberg_algebra(n)
    raise InvalidAlgebraError(f"unknown algebra family {kind!r}")


# -- Cartan class --------------------------------------------------------------


def pairing_matrix(g: LieAlg, alpha: Covector) -> linalg.Mat:
    """B[i][j] = alpha([e_i, e_j]) = -d(alpha)(e_i, e_j).

    Summed over the ints on g's scaled table with alpha scaled once; an entry
    is an int when it is integral and a Fraction otherwise.
    """
    n = g.dim
    coords, scale = _integer_coords(alpha)
    den, table = g._int_table
    b = [[0] * n for _ in range(n)]
    for i, j, items in table:
        value = sum(coords[k - 1] * c for k, c in items)
        if value:
            b[i - 1][j - 1] = value
            b[j - 1][i - 1] = -value
    return _over(b, den * scale)


def cartan_class(g: LieAlg, alpha: Covector) -> int:
    """Cartan class via one exact rank: rank(B) with alpha appended as a row.

    B is skew, so r = rank(B) = rank d(alpha) is even, and the class is r when
    alpha lies in the row space of B (equivalently alpha kills the radical of
    d(alpha)) and r + 1 otherwise. Appending alpha as an extra row adds 1 to
    the rank exactly when alpha is outside the row space, so that rank is the
    class (0 for the zero covector).
    """
    if len(alpha) != g.dim:
        raise InvalidAlgebraError(f"covector length {len(alpha)} != dim {g.dim}")
    return linalg.rank(pairing_matrix(g, alpha) + [list(alpha)])


def _integer_forms(g: LieAlg, alpha: Covector) -> tuple[dict[int, int], dict[int, int]]:
    """alpha and d(alpha) with integer coefficients; generator sets are bitmasks.

    alpha is scaled by the lcm of its denominators and d(alpha) further by the
    lcm of the structure-constant denominators. Bit i stands for e_{i+1}*.
    """
    coeffs = [Fraction(x) for x in alpha]
    scale = math.lcm(*(x.denominator for x in coeffs))
    coords = [x.numerator * (scale // x.denominator) for x in coeffs]
    a_form = {1 << i: c for i, c in enumerate(coords) if c}
    lcm = math.lcm(*(c.denominator for comp in g.brackets.values() for c in comp.values()))
    d_alpha: dict[int, int] = {}
    for (i, j), comp in g.brackets.items():
        value = sum(coords[k - 1] * c.numerator * (lcm // c.denominator) for k, c in comp.items())
        if value:
            d_alpha[(1 << (i - 1)) | (1 << (j - 1))] = -value
    return a_form, d_alpha


def _pair_elimination(a_form: dict[int, int], d_alpha: dict[int, int], dim: int):
    """Fraction-free Pfaffian elimination of w = d(alpha) + alpha ^ e_0, e_0 last.

    Pivots only on pairs of the dim original generators. Yields (S, m) after
    t = 0, 1, 2, ... pivots, S the pivot sequence and m the skew matrix, updated
    in place: every entry (k, l) off S is then Pf(S, k, l), the Pfaffian of w
    on the ordered rows S, k, l, which is +- the coefficient of e_{S+{k,l}} in
    w^[t+1]. A pivot (i, j) updates each by Knuth's overlapping-Pfaffian identity
    Pf(S) Pf(S,i,j,k,l) = Pf(S,i,j) Pf(S,k,l) - Pf(S,i,k) Pf(S,j,l) + Pf(S,i,l) Pf(S,j,k),
    dividing exactly by the previous pivot Pf(S), as Bareiss does for determinants.
    """
    m = [[0] * (dim + 1) for _ in range(dim + 1)]
    for mask, c in d_alpha.items():
        low = mask & -mask
        i, j = low.bit_length() - 1, (mask ^ low).bit_length() - 1
        m[i][j], m[j][i] = c, -c
    for mask, c in a_form.items():
        i = mask.bit_length() - 1
        m[i][dim], m[dim][i] = c, -c
    live, pivots, prev = list(range(dim)), (), 1
    while True:
        yield pivots, m
        pivot = next(((i, j) for t, i in enumerate(live) for j in live[t + 1:] if m[i][j]), None)
        if pivot is None:
            return
        i, j = pivot
        mi, mj, p = m[i], m[j], m[i][j]
        live.remove(i)
        live.remove(j)
        rest = live + [dim]
        for t, k in enumerate(rest):
            for l in rest[t + 1:]:
                value = (p * m[k][l] - mi[k] * mj[l] + mi[l] * mj[k]) // prev
                m[k][l], m[l][k] = value, -value
        prev, pivots = p, pivots + pivot


def cartan_class_wedge(g: LieAlg, alpha: Covector) -> int:
    """Cartan class via Pfaffians of d(alpha) bordered by alpha, over the integers.

    The class is 2p+1 when alpha ^ (d alpha)^p survives at the largest p with
    (d alpha)^p nonzero, else 2p. It is invariant under scaling, so
    denominators are cleared up front. The coefficients of the divided power
    (d alpha)^[k] = (d alpha)^k / k! are the principal 2k-Pfaffians of d(alpha),
    and k! is a unit, so only which Pfaffians vanish matters. The bordered
    w = d(alpha) + alpha ^ e_0 has w^[k+1] = (d alpha)^[k+1] + (d alpha)^[k] ^ alpha ^ e_0.

    When _pair_elimination finds no original pair left nonzero after t pivots,
    the Schur complement of S in d(alpha), with entries Pf(S,k,l)/Pf(S), is
    zero: rank d(alpha) = 2t and (d alpha)^[t+1] = 0. The class is then 2t+1
    exactly when some border entry Pf(S,l,e_0), +- the coefficient of
    alpha ^ (d alpha)^[t] on S+{l}, is nonzero. That is O(dim^3) integer steps
    where the divided-power chain took about 2^(dim-1) Pfaffians. The route
    never calls linalg, so it stays independent of cartan_class.
    """
    if len(alpha) != g.dim:
        raise InvalidAlgebraError(f"covector length {len(alpha)} != dim {g.dim}")
    a_form, d_alpha = _integer_forms(g, alpha)
    if not a_form:
        return 0
    for pivots, m in _pair_elimination(a_form, d_alpha, g.dim):
        pass
    border = any(m[l][g.dim] for l in range(g.dim) if l not in pivots)
    return len(pivots) + 1 if border else len(pivots)


# -- surveys -------------------------------------------------------------------


@dataclass
class ClassSurvey:
    """Histogram of sampled Cartan classes scored against the classical bounds."""

    histogram: dict[int, int]
    upper_bound: int
    max_observed: int
    min_observed: int
    upper_bound_ok: bool
    parity_all_odd: bool | None
    lower_bound_reference: int
    generic_rank_estimate: int


def random_covector(g: LieAlg, rng: random.Random) -> Covector:
    """Nonzero covector with integer coordinates in [-9, 9]."""
    while True:
        coords = tuple(Fraction(rng.randint(-9, 9)) for _ in range(g.dim))
        if any(coords):
            return coords


def class_survey(g: LieAlg, rank_hint: int, samples: int, seed: int) -> ClassSurvey:
    if samples < 1 or rank_hint < 1:
        raise ParameterError("samples and rank must be >= 1")
    rng = random.Random(seed)
    histogram: dict[int, int] = {}
    rank_estimate = g.dim
    for _ in range(samples):
        alpha = random_covector(g, rng)
        cls = cartan_class(g, alpha)
        histogram[cls] = histogram.get(cls, 0) + 1
        x = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
        if any(x):
            centralizer_dim = g.dim - linalg.rank(g.ad_matrix(x))
            rank_estimate = min(rank_estimate, centralizer_dim)
    upper = g.dim - rank_hint + 1
    max_obs = max(histogram)
    min_obs = min(histogram)
    parity_relevant = g.label.startswith("so(") or g.label.startswith("heisenberg")
    return ClassSurvey(
        histogram=dict(sorted(histogram.items())),
        upper_bound=upper,
        max_observed=max_obs,
        min_observed=min_obs,
        upper_bound_ok=max_obs <= upper,
        parity_all_odd=(all(c % 2 == 1 for c in histogram) if parity_relevant else None),
        lower_bound_reference=2 * rank_hint,
        generic_rank_estimate=rank_estimate,
    )
