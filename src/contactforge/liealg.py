"""Lie algebras by structure constants and the Cartan class of dual forms.

Two independent computations of the class are provided and cross-checked in
the test suite: a linear-algebra route (rank of the bracket pairing matrix
plus a row-space membership test) and a wedge route (constant-coefficient
exterior algebra on the dual). The wedge route shares no code with the rank
route: it never calls linalg. It builds the divided powers
(d alpha)^[k] = (d alpha)^k / k! over the integers in a single chain, one
Pfaffian expansion step per power, and wedges alpha once with the last
nonzero power; dividing by k! changes no coefficient from zero to nonzero or
back, so the class is the one the plain powers give. Surveys draw seeded
random covectors and score them against the classical bounds.
"""

from __future__ import annotations

import itertools
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
    the Jacobi identity is validated on construction.
    """

    dim: int
    brackets: dict[tuple[int, int], dict[int, Fraction]]
    label: str = ""

    def __post_init__(self):
        for (i, j), comp in self.brackets.items():
            if not (1 <= i < j <= self.dim):
                raise InvalidAlgebraError(f"bracket key ({i},{j}) out of range for dim {self.dim}")
            for k in comp:
                if not (1 <= k <= self.dim):
                    raise InvalidAlgebraError(f"bracket target e_{k} out of range")
        _validate_jacobi(self)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def ad_matrix(self, x: list[Fraction]) -> linalg.Mat:
        """Matrix of ad(x): column j is [x, e_j], accumulated per bracket key."""
        n = self.dim
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), comp in self.brackets.items():
            xi, xj = x[i - 1], x[j - 1]
            for k, c in comp.items():
                if xi:
                    m[k - 1][j - 1] += xi * c
                if xj:
                    m[k - 1][i - 1] -= xj * c
        return m


def _validate_jacobi(g: LieAlg) -> None:
    """Check the Jacobi identity on every triple e_i, e_j, e_k with i < j < k.

    Integral structure constants are checked over the ints, so only tables
    with fractional constants (from `file:` algebras) run on Fractions.
    """
    table: dict[tuple[int, int], list[tuple[int, int | Fraction]]] = {}
    for (i, j), comp in g.brackets.items():
        items = [(k, v.numerator if v.denominator == 1 else v) for k, v in comp.items()]
        table[(i, j)] = items
        table[(j, i)] = [(k, -v) for k, v in items]

    for i, j, k in itertools.combinations(range(1, g.dim + 1), 3):
        # the cyclic sum of [e_a, [e_b, e_c]], through the sparse tables only
        acc: dict[int, int | Fraction] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in table.get((b, c), ()):
                for t, inner in table.get((a, m), ()):
                    acc[t] = acc.get(t, 0) + coeff * inner
        bad = {t: v for t, v in acc.items() if v}
        if bad:
            raise InvalidAlgebraError(f"Jacobi identity fails on (e_{i}, e_{j}, e_{k}): {bad}")


# -- builders -----------------------------------------------------------------


def _from_matrix_basis(basis: list[list[list[Fraction]]], coords, label: str) -> LieAlg:
    """Structure constants from an explicit matrix basis and a coordinate map."""
    dim = len(basis)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = linalg.mat_sub(
                linalg.mat_mul(basis[i], basis[j]), linalg.mat_mul(basis[j], basis[i])
            )
            comp = {k + 1: v for k, v in enumerate(coords(comm)) if v}
            if comp:
                brackets[(i + 1, j + 1)] = comp
    return LieAlg(dim, brackets, label)


def _unit_matrix(n: int, r: int, c: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == r and j == c)) for j in range(n)] for i in range(n)]


def sl_basis_indices(n: int) -> list[tuple[int, int]]:
    """Basis order for sl(n): diagonal frame (k,k), k < n, then off-diagonal row-major."""
    idx = [(k, k) for k in range(1, n)]
    idx += [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    return idx


def sl_algebra(n: int) -> LieAlg:
    """sl(n) in the elementary-matrix frame E[k,k] - E[n,n] and E[k,l]."""
    if n < 2:
        raise InvalidAlgebraError("sl(n) needs n >= 2")
    basis = []
    for (k, l) in sl_basis_indices(n):
        if k == l:
            m = _unit_matrix(n, k - 1, k - 1)
            m[n - 1][n - 1] = Fraction(-1)
            basis.append(m)
        else:
            basis.append(_unit_matrix(n, k - 1, l - 1))
    order = sl_basis_indices(n)
    pos = {kl: t for t, kl in enumerate(order)}

    def coords(m):
        out = [Fraction(0)] * len(order)
        for (k, l), t in pos.items():
            if k == l:
                out[t] = m[k - 1][k - 1]
            else:
                out[t] = m[k - 1][l - 1]
        return out

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
    """B[i][j] = alpha([e_i, e_j]) = -d(alpha)(e_i, e_j)."""
    n = g.dim
    b = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), comp in g.brackets.items():
        value = sum((alpha[k - 1] * c for k, c in comp.items()), Fraction(0))
        if value:
            b[i - 1][j - 1] = value
            b[j - 1][i - 1] = -value
    return b


def cartan_class(g: LieAlg, alpha: Covector) -> int:
    """Cartan class via exact rank and row-space membership.

    With r = rank(B), the class is r when alpha lies in the row space of B
    (equivalently alpha kills the radical of d(alpha)) and r + 1 otherwise.
    """
    if len(alpha) != g.dim:
        raise InvalidAlgebraError(f"covector length {len(alpha)} != dim {g.dim}")
    if not any(alpha):
        return 0
    b = pairing_matrix(g, alpha)
    r = linalg.rank(b)
    # membership in the row space as a rank condition: appending alpha as an
    # extra row leaves the rank unchanged iff alpha is a combination of rows
    member = linalg.rank(b + [list(alpha)]) == r
    return r if member else r + 1


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


def _pairs_below(d_alpha: dict[int, int], dim: int) -> list[list[tuple[int, int, int]]]:
    """below[t] lists (mask, high bit, coeff) of the terms of d(alpha) whose low index is < t."""
    by_low: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
    for mask, c in d_alpha.items():
        low = mask & -mask
        by_low[low.bit_length() - 1].append((mask, mask ^ low, c))
    below = [[]]
    for pairs in by_low:
        below.append(below[-1] + pairs)
    return below


def _next_divided_power(
    power: dict[int, int], below: list[list[tuple[int, int, int]]]
) -> dict[int, int]:
    """omega^[k+1] from omega^[k], where omega^[k] = omega^k / k! and below = _pairs_below(omega).

    The coefficient of e_S in omega^[k] is the Pfaffian of omega restricted to
    S. A term e_i ^ e_j of omega meets a term e_T of omega^[k] only when i is
    below every generator of T, which is the Pfaffian expansion of S = T + {i, j}
    along its first index: each perfect matching is counted once. Moving e_j
    into place passes the generators of T below j, which gives the sign.
    """
    out: dict[int, int] = {}
    for mask, coeff in power.items():
        for pair, high, c in below[(mask & -mask).bit_length() - 1]:
            if mask & high:
                continue
            value = c * coeff
            if (mask & (high - 1)).bit_count() & 1:
                value = -value
            key = mask | pair
            out[key] = out.get(key, 0) + value
    for key in [key for key, v in out.items() if not v]:
        del out[key]
    return out


def cartan_class_wedge(g: LieAlg, alpha: Covector) -> int:
    """Cartan class via wedge powers in the constant exterior algebra on the dual.

    d(alpha) = -sum_{i<j} alpha([e_i, e_j]) e_i* ^ e_j*; the class is 2p+1 when
    alpha ^ (d alpha)^p survives at the largest p with (d alpha)^p nonzero,
    else 2p. The class is invariant under scaling, so denominators are cleared
    up front and all wedge arithmetic runs over the integers.

    The powers are taken as divided powers (d alpha)^[k] = (d alpha)^k / k!,
    whose coefficients are the Pfaffians of the principal 2k-minors of the
    coefficient matrix of d alpha. Over the rationals k! is a unit, so
    (d alpha)^[k] vanishes exactly when (d alpha)^k does, and alpha ^ (d alpha)^[p]
    exactly when alpha ^ (d alpha)^p does. Each step counts every perfect
    matching once instead of k+1 times (see _next_divided_power), and the
    chain is built once: the last nonzero power is kept for the final wedge
    with alpha. The route uses neither linalg nor a rank, so it stays
    independent of cartan_class, which the tests cross-check it against.
    """
    if len(alpha) != g.dim:
        raise InvalidAlgebraError(f"covector length {len(alpha)} != dim {g.dim}")
    a_form, d_alpha = _integer_forms(g, alpha)
    if not a_form:
        return 0
    below = _pairs_below(d_alpha, g.dim)
    best_p = 0
    last = {0: 1}
    power = d_alpha
    while power:
        best_p += 1
        last = power
        power = _next_divided_power(power, below)
    # alpha ^ last: moving e_a into place passes the generators of the term below a
    top: dict[int, int] = {}
    for mask, coeff in last.items():
        for bit, a in a_form.items():
            if mask & bit:
                continue
            value = a * coeff
            if (mask & (bit - 1)).bit_count() & 1:
                value = -value
            top[mask | bit] = top.get(mask | bit, 0) + value
    return 2 * best_p + 1 if any(top.values()) else 2 * best_p


# -- surveys -------------------------------------------------------------------


@dataclass
class ClassSurvey:
    """Histogram of sampled Cartan classes scored against the classical bounds."""

    label: str
    samples: int
    seed: int
    rank_hint: int
    histogram: dict[int, int]
    upper_bound: int
    max_observed: int
    min_observed: int
    upper_bound_ok: bool
    parity_checked: bool
    parity_all_odd: bool | None
    lower_bound_reference: int
    generic_rank_estimate: int
    notes: list[str] = field(default_factory=list)


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
    survey = ClassSurvey(
        label=g.label,
        samples=samples,
        seed=seed,
        rank_hint=rank_hint,
        histogram=dict(sorted(histogram.items())),
        upper_bound=upper,
        max_observed=max_obs,
        min_observed=min_obs,
        upper_bound_ok=max_obs <= upper,
        parity_checked=parity_relevant,
        parity_all_odd=(all(c % 2 == 1 for c in histogram) if parity_relevant else None),
        lower_bound_reference=2 * rank_hint,
        generic_rank_estimate=rank_estimate,
    )
    survey.notes.append(
        f"min observed class {min_obs} vs reference lower bound {2 * rank_hint} "
        "(reported, not asserted: sampling bounds the maximum, not the minimum)"
    )
    if rank_estimate != rank_hint:
        survey.notes.append(
            f"generic centralizer estimate {rank_estimate} differs from rank hint {rank_hint}"
        )
    return survey
