"""Sparse multivariate polynomials with exact rational coefficients.

Variables are the entries a[r,c] of an ambient n x n coordinate matrix,
identified by 1-based (row, col) pairs. Polynomials are immutable after
construction and two polynomials are equal iff their denominators and term
maps coincide, so all comparisons in the symbolic layer are exact.

Monomials are packed into one int (after Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007). Each ambient size n has one layout of n*n + 1 fields of 8 bits: the
total degree is the most significant field, then the exponents of a[1,1],
a[1,2], ..., a[n,n] in row-major order. The layout is built on first use.
  * Multiplying monomials is integer addition, and the canonical term order
    (graded, then lexicographic on the row-major variable sequence) is plain
    int comparison; it drives leading-term selection in division and the
    deterministic ordering used by the serializers.
  * The top bit of every field is a guard bit, so exponents and the total
    degree are at most MAX_DEGREE = 127. A product that could pass the
    bound raises TermLimitError before any field overflows. With G the mask
    of guard bits, lt divides m iff ((m | G) - lt) & G == G.
Coefficients are ints over one denominator den > 0 coprime to them all
(after FLINT's fmpq_mpoly; den = 1 when integral), so equal polynomials have
equal (den, terms). The views give an int for an integral coefficient and a
Fraction otherwise; constant_value() and evaluate() always return Fraction.

The tuple form of a monomial, a row-major sorted tuple of (row, col,
exponent) triples with positive exponents, is what the constructor accepts
and what `terms`, `sorted_terms` and `leading_term` return.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_

from . import config, linalg
from .errors import DimensionError, IncompleteAssignmentError, TermLimitError

Var = tuple[int, int]
Monomial = tuple[tuple[int, int, int], ...]

MONOMIAL_ONE: Monomial = ()
MAX_DEGREE = 127

Scalar = (int, Fraction)


class _Layout:
    """Packing of the monomials over one ambient size."""

    __slots__ = ("size", "degree_shift", "guard", "vars", "shift")

    def __init__(self, size: int):
        count = size * size
        self.size = size
        self.degree_shift = 8 * count
        self.guard = int.from_bytes(b"\x80" * (count + 1), "big")
        self.vars = tuple((r, c) for r in range(1, size + 1) for c in range(1, size + 1))
        self.shift = {var: 8 * (count - 1 - i) for i, var in enumerate(self.vars)}

    def exponents(self, m: int) -> bytes:
        """Byte i + 1 is the exponent of the i-th row-major variable; byte 0 the degree."""
        return m.to_bytes(len(self.vars) + 1, "big")

    def decode(self, m: int) -> Monomial:
        return tuple((r, c, e) for (r, c), e in zip(self.vars, self.exponents(m)[1:]) if e)

    def encode(self, mono) -> int:
        packed = degree = 0
        for r, c, e in mono:
            shift = self.shift.get((r, c))
            if shift is None:
                raise DimensionError(f"variable a[{r},{c}] outside {self.size}x{self.size} matrix")
            if e < 0:
                raise ValueError(f"negative exponent in monomial {mono}")
            packed += e << shift
            degree += e
        if degree > MAX_DEGREE:
            raise TermLimitError(f"monomial degree {degree} exceeds {MAX_DEGREE}")
        return packed + (degree << self.degree_shift)

    def variables(self, m: int) -> set[Var]:
        return {var for var, e in zip(self.vars, self.exponents(m)[1:]) if e}


_LAYOUTS: dict[int, _Layout] = {}


def _layout(size: int) -> _Layout:
    lay = _LAYOUTS.get(size)
    if lay is None:
        lay = _LAYOUTS[size] = _Layout(size)
    return lay


def row_major_vars(size: int) -> tuple[Var, ...]:
    """The Var tuples a[1,1], a[1,2], ..., a[n,n] of one size, shared package-wide."""
    return _layout(size).vars


def _ratio(num: int, den: int) -> int | Fraction:
    """num / den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _scaled(terms: dict, k: int) -> dict:
    return terms if k == 1 else {m: c * k for m, c in terms.items()}


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise TermLimitError(f"polynomial product of degree {degree} exceeds {MAX_DEGREE}")


def _check_budget(count: int, limit: int) -> None:
    if count > limit:
        raise TermLimitError(f"polynomial product reached {count} terms (budget {limit})")


def _add_product(out: dict, f: dict, g: dict, scale: int, limit: int) -> None:
    """Add scale * f * g into out, for {packed monomial: int} terms f and g.

    The only product row loop of the module: the shorter factor drives the
    rows, and the term budget is checked after each row, so out ends at most
    one row of the longer factor past the budget. Zero sums stay in out for
    the caller to drop.
    """
    if len(f) > len(g):
        f, g = g, f
    get = out.get
    row = g.items() if len(f) == 1 else list(g.items())  # a list is faster to re-iterate
    for m1, c1 in f.items():
        c1 *= scale
        for m2, c2 in row:
            key = m1 + m2
            out[key] = get(key, 0) + c1 * c2
        _check_budget(len(out), limit)


def _poly(size: int, terms: dict, den: int = 1) -> "Poly":
    """{packed monomial: nonzero int} over den > 0, with the common factor cancelled."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    p = object.__new__(Poly)
    p.size = size
    p._terms = terms
    p._den = den
    return p


class TermView(Mapping):
    """Read-only view of Poly or Form terms under tuple keys; len() does not decode.
    A tuple `encode` rejects (DimensionError, ValueError, ...) is not a key."""

    __slots__ = ("_terms", "_decode", "_encode")

    def __init__(self, terms: dict, decode, encode):
        self._terms = terms
        self._decode = decode
        self._encode = encode

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return map(self._decode, self._terms)

    def __getitem__(self, key):
        try:
            return self._terms[self._encode(key)]
        except (DimensionError, TermLimitError, ValueError, TypeError):
            raise KeyError(key) from None

    def items(self):
        decode = self._decode
        return [(decode(m), c) for m, c in self._terms.items()]

    def values(self):
        return self._terms.values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self._terms):
            return False
        encode = self._encode
        try:
            encoded = {encode(k): c for k, c in other.items()}
        except (DimensionError, TermLimitError, ValueError, TypeError):
            return False
        return encoded == self._terms


class Poly:
    """Polynomial in the entries of an n x n coordinate matrix."""

    __slots__ = ("size", "_terms", "_den")

    def __init__(self, size: int, terms: Mapping[Monomial, Fraction] | None = None):
        if size < 1:
            raise DimensionError(f"ambient matrix size must be >= 1, got {size}")
        self.size = size
        clean: dict[int, int | Fraction] = {}
        if terms:
            lay = _layout(size)
            for mono, coeff in terms.items():
                if coeff:
                    key = lay.encode(mono)
                    coeff = coeff if type(coeff) is int else Fraction(coeff)
                    clean[key] = clean.get(key, 0) + coeff
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in clean.items() if c}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, size: int) -> "Poly":
        return cls(size)

    @classmethod
    def const(cls, size: int, value) -> "Poly":
        if size < 1:
            raise DimensionError(f"ambient matrix size must be >= 1, got {size}")
        value = value if type(value) is int else Fraction(value)
        return _poly(size, {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, size: int, row: int, col: int) -> "Poly":
        if not (1 <= row <= size and 1 <= col <= size):
            raise DimensionError(f"variable a[{row},{col}] outside {size}x{size} matrix")
        return cls(size, {((row, col, 1),): 1})

    # -- predicates and views ----------------------------------------------

    @property
    def terms(self) -> TermView:
        """The terms as a read-only {tuple monomial: coefficient} mapping."""
        lay = _layout(self.size)
        return TermView(self._coeffs(), lay.decode, lay.encode)

    def _coeffs(self) -> dict:
        den = self._den
        return self._terms if den == 1 else {m: _ratio(c, den) for m, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.constant_term())

    def constant_term(self) -> int | Fraction:
        """The coefficient of the monomial 1, 0 when there is none."""
        return _ratio(self._terms.get(0, 0), self._den)

    def variables(self) -> set[Var]:
        return _layout(self.size).variables(reduce(or_, self._terms, 0))

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        """Terms in canonical (descending graded row-major lex) order."""
        decode = _layout(self.size).decode
        terms = self._coeffs()
        return [(decode(m), terms[m]) for m in sorted(terms, reverse=True)]

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms)
        return _layout(self.size).decode(mono), _ratio(self._terms[mono], self._den)

    # -- ring operations -----------------------------------------------------

    def _check_size(self, other: "Poly") -> None:
        if self.size != other.size:
            raise DimensionError(f"ambient sizes differ: {self.size} vs {other.size}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly) and isinstance(other, Scalar):
            other = Poly.const(self.size, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.size == other.size and self._den == other._den and self._terms == other._terms

    __hash__ = None

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, Scalar):
                return NotImplemented
            other = Poly.const(self.size, other)
        self._check_size(other)
        small, big, den = self._terms, other._terms, self._den
        if den != other._den:
            den = math.lcm(den, other._den)
            small, big = _scaled(small, den // self._den), _scaled(big, den // other._den)
        if len(small) > len(big):
            small, big = big, small
        out = dict(big)
        get = out.get
        for m, c in small.items():
            acc = get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                del out[m]
        return _poly(self.size, out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.size, {m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, Scalar):
                return NotImplemented
            other = Poly.const(self.size, other)
        self._check_size(other)
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        if len(small) != 1:
            return sum_of_products(self.size, [(1, self, other)])
        # one term shifts the other factor's monomials: none meet, none cancels
        shift = _layout(self.size).degree_shift
        _check_degree((max(small) >> shift) + (max(big) >> shift))
        _check_budget(len(big), config.get_max_terms())
        [(m1, c1)] = small.items()
        return _poly(self.size, {m1 + m2: c1 * c2 for m2, c2 in big.items()}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.const(self.size, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and evaluation --------------------------------------------

    def diff(self, var: Var) -> "Poly":
        """Partial derivative with respect to a[r,c]."""
        lay = _layout(self.size)
        shift = lay.shift.get(var)
        if shift is None:
            return Poly.zero(self.size)
        # m -> m - unit is injective, so no two terms land on one monomial
        unit = (1 << lay.degree_shift) + (1 << shift)
        out = {}
        for m, c in self._terms.items():
            e = (m >> shift) & 0xFF
            if e:
                out[m - unit] = c * e
        return _poly(self.size, out, self._den)

    def directional(self, field: Mapping[Var, "Poly"]) -> "Poly":
        """Directional derivative sum_v field[v] * dp/dv, one sum_of_products.

        Variables absent from p are skipped before any partial is built.
        """
        shifts = _layout(self.size).shift
        used = reduce(or_, self._terms, 0)
        return sum_of_products(self.size, [
            (1, coeff, self.diff(var)) for var, coeff in field.items()
            if (shift := shifts.get(var)) is not None and (used >> shift) & 0xFF
        ])

    def evaluate(self, assignment: dict[Var, Fraction]) -> Fraction:
        """Exact value at a rational point; every occurring variable must be assigned."""
        lay = _layout(self.size)
        used = [i for i, e in enumerate(lay.exponents(reduce(or_, self._terms, 0))) if e and i]
        missing = [lay.vars[i - 1] for i in used if lay.vars[i - 1] not in assignment]
        if missing:
            raise IncompleteAssignmentError(f"no value for variables {missing}")
        values = [Fraction(assignment[lay.vars[i - 1]]) for i in used]
        # scale the point to integers by the lcm of its denominators and sum
        # the terms of each degree k over the integers; divide by denom^k once
        denom = math.lcm(*(x.denominator for x in values))
        scaled = {i: x.numerator * (denom // x.denominator) for i, x in zip(used, values)}
        by_degree: dict[int, int] = {}
        for m, coeff in self._terms.items():
            exps = lay.exponents(m)
            for i in used:
                e = exps[i]
                if e:
                    coeff *= scaled[i] ** e
            by_degree[exps[0]] = by_degree.get(exps[0], 0) + coeff
        den = self._den
        return sum((Fraction(s, denom ** k * den) for k, s in by_degree.items()), Fraction(0))

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if mono == MONOMIAL_ONE:
                parts.append(str(coeff))
                continue
            factors = "*".join(
                f"a[{r},{c}]" + (f"^{e}" if e > 1 else "") for r, c, e in mono
            )
            if coeff == 1:
                parts.append(factors)
            elif coeff == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{coeff}*{factors}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def symbolic_matrix(size: int) -> list[list[Poly]]:
    """The generic coordinate matrix (a[r,c]) as Poly entries."""
    return [
        [Poly.variable(size, r, c) for c in range(1, size + 1)]
        for r in range(1, size + 1)
    ]


def sum_of_products(size: int, items) -> Poly:
    """sum s * f * g over (int s, Poly f, Poly g), summed in one {packed monomial: int} dict.

    Poly.__mul__ sends every product here unless one factor has exactly one
    term. Each product is put over one lcm of the denominators, and zero sums
    are dropped once, at the end. The degree guard runs before each product,
    and the term budget is checked against the whole accumulator after every
    row of one, so the sum stops at most one row past the budget.
    """
    items = [(s, f, g) for s, f, g in items if s and f._terms and g._terms]
    if any(f.size != size or g.size != size for _, f, g in items):
        raise DimensionError(f"a factor does not live over ambient size {size}")
    common = math.lcm(*(f._den * g._den for _, f, g in items))
    shift = _layout(size).degree_shift
    limit = config.get_max_terms()
    out: dict[int, int] = {}
    for s, f, g in items:
        _check_degree((max(f._terms) >> shift) + (max(g._terms) >> shift))
        _add_product(out, f._terms, g._terms, s * (common // (f._den * g._den)), limit)
    return _poly(size, {m: c for m, c in out.items() if c}, common)


def _cofactor_det(mat: list[list[Poly]], rows: tuple[int, ...], cols: tuple[int, ...],
                  memo: dict) -> Poly:
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) == 1:
        result = mat[rows[0]][cols[0]]
    else:
        r0, rest = rows[0], rows[1:]
        result = sum_of_products(mat[0][0].size, [
            (-1 if idx % 2 else 1, mat[r0][c], _cofactor_det(mat, rest, cols[:idx] + cols[idx + 1:], memo))
            for idx, c in enumerate(cols) if not mat[r0][c].is_zero
        ])
    memo[key] = result
    return result


def _square_size(mat: list[list[Poly]]) -> int:
    """The ambient size of a non-empty square Poly matrix; DimensionError otherwise."""
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise DimensionError("determinant requires a non-empty square matrix")
    size = mat[0][0].size
    if any(entry.size != size for row in mat for entry in row):
        raise DimensionError("matrix entries live over different ambient sizes")
    return size


def determinant(mat: list[list[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix.

    Constant matrices go through linalg.det (fraction-free elimination); symbolic
    matrices use cofactor expansion with memoized minors (sizes in scope stay
    at or below 8).
    """
    n = len(mat)
    size = _square_size(mat)
    if all(entry.is_constant for row in mat for entry in row):
        value = linalg.det([[e.constant_term() for e in row] for row in mat])
        return Poly.const(size, value)
    idx = tuple(range(n))
    return _cofactor_det(mat, idx, idx, {})


def minor(mat: list[list[Poly]], i: int, j: int) -> Poly:
    """Unsigned minor: determinant after deleting row i and column j (1-based).

    Cofactor signs (-1)^(i+j) are the caller's business.
    """
    n = len(mat)
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionError(f"minor index ({i},{j}) outside {n}x{n} matrix")
    if n == 1:
        return Poly.const(mat[0][0].size, 1)
    sub = [
        [mat[r][c] for c in range(n) if c != j - 1]
        for r in range(n) if r != i - 1
    ]
    return determinant(sub)


def minor_table(mat: list[list[Poly]]) -> dict[Var, Poly]:
    """Every unsigned minor {(i, j): minor(mat, i, j)} (1-based), from one cofactor memo.

    The minors deleting different rows share the sub-determinants on the
    rows below both.
    """
    n = len(mat)
    size = _square_size(mat)
    if n == 1:
        return {(1, 1): Poly.const(size, 1)}
    memo: dict = {}
    idx = tuple(range(n))
    return {
        (i + 1, j + 1): _cofactor_det(mat, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:], memo)
        for i in range(n) for j in range(n)
    }


def divmod_principal(p: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Multivariate division of p by the single divisor f: returns (q, r).

    Uses the graded row-major lex order. For a single divisor the remainder
    is unique, and r = 0 iff p lies in the principal ideal (f). The working
    terms sit in a heap of packed monomials; every term subtracted is below
    the one being divided, so a monomial is never divided twice, and heap
    entries whose term cancelled are skipped when popped.
    Where f's leading coefficient does not divide a term of the int numerators,
    every working term is scaled until it does (never for det or det - 1).
    """
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.size != f.size:
        raise DimensionError(f"ambient sizes differ: {p.size} vs {f.size}")
    guard = _layout(p.size).guard
    lt = max(f._terms)
    lc = f._terms[lt]
    tail = [(m, c) for m, c in f._terms.items() if m != lt]
    quotient: dict[int, int] = {}
    remainder: dict[int, int] = {}
    work = dict(p._terms)
    scale = 1
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        mono = -heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if ((mono | guard) - lt) & guard != guard:
            remainder[mono] = coeff
            continue
        qm = mono - lt
        if coeff % lc:
            k = abs(lc) // math.gcd(coeff, lc)
            scale, coeff = scale * k, coeff * k
            for terms in (work, quotient, remainder):
                for m in terms:
                    terms[m] *= k
        qc = quotient[qm] = coeff // lc
        for fm, fc in tail:
            key = qm + fm
            acc = work.get(key)
            if acc is None:
                work[key] = -qc * fc
                heappush(heap, -key)
            else:
                acc -= qc * fc
                if acc:
                    work[key] = acc
                else:
                    del work[key]
    # scale * num(p) = quotient * num(f) + remainder, so p = q * f + r with these q, r
    den = p._den * scale
    return _poly(p.size, _scaled(quotient, f._den), den), _poly(p.size, remainder, den)


def reduce_mod_principal(p: Poly, f: Poly) -> Poly:
    """Remainder of p modulo the principal ideal (f)."""
    return divmod_principal(p, f)[1]


def exact_divide(p: Poly, f: Poly) -> Poly:
    """Quotient p / f when the division is exact; raises ValueError otherwise."""
    q, r = divmod_principal(p, f)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q
