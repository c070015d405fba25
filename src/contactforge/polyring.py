"""Sparse multivariate polynomials with exact rational coefficients.

Variables are the entries a[r,c] of an ambient n x n coordinate matrix,
identified by 1-based (row, col) pairs. Polynomials are immutable after
construction and two polynomials are equal iff their term maps coincide, so
all comparisons in the symbolic layer are exact.

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
A coefficient is an int when it is integral and a fractions.Fraction
otherwise; str() renders both alike, so reports do not depend on the
representation. constant_value() and evaluate() always return Fraction.

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


def _coeff(value) -> int | Fraction:
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _normalize(terms: dict) -> bool:
    """Turn integral Fraction coefficients into ints in place; True if a Fraction is left."""
    frac = False
    for m, c in terms.items():
        if type(c) is not int:
            if c.denominator == 1:
                terms[m] = c.numerator
            else:
                frac = True
    return frac


def _poly(size: int, terms: dict, frac: bool) -> "Poly":
    p = object.__new__(Poly)
    p.size = size
    p._terms = terms
    p._frac = frac
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

    __slots__ = ("size", "_terms", "_frac")

    def __init__(self, size: int, terms: Mapping[Monomial, Fraction] | None = None):
        if size < 1:
            raise DimensionError(f"ambient matrix size must be >= 1, got {size}")
        self.size = size
        clean: dict[int, int | Fraction] = {}
        if terms:
            lay = _layout(size)
            for mono, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff:
                    key = lay.encode(mono)
                    acc = clean.get(key, 0) + coeff
                    if acc:
                        clean[key] = acc
                    else:
                        del clean[key]
        self._terms = clean
        self._frac = _normalize(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, size: int) -> "Poly":
        return cls(size)

    @classmethod
    def const(cls, size: int, value) -> "Poly":
        if size < 1:
            raise DimensionError(f"ambient matrix size must be >= 1, got {size}")
        value = _coeff(value)
        return _poly(size, {0: value} if value else {}, type(value) is not int)

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
        return TermView(self._terms, lay.decode, lay.encode)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[0])

    def variables(self) -> set[Var]:
        return _layout(self.size).variables(reduce(or_, self._terms, 0))

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        """Terms in canonical (descending graded row-major lex) order."""
        decode = _layout(self.size).decode
        terms = self._terms
        return [(decode(m), terms[m]) for m in sorted(terms, reverse=True)]

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms)
        return _layout(self.size).decode(mono), self._terms[mono]

    # -- ring operations -----------------------------------------------------

    def _check_size(self, other: "Poly") -> None:
        if self.size != other.size:
            raise DimensionError(f"ambient sizes differ: {self.size} vs {other.size}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly) and isinstance(other, Scalar):
            other = Poly.const(self.size, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.size == other.size and self._terms == other._terms

    __hash__ = None

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly) and isinstance(other, Scalar):
            other = Poly.const(self.size, other)
        self._check_size(other)
        small, big = self._terms, other._terms
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
        frac = (self._frac or other._frac) and _normalize(out)
        return _poly(self.size, out, frac)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.size, {m: -c for m, c in self._terms.items()}, self._frac)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly) and isinstance(other, Scalar):
            other = Poly.const(self.size, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) and isinstance(other, Scalar):
            value = _coeff(other)
            if not value:
                return Poly.zero(self.size)
            out = {m: c * value for m, c in self._terms.items()}
            frac = (self._frac or type(value) is not int) and _normalize(out)
            return _poly(self.size, out, frac)
        self._check_size(other)
        # the shorter factor drives the outer loop; the budget is checked
        # after every row, so a product holds at most the budget plus the
        # longer factor's terms
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        if not small:
            return Poly.zero(self.size)
        shift = _layout(self.size).degree_shift
        degree = (max(small) >> shift) + (max(big) >> shift)
        if degree > MAX_DEGREE:
            raise TermLimitError(f"polynomial product of degree {degree} exceeds {MAX_DEGREE}")
        limit = config.get_max_terms()
        out: dict[int, int | Fraction] = {}
        get = out.get
        row = list(big.items())
        for m1, c1 in small.items():
            for m2, c2 in row:
                key = m1 + m2
                acc = get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
            if len(out) > limit:
                raise TermLimitError(f"polynomial product reached {len(out)} terms (budget {limit})")
        frac = (self._frac or other._frac) and _normalize(out)
        return _poly(self.size, out, frac)

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
        frac = self._frac and _normalize(out)
        return _poly(self.size, out, frac)

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
        by_degree: dict[int, int | Fraction] = {}
        for m, coeff in self._terms.items():
            exps = lay.exponents(m)
            for i in used:
                e = exps[i]
                if e:
                    coeff *= scaled[i] ** e
            by_degree[exps[0]] = by_degree.get(exps[0], 0) + coeff
        return sum((Fraction(s) / denom ** k for k, s in by_degree.items()), Fraction(0))

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


def _cofactor_det(mat: list[list[Poly]], rows: tuple[int, ...], cols: tuple[int, ...],
                  memo: dict) -> Poly:
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    size = mat[0][0].size
    if len(rows) == 1:
        result = mat[rows[0]][cols[0]]
    else:
        result = Poly.zero(size)
        r0 = rows[0]
        rest_rows = rows[1:]
        for idx, c in enumerate(cols):
            entry = mat[r0][c]
            if entry.is_zero:
                continue
            sub = _cofactor_det(mat, rest_rows, cols[:idx] + cols[idx + 1:], memo)
            term = entry * sub
            result = result + term if idx % 2 == 0 else result - term
    memo[key] = result
    return result


def determinant(mat: list[list[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix.

    Constant matrices go through linalg.det (fraction-free elimination); symbolic
    matrices use cofactor expansion with memoized minors (sizes in scope stay
    at or below 6).
    """
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise DimensionError("determinant requires a non-empty square matrix")
    size = mat[0][0].size
    if any(entry.size != size for row in mat for entry in row):
        raise DimensionError("matrix entries live over different ambient sizes")
    if all(entry.is_constant for row in mat for entry in row):
        value = linalg.det([[e._terms.get(0, 0) for e in row] for row in mat])
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


def divmod_principal(p: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Multivariate division of p by the single divisor f: returns (q, r).

    Uses the graded row-major lex order. For a single divisor the remainder
    is unique, and r = 0 iff p lies in the principal ideal (f). The working
    terms sit in a heap of packed monomials; every term subtracted is below
    the one being divided, so a monomial is never divided twice, and heap
    entries whose term cancelled are skipped when popped.
    """
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.size != f.size:
        raise DimensionError(f"ambient sizes differ: {p.size} vs {f.size}")
    guard = _layout(p.size).guard
    lt = max(f._terms)
    lc = f._terms[lt]
    tail = [(m, c) for m, c in f._terms.items() if m != lt]
    quotient: dict[int, int | Fraction] = {}
    remainder: dict[int, int | Fraction] = {}
    work = dict(p._terms)
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
        if type(coeff) is int and type(lc) is int:
            qc = coeff // lc if coeff % lc == 0 else Fraction(coeff, lc)
        else:
            qc = coeff / lc
        quotient[qm] = qc
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
    return (_poly(p.size, quotient, _normalize(quotient)),
            _poly(p.size, remainder, _normalize(remainder)))


def reduce_mod_principal(p: Poly, f: Poly) -> Poly:
    """Remainder of p modulo the principal ideal (f)."""
    return divmod_principal(p, f)[1]


def exact_divide(p: Poly, f: Poly) -> Poly:
    """Quotient p / f when the division is exact; raises ValueError otherwise."""
    q, r = divmod_principal(p, f)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q
