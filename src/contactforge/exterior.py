"""Differential forms and vector fields with polynomial coefficients.

Forms live on the ambient coordinate space of an n x n matrix: generators are
the differentials da[r,c], with Poly coefficients. Vector fields carry Poly
coefficients on the coordinate derivations. All values are immutable and every
operation is pure, so results are exact and reproducible.

Sign conventions, fixed once for the whole package:
  * generator order and the reference volume form V = da[1,1]^da[1,2]^...^da[n,n]
    are row-major;
  * d(P dxI) = sum_v (dP/dv) dv ^ dxI;
  * L_X(P dx1^...^dxk) = X(P) dx1^...^dxk + sum_i P dx1^...^d(X^xi)^...^dxk, the
    coordinate formula; the tests check it against the Cartan formula i(X)d + d i(X).

A Form keeps its terms as one {mask: Poly} dict (the blade bitmaps of Dorst,
Fontijne and Mann, Geometric Algebra for Computer Science, ch. 19): da[r,c] is
bit (r-1)*n + (c-1), so a mask's bits in increasing order are the row-major
generator tuple. Tuples appear only where the public constructor encodes them,
with its checks, and in the read-only `Form.terms` view. d and contraction set
or clear bit b with the sign of the parity of the mask's bits below b. One
mask and sign rule serves Poly forms and the float forms in `numeric`:
disjoint masks meet in their union, signed by the parity of the pairs
(i in m1, j in m2) with i > j, one int.bit_count per pair (see
`_above_parity`). `_wedge_masks` applies it to {mask: coeff} dicts in one
fused loop, the only wedge traversal: `numeric` runs it on source text to
generate one straight-line class kernel per layout of nonzero float terms,
with the same float operations in the same order.

When every coefficient of both factors is a constant Poly, as in the powers
(d omega)^k of the contact identity and in pointwise classes, `wedge` runs
the kernel on the int/Fraction scalars instead and wraps each distinct
nonzero sum once with Poly.const; any other product runs on the Poly
coefficients.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import config
from .errors import DegreeError, DimensionError, TermLimitError
from .polyring import Poly, Scalar, TermView, Var, minor_table, row_major_vars, sum_of_products


def _above_parity(mask: int) -> int:
    """Bit j is set when an odd number of mask's bits lie at or above j.

    For a mask m2 disjoint from m1 that counts, at each bit of m2, the bits
    of m1 above it, so the wedge sign is the parity of
    (_above_parity(m1) & m2).bit_count(). A suffix xor by doubling shifts.
    """
    width = mask.bit_length()
    shift = 1
    while shift < width:
        mask ^= mask >> shift
        shift <<= 1
    return mask


def _wedge_masks(f: dict, g: dict, limit: float = math.inf) -> dict:
    """Wedge of two {mask: coeff} forms with Poly, scalar or float coefficients.

    Coefficients are only multiplied, added, subtracted and negated: a
    product of odd sign opens its slot negated and is subtracted after, so
    coefficients that only format text trace the operations as source
    (`numeric`'s kernels). Zero sums stay in the result for the caller to
    drop. Raises TermLimitError once the result holds more than `limit`
    terms after a row of f.
    """
    out: dict = {}
    get = out.get
    row = list(g.items())
    for m1, c1 in f.items():
        above = _above_parity(m1)
        for m2, c2 in row:
            if m1 & m2:
                continue
            prod = c1 * c2
            key = m1 | m2
            acc = get(key)
            if (above & m2).bit_count() & 1:
                out[key] = -prod if acc is None else acc - prod
            else:
                out[key] = prod if acc is None else acc + prod
        if len(out) > limit:
            raise TermLimitError(f"wedge expansion reached {len(out)} terms (budget {limit})")
    return out


def _scalars(f: dict[int, Poly]) -> dict | None:
    """{mask: int or Fraction} when every coefficient is a constant Poly, else None."""
    out = {}
    for mask, coeff in f.items():
        if not coeff.is_constant:
            return None
        out[mask] = coeff.constant_term()
    return out


@functools.cache
def _bits(size: int) -> dict[Var, int]:
    """The mask bit of each generator da[r,c] of one matrix size."""
    return {var: 1 << i for i, var in enumerate(row_major_vars(size))}


def _encode(gens: tuple[Var, ...], n: int) -> int:
    """The mask of a generator tuple; DimensionError for a generator outside
    the n x n matrix, ValueError unless the tuple is strictly increasing."""
    bits = _bits(n)
    mask = 0
    for var in gens:
        bit = bits.get(var)
        if bit is None:
            raise DimensionError(f"generator outside the {n}x{n} matrix: {gens}")
        if bit <= mask:
            raise ValueError(f"generator tuple not strictly increasing: {gens}")
        mask |= bit
    return mask


def _decode(mask: int, gens: tuple[Var, ...]) -> tuple[Var, ...]:
    """The generator tuple of a mask, made of the shared Var tuples `gens`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(gens[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _accumulate(out: dict, key, value) -> None:
    """Add value into out[key], dropping the entry when the sum is zero."""
    acc = out.get(key)
    acc = value if acc is None else acc + value
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


def _sums(size: int, products: dict) -> dict[int, Poly]:
    """{key: [(s, f, g), ...]} -> {key: sum s * f * g}, keeping the nonzero sums."""
    return {key: acc for key, items in products.items()
            if not (acc := sum_of_products(size, items)).is_zero}


class Form:
    """Exterior form of fixed degree with Poly coefficients, kept as {mask: Poly}."""

    __slots__ = ("size", "degree", "_terms")

    def __init__(self, size: int, degree: int, terms: dict[tuple[Var, ...], Poly] | None = None):
        if degree < 0:
            raise DegreeError(f"negative form degree {degree}")
        self.size = size
        self.degree = degree
        clean: dict[int, Poly] = {}
        if terms:
            for gens, coeff in terms.items():
                if len(gens) != degree:
                    raise DegreeError(f"generator tuple {gens} does not match degree {degree}")
                mask = _encode(gens, size)
                if coeff.size != size:
                    raise DimensionError("coefficient ambient size mismatch")
                if not coeff.is_zero:
                    clean[mask] = coeff
        self._terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def _trusted(cls, size: int, degree: int, terms: dict[int, Poly]) -> "Form":
        """Wrap valid {mask: nonzero Poly} terms unchecked."""
        form = object.__new__(cls)
        form.size = size
        form.degree = degree
        form._terms = terms
        return form

    @classmethod
    def zero(cls, size: int, degree: int = 0) -> "Form":
        return cls(size, degree)

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls(p.size, 0, {(): p})

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> TermView:
        """The terms as a read-only {generator tuple: Poly} mapping."""
        size = self.size
        return TermView(self._terms, functools.partial(_decode, gens=row_major_vars(size)),
                        functools.partial(_encode, n=size))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check_compat(self, other: "Form") -> None:
        if self.size != other.size:
            raise DimensionError(f"ambient sizes differ: {self.size} vs {other.size}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.size != other.size:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_compat(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.degree != other.degree:
            raise DegreeError(f"cannot add forms of degree {self.degree} and {other.degree}")
        out = dict(self._terms)
        for mask, coeff in other._terms.items():
            _accumulate(out, mask, coeff)
        return Form._trusted(self.size, self.degree, out)

    def __neg__(self) -> "Form":
        return Form._trusted(self.size, self.degree, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        """Multiply by a Poly or a rational scalar."""
        if not isinstance(scalar, (Poly, *Scalar)):
            return NotImplemented
        factor = scalar if isinstance(scalar, Poly) else Poly.const(self.size, scalar)
        out = {m: prod for m, c in self._terms.items() if not (prod := c * factor).is_zero}
        return Form._trusted(self.size, self.degree, out)

    __rmul__ = __mul__

    def coefficient(self, gens: tuple[Var, ...]) -> Poly:
        return self.terms.get(gens, Poly.zero(self.size))

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise DegreeError(f"degree-{self.degree} form is not a scalar")
        return self._terms.get(0, Poly.zero(self.size))

    def evaluate_coefficients(self, point: dict[Var, Fraction]) -> "Form":
        """Same form with every coefficient evaluated at a rational point."""
        out = {}
        for mask, coeff in self._terms.items():
            value = coeff.evaluate(point)
            if value:
                out[mask] = Poly.const(self.size, value)
        return Form._trusted(self.size, self.degree, out)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Form(0, degree={self.degree})"
        parts = []
        for gens, coeff in sorted(self.terms.items()):
            gen_txt = "^".join(f"da[{r},{c}]" for r, c in gens) or "1"
            parts.append(f"({coeff!r}) {gen_txt}")
        return " + ".join(parts)


class VField:
    """Vector field with Poly coefficients on the coordinate derivations."""

    __slots__ = ("size", "coeffs")

    def __init__(self, size: int, coeffs: dict[Var, Poly] | None = None):
        self.size = size
        clean: dict[Var, Poly] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if coeff.size != size:
                    raise DimensionError("coefficient ambient size mismatch")
                if not coeff.is_zero:
                    clean[var] = coeff
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, VField):
            return NotImplemented
        return self.size == other.size and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "VField") -> "VField":
        if not isinstance(other, VField):
            return NotImplemented
        if self.size != other.size:
            raise DimensionError("ambient sizes differ")
        out = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            _accumulate(out, var, coeff)
        return VField(self.size, out)

    def __neg__(self) -> "VField":
        return VField(self.size, {v: -c for v, c in self.coeffs.items()})

    def __sub__(self, other: "VField") -> "VField":
        if not isinstance(other, VField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "VField":
        if not isinstance(scalar, (Poly, *Scalar)):
            return NotImplemented
        factor = scalar if isinstance(scalar, Poly) else Poly.const(self.size, scalar)
        return VField(self.size, {v: c * factor for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def apply(self, p: Poly) -> Poly:
        """Directional derivative X(p) = sum_v X^v dp/dv."""
        return p.directional(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "VField(0)"
        parts = [f"({c!r}) d/da[{r},{cc}]" for (r, cc), c in sorted(self.coeffs.items())]
        return " + ".join(parts)


# -- operations ---------------------------------------------------------------


def wedge(f: Form, g: Form) -> Form:
    """Graded-anticommutative exterior product (constant factors run on scalars)."""
    f._check_compat(g)
    size = f.size
    degree = f.degree + g.degree
    if degree > size * size:
        return Form.zero(size, degree)
    sf, sg = _scalars(f._terms), _scalars(g._terms)
    if sf is not None and sg is not None:
        out = _wedge_masks(sf, sg, config.get_max_terms())
        # Polys are immutable, so equal coefficients share one constant
        consts = {c: Poly.const(size, c) for c in set(out.values()) if c}
        return Form._trusted(size, degree, {m: consts[c] for m, c in out.items() if c})
    out = _wedge_masks(f._terms, g._terms, config.get_max_terms())
    return Form._trusted(size, degree, {m: c for m, c in out.items() if not c.is_zero})


def wedge_power(f: Form, k: int) -> Form:
    """Iterated wedge f^k (k >= 1), one factor at a time: a sparse factor
    keeps every product smaller than squaring would."""
    if k < 1:
        raise ValueError("wedge_power needs a positive exponent")
    result = f
    for _ in range(k - 1):
        result = wedge(result, f)
    return result


def ext_d(f: Form) -> Form:
    """Exterior derivative: each dv sets its bit, signed by the bits below it."""
    bits = _bits(f.size)
    out: dict[int, Poly] = {}
    for mask, coeff in f._terms.items():
        for var in sorted(coeff.variables()):
            bit = bits[var]
            if mask & bit:
                continue
            d = coeff.diff(var)
            _accumulate(out, mask | bit, -d if (mask & (bit - 1)).bit_count() & 1 else d)
    return Form._trusted(f.size, f.degree + 1, out)


def interior_product(x: VField, f: Form) -> Form:
    """Contraction i(X)f; degree drops by one. Each generator of a term is
    cleared in increasing bit order, signed by the bits below it."""
    if f.degree < 1:
        raise DegreeError("interior product needs a form of degree >= 1")
    if x.size != f.size:
        raise DimensionError("ambient sizes differ")
    bits = _bits(f.size)
    along = {bits[var]: c for var, c in x.coeffs.items() if var in bits}
    support = sum(along)
    products: dict[int, list] = {}
    for mask, coeff in f._terms.items():
        hit = mask & support
        while hit:
            bit = hit & -hit
            hit ^= bit
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            products.setdefault(mask ^ bit, []).append((sign, coeff, along[bit]))
    return Form._trusted(f.size, f.degree - 1, _sums(f.size, products))


def lie_derivative(x: VField, f: Form) -> Form:
    """L_X f in coordinates: X(P) dxI, plus each dv of dxI replaced in its slot by
    d(X^v) = sum_w dX^v/dw dw, signed by the generators between slot v and slot w."""
    if x.size != f.size:
        raise DimensionError("ambient sizes differ")
    bits = _bits(f.size)
    partials = {bits[v]: [(bits[w], c.diff(w)) for w in sorted(c.variables())]
                for v, c in x.coeffs.items() if v in bits}
    products: dict[int, list] = {}
    for mask, coeff in f._terms.items():
        products.setdefault(mask, []).extend(
            (1, x.coeffs[v], coeff.diff(v)) for v in coeff.variables() & x.coeffs.keys())
        for v, row in partials.items():
            for w, dxv in row if mask & v else ():
                if not (rest := mask ^ v) & w:
                    sign = -1 if (rest & ((v - 1) ^ (w - 1))).bit_count() & 1 else 1
                    products.setdefault(rest | w, []).append((sign, coeff, dxv))
    return Form._trusted(f.size, f.degree, _sums(f.size, products))


def vf_bracket(x: VField, y: VField) -> VField:
    """Jacobi-Lie bracket [X, Y]."""
    if x.size != y.size:
        raise DimensionError("ambient sizes differ")
    out: dict[Var, Poly] = {}
    for var, yc in y.coeffs.items():
        out[var] = x.apply(yc)
    for var, xc in x.coeffs.items():
        _accumulate(out, var, -y.apply(xc))
    return VField(x.size, out)


def covector_transport(a: list[list[Poly]], side: str, base: Form) -> Form:
    """Transport a constant covector at the identity along a translation.

    `base` must be a constant-coefficient 1-form. The result is the 1-form
    whose value at the matrix a is base composed with the inverse tangent map
    of the chosen translation; the inverse is taken as the adjugate, which is
    legitimate because every comparison downstream happens on the det = 1
    locus or modulo (det - 1).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if base.degree != 1:
        raise DegreeError("transport expects a 1-form")
    n = len(a)
    size = base.size
    if n != size or any(len(row) != n for row in a):
        raise DimensionError("matrix shape does not match the ambient size")
    coeffs = {}
    for (var,), coeff in base.terms.items():
        if not coeff.is_constant:
            raise ValueError("transport expects constant coefficients (a covector at the identity)")
        coeffs[var] = coeff
    # the adjugate is adj[i][j] = (-1)^(i+j) minor(a, j, i); its sign goes on the scalar
    minors = minor_table(a)
    bits = _bits(size)
    products = {}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if side == "left":  # base(a^-1 w): da[r,c] gets sum_i adj[i][r] * base[i,c]
                pairs = ((minors[r, i], i + r, (i, c)) for i in range(1, n + 1))
            else:  # base(w a^-1): da[r,c] gets sum_j base[r,j] * adj[c][j]
                pairs = ((minors[j, c], c + j, (r, j)) for j in range(1, n + 1))
            products[bits[(r, c)]] = [(-1 if parity % 2 else 1, entry, coeffs[var])
                                      for entry, parity, var in pairs if var in coeffs]
    return Form._trusted(size, 1, _sums(size, products))


def class_at_point(f: Form, point: dict[Var, Fraction]) -> int:
    """Exact pointwise Cartan class of a 1-form at a rational point.

    Largest p with (d f)^p nonzero at the point decides between 2p and 2p+1
    according to whether f ^ (d f)^p survives there.
    """
    if f.degree != 1:
        raise DegreeError("pointwise class is defined for 1-forms")
    alpha = f.evaluate_coefficients(point)
    dalpha = ext_d(f).evaluate_coefficients(point)
    best_p = 0
    last = power = dalpha
    while not power.is_zero:
        best_p += 1
        last = power
        power = wedge(power, dalpha)
    if best_p == 0:
        return 0 if alpha.is_zero else 1
    top = wedge(alpha, last)
    return 2 * best_p + 1 if not top.is_zero else 2 * best_p
