"""Differential forms and vector fields with polynomial coefficients.

Forms live on the ambient coordinate space of an n x n matrix: generators are
the differentials da[r,c], kept as strictly increasing row-major tuples, with
Poly coefficients. Vector fields carry Poly coefficients on the coordinate
derivations. All values are immutable and every operation is pure, so results
are exact and reproducible.

Sign conventions, fixed once for the whole package:
  * generator order and the reference volume form V = da[1,1]^da[1,2]^...^da[n,n]
    are row-major;
  * d(P dxI) = sum_v (dP/dv) dv ^ dxI;
  * the Lie derivative is the Cartan formula i(X)d + d i(X).
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .errors import DegreeError, DimensionError
from .polyring import Poly, Var, minor


def merge_generators(t1: tuple, t2: tuple) -> tuple[int, tuple] | None:
    """Merge two strictly increasing generator tuples.

    Returns (sign, merged) where sign is the parity of the shuffle, or None
    when the tuples share a generator (the wedge vanishes).
    """
    if not t1:
        return 1, t2
    if not t2:
        return 1, t1
    merged = []
    sign = 1
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        if t1[i] == t2[j]:
            return None
        if t1[i] < t2[j]:
            merged.append(t1[i])
            i += 1
        else:
            merged.append(t2[j])
            j += 1
            if (n1 - i) % 2:
                sign = -sign
    merged.extend(t1[i:])
    merged.extend(t2[j:])
    return sign, tuple(merged)


class Form:
    """Exterior form of fixed degree with Poly coefficients."""

    __slots__ = ("size", "degree", "terms")

    def __init__(self, size: int, degree: int, terms: dict[tuple[Var, ...], Poly] | None = None):
        if degree < 0:
            raise DegreeError(f"negative form degree {degree}")
        self.size = size
        self.degree = degree
        clean: dict[tuple[Var, ...], Poly] = {}
        if terms:
            for gens, coeff in terms.items():
                if len(gens) != degree:
                    raise DegreeError(f"generator tuple {gens} does not match degree {degree}")
                if list(gens) != sorted(gens) or len(set(gens)) != len(gens):
                    raise ValueError(f"generator tuple not strictly increasing: {gens}")
                if coeff.size != size:
                    raise DimensionError("coefficient ambient size mismatch")
                if not coeff.is_zero:
                    clean[gens] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, size: int, degree: int = 0) -> "Form":
        return cls(size, degree)

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls(p.size, 0, {(): p})

    @classmethod
    def generator(cls, size: int, var: Var) -> "Form":
        """The coordinate 1-form da[r,c]."""
        return cls(size, 1, {(var,): Poly.const(size, 1)})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Form") -> "Form":
        self._check_compat(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.degree != other.degree:
            raise DegreeError(f"cannot add forms of degree {self.degree} and {other.degree}")
        out = dict(self.terms)
        for gens, coeff in other.terms.items():
            acc = out.get(gens)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                out.pop(gens, None)
            else:
                out[gens] = acc
        return Form(self.size, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.size, self.degree, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        """Multiply by a Poly or a rational scalar."""
        if isinstance(scalar, Poly):
            factor = scalar
        else:
            factor = Poly.const(self.size, scalar)
        return Form(self.size, self.degree, {g: c * factor for g, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, gens: tuple[Var, ...]) -> Poly:
        return self.terms.get(gens, Poly.zero(self.size))

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise DegreeError(f"degree-{self.degree} form is not a scalar")
        return self.terms.get((), Poly.zero(self.size))

    def evaluate_coefficients(self, point: dict[Var, Fraction]) -> "Form":
        """Same form with every coefficient evaluated at a rational point."""
        return Form(
            self.size,
            self.degree,
            {g: Poly.const(self.size, c.evaluate(point)) for g, c in self.terms.items()},
        )

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

    @classmethod
    def zero(cls, size: int) -> "VField":
        return cls(size)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, VField):
            return NotImplemented
        return self.size == other.size and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "VField") -> "VField":
        if self.size != other.size:
            raise DimensionError("ambient sizes differ")
        out = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            acc = out.get(var)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                out.pop(var, None)
            else:
                out[var] = acc
        return VField(self.size, out)

    def __neg__(self) -> "VField":
        return VField(self.size, {v: -c for v, c in self.coeffs.items()})

    def __sub__(self, other: "VField") -> "VField":
        return self + (-other)

    def __mul__(self, scalar) -> "VField":
        factor = scalar if isinstance(scalar, Poly) else Poly.const(self.size, scalar)
        return VField(self.size, {v: c * factor for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def apply(self, p: Poly) -> Poly:
        """Directional derivative X(p) = sum_v X^v dp/dv."""
        out = Poly.zero(self.size)
        for var, coeff in self.coeffs.items():
            d = p.diff(var)
            if not d.is_zero:
                out = out + coeff * d
        return out

    def __repr__(self) -> str:
        if self.is_zero:
            return "VField(0)"
        parts = [f"({c!r}) d/da[{r},{cc}]" for (r, cc), c in sorted(self.coeffs.items())]
        return " + ".join(parts)


# -- operations ---------------------------------------------------------------


def wedge(f: Form, g: Form) -> Form:
    """Graded-anticommutative exterior product."""
    f._check_compat(g)
    degree = f.degree + g.degree
    if degree > f.size * f.size:
        return Form.zero(f.size, degree)
    out: dict[tuple[Var, ...], Poly] = {}
    for g1, c1 in f.terms.items():
        for g2, c2 in g.terms.items():
            merged = merge_generators(g1, g2)
            if merged is None:
                continue
            sign, gens = merged
            contrib = c1 * c2
            if sign < 0:
                contrib = -contrib
            acc = out.get(gens)
            acc = contrib if acc is None else acc + contrib
            if acc.is_zero:
                out.pop(gens, None)
            else:
                out[gens] = acc
        config.check_budget(len(out), "wedge expansion")
    return Form(f.size, degree, out)


def wedge_power(f: Form, k: int) -> Form:
    """Iterated wedge f^k (k >= 1) by binary exponentiation."""
    if k < 1:
        raise ValueError("wedge_power needs a positive exponent")
    result: Form | None = None
    base = f
    e = k
    while e:
        if e & 1:
            result = base if result is None else wedge(result, base)
        e >>= 1
        if e:
            base = wedge(base, base)
    return result


def ext_d(f: Form) -> Form:
    """Exterior derivative, applied coefficient-wise."""
    out = Form.zero(f.size, f.degree + 1)
    for gens, coeff in f.terms.items():
        for var in sorted(coeff.variables()):
            d = coeff.diff(var)
            if d.is_zero:
                continue
            merged = merge_generators((var,), gens)
            if merged is None:
                continue
            sign, new_gens = merged
            term = d if sign > 0 else -d
            out = out + Form(f.size, f.degree + 1, {new_gens: term})
    return out


def interior_product(x: VField, f: Form) -> Form:
    """Contraction i(X)f; degree drops by one."""
    if f.degree < 1:
        raise DegreeError("interior product needs a form of degree >= 1")
    if x.size != f.size:
        raise DimensionError("ambient sizes differ")
    out = Form.zero(f.size, f.degree - 1)
    for gens, coeff in f.terms.items():
        for slot, var in enumerate(gens):
            xv = x.coeffs.get(var)
            if xv is None:
                continue
            contrib = coeff * xv
            if slot % 2:
                contrib = -contrib
            rest = gens[:slot] + gens[slot + 1:]
            out = out + Form(f.size, f.degree - 1, {rest: contrib})
    return out


def lie_derivative(x: VField, f: Form) -> Form:
    """Cartan formula L_X = i(X) d + d i(X)."""
    term1 = interior_product(x, ext_d(f))
    if f.degree == 0:
        return term1
    return term1 + ext_d(interior_product(x, f))


def vf_bracket(x: VField, y: VField) -> VField:
    """Jacobi-Lie bracket [X, Y]."""
    if x.size != y.size:
        raise DimensionError("ambient sizes differ")
    out: dict[Var, Poly] = {}
    for var, yc in y.coeffs.items():
        out[var] = x.apply(yc)
    for var, xc in x.coeffs.items():
        d = y.apply(xc)
        acc = out.get(var)
        acc = -d if acc is None else acc - d
        out[var] = acc
    return VField(x.size, out)


def adjugate(mat: list[list[Poly]]) -> list[list[Poly]]:
    """Adjugate matrix: adj(A)[i][j] = (-1)^(i+j) * minor(A, j, i)."""
    n = len(mat)
    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            m = minor(mat, j, i)
            row.append(m if (i + j) % 2 == 0 else -m)
        out.append(row)
    return out


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
    for gens, coeff in base.terms.items():
        if not coeff.is_constant:
            raise ValueError("transport expects constant coefficients (a covector at the identity)")
        coeffs[gens[0]] = coeff.constant_value()
    adj = adjugate(a)
    out: dict[tuple[Var, ...], Poly] = {}
    if side == "left":
        # theta(a)(w) = base(a^-1 w): coefficient of da[k,l] is
        # sum_i adj[i][k] * base[i,l]
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                acc = Poly.zero(size)
                for i in range(1, n + 1):
                    c = coeffs.get((i, l))
                    if c:
                        acc = acc + adj[i - 1][k - 1] * c
                if not acc.is_zero:
                    out[((k, l),)] = acc
    else:
        # theta(a)(w) = base(w a^-1): coefficient of da[i,k] is
        # sum_j base[i,j] * adj[k][j]
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                acc = Poly.zero(size)
                for j in range(1, n + 1):
                    c = coeffs.get((i, j))
                    if c:
                        acc = acc + adj[k - 1][j - 1] * c
                if not acc.is_zero:
                    out[((i, k),)] = acc
    return Form(size, 1, out)


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
