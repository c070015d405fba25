"""The SL(2p) apparatus: frames, the contact identity, the Reeb field,
invariance loci, the J-preserving subalgebra and the u-decomposition.

Everything is phrased over the polynomial ring in the 4p^2 matrix entries.
Rational-function prefactors (the Reeb field's 1/(4 det)) are never formed;
identities are stated and checked after clearing the determinant, so the
whole module stays polynomial and exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import config, linalg
from .errors import InternalCheckError, ParameterError, TermLimitError
from .exterior import (
    Form,
    VField,
    covector_transport,
    ext_d,
    interior_product,
    lie_derivative,
    vf_bracket,
    wedge,
    wedge_power,
)
from .liealg import sl_basis_indices
from .polyring import (
    Poly,
    Var,
    determinant,
    divmod_principal,
    minor_table,
    reduce_mod_principal,
    row_major_vars,
    sum_of_products,
    symbolic_matrix,
)
from .report import CONFIRMED, REFUTED, REPORTED_ONLY, VerifyReport

FrameIndex = tuple[int, int]


def _mix_seed(*parts: int) -> int:
    """Fold integer seed components into one stable integer.

    Avoids seeding random.Random with tuples, whose hashes are not stable
    across processes once strings are involved.
    """
    h = 0x9E3779B97F4A7C15
    for x in parts:
        h = (h * 1000003 + (int(x) & 0xFFFFFFFFFFFFFFFF)) % (1 << 63)
    return h


def identity_point(n: int) -> dict[Var, Fraction]:
    return {(i, j): Fraction(int(i == j)) for i in range(1, n + 1) for j in range(1, n + 1)}


def matrix_point(a: linalg.Mat) -> dict[Var, Fraction]:
    n = len(a)
    return {(i + 1, j + 1): Fraction(a[i][j]) for i in range(n) for j in range(n)}


@dataclass
class SLFrame:
    """Exact frame data on the ambient space of SL(2p)."""

    size: int
    delta: Poly
    d_delta: Form
    minors: dict[Var, Poly]
    X: dict[FrameIndex, VField]
    Y: dict[FrameIndex, VField]
    alpha: dict[FrameIndex, Form]
    omega: Form

    def column_inner(self, i: int, j: int) -> Poly:
        """<C_i, C_j> = sum_r a[r,i] a[r,j]."""
        n = self.size
        return sum_of_products(n, [(1, Poly.variable(n, r, i), Poly.variable(n, r, j))
                                   for r in range(1, n + 1)])


def build_frame(p: int) -> SLFrame:
    """Construct the frame and run its construction-time checks.

    X[k,l] = sum_i a[i,k] d/da[i,l] (with the diagonal fields relative to the
    last column), Y is the row-wise mirror, and omega pairs consecutive
    columns. The signed cofactors C[i,j] = (-1)^(i+j) A[i,j], A the unsigned
    minors, are one table, each odd-signed minor negated once: d_delta =
    sum C[i,j] da[i,j], and alpha[k,l] = sum_i C[i,k] da[i,l] holds the same
    Poly objects. The cofactor lemma d(det) = d_delta is checked one partial
    derivative at a time. Tangency X(det) = Y(det) = 0 is then verified by
    contraction, X(det) = i(X) d(det); [X, Y] = 0 is left to
    structural_checks, which claims it.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    n = 2 * p
    mat = symbolic_matrix(n)
    delta = determinant(mat)
    minors = minor_table(mat)
    cofactors = {ij: m if sum(ij) % 2 == 0 else -m for ij, m in minors.items()}
    if any(delta.diff(var) != c for var, c in cofactors.items()):
        raise InternalCheckError("d(det) does not match the signed-cofactor expansion")
    d_delta = Form(n, 1, {(var,): c for var, c in cofactors.items()})
    a = lambda i, j: Poly.variable(n, i, j)

    x_fields: dict[FrameIndex, VField] = {}
    y_fields: dict[FrameIndex, VField] = {}
    for k, l in sl_basis_indices(2 * p):
        if k == l:  # minus the last column (row); k < n, so no entry is shared
            x_fields[(k, k)] = VField(n, {(i, k): a(i, k) for i in range(1, n + 1)}
                                      | {(i, n): -a(i, n) for i in range(1, n + 1)})
            y_fields[(k, k)] = VField(n, {(k, i): a(k, i) for i in range(1, n + 1)}
                                      | {(n, i): -a(n, i) for i in range(1, n + 1)})
        else:
            x_fields[(k, l)] = VField(n, {(i, l): a(i, k) for i in range(1, n + 1)})
            y_fields[(k, l)] = VField(n, {(k, i): a(l, i) for i in range(1, n + 1)})

    alpha = {(k, l): Form(n, 1, {((i, l),): cofactors[(i, k)] for i in range(1, n + 1)})
             for k, l in sl_basis_indices(n)}

    omega_terms: dict[tuple[Var, ...], Poly] = {}
    for i in range(1, n + 1):
        for j in range(1, p + 1):
            omega_terms[((i, 2 * j - 1),)] = a(i, 2 * j)
            omega_terms[((i, 2 * j),)] = -a(i, 2 * j - 1)
    omega = Form(n, 1, omega_terms)

    for kl, x in x_fields.items():
        if not interior_product(x, d_delta).is_zero:
            raise InternalCheckError(f"X{kl} is not tangent to the det = 1 level set")
    for kl, y in y_fields.items():
        if not interior_product(y, d_delta).is_zero:
            raise InternalCheckError(f"Y{kl} is not tangent to the det = 1 level set")

    return SLFrame(
        size=n,
        delta=delta,
        d_delta=d_delta,
        minors=minors,
        X=x_fields,
        Y=y_fields,
        alpha=alpha,
        omega=omega,
    )


# -- contact identity -----------------------------------------------------------


@dataclass
class ContactReport:
    """Exact factorization of omega ^ (d omega)^(2p^2-1) ^ d(det)."""

    top_coefficient: Poly
    quotient_by_delta: Poly | None
    constant: Fraction | None
    claimed_constant: int
    volume_reading_matches: bool
    dw_top_scalar: Fraction
    dw_reading_matches: bool
    is_contact: bool
    report: VerifyReport = field(default=None)


def verify_contact_identity(p: int, frame: SLFrame | None = None) -> ContactReport:
    """Expand the top identity exactly and factor out the determinant.

    The computed top form is compared against C * det * V for the row-major
    volume V; the scalar C is then audited against the quoted constant
    -2^(2p^2+p-1) under both readings of the reference volume (V itself, and
    the full power (d omega)^(2p^2)).
    """
    frame = frame or build_frame(p)
    n = frame.size
    rep = VerifyReport("verify-contact", {"p": p})
    d_omega = ext_d(frame.omega)
    power = wedge_power(d_omega, 2 * p * p - 1)
    top = wedge(wedge(frame.omega, power), frame.d_delta)
    vol = row_major_vars(n)
    stray = [g for g in top.terms if g != vol]
    if stray:
        rep.add("top form is a multiple of the volume form", False, True, "derived", REFUTED,
                note=f"unexpected generator tuples: {stray[:3]}")
    top_coeff = top.coefficient(vol)

    quotient, remainder = divmod_principal(top_coeff, frame.delta)
    if not remainder.is_zero:
        rep.add("top coefficient divisible by det", False, True, "derived", REFUTED,
                note="exact division by det left a remainder; identity violated")
        return ContactReport(top_coeff, None, None, -(2 ** (2 * p * p + p - 1)),
                             False, Fraction(0), False, False, report=rep)
    rep.add("top coefficient divisible by det", True, True, "derived", CONFIRMED)

    if not quotient.is_constant:
        rep.add("quotient is a scalar multiple of V", False, True, "derived", REFUTED,
                note=f"non-constant quotient {quotient!r}")
        constant = None
    else:
        constant = quotient.constant_value()
        rep.add("quotient is a scalar multiple of V", True, True, "derived", CONFIRMED)

    claimed = -(2 ** (2 * p * p + p - 1))
    dw_top = wedge(power, d_omega)
    dw_scalar = dw_top.coefficient(vol).constant_value()

    volume_ok = constant == claimed
    rep.audit(
        "factorization constant under the reading Theta = V",
        constant,
        claimed,
        note="computed scalar C in omega ^ (d omega)^(2p^2-1) ^ d(det) = C * det * V",
    )
    dw_rhs = Fraction(claimed) * dw_scalar
    dw_ok = constant == dw_rhs
    rep.audit(
        "factorization constant under the reading Theta = (d omega)^(2p^2)",
        constant,
        dw_rhs,
        note=f"(d omega)^(2p^2) = {dw_scalar} * V, so this reading asks for C = {dw_rhs}",
    )
    is_contact = constant is not None and constant != 0
    rep.check("induced form is contact (scalar C nonzero)", is_contact, True, "claimed")
    return ContactReport(
        top_coefficient=top_coeff,
        quotient_by_delta=quotient,
        constant=constant,
        claimed_constant=claimed,
        volume_reading_matches=volume_ok,
        dw_top_scalar=dw_scalar,
        dw_reading_matches=dw_ok,
        is_contact=is_contact,
        report=rep,
    )


# -- Reeb field -----------------------------------------------------------------


@dataclass
class ReebResult:
    """The quoted Reeb candidate, audited, plus the correctly normalized field.

    Both fields are returned as polynomial numerators: the candidate is
    numerator / (4 det), the normalized field is normalized_numerator / det.
    """

    numerator: VField
    pairing: Fraction | None
    normalizer: Fraction | None
    normalized_numerator: VField | None
    report: VerifyReport = field(default=None)


def reeb_field(p: int, frame: SLFrame | None = None) -> ReebResult:
    """Audit the quoted Reeb candidate and normalize it.

    The numerator is d(det) turned by J, read off frame.d_delta's signed
    cofactors C: -C[i,2j] on d/da[i,2j-1] and C[i,2j-1] itself on d/da[i,2j].
    The candidate R = numerator / (4 det) is checked by exact contraction:
    i(4 det R) d omega = 2 d(det) and omega(4 det R) = -2p det, so
    omega(R) = -p/2 and R_norm = normalizer * R with normalizer = -2/p.
    Contraction is linear in the field, so the claims on R_norm rescale those
    two contractions by normalizer / 4 rather than contract again. The kernel
    claim i(R_norm) d omega ^ d(det) = 0 is derived without a wedge: it holds
    when i(normalized_numerator) d omega is (normalizer / 2) d(det), for then
    the wedge is (normalizer / 2) d(det) ^ d(det) = 0; otherwise it is
    refuted, as not established.
    """
    frame = frame or build_frame(p)
    n = frame.size
    rep = VerifyReport("reeb", {"p": p})

    cofactor = frame.d_delta.terms  # C[i,j] on da[i,j]
    coeffs: dict[Var, Poly] = {}
    for i in range(1, n + 1):
        for j in range(1, p + 1):
            coeffs[(i, 2 * j - 1)] = -cofactor[((i, 2 * j),)]
            coeffs[(i, 2 * j)] = cofactor[((i, 2 * j - 1),)]
    numerator = VField(n, coeffs)  # equals 4 * det * R_candidate

    d_omega = ext_d(frame.omega)
    contraction = interior_product(numerator, d_omega)
    kernel_ok = contraction == frame.d_delta * 2
    rep.check(
        "2 det * i(R) d omega = d(det) (kernel direction, cleared of det)",
        kernel_ok,
        True,
        "derived",
        note="i(4 det R) d omega computed exactly and compared to 2 d(det)",
    )

    pairing_poly = interior_product(numerator, frame.omega).as_poly()
    quotient, remainder = divmod_principal(pairing_poly, frame.delta)
    pairing = None
    if remainder.is_zero and quotient.is_constant:
        pairing = quotient.constant_value() / 4
        rep.check(
            "omega(R) is the constant -p/2",
            pairing,
            Fraction(-p, 2),
            "derived",
        )
    else:
        rep.add("omega(R) is constant", False, True, "derived", REFUTED,
                note=f"omega(4 det R) = {pairing_poly!r} is not a scalar multiple of det")
    rep.audit(
        "quoted normalization omega(R) = 1",
        pairing,
        Fraction(1),
        note="the exhibited field pairs to -p/2; corrective scalar is -2/p",
    )

    normalizer = None
    normalized_numerator = None
    if pairing:
        normalizer = 1 / pairing  # -2/p
        scale = normalizer / 4  # contraction is linear in the field
        normalized_numerator = numerator * scale
        rep.check(
            "normalized field pairs to exactly 1 (omega(R_norm) det = det)",
            pairing_poly * scale == frame.delta,
            True,
            "derived",
        )
        rep.check(
            "i(R_norm) d omega ^ d(det) = 0 in the ambient ring",
            contraction * scale == frame.d_delta * (normalizer / 2),
            True,
            "derived",
        )
    elif pairing == 0:
        rep.add("normalization", None, None, "derived", REFUTED,
                note="omega(R) vanishes identically; the candidate cannot be normalized")

    return ReebResult(
        numerator=numerator,
        pairing=pairing,
        normalizer=normalizer,
        normalized_numerator=normalized_numerator,
        report=rep,
    )


# -- structural suite ------------------------------------------------------------


def structural_checks(p: int, frame: SLFrame | None = None) -> VerifyReport:
    """Brackets [X,Y], Lie derivatives L_Y alpha, and the duality table alpha(X)."""
    frame = frame or build_frame(p)
    rep = VerifyReport("structural", {"p": p})
    shift = frame.delta - 1
    indices = sl_basis_indices(2 * p)

    bracket_failures = []
    for xi in indices:
        for yi in indices:
            if not vf_bracket(frame.X[xi], frame.Y[yi]).is_zero:
                bracket_failures.append((xi, yi))
    rep.check(
        f"[X,Y] = 0 for all {len(indices)}^2 index pairs",
        bracket_failures,
        [],
        "claimed",
    )

    lie_failures = []
    for yi in indices:
        for ai in indices:
            lform = lie_derivative(frame.Y[yi], frame.alpha[ai])
            if any(not reduce_mod_principal(c, shift).is_zero for c in lform.terms.values()):
                lie_failures.append((yi, ai))
    rep.check(
        "L_Y alpha = 0 modulo (det - 1) for all pairs",
        lie_failures,
        [],
        "claimed",
    )

    def tag(ai, xi):
        return f"alpha[{ai[0]},{ai[1]}](X[{xi[0]},{xi[1]}])"

    pattern: dict[str, object] = {}
    non_constant = []
    out_of_range = []
    off_kronecker = []
    for ai in indices:
        for xi in indices:
            value = reduce_mod_principal(
                interior_product(frame.X[xi], frame.alpha[ai]).as_poly(), shift
            )
            if not value.is_constant:
                non_constant.append(tag(ai, xi))
                continue
            v = value.constant_value()
            if v:
                pattern[tag(ai, xi)] = int(v) if v.denominator == 1 else str(v)
            if v not in (0, 1, -1):
                out_of_range.append(tag(ai, xi))
            if v != Fraction(int(ai == xi)):
                off_kronecker.append((tag(ai, xi), str(v)))
    rep.check(
        "every duality pairing alpha(X) reduces to a constant in {0, 1, -1}",
        non_constant + out_of_range,
        [],
        "derived",
    )
    rep.check(
        "duality pattern is the Kronecker delta of a dual basis",
        off_kronecker,
        [],
        "derived",
        note=f"nonzero pairings found: {len(pattern)} (expected {len(indices)})",
    )
    rep.add(
        "exact duality pattern (nonzero entries)",
        pattern,
        {tag(i, i): 1 for i in indices},
        "derived",
        CONFIRMED if not off_kronecker else REFUTED,
    )
    return rep


# -- samplers ---------------------------------------------------------------------
# A sampled point is a pair (M, d), an int matrix over one int denominator
# standing for a = M / d; every test on it below clears d, so builds no Fraction.


def _cayley(p: list[list[int]], q: int) -> tuple[list[list[int]], int] | None:
    """(I - S)(I + S)^-1 for S = P / q as (M, d): (qI - P) adj(qI + P) and
    det(qI + P), both divided by their gcd; None at a pole."""
    plus = [[q * (i == j) + x for j, x in enumerate(row)] for i, row in enumerate(p)]
    d, adj = linalg.det_adj(plus)
    if adj is None:
        return None
    minus = [[q * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p)]
    m = linalg.mat_mul(minus, adj)
    g = math.gcd(d, *(x for row in m for x in row))
    return [[x // g for x in row] for row in m], d // g


def _sample_point(group: str, n: int, seed: int) -> tuple[list[list[int]], int]:
    """Exact rational point (M, d) on SL(n), SO(n) or H(p) (pass p as n for H).

    SL points come from unit-triangular integer factors, with d = 1. SO and H
    points are Cayley transforms of rational matrices in their Lie algebras:
    random skew S for SO, and J^T S with S random symmetric for H (J (J^T S) = S
    is symmetric, so J^T S lies in h), drawn over the upper triangle as q S,
    q the lcm of the denominators. A Cayley pole triggers a deterministic resample.
    """
    if group == "SL":
        rng = random.Random(_mix_seed(1, n, seed))
        lower = linalg.identity(n)
        upper = linalg.identity(n)
        for i in range(n):
            for j in range(n):
                if i > j:
                    lower[i][j] = rng.randint(-3, 3)
                elif i < j:
                    upper[i][j] = rng.randint(-3, 3)
        return linalg.mat_mul(lower, upper), 1
    if group not in ("SO", "H"):
        raise ParameterError(f"unknown group {group!r}")
    skew = group == "SO"
    size, top = (n, 9) if skew else (2 * n, 4)
    for attempt in range(100):
        rng = random.Random(_mix_seed(2 if skew else 3, n, seed, attempt))
        draws = {(i, j): (rng.randint(-top, top), rng.randint(1, top))
                 for i in range(size) for j in range(i + skew, size)}
        q = math.lcm(*(b for _, b in draws.values()))
        s = [[0] * size for _ in range(size)]
        for (i, j), (a, b) in draws.items():
            s[i][j] = a * (q // b)
            s[j][i] = -s[i][j] if skew else s[i][j]
        point = _cayley(s if skew else _jt_times(s), q)
        if point is not None:
            return point
    raise ParameterError(f"could not sample an {group} point (persistent Cayley pole)")


def sample_group_point(group: str, n: int, seed: int) -> linalg.Mat:
    """The point (M, d) of _sample_point as the Fraction matrix M / d."""
    m, d = _sample_point(group, n, seed)
    return [[Fraction(x, d) for x in row] for row in m]


def _sl_nonorthogonal(n: int, seed: int) -> list[list[int]]:
    for attempt in range(100):
        m, _ = _sample_point("SL", n, _mix_seed(seed, attempt))
        if not _orthogonal(m, 1):
            return m
    raise ParameterError("could not sample a non-orthogonal SL point")


# J is a signed permutation: it swaps the two indices of each pair (2b, 2b+1),
# 0-based, and negates one of them, so products with J or J^T only move and
# negate entries.


def _j_times(m: linalg.Mat) -> linalg.Mat:
    """J M: row 2b is row 2b+1 of M, row 2b+1 is minus row 2b."""
    return [m[r ^ 1] if r % 2 == 0 else [-x for x in m[r ^ 1]] for r in range(len(m))]


def _jt_times(m: linalg.Mat) -> linalg.Mat:
    """J^T M = -J M: row 2b is minus row 2b+1 of M, row 2b+1 is row 2b."""
    return [m[r ^ 1] if r % 2 else [-x for x in m[r ^ 1]] for r in range(len(m))]


def _times_jt(m: linalg.Mat) -> linalg.Mat:
    """M J^T: column 2b is column 2b+1 of M, column 2b+1 is minus column 2b."""
    return [[row[c ^ 1] if c % 2 == 0 else -row[c ^ 1] for c in range(len(row))] for row in m]


def _scalar(n: int, c: int) -> list[list[int]]:
    return [[c * x for x in row] for row in linalg.identity(n)]


def _orthogonal(m: list[list[int]], d: int) -> bool:
    """a = M / d is orthogonal: tM M = d^2 I."""
    return linalg.mat_mul(linalg.transpose(m), m) == _scalar(len(m), d * d)


def _preserves_j(m: list[list[int]], d: int) -> bool:
    """tA J A = J for a = M / d: tM J M = d^2 J, J applied as a signed permutation."""
    return linalg.mat_mul(linalg.transpose(m), _j_times(m)) == _j_times(_scalar(len(m), d * d))


def _in_h(y: linalg.Mat) -> bool:
    """Y lies in h = {Y : JY + tY J = 0} exactly when JY is symmetric, since
    tJ = -J makes JY + tY J = JY - t(JY)."""
    jy = _j_times(y)
    return jy == linalg.transpose(jy)


# -- invariance loci ---------------------------------------------------------------


def left_locus_equations(frame: SLFrame) -> dict[Var, Poly]:
    """Coefficient differences of the left-transported identity covector vs omega.

    Up to sign these are exactly a[i,j] - (-1)^(i+j) A[i,j], the signed
    cofactor read from frame.d_delta; the signed match is verified here so
    downstream point checks can rely on it.
    """
    n = frame.size
    cofactor = frame.d_delta.terms
    mat = symbolic_matrix(n)
    omega_e = frame.omega.evaluate_coefficients(identity_point(n))
    transported = covector_transport(mat, "left", omega_e)
    diff = transported - frame.omega
    equations: dict[Var, Poly] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            eq = diff.coefficient(((i, j),))
            # the difference on da[i,j] involves the partner column of the
            # symplectic pair (2k-1, 2k), not column j itself
            pj = j + 1 if j % 2 == 1 else j - 1
            stated = Poly.variable(n, i, pj) - cofactor[((i, pj),)]
            if eq != stated and eq != -stated:
                raise InternalCheckError(
                    f"left locus equation on da[{i},{j}] is not +-(a - cofactor)"
                )
            equations[(i, j)] = eq
    return equations


def _locus_zero(m: list[list[int]], d: int, adj: list[list[int]], side: str) -> bool:
    """The left or right locus equations vanish at a = M / d, given adj = adj(M).

    The equations are the coefficients of the identity covector, transported
    to a with the adjugate as the inverse, minus those of omega at a. With
    B = J^T the coefficient matrix of omega at the identity, omega at a is
    a B, the left transport is adj(a)^T B and the right one B adj(a)^T. As
    adj(a) = adj(M) / d^(n-1), the left equations vanish when
    adj(M)^T = d^(n-2) M and the right ones when J^T adj(M)^T = d^(n-2) M J^T.
    """
    scale = d ** (len(m) - 2)
    moved = linalg.transpose(adj)
    here = [[scale * x for x in row] for row in m]
    if side == "right":
        moved, here = _jt_times(moved), _times_jt(here)
    return moved == here


def invariance_loci(
    p: int, samples: int = 20, seed: int = 0, frame: SLFrame | None = None
) -> VerifyReport:
    """Point-sampled bidirectional check of the two invariance loci.

    The left locus must cut out exactly the orthogonal points, the right
    locus exactly the J-preserving points; for p = 1 the right locus is all
    of SL(2). Every point is an int pair (M, d) and every test on it is
    decided on ints. For p <= 2 the left equations are also built
    symbolically once, to check their stated shape.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    n = 2 * p
    rep = VerifyReport("invariance", {"p": p, "samples": samples, "seed": seed})

    if p <= 2:
        left_locus_equations(frame or build_frame(p))
        rep.check(
            "left locus equations match +-(a[i,j] - (-1)^(i+j) A[i,j])",
            True,
            True,
            "claimed",
        )

    so_failures = []
    for k in range(samples):
        m, d = _sample_point("SO", n, _mix_seed(seed, k))
        det, adj = linalg.det_adj(m)
        if not _orthogonal(m, d) or det != d ** n:
            so_failures.append((k, "sampler produced a non-SO point"))
            continue
        if not _locus_zero(m, d, adj, "left"):
            so_failures.append((k, "left equations do not vanish"))
    rep.check(
        f"left locus holds at {samples} sampled SO({n}) points",
        so_failures,
        [],
        "claimed",
    )

    nonorth_failures = []
    for k in range(samples):
        m = _sl_nonorthogonal(n, _mix_seed(seed, k))
        if _locus_zero(m, 1, linalg.det_adj(m)[1], "left"):
            nonorth_failures.append(k)
    rep.check(
        f"left locus fails at {samples} non-orthogonal SL({n}) points",
        nonorth_failures,
        [],
        "claimed",
        note="point-sampled converse: equations hold iff the point is orthogonal",
    )

    h_failures = []
    for k in range(samples):
        m, d = _sample_point("H", p, _mix_seed(seed, k))
        det, adj = linalg.det_adj(m)
        if not _preserves_j(m, d) or det != d ** n:
            h_failures.append((k, "sampler produced a point outside H"))
            continue
        if not _locus_zero(m, d, adj, "right"):
            h_failures.append((k, "right equations do not vanish"))
    rep.check(
        f"right locus holds at {samples} sampled H points",
        h_failures,
        [],
        "claimed",
    )

    if p == 1:
        sl_failures = []
        for k in range(samples):
            m, _ = _sample_point("SL", n, _mix_seed(seed, k, 7))
            if not _locus_zero(m, 1, linalg.det_adj(m)[1], "right") or not _preserves_j(m, 1):
                sl_failures.append(k)
        rep.check(
            "for p = 1 the right locus holds at arbitrary SL(2) points (H = SL(2))",
            sl_failures,
            [],
            "claimed",
        )
    else:
        nonh_failures = []
        for k in range(samples):
            m = _sl_nonorthogonal(n, _mix_seed(seed, k, 11))
            if _preserves_j(m, 1):
                continue  # exceedingly unlikely; skip rather than miscount
            if _locus_zero(m, 1, linalg.det_adj(m)[1], "right"):
                nonh_failures.append(k)
        rep.check(
            f"right locus fails at {samples} sampled non-H SL({n}) points",
            nonh_failures,
            [],
            "claimed",
            note="point-sampled converse: equations hold iff tA J A = J",
        )
    return rep


# -- the subalgebra h --------------------------------------------------------------


@dataclass
class SubalgebraResult:
    """Solution space of J Y + tY J = 0 with closure and block-shape audits;
    bracket_closed is derived from basis membership (see h_algebra), not computed."""

    basis: list[linalg.Mat]
    dimension: int
    bracket_closed: bool
    quoted_block_rule_holds: bool
    corrected_block_rule_holds: bool
    report: VerifyReport = field(default=None)


def h_algebra(p: int) -> SubalgebraResult:
    """Solve JY + tY J = 0 exactly and audit h: dimension, closure, trace, block rules.

    The nullspace of the dense system is the oracle for the dimension and
    the block rules; _in_h checks each basis matrix. Closure needs no
    commutator: JA = S and JB = T symmetric give J[A,B] = S tJ T - T tJ S =
    TJS - SJT (tJ = -J), whose transpose -SJT + TJS is the same matrix.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    n = 2 * p
    # the dense n^2 x n^2 system below is the largest object; refuse it up front
    limit = config.get_max_terms()
    if n ** 4 > limit:
        raise TermLimitError(f"h-algebra system of {n ** 4} entries (budget {limit})")
    rep = VerifyReport("h-algebra", {"p": p})

    # unknowns y[r][c] flattened row-major; column r * n + c of the system is
    # JE - t(JE) = JE + tE J, row-major, for the unit matrix E = E[r][c]
    columns = []
    for r in range(n):
        for c in range(n):
            je = _j_times([[int((i, j) == (r, c)) for j in range(n)] for i in range(n)])
            columns.append([je[u][v] - je[v][u] for u in range(n) for v in range(n)])
    kernel = linalg.nullspace(linalg.transpose(columns))
    basis = [[vec[r * n:(r + 1) * n] for r in range(n)] for vec in kernel]
    if not all(map(_in_h, basis)):
        raise InternalCheckError("nullspace element violates the defining equations")

    dim = len(basis)
    rep.check("dim h = p(2p+1)", dim, p * (2 * p + 1), "claimed")

    # Derived, not computed: the basis spans the whole solution space h (it is
    # the nullspace), each basis matrix passed _in_h above, and h is closed:
    # JA = S, JB = T symmetric give J[A,B] = TJS - SJT, which is symmetric.
    rep.check("h is closed under the matrix bracket", True, True, "derived")

    traceless = all(sum(y[i][i] for i in range(n)) == 0 for y in basis)
    rep.check("h consists of traceless matrices", traceless, True, "derived",
              note="for p = 1 this recovers sl(2) exactly" if p == 1 else "")

    def block(y, bi, bj):
        return [[y[2 * bi + r][2 * bj + c] for c in range(2)] for r in range(2)]

    # J M J = -(J M J^T) for J = [[0, 1], [-1, 0]]: both rules compare -M[j,i] with J M J^T
    quoted_ok = True
    corrected_ok = True
    for y in basis:
        for bi in range(p):
            for bj in range(bi + 1, p):
                mij = block(y, bi, bj)
                minus_mji = [[-x for x in row] for row in block(y, bj, bi)]
                quoted_ok &= minus_mji == _times_jt(_j_times(mij))
                corrected_ok &= minus_mji == _times_jt(_j_times(linalg.transpose(mij)))
    if p == 1:
        rep.add("block mirror rule (no off-diagonal blocks for p = 1)", True, True,
                "derived", CONFIRMED)
    else:
        rep.audit(
            "quoted block rule M[j,i] = J M[i,j] J",
            quoted_ok,
            True,
            note="fails on the solution space; the transpose is missing",
        )
        rep.check(
            "corrected block rule M[j,i] = J (M[i,j])^T J",
            corrected_ok,
            True,
            "derived",
            note="consistent with the displayed p = 2 matrix",
        )
    return SubalgebraResult(
        basis=basis,
        dimension=dim,
        bracket_closed=True,
        quoted_block_rule_holds=quoted_ok,
        corrected_block_rule_holds=corrected_ok,
        report=rep,
    )


# -- u-decomposition ----------------------------------------------------------------


def u_decomposition(p: int, frame: SLFrame | None = None) -> VerifyReport:
    """Expand omega in the alpha coframe and audit the inner-product table.

    The coefficients u[k,l] = omega(X[k,l]) are computed by exact contraction
    (the contraction is the oracle; the quoted table is checked against it).
    The reconstruction sum u[k,l] alpha[k,l] is then checked against the exact
    ambient identity sum u alpha = det * omega + gamma * d(det), with
    gamma = (sum_k u[k,k])/(2p), one generator coefficient at a time. The
    claim that the two agree as forms on the det = 1 locus follows from it
    without a further expansion: (sum u alpha - omega) ^ d(det) =
    (det - 1) omega ^ d(det) + gamma d(det) ^ d(det) whenever the identity
    holds, and d(det) ^ d(det) = 0, so that wedge reduces to 0 mod
    (det - 1). The claim is therefore confirmed with the identity and
    refuted, as not established, without it.
    """
    frame = frame or build_frame(p)
    n = frame.size
    rep = VerifyReport("u-decomp", {"p": p})
    shift = frame.delta - 1
    indices = sl_basis_indices(2 * p)

    u = {kl: interior_product(frame.X[kl], frame.omega).as_poly() for kl in indices}

    def expected_u(k: int, l: int) -> Poly:
        if k == l:
            base = (
                frame.column_inner(k, k + 1)
                if k % 2 == 1
                else -frame.column_inner(k - 1, k)
            )
            return base + frame.column_inner(n - 1, n)
        if l % 2 == 0:
            return -frame.column_inner(k, l - 1)
        return frame.column_inner(k, l + 1)

    mismatches = []
    for k, l in indices:
        if u[(k, l)] != expected_u(k, l):
            mismatches.append(
                {"index": (k, l), "computed": u[(k, l)], "table": expected_u(k, l)}
            )
    rep.check(
        "inner-product table: u[k,l] = omega(X[k,l]) for every frame index",
        mismatches,
        [],
        "claimed",
        note="diagonal entries carry the uniform <C[2p-1], C[2p]> shift",
    )

    if p == 1:
        a = lambda i, j: Poly.variable(n, i, j)
        quoted = {
            (1, 1): 2 * (a(1, 1) * a(1, 2) + a(2, 1) * a(2, 2)),
            (1, 2): -(a(1, 1) * a(1, 1) + a(2, 1) * a(2, 1)),
            (2, 1): a(1, 2) * a(1, 2) + a(2, 2) * a(2, 2),
        }
        for kl, expected in quoted.items():
            rep.check(f"p=1 closed form for u{kl}", u[kl], expected, "claimed")
        rep.add(
            "index of the third coefficient",
            "omega(X[2,1])",
            "omega(X[1,2]) as printed",
            "claimed",
            REPORTED_ONLY,
            note="the printed label repeats X[1,2]; the contraction oracle pins it to X[2,1]",
        )

    gamma = sum(u[(k, k)] for k in range(1, n)) * Fraction(1, 2 * p)

    # one generator da[i,j] at a time, so neither side is ever held as a whole form
    identity_ok, residual = True, False
    for var in row_major_vars(n):
        gen = (var,)
        lhs = sum_of_products(n, [(1, frame.alpha[kl].coefficient(gen), u[kl]) for kl in indices])
        omega_c = frame.omega.coefficient(gen)
        identity_ok &= lhs == sum_of_products(
            n, [(1, omega_c, frame.delta), (1, frame.d_delta.coefficient(gen), gamma)])
        if not residual:
            residual = not reduce_mod_principal(lhs - omega_c, shift).is_zero
    rep.check(
        "exact ambient identity: sum u alpha = det * omega + gamma * d(det)",
        identity_ok,
        True,
        "derived",
        note="gamma = (sum_k u[k,k]) / (2p)",
    )
    rep.check(
        "reconstruction equals omega as a form on the det = 1 locus",
        identity_ok,
        True,
        "derived",
        note="(sum u alpha - omega) ^ d(det) reduces to 0 mod (det - 1)",
    )
    rep.add(
        "literal coefficient-wise reading: sum u alpha = omega modulo (det - 1)",
        "residual gamma * d(det), nonzero" if residual else "residual 0",
        "residual 0",
        "claimed",
        CONFIRMED if not residual else REPORTED_ONLY,
        note=(
            "the two sides differ by gamma * d(det), which vanishes on vectors "
            "tangent to the det = 1 locus; the decomposition is an identity of "
            "forms on the group, not of ambient coefficient polynomials"
        ),
    )
    return rep
