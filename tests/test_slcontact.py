"""SL(2p) verification suite: frame, contact identity, Reeb field, loci,
the J-preserving subalgebra, u-decomposition, samplers."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from contactforge import linalg, slcontact
from contactforge.errors import InternalCheckError, ParameterError
from contactforge.exterior import Form, VField, covector_transport, ext_d, interior_product, wedge
from contactforge.polyring import Poly, reduce_mod_principal, row_major_vars, symbolic_matrix
from contactforge.report import CONFIRMED, REFUTED, REPORTED_ONLY
from contactforge.slcontact import (
    build_frame,
    h_algebra,
    identity_point,
    invariance_loci,
    left_locus_equations,
    matrix_point,
    reeb_field,
    sample_group_point,
    structural_checks,
    u_decomposition,
    verify_contact_identity,
)

F = Fraction


# -- frame ---------------------------------------------------------------------


def test_omega_p1_display(frame_p1):
    a = lambda i, j: Poly.variable(2, i, j)
    expected = Form(
        2,
        1,
        {
            ((1, 1),): a(1, 2),
            ((1, 2),): -a(1, 1),
            ((2, 1),): a(2, 2),
            ((2, 2),): -a(2, 1),
        },
    )
    assert frame_p1.omega == expected


def test_all_frame_fields_annihilate_delta(frame_p2):
    for fld in list(frame_p2.X.values()) + list(frame_p2.Y.values()):
        assert fld.apply(frame_p2.delta).is_zero


def test_tangency_by_contraction_refuses_a_non_tangent_field(frame_p2):
    d_delta = frame_p2.d_delta
    for fld in [*frame_p2.X.values(), *frame_p2.Y.values()]:
        assert interior_product(fld, d_delta).is_zero
    d11 = VField(4, {(1, 1): Poly.const(4, 1)})  # d/da[1,1]: d11(det) is the (1,1) cofactor
    assert not d11.apply(frame_p2.delta).is_zero
    assert not interior_product(d11, d_delta).is_zero
    assert not interior_product(frame_p2.X[(1, 2)] + d11, d_delta).is_zero


def test_build_frame_refuses_a_field_that_is_not_tangent(monkeypatch):
    made = []

    def skewed(size, coeffs):
        if not made:  # the first field built is X(1,1)
            coeffs = {**coeffs, (1, 1): coeffs[(1, 1)] + Poly.const(size, 1)}
        made.append(coeffs)
        return VField(size, coeffs)

    monkeypatch.setattr(slcontact, "VField", skewed)
    with pytest.raises(InternalCheckError, match=r"X\(1, 1\) is not tangent"):
        build_frame(1)


def test_frame_counts(frame_p2):
    assert len(frame_p2.X) == len(frame_p2.Y) == len(frame_p2.alpha) == 15


def test_omega_at_identity(frame_p1):
    omega_e = frame_p1.omega.evaluate_coefficients(identity_point(2))
    assert omega_e == Form(
        2, 1, {((1, 2),): Poly.const(2, -1), ((2, 1),): Poly.const(2, 1)}
    )


# -- contact identity ------------------------------------------------------------


def test_contact_identity_p1(frame_p1):
    result = verify_contact_identity(1, frame_p1)
    assert result.constant == -4
    assert result.volume_reading_matches
    assert not result.dw_reading_matches
    assert result.dw_top_scalar == 8
    assert result.is_contact
    vol = row_major_vars(2)
    assert result.top_coefficient == frame_p1.delta * -4
    assert result.report.ok


def test_contact_identity_p2(frame_p2):
    result = verify_contact_identity(2, frame_p2)
    # derived closed form: (-2)^(N-1) (N-1)! 2p with N = 2p^2 = 8
    assert result.constant == (-2) ** 7 * math.factorial(7) * 4 == -2580480
    assert result.claimed_constant == -512
    assert not result.volume_reading_matches
    assert not result.dw_reading_matches
    assert result.is_contact
    assert result.top_coefficient == frame_p2.delta * result.constant
    verdicts = {c.anchor: c.verdict for c in result.report.claims}
    assert verdicts["factorization constant under the reading Theta = V"] == REPORTED_ONLY
    assert result.report.ok


def test_contact_identity_refutes_a_top_coefficient_det_does_not_divide(monkeypatch, frame_p1):
    monkeypatch.setattr(slcontact, "divmod_principal", lambda f, g: (Poly.zero(2), f))
    result = verify_contact_identity(1, frame_p1)
    assert not result.is_contact and result.constant is None
    assert not result.report.ok
    assert result.report.claims[-1].anchor == "top coefficient divisible by det"


# -- Reeb ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_reeb_identities(p, frame_p1, frame_p2):
    frame = frame_p1 if p == 1 else frame_p2
    result = reeb_field(p, frame)
    assert result.pairing == F(-p, 2)
    assert result.normalizer == F(-2, p)
    assert result.report.ok
    d_omega = ext_d(frame.omega)
    assert interior_product(result.numerator, d_omega) == frame.d_delta * 2
    assert interior_product(result.numerator, frame.omega).as_poly() == frame.delta * (-2 * p)
    assert interior_product(result.normalized_numerator, frame.omega).as_poly() == frame.delta
    assert wedge(interior_product(result.normalized_numerator, d_omega), frame.d_delta).is_zero
    quoted = [c for c in result.report.claims if c.anchor.startswith("quoted normalization")]
    assert quoted and quoted[0].verdict == REPORTED_ONLY


def test_reeb_contraction_example_p1(frame_p1):
    # omega(R) = -1/2 once the determinant prefactor is cleared
    result = reeb_field(1, frame_p1)
    pairing = interior_product(result.numerator, frame_p1.omega).as_poly()
    assert pairing == frame_p1.delta * -2  # divide by 4 det: -1/2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reeb_kernel_claim_pointwise(p, request):
    """Pointwise oracle without the wedge kernel: i(R_norm) d omega, cleared
    of det, is -1/p times d(det), whose da[i,j] coefficient is the cofactor
    adj(a)[j][i]. It holds in the ambient ring, so at a det = 2 point too."""
    frame = request.getfixturevalue(f"frame_p{p}")
    n = frame.size
    kernel = interior_product(reeb_field(p, frame).normalized_numerator, ext_d(frame.omega))
    off = sample_group_point("SL", n, 0)
    off[0] = [2 * x for x in off[0]]
    points = [(sample_group_point("SL", n, seed), 1) for seed in range(3)] + [(off, 2)]
    for a, det in points:
        got_det, adj = linalg.det_adj(a)
        assert got_det == det
        expected = [F(-1, p) * adj[j][i] for i in range(n) for j in range(n)]
        assert _coefficient_vector(kernel, matrix_point(a), n) == expected


# -- structural suite --------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_structural_suite(p):
    rep = structural_checks(p)
    assert rep.ok
    by_anchor = {c.anchor: c for c in rep.claims}
    pattern = by_anchor["exact duality pattern (nonzero entries)"]
    assert pattern.computed == pattern.reference  # Kronecker delta


def test_duality_examples_p1(frame_p1):
    shift = frame_p1.delta - 1
    val = interior_product(frame_p1.X[(1, 2)], frame_p1.alpha[(1, 2)]).as_poly()
    assert val == frame_p1.delta
    assert reduce_mod_principal(val, shift) == Poly.const(2, 1)
    val2 = interior_product(frame_p1.X[(2, 1)], frame_p1.alpha[(1, 2)]).as_poly()
    assert val2.is_zero


# -- Fraction references for the int point path -------------------------------------


def j_matrix(p):
    """Block-diagonal J: p copies of [[0, 1], [-1, 0]]."""
    n = 2 * p
    m = [[F(0)] * n for _ in range(n)]
    for b in range(p):
        m[2 * b][2 * b + 1] = F(1)
        m[2 * b + 1][2 * b] = F(-1)
    return m


def is_orthogonal(a):
    return linalg.mat_mul(linalg.transpose(a), a) == linalg.identity(len(a))


def preserves_j(a):
    """tA J A == J, with the dense J."""
    jm = j_matrix(len(a) // 2)
    return linalg.mat_mul(linalg.transpose(a), linalg.mat_mul(jm, a)) == jm


def _cayley(s):
    """(I - S)(I + S)^-1 as (I - S) adj(I + S) / det(I + S); None at a pole."""
    n = len(s)
    plus = [[int(i == j) + s[i][j] for j in range(n)] for i in range(n)]
    minus = [[int(i == j) - s[i][j] for j in range(n)] for i in range(n)]
    d, adj = linalg.det_adj(plus)
    if adj is None:
        return None
    return [[x / d for x in row] for row in linalg.mat_mul(minus, adj)]


def reference_sample(group, n, seed):
    """The sampler on Fraction matrices: the same rng calls in the same order."""
    if group == "SL":
        rng = random.Random(slcontact._mix_seed(1, n, seed))
        lower = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        upper = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i > j:
                    lower[i][j] = F(rng.randint(-3, 3))
                elif i < j:
                    upper[i][j] = F(rng.randint(-3, 3))
        return linalg.mat_mul(lower, upper)
    if group == "SO":
        for attempt in range(100):
            rng = random.Random(slcontact._mix_seed(2, n, seed, attempt))
            s = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = F(rng.randint(-9, 9), rng.randint(1, 9))
                    s[i][j] = v
                    s[j][i] = -v
            a = _cayley(s)
            if a is not None:
                return a
    p, n = n, 2 * n
    jt = linalg.transpose(j_matrix(p))
    for attempt in range(100):
        rng = random.Random(slcontact._mix_seed(3, p, seed, attempt))
        s = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = F(rng.randint(-4, 4), rng.randint(1, 4))
        a = _cayley(linalg.mat_mul(jt, s))
        if a is not None:
            return a


def sample_sl_nonorthogonal(n, seed):
    for attempt in range(100):
        a = reference_sample("SL", n, slcontact._mix_seed(seed, attempt))
        if not is_orthogonal(a):
            return a


def locus_values(a, side):
    """The left or right locus equations at an invertible point a, with dense
    products: B = J^T is the coefficient matrix of omega at the identity,
    omega at a is a B, the left transport adj(a)^T B, the right one B adj(a)^T."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    adj = linalg.det_adj(a)[1]
    if adj is None:
        raise ParameterError("locus values need an invertible point")
    b, adj_t = linalg.transpose(j_matrix(len(a) // 2)), linalg.transpose(adj)
    moved = linalg.mat_mul(adj_t, b) if side == "left" else linalg.mat_mul(b, adj_t)
    here = linalg.mat_mul(a, b)
    return [x - y for row_m, row_h in zip(moved, here) for x, y in zip(row_m, row_h)]


def as_fractions(m, d):
    return [[F(x, d) for x in row] for row in m]


# -- samplers -----------------------------------------------------------------------


def test_sample_sl_determinant():
    for seed in range(10):
        a = sample_group_point("SL", 4, seed)
        assert linalg.det_adj(a)[0] == 1


def test_sample_so_orthogonal():
    for seed in range(10):
        a = sample_group_point("SO", 3, seed)
        assert is_orthogonal(a)
        assert linalg.det_adj(a)[0] == 1


def test_sample_h_preserves_j():
    for p in range(1, 5):
        for seed in range(6):
            a = sample_group_point("H", p, seed)
            assert preserves_j(a)
            assert linalg.det_adj(a)[0] == 1


def test_samplers_deterministic():
    assert sample_group_point("SO", 4, 123) == sample_group_point("SO", 4, 123)
    assert sample_group_point("SL", 3, 9) == sample_group_point("SL", 3, 9)
    assert sample_group_point("H", 2, 5) == sample_group_point("H", 2, 5)


def test_nonorthogonal_sampler():
    for seed in range(5):
        a = sample_sl_nonorthogonal(4, seed)
        assert linalg.det_adj(a)[0] == 1
        assert not is_orthogonal(a)
        assert slcontact._sl_nonorthogonal(4, seed) == a


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_int_points_equal_the_fraction_reference_sampler(p):
    n = 2 * p
    for group, size in (("SL", n), ("SO", n), ("H", p)):
        for seed in range(20):
            m, d = slcontact._sample_point(group, size, seed)
            assert all(type(x) is int for row in m for x in row) and type(d) is int
            assert d == 1 or group != "SL"
            view = sample_group_point(group, size, seed)
            assert as_fractions(m, d) == view == reference_sample(group, size, seed)


def _int_point(a):
    """A rational matrix as (M, d) over the lcm d of its denominators."""
    d = math.lcm(*(F(x).denominator for row in a for x in row))
    return [[int(x * d) for x in row] for row in a], d


def _points_on_and_off_the_groups(p, seeds):
    """(M, d) at SO, H, non-orthogonal SL and non-H SL points, and each SO and
    H point with d doubled, so a = M / d lies on no group and has det != 1."""
    n = 2 * p
    points = []
    for seed in seeds:
        points.append(slcontact._sample_point("SO", n, seed))
        points.append(slcontact._sample_point("H", p, seed))
        points.append((slcontact._sl_nonorthogonal(n, seed), 1))
        points.append((slcontact._sl_nonorthogonal(n, slcontact._mix_seed(seed, 11)), 1))
    return points + [(m, 2 * d) for m, d in points[:2 * len(seeds)]]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_int_predicates_agree_with_the_fraction_references(p):
    n = 2 * p
    outcomes = {name: set() for name in ("orthogonal", "preserves_j", "det 1", "left", "right")}
    for m, d in _points_on_and_off_the_groups(p, range(6)):
        a = as_fractions(m, d)
        det, adj = linalg.det_adj(m)
        verdicts = {
            "orthogonal": (slcontact._orthogonal(m, d), is_orthogonal(a)),
            "preserves_j": (slcontact._preserves_j(m, d), preserves_j(a)),
            "det 1": (det == d ** n, linalg.det_adj(a)[0] == 1),
            "left": (slcontact._locus_zero(m, d, adj, "left"), not any(locus_values(a, "left"))),
            "right": (slcontact._locus_zero(m, d, adj, "right"), not any(locus_values(a, "right"))),
        }
        for name, (by_ints, by_fractions) in verdicts.items():
            assert by_ints == by_fractions, (name, m, d)
            outcomes[name].add(by_ints)
    # adj(a)^T = J a J^T for every 2 x 2 matrix a, so at p = 1 the right
    # equations vanish at every invertible point
    assert outcomes.pop("right") == ({True} if p == 1 else {True, False})
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


# -- invariance loci -----------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
def test_invariance_loci(p):
    rep = invariance_loci(p, samples=8, seed=1)
    assert rep.ok


def test_left_locus_equations_vanish_iff_orthogonal(frame_p1):
    eqs = left_locus_equations(frame_p1)
    rot = sample_group_point("SO", 2, 3)
    pt = matrix_point(rot)
    assert all(eq.evaluate(pt) == 0 for eq in eqs.values())
    bad = matrix_point([[F(2), F(0)], [F(0), F(1, 2)]])
    assert any(eq.evaluate(bad) != 0 for eq in eqs.values())


def test_cayley_rational_rotation_satisfies_left_locus(frame_p1):
    # a = [[(1-t^2)/(1+t^2), -2t/(1+t^2)], [2t/(1+t^2), (1-t^2)/(1+t^2)]]
    t = F(1, 3)
    d = 1 + t * t
    rot = [[(1 - t * t) / d, -2 * t / d], [2 * t / d, (1 - t * t) / d]]
    eqs = left_locus_equations(frame_p1)
    pt = matrix_point(rot)
    assert all(eq.evaluate(pt) == 0 for eq in eqs.values())


def right_locus_equations(frame):
    """Coefficients of the right-transported identity covector minus omega, row-major."""
    n = frame.size
    omega_e = frame.omega.evaluate_coefficients(identity_point(n))
    diff = covector_transport(symbolic_matrix(n), "right", omega_e) - frame.omega
    return {(i, j): diff.coefficient(((i, j),)) for i in range(1, n + 1) for j in range(1, n + 1)}


def test_right_locus_is_all_of_sl2(frame_p1):
    eqs = right_locus_equations(frame_p1)
    for seed in range(10):
        pt = matrix_point(sample_group_point("SL", 2, seed))
        assert all(eq.evaluate(pt) == 0 for eq in eqs.values())


def _invertible(rng, n):
    """A seeded rational n x n matrix with det not in {0, 1}."""
    while True:
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.det_adj(m)[0] not in (0, 1):
            return m


@pytest.mark.parametrize("p", [1, 2])
def test_locus_values_match_symbolic_equations(p, frame_p1, frame_p2):
    frame = frame_p1 if p == 1 else frame_p2
    n = 2 * p
    left = left_locus_equations(frame)
    right = right_locus_equations(frame)
    rng = random.Random(p)
    points = [sample_group_point("SL", n, seed) for seed in range(5)]
    points += [_invertible(rng, n) for _ in range(5)]
    for a in points:
        pt = matrix_point(a)
        assert locus_values(a, "left") == [eq.evaluate(pt) for eq in left.values()]
        assert locus_values(a, "right") == [eq.evaluate(pt) for eq in right.values()]


@pytest.mark.parametrize("p", [1, 2])
def test_int_verdicts_match_the_symbolic_equations(p, frame_p1, frame_p2):
    frame = frame_p1 if p == 1 else frame_p2
    left = left_locus_equations(frame)
    right = right_locus_equations(frame)
    rng = random.Random(p)
    points = _points_on_and_off_the_groups(p, range(3))
    points += [_int_point(_invertible(rng, 2 * p)) for _ in range(5)]
    seen = set()
    for m, d in points:
        pt = matrix_point(as_fractions(m, d))
        adj = linalg.det_adj(m)[1]
        for side, eqs in (("left", left), ("right", right)):
            zero = slcontact._locus_zero(m, d, adj, side)
            assert zero == all(eq.evaluate(pt) == 0 for eq in eqs.values())
            seen.add((side, zero))
    assert len(seen) == (3 if p == 1 else 4)  # p = 1: the right equations always vanish


def test_the_p3_point_path_builds_no_fraction(monkeypatch):
    """At p = 3 no frame is built, so every Fraction would come from the points."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert invariance_loci(3, 20, 0).ok
    assert made == []
    assert Fraction(1, 3) and made == [(1, 3)]


def test_locus_values_p3_cut_out_so6_and_h():
    for seed in range(3):
        assert not any(locus_values(sample_group_point("SO", 6, seed), "left"))
        assert any(locus_values(sample_sl_nonorthogonal(6, seed), "left"))
        assert not any(locus_values(sample_group_point("H", 3, seed), "right"))


def test_locus_values_reject_a_singular_point_and_an_unknown_side():
    with pytest.raises(ParameterError):
        locus_values([[F(1), F(2)], [F(2), F(4)]], "left")
    with pytest.raises(ValueError):
        locus_values(linalg.identity(2), "up")


# -- h algebra -----------------------------------------------------------------------


@pytest.mark.parametrize("p,dim", [(1, 3), (2, 10), (3, 21)])
def test_h_dimension_and_closure(p, dim):
    result = h_algebra(p)
    assert result.dimension == dim == p * (2 * p + 1)
    assert result.bracket_closed
    assert result.report.ok


def test_h_p1_is_sl2():
    result = h_algebra(1)
    # the 2x2 traceless matrices: dimension 3 and every basis element traceless
    assert result.dimension == 3
    for y in result.basis:
        assert y[0][0] + y[1][1] == 0


def test_h_block_rules():
    result = h_algebra(2)
    assert not result.quoted_block_rule_holds
    assert result.corrected_block_rule_holds
    verdicts = {c.anchor: c.verdict for c in result.report.claims}
    assert verdicts["quoted block rule M[j,i] = J M[i,j] J"] == REPORTED_ONLY
    assert verdicts["corrected block rule M[j,i] = J (M[i,j])^T J"] == CONFIRMED


def test_in_h_matches_the_dense_defining_equation():
    rng = random.Random(31)
    members = 0
    for _ in range(60):
        p = rng.randint(1, 3)
        n, jm = 2 * p, j_matrix(p)
        y = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # J^T S with S symmetric lies in h
            s = [[y[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            y = linalg.mat_mul(linalg.transpose(jm), s)
        jy, ytj = linalg.mat_mul(jm, y), linalg.mat_mul(linalg.transpose(y), jm)
        member = all(x + z == 0 for lr, rr in zip(jy, ytj) for x, z in zip(lr, rr))
        assert slcontact._in_h(y) == member
        members += member
    assert 20 <= members < 60


def test_j_transpose_symmetric_units_span_h():
    for p in (1, 2, 3):
        n, jt = 2 * p, linalg.transpose(j_matrix(p))
        direct = []
        for i in range(n):
            for j in range(i, n):
                s = [[F(int({r, c} == {i, j})) for c in range(n)] for r in range(n)]
                direct.append([x for row in linalg.mat_mul(jt, s) for x in row])
        kernel = [[x for row in y for x in row] for y in h_algebra(p).basis]
        dim = p * (2 * p + 1)
        assert linalg.rank(direct) == linalg.rank(kernel) == linalg.rank(direct + kernel) == dim


def _commutators_in_h(basis) -> bool:
    """The closure check h_algebra derives: every commutator of a basis pair passes _in_h."""
    return all(
        slcontact._in_h(linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a)))
        for i, a in enumerate(basis) for b in basis[i + 1:]
    )


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_every_commutator_of_the_h_basis_lies_in_h(p):
    assert _commutators_in_h(h_algebra(p).basis)


@pytest.mark.parametrize("p", [2, 3])
def test_the_commutator_check_refuses_a_basis_with_a_matrix_outside_h(p):
    n = 2 * p
    e11 = [[F(int(i == j == 0)) for j in range(n)] for i in range(n)]
    assert not slcontact._in_h(e11)
    assert not _commutators_in_h(h_algebra(p).basis + [e11])


def test_j_times_a_bracket_of_h_members_is_tjs_minus_sjt():
    rng = random.Random(26)
    for p in (1, 2, 3):
        n, jm = 2 * p, j_matrix(p)
        for _ in range(5):
            s, t = ([[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            s, t = ([[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] for m in (s, t))
            a, b = (linalg.mat_mul(linalg.transpose(jm), m) for m in (s, t))
            bracket = linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))
            lhs = linalg.mat_mul(jm, bracket)
            rhs = linalg.mat_sub(linalg.mat_mul(linalg.mat_mul(t, jm), s),
                                 linalg.mat_mul(linalg.mat_mul(s, jm), t))
            assert lhs == rhs == linalg.transpose(rhs)
            assert any(x for row in lhs for x in row)


def test_h_algebra_forms_no_matrix_product(monkeypatch):
    def refuse(a, b):
        raise AssertionError("h_algebra called linalg.mat_mul")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    assert h_algebra(3).report.ok


# -- u-decomposition -----------------------------------------------------------------


def test_u_decomposition_p1_quoted_formulas(frame_p1):
    a = lambda i, j: Poly.variable(2, i, j)
    u11 = interior_product(frame_p1.X[(1, 1)], frame_p1.omega).as_poly()
    u12 = interior_product(frame_p1.X[(1, 2)], frame_p1.omega).as_poly()
    u21 = interior_product(frame_p1.X[(2, 1)], frame_p1.omega).as_poly()
    assert u11 == 2 * (a(1, 1) * a(1, 2) + a(2, 1) * a(2, 2))
    assert u12 == -(a(1, 1) * a(1, 1) + a(2, 1) * a(2, 1))
    assert u21 == a(1, 2) * a(1, 2) + a(2, 2) * a(2, 2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_u_decomposition_report(p, request):
    frame = request.getfixturevalue(f"frame_p{p}")
    rep = u_decomposition(p, frame)
    assert rep.ok
    by_anchor = {c.anchor: c for c in rep.claims}
    assert by_anchor["inner-product table: u[k,l] = omega(X[k,l]) for every frame index"].verdict == CONFIRMED
    assert by_anchor[
        "exact ambient identity: sum u alpha = det * omega + gamma * d(det)"
    ].verdict == CONFIRMED
    assert by_anchor[
        "reconstruction equals omega as a form on the det = 1 locus"
    ].verdict == CONFIRMED
    literal = by_anchor[
        "literal coefficient-wise reading: sum u alpha = omega modulo (det - 1)"
    ]
    assert literal.verdict == REPORTED_ONLY


@pytest.mark.parametrize("p", [1, 2])
def test_u_decomposition_refutes_a_broken_coframe(p, request):
    """alpha[2,1] doubled: its terms lie only on the da[i,1], none of them the
    last generator, so every generator's verdict must count."""
    frame = request.getfixturevalue(f"frame_p{p}")
    alpha = {**frame.alpha, (2, 1): frame.alpha[(2, 1)] * 2}
    assert all(gens[0][1] == 1 for gens in frame.alpha[(2, 1)].terms)
    rep = u_decomposition(p, dataclasses.replace(frame, alpha=alpha))
    assert not rep.ok
    by_anchor = {c.anchor: c for c in rep.claims}
    for anchor in ("exact ambient identity: sum u alpha = det * omega + gamma * d(det)",
                   "reconstruction equals omega as a form on the det = 1 locus"):
        assert by_anchor[anchor].verdict == REFUTED
    literal = by_anchor["literal coefficient-wise reading: sum u alpha = omega modulo (det - 1)"]
    assert literal.verdict == REPORTED_ONLY


def test_u_decomposition_p3_holds_no_whole_form(frame_p3):
    """Each side of the identity is built one generator coefficient at a time."""
    tracemalloc.start()
    try:
        assert u_decomposition(3, frame_p3).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _u_difference(frame):
    """(sum u alpha - omega, gamma), built as u_decomposition builds them."""
    u = {kl: interior_product(frame.X[kl], frame.omega).as_poly() for kl in frame.X}
    recon = Form.zero(frame.size, 1)
    for kl, coeff in u.items():
        recon = recon + frame.alpha[kl] * coeff
    gamma = Poly.zero(frame.size)
    for k in range(1, frame.size):
        gamma = gamma + u[(k, k)]
    p = frame.size // 2
    return recon - frame.omega, gamma * F(1, 2 * p)


@pytest.mark.parametrize("p", [1, 2])
def test_u_tangential_claim_matches_the_wedge_expansion(p, request):
    """Reference for the derived claim: the expansion the report no longer runs."""
    frame = request.getfixturevalue(f"frame_p{p}")
    shift = frame.delta - 1
    difference, gamma = _u_difference(frame)
    tangential = wedge(difference, frame.d_delta)
    assert not tangential.is_zero
    assert all(reduce_mod_principal(c, shift).is_zero for c in tangential.terms.values())

    def reduced(form):
        return {g: r for g, c in form.terms.items()
                if not (r := reduce_mod_principal(c, shift)).is_zero}

    residual = reduced(difference)
    assert residual and residual == reduced(frame.d_delta * gamma)


def _coefficient_vector(form, point, n):
    return [form.terms.get(((i, j),), Poly.zero(n)).evaluate(point)
            for i in range(1, n + 1) for j in range(1, n + 1)]


def _parallel(v, w):
    """Every 2x2 minor of the 2 x n^2 matrix with rows v and w is 0."""
    return all(v[i] * w[j] == v[j] * w[i]
               for i in range(len(v)) for j in range(i + 1, len(v)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_u_tangential_claim_pointwise(p, request):
    """Pointwise oracle without the wedge kernel: at sampled SL points the
    1-forms sum u alpha - omega and d(det) are parallel, so their wedge
    vanishes there; off the locus (det = 2) it does not."""
    frame = request.getfixturevalue(f"frame_p{p}")
    n = frame.size
    difference, _ = _u_difference(frame)
    for seed in range(3):
        a = sample_group_point("SL", n, seed)
        assert linalg.det_adj(a)[0] == 1
        point = matrix_point(a)
        assert _parallel(_coefficient_vector(difference, point, n),
                         _coefficient_vector(frame.d_delta, point, n))
    off = sample_group_point("SL", n, 0)
    off[0] = [2 * x for x in off[0]]
    assert linalg.det_adj(off)[0] == 2
    point = matrix_point(off)
    assert not _parallel(_coefficient_vector(difference, point, n),
                         _coefficient_vector(frame.d_delta, point, n))


def test_u_reconstruction_residual_is_gamma_ddelta(frame_p1):
    """Counterexample record: at [[1,1],[0,1]] the ambient forms differ by d(det)."""
    frame = frame_p1
    u = {
        kl: interior_product(frame.X[kl], frame.omega).as_poly()
        for kl in frame.X
    }
    recon = Form.zero(2, 1)
    for kl, coeff in u.items():
        recon = recon + frame.alpha[kl] * coeff
    diff = recon - frame.omega
    pt = matrix_point([[F(1), F(1)], [F(0), F(1)]])
    diff_at = {g: c.evaluate(pt) for g, c in diff.terms.items() if c.evaluate(pt) != 0}
    ddelta_at = {g: c.evaluate(pt) for g, c in frame.d_delta.terms.items() if c.evaluate(pt) != 0}
    assert diff_at == ddelta_at  # gamma = <C1,C2> = 1 at this point
