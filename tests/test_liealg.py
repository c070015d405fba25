"""Lie algebras, Cartan classes and surveys."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactforge.errors import InvalidAlgebraError
from contactforge.liealg import (
    algebra_from_file,
    build_algebra,
    cartan_class,
    cartan_class_wedge,
    class_survey,
    heisenberg_algebra,
    pairing_matrix,
    random_covector,
    sl_algebra,
    so_algebra,
)
from contactforge import liealg, linalg

F = Fraction


def c(*values):
    return tuple(F(v) for v in values)


def test_so3_is_cyclic():
    g = so_algebra(3)
    assert g.brackets == {
        (1, 2): {3: F(1)},
        (1, 3): {2: F(-1)},  # [e1,e3] = -e2, i.e. [e3,e1] = e2
        (2, 3): {1: F(1)},
    }


def test_sl2_relations():
    g = sl_algebra(2)  # basis H = (1,1), E = (1,2), F = (2,1)
    assert g.bracket_basis(1, 2) == {2: F(2)}
    assert g.bracket_basis(1, 3) == {3: F(-2)}
    assert g.bracket_basis(2, 3) == {1: F(1)}


def test_heisenberg3():
    g = heisenberg_algebra(3)
    assert g.brackets == {(1, 2): {3: F(1)}}
    with pytest.raises(InvalidAlgebraError):
        heisenberg_algebra(4)


def test_from_file_roundtrip(tmp_path):
    path = tmp_path / "so3.alg"
    path.write_text("dim 3\n1 2 3 1\n1 3 2 -1\n2 3 1 1\n")
    g = algebra_from_file(str(path))
    assert g.dim == 3
    assert cartan_class(g, c(1, 2, 3)) == 3


def test_from_file_jacobi_failure(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("dim 3\n1 2 3 1\n1 3 1 1\n2 3 2 1\n")
    with pytest.raises(InvalidAlgebraError):
        algebra_from_file(str(path))


def test_from_file_parse_errors(tmp_path):
    path = tmp_path / "junk.alg"
    path.write_text("dim 3\n1 2 3\n")
    with pytest.raises(InvalidAlgebraError):
        algebra_from_file(str(path))


def test_build_algebra_dispatch():
    assert build_algebra("sl", 3).label == "sl(3)"
    assert build_algebra("so", 4).label == "so(4)"
    assert build_algebra("heisenberg", 5).label == "heisenberg(5)"
    with pytest.raises(InvalidAlgebraError):
        build_algebra("sp", 4)


def test_so3_every_nonzero_covector_has_class_3():
    g = so_algebra(3)
    rng = random.Random(2024)
    for _ in range(100):
        alpha = random_covector(g, rng)
        assert cartan_class(g, alpha) == 3


def test_sl2_nilpotent_form_has_class_2():
    g = sl_algebra(2)
    assert cartan_class(g, c(0, 1, 0)) == 2
    assert cartan_class_wedge(g, c(0, 1, 0)) == 2


def test_zero_covector_has_class_0():
    g = sl_algebra(2)
    assert cartan_class(g, c(0, 0, 0)) == 0
    assert cartan_class_wedge(g, c(0, 0, 0)) == 0


def test_heisenberg_center_dual_class_3():
    g = heisenberg_algebra(3)
    assert cartan_class_wedge(g, c(0, 0, 1)) == 3
    assert cartan_class(g, c(0, 0, 1)) == 3


ALGEBRAS = [sl_algebra(2), sl_algebra(3), so_algebra(3), so_algebra(4), heisenberg_algebra(5)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=4))
def test_two_routes_agree(seed, idx):
    g = ALGEBRAS[idx]
    alpha = random_covector(g, random.Random(seed))
    assert cartan_class(g, alpha) == cartan_class_wedge(g, alpha)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=9),
)
def test_class_scaling_invariance(seed, idx, scale):
    g = ALGEBRAS[idx]
    alpha = random_covector(g, random.Random(seed))
    scaled = tuple(F(scale) * x for x in alpha)
    assert cartan_class(g, alpha) == cartan_class(g, scaled)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=4))
def test_pairing_matrix_rank_is_even(seed, idx):
    g = ALGEBRAS[idx]
    alpha = random_covector(g, random.Random(seed))
    assert linalg.rank(pairing_matrix(g, alpha)) % 2 == 0


def test_sl_bound_small_sizes():
    for n in (2, 3, 4, 5):
        g = sl_algebra(n)
        rng = random.Random(100 + n)
        bound = g.dim - (n - 1) + 1
        for _ in range(25):
            assert cartan_class(g, random_covector(g, rng)) <= bound


def test_parity_on_compact_and_nilpotent():
    for g in (so_algebra(3), so_algebra(4), heisenberg_algebra(3), heisenberg_algebra(5)):
        rng = random.Random(9)
        for _ in range(25):
            assert cartan_class(g, random_covector(g, rng)) % 2 == 1


def test_survey_so3():
    survey = class_survey(so_algebra(3), rank_hint=1, samples=100, seed=1)
    assert survey.histogram == {3: 100}
    assert survey.upper_bound_ok
    assert survey.parity_all_odd
    assert survey.generic_rank_estimate == 1


def test_survey_sl4_bound():
    survey = class_survey(sl_algebra(4), rank_hint=3, samples=200, seed=2)
    assert survey.max_observed <= 13
    assert survey.upper_bound_ok


def test_survey_heis5_parity():
    survey = class_survey(heisenberg_algebra(5), rank_hint=1, samples=100, seed=3)
    assert survey.parity_all_odd


def test_survey_deterministic():
    a = class_survey(so_algebra(4), rank_hint=2, samples=50, seed=11)
    b = class_survey(so_algebra(4), rank_hint=2, samples=50, seed=11)
    assert a.histogram == b.histogram
    assert a.generic_rank_estimate == b.generic_rank_estimate


def test_sl4_diagonal_sum_audit():
    """In the E[k,k] - E[4,4] frame the quoted sl(4) diagonal-sum class 13 is wrong.

    The covector (1,1,1,0,...) is minus the dual of the last diagonal entry;
    its pairing matrix has rank 6 and the form does not kill the radical, so
    the class is 7, not the maximum 13. The quoted 13 is the class of the
    all-ones sum on the simple coroots E[k,k] - E[k+1,k+1] instead. The
    maximum is attained by the regular combination with distinct
    coefficients, and generically.
    """
    g = sl_algebra(4)
    quoted_form = tuple(F(int(k < 3)) for k in range(g.dim))
    assert linalg.rank(pairing_matrix(g, quoted_form)) == 6
    assert cartan_class(g, quoted_form) == 7
    assert cartan_class_wedge(g, quoted_form) == 7

    regular_form = tuple(F(k + 1) if k < 3 else F(0) for k in range(g.dim))
    assert cartan_class(g, regular_form) == 13
    assert cartan_class_wedge(g, regular_form) == 13

    rng = random.Random(77)
    assert max(cartan_class(g, random_covector(g, rng)) for _ in range(20)) == 13


def _plain_wedge(f, g):
    """Reference wedge of constant forms keyed by bitmask: every term with every term."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            if m1 & m2:
                continue
            # each generator of m2 passes the generators of m1 above it
            swaps = sum((m1 >> (b + 1)).bit_count() for b in range(m2.bit_length()) if m2 >> b & 1)
            out[m1 | m2] = out.get(m1 | m2, 0) + (-1) ** swaps * c1 * c2
    return {m: c for m, c in out.items() if c}


def test_divided_powers_times_factorial_equal_plain_powers():
    rng = random.Random(41)
    for g in (sl_algebra(4), so_algebra(6)):
        for alpha in (
            random_covector(g, rng),
            tuple(F(rng.randint(-9, 9)) if k in (0, 3, 7, 12) else F(0) for k in range(g.dim)),
        ):
            _, d_alpha = liealg._integer_forms(g, alpha)
            below = liealg._pairs_below(d_alpha, g.dim)
            divided, plain, k = d_alpha, d_alpha, 1
            while plain:
                assert {m: c * math.factorial(k) for m, c in divided.items()} == plain
                divided = liealg._next_divided_power(divided, below)
                plain = _plain_wedge(plain, d_alpha)
                k += 1
            assert divided == {}
            assert k > 1


def test_routes_agree_on_rational_covectors_and_fractional_constants(tmp_path):
    # sl(3) on the rescaled basis e_i' = s_i e_i: [e_i', e_j'] = sum c s_i s_j / s_k e_k'
    base = sl_algebra(3)
    rng = random.Random(43)
    s = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(base.dim)]
    lines = [f"dim {base.dim}"]
    for (i, j), comp in sorted(base.brackets.items()):
        for k, v in sorted(comp.items()):
            lines.append(f"{i} {j} {k} {v * s[i - 1] * s[j - 1] / s[k - 1]}")
    path = tmp_path / "sl3_scaled.alg"
    path.write_text("\n".join(lines) + "\n")
    scaled = build_algebra(f"file:{path}")
    assert any(c.denominator > 1 for comp in scaled.brackets.values() for c in comp.values())
    for g in (scaled, sl_algebra(4), so_algebra(5), heisenberg_algebra(7)):
        for _ in range(8):
            alpha = tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(g.dim))
            assert cartan_class(g, alpha) == cartan_class_wedge(g, alpha)
    for _ in range(8):
        # alpha'(e_i') = s_i alpha(e_i) is the same form, so the class is the same
        alpha = tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(base.dim))
        moved = tuple(a * si for a, si in zip(alpha, s))
        assert cartan_class_wedge(scaled, moved) == cartan_class_wedge(base, alpha)
