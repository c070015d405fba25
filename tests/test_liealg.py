"""Lie algebras, Cartan classes and surveys."""

import math
import pathlib
import random
import runpy
import sys
import time
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
    assert g.brackets == {(1, 2): {2: F(2)}, (1, 3): {3: F(-2)}, (2, 3): {1: F(1)}}


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


def _pairs_below(form, dim):
    """below[t] lists (mask, high bit, coeff) of the terms of a 2-form whose low index is < t."""
    by_low = [[] for _ in range(dim)]
    for mask, c in form.items():
        low = mask & -mask
        by_low[low.bit_length() - 1].append((mask, mask ^ low, c))
    below = [[]]
    for pairs in by_low:
        below.append(below[-1] + pairs)
    return below


def _next_divided_power(power, below):
    """omega^[k+1] from omega^[k] = omega^k / k!, the definitional reference chain.

    The coefficient of e_S in omega^[k] is the Pfaffian of omega on S. A term
    e_i ^ e_j of omega meets a term e_T of omega^[k] only when i is below every
    generator of T: the Pfaffian expansion of T + {i, j} along its first
    index, each perfect matching counted once. Moving e_j into place passes the
    generators of T below j, which gives the sign.
    """
    out = {}
    for mask, coeff in power.items():
        for pair, high, c in below[(mask & -mask).bit_length() - 1]:
            if mask & high:
                continue
            value = -c * coeff if (mask & (high - 1)).bit_count() & 1 else c * coeff
            out[mask | pair] = out.get(mask | pair, 0) + value
    return {m: c for m, c in out.items() if c}


def _divided_powers(form, dim):
    """[omega^[0], omega^[1], ...] up to the first zero power, exclusive."""
    below = _pairs_below(form, dim)
    powers = [{0: 1}, form]
    while powers[-1]:
        powers.append(_next_divided_power(powers[-1], below))
    return powers[:-1]


def chain_class(g, alpha):
    """The class from the full divided-power chain and a plain wedge with alpha."""
    a_form, d_alpha = liealg._integer_forms(g, alpha)
    if not a_form:
        return 0
    powers = _divided_powers(d_alpha, g.dim)
    p = len(powers) - 1
    return 2 * p + 1 if _plain_wedge(a_form, powers[-1]) else 2 * p


def test_divided_powers_times_factorial_equal_plain_powers():
    rng = random.Random(41)
    for g in (sl_algebra(4), so_algebra(6)):
        for alpha in (
            random_covector(g, rng),
            tuple(F(rng.randint(-9, 9)) if k in (0, 3, 7, 12) else F(0) for k in range(g.dim)),
        ):
            _, d_alpha = liealg._integer_forms(g, alpha)
            below = _pairs_below(d_alpha, g.dim)
            divided, plain, k = d_alpha, d_alpha, 1
            while plain:
                assert {m: c * math.factorial(k) for m, c in divided.items()} == plain
                divided = _next_divided_power(divided, below)
                plain = _plain_wedge(plain, d_alpha)
                k += 1
            assert divided == {}
            assert k > 1


def _sparse_covector(g, rng):
    while True:
        alpha = tuple(F(rng.randint(-9, 9)) if rng.random() < 0.25 else F(0) for _ in range(g.dim))
        if any(alpha):
            return alpha


def _sign(seq):
    """Sign of the permutation that sorts seq."""
    inversions = sum(a > b for t, a in enumerate(seq) for b in seq[t + 1:])
    return -1 if inversions & 1 else 1


@pytest.mark.parametrize("g", [sl_algebra(3), sl_algebra(4), so_algebra(6)], ids=lambda g: g.label)
def test_elimination_entries_are_bordered_pfaffians(g):
    # after t pivots S, entry (k, l) is Pf(S, k, l): the coefficient of
    # e_{S+{k,l}} in w^[t+1], w = d(alpha) + alpha ^ e_0, signed by the order
    rng = random.Random(47)
    checked = 0
    for alpha in [random_covector(g, rng) for _ in range(3)] + [_sparse_covector(g, rng) for _ in range(3)]:
        a_form, d_alpha = liealg._integer_forms(g, alpha)
        border = 1 << g.dim
        w = {**d_alpha, **{mask | border: c for mask, c in a_form.items()}}
        powers = _divided_powers(w, g.dim + 1) + [{}]
        for pivots, m in liealg._pair_elimination(a_form, d_alpha, g.dim):
            t = len(pivots) // 2
            assert all(m[pivots[2 * s]][pivots[2 * s + 1]] for s in range(t))
            rest = [k for k in range(g.dim + 1) if k not in pivots]
            for a, k in enumerate(rest):
                for l in rest[a + 1:]:
                    mask = sum(1 << x for x in (*pivots, k, l))
                    expected = _sign((*pivots, k, l)) * powers[t + 1].get(mask, 0)
                    assert m[k][l] == expected == -m[l][k]
                    checked += 1
        assert len(powers) - 2 in (t, t + 1)  # w^[t+1] is 0 or holds e_0 only
    assert checked > 200


COVECTOR_ALGEBRAS = [sl_algebra(2), sl_algebra(3), sl_algebra(4), so_algebra(3), so_algebra(5),
                     so_algebra(6), heisenberg_algebra(7)]


@pytest.mark.parametrize("g", COVECTOR_ALGEBRAS, ids=lambda g: g.label)
def test_routes_agree_with_the_chain_on_dense_sparse_and_rational_covectors(g):
    rng = random.Random(53 + g.dim)
    covectors = [random_covector(g, rng) for _ in range(6)]
    covectors += [_sparse_covector(g, rng) for _ in range(6)]
    covectors += [tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(g.dim))
                  for _ in range(6)]
    covectors.append(tuple(F(0) for _ in range(g.dim)))
    for alpha in covectors:
        assert cartan_class(g, alpha) == cartan_class_wedge(g, alpha) == chain_class(g, alpha)


def test_routes_agree_when_d_alpha_is_zero(tmp_path):
    # alpha kills [g, g]: d(alpha) = 0 and the class is 1
    g = heisenberg_algebra(7)
    for alpha in (c(1, 0, 0, 0, 0, 0, 0), c(3, -1, 0, 2, 0, 5, 0)):
        assert cartan_class(g, alpha) == cartan_class_wedge(g, alpha) == chain_class(g, alpha) == 1
    path = tmp_path / "abelian.alg"
    path.write_text("dim 4\n")
    abelian = build_algebra(f"file:{path}")
    assert cartan_class(abelian, c(0, 2, 0, -1)) == cartan_class_wedge(abelian, c(0, 2, 0, -1)) == 1


def test_wedge_route_calls_no_linalg_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the wedge route called linalg")

    public = [name for name, value in vars(linalg).items()
              if callable(value) and getattr(value, "__module__", None) == linalg.__name__
              and not name.startswith("_")]
    assert {"rank", "rref", "det_adj", "mat_mul"} <= set(public)
    g, so6, fresh = sl_algebra(4), so_algebra(6), sl_algebra(4)
    regular = tuple(F(k + 1) if k < 3 else F(0) for k in range(g.dim))
    dense = random_covector(so6, random.Random(5))
    expected = cartan_class(so6, dense)
    for name in public:
        monkeypatch.setattr(linalg, name, refuse)
    for h in (g, so6):  # nor does it read the rank route's scaled table
        object.__setattr__(h, "_int_table", None)
    assert cartan_class_wedge(g, regular) == 13
    assert cartan_class_wedge(so6, dense) == expected
    with pytest.raises(AssertionError, match="called linalg"):
        cartan_class(fresh, regular)


def _commutator_matrix_basis(basis, coords, label):
    """The structure constants by full commutator matrices, the reference construction."""
    brackets = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = linalg.mat_sub(linalg.mat_mul(basis[i], basis[j]),
                                  linalg.mat_mul(basis[j], basis[i]))
            comp = {k + 1: v for k, v in enumerate(coords(comm)) if v}
            if comp:
                brackets[(i + 1, j + 1)] = comp
    return liealg.LieAlg(len(basis), brackets, label)


def test_structure_constants_equal_the_full_commutator_construction(monkeypatch):
    built = {(kind, n): build_algebra(kind, n)
             for kind, ns in (("sl", range(2, 7)), ("so", range(3, 9))) for n in ns}
    monkeypatch.setattr(liealg, "_from_matrix_basis", _commutator_matrix_basis)
    for (kind, n), g in built.items():
        ref = build_algebra(kind, n)
        assert g.brackets == ref.brackets and g.label == ref.label and g.dim == ref.dim
        assert all(type(v) is F for comp in g.brackets.values() for v in comp.values())


def test_the_lie_builders_hand_mat_mul_only_ints(monkeypatch):
    operands = []
    mat_mul = linalg.mat_mul

    def spy(a, b):
        operands.extend((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", spy)
    for kind, ns in (("sl", range(2, 7)), ("so", range(3, 9))):
        for n in ns:
            build_algebra(kind, n)
    assert len(operands) > 100
    assert all(type(x) is int for m in operands for row in m for x in row)


def test_prefilter_keeps_every_product_that_can_be_nonzero():
    # the so(3) axis generators overlap in rows and columns both ways; E12, E23
    # meet one way only ([E12, E23] = E13); E12, E34 never meet
    unit = liealg._unit_matrix

    def gl_coords(n):
        return lambda m: [m[r][c] for r in range(n) for c in range(n)]

    so3 = [linalg.mat_sub(unit(3, 2, 1), unit(3, 1, 2)), linalg.mat_sub(unit(3, 0, 2), unit(3, 2, 0)),
           linalg.mat_sub(unit(3, 1, 0), unit(3, 0, 1))]
    gl4 = [unit(4, r, c) for r in range(4) for c in range(4)]
    cases = [(so3, lambda m: [m[2][1], m[0][2], m[1][0]], "so(3)"),
             ([unit(3, 0, 1), unit(3, 1, 2), unit(3, 0, 2)], gl_coords(3), "one-way"),
             (gl4, gl_coords(4), "gl(4)")]
    for basis, coords, label in cases:
        fast = liealg._from_matrix_basis(basis, coords, label)
        assert fast.brackets == _commutator_matrix_basis(basis, coords, label).brackets
    assert liealg._from_matrix_basis(*cases[0]).brackets == {
        (1, 2): {3: F(1)}, (1, 3): {2: F(-1)}, (2, 3): {1: F(1)}}
    assert liealg._from_matrix_basis(*cases[1]).brackets == {(1, 2): {3: F(1)}}


def _reference_pairing_matrix(g, alpha):
    """B[i][j] = alpha([e_i, e_j]) accumulated in Fractions, the reference for pairing_matrix."""
    n = g.dim
    b = [[F(0)] * n for _ in range(n)]
    for (i, j), comp in g.brackets.items():
        value = sum((alpha[k - 1] * c for k, c in comp.items()), F(0))
        if value:
            b[i - 1][j - 1] = value
            b[j - 1][i - 1] = -value
    return b


def _reference_ad_matrix(g, x):
    """ad(x) accumulated in Fractions, the reference for LieAlg.ad_matrix."""
    n = g.dim
    m = [[F(0)] * n for _ in range(n)]
    for (i, j), comp in g.brackets.items():
        for k, c in comp.items():
            m[k - 1][j - 1] += x[i - 1] * c
            m[k - 1][i - 1] -= x[j - 1] * c
    return m


def _scaled_sl3(tmp_path, rng):
    """sl(3) on the rescaled basis e_i' = s_i e_i: [e_i', e_j'] = sum c s_i s_j / s_k e_k'."""
    base = sl_algebra(3)
    s = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(base.dim)]
    lines = [f"dim {base.dim}"]
    for (i, j), comp in sorted(base.brackets.items()):
        for k, v in sorted(comp.items()):
            lines.append(f"{i} {j} {k} {v * s[i - 1] * s[j - 1] / s[k - 1]}")
    path = tmp_path / "sl3_scaled.alg"
    path.write_text("\n".join(lines) + "\n")
    return base, s, build_algebra(f"file:{path}")


def _assert_exact_ints(matrix, reference):
    assert matrix == reference
    for row in matrix:
        for v in row:
            assert type(v) is int or (type(v) is F and v.denominator > 1)


INT_PATH_ALGEBRAS = ([sl_algebra(n) for n in range(2, 7)] + [so_algebra(n) for n in range(3, 9)]
                     + [heisenberg_algebra(d) for d in (3, 5, 7)])


@pytest.mark.parametrize("g", INT_PATH_ALGEBRAS, ids=lambda g: g.label)
def test_int_pairing_and_ad_matrices_equal_the_fraction_references(g):
    rng = random.Random(59 + g.dim)
    vectors = [random_covector(g, rng) for _ in range(3)] + [_sparse_covector(g, rng) for _ in range(3)]
    vectors += [tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(g.dim))
                for _ in range(3)]
    vectors.append(tuple(F(0) for _ in range(g.dim)))
    for v in vectors:
        _assert_exact_ints(pairing_matrix(g, v), _reference_pairing_matrix(g, v))
        _assert_exact_ints(g.ad_matrix(list(v)), _reference_ad_matrix(g, v))


def test_int_pairing_and_ad_matrices_on_fractional_constants(tmp_path):
    rng = random.Random(61)
    _, _, scaled = _scaled_sl3(tmp_path, rng)
    den, table = scaled._int_table
    assert den > 1 and all(type(c) is int for _, _, items in table for _, c in items)
    fractional = 0
    for _ in range(10):
        v = tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(scaled.dim))
        b, ad = pairing_matrix(scaled, v), scaled.ad_matrix(list(v))
        _assert_exact_ints(b, _reference_pairing_matrix(scaled, v))
        _assert_exact_ints(ad, _reference_ad_matrix(scaled, v))
        fractional += sum(type(x) is F for row in b + ad for x in row)
    assert fractional > 0


def test_routes_agree_on_rational_covectors_and_fractional_constants(tmp_path):
    rng = random.Random(43)
    base, s, scaled = _scaled_sl3(tmp_path, rng)
    assert any(c.denominator > 1 for comp in scaled.brackets.values() for c in comp.values())
    for g in (scaled, sl_algebra(4), so_algebra(5), heisenberg_algebra(7)):
        for _ in range(8):
            alpha = tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(g.dim))
            assert cartan_class(g, alpha) == cartan_class_wedge(g, alpha) == chain_class(g, alpha)
    for _ in range(8):
        # alpha'(e_i') = s_i alpha(e_i) is the same form, so the class is the same
        alpha = tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(base.dim))
        moved = tuple(a * si for a, si in zip(alpha, s))
        assert cartan_class_wedge(scaled, moved) == cartan_class_wedge(base, alpha)


def test_survey_classes_script(monkeypatch, capsys):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "survey_classes.py"
    monkeypatch.setattr(sys, "argv", [str(script), "5", "0"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    families = [line for line in out.splitlines() if " dim " in line]
    assert len(families) == 10
    assert all("(ok)" in line and "histogram" in line for line in families)
    assert "all-ones diagonal dual sum: class 7 (wedge route 7; quoted value was 13)" in out
    assert "regular combination 1,2,3:  class 13" in out


def sl3_table(tmp_path, delta) -> str:
    """sl(3) as a structure-constant file, with [e_1, e_3] moved by delta."""
    base = sl_algebra(3)
    lines = [f"dim {base.dim}"]
    for (i, j), comp in sorted(base.brackets.items()):
        for k, v in sorted(comp.items()):
            lines.append(f"{i} {j} {k} {v + delta if (i, j) == (1, 3) else v}")
    path = tmp_path / "sl3.alg"
    path.write_text("\n".join(lines) + "\n")
    return f"file:{path}"


@pytest.mark.parametrize("delta", [F(1), F(1, 3)], ids=["integral", "fractional"])
def test_a_broken_jacobi_table_raises(tmp_path, delta):
    # both are checked over the ints on the scaled table; the message divides back
    message = r"\{1: -1, 2: 1\}" if delta == 1 else r"\{1: Fraction\(-1, 3\), 2: Fraction\(1, 3\)\}"
    with pytest.raises(InvalidAlgebraError, match="Jacobi identity fails.*: " + message):
        build_algebra(sl3_table(tmp_path, delta))
    assert build_algebra(sl3_table(tmp_path, 0)).brackets == sl_algebra(3).brackets


def test_a_large_file_algebra_with_one_bracket_loads_quickly(tmp_path):
    # the Jacobi check visits only triples a bracket key reaches, not all
    # C(3000, 3) of them
    path = tmp_path / "big.alg"
    path.write_text("dim 3000\n1 2 3 1\n")
    start = time.perf_counter()
    g = algebra_from_file(str(path))
    assert time.perf_counter() - start < 1.0
    assert g.dim == 3000 and g.brackets == {(1, 2): {3: F(1)}}
    # a broken triple far from e_1 is still found
    path.write_text("dim 3000\n1 2 3 1\n2998 2999 3000 1\n2998 3000 2998 1\n2999 3000 2999 1\n")
    with pytest.raises(InvalidAlgebraError, match=r"\(e_2998, e_2999, e_3000\)"):
        algebra_from_file(str(path))


@pytest.mark.parametrize("text", [
    "dim 4\n2 3 4 1\n1 4 1 1\n",  # (2,3) is the only key pair of (e_1, e_2, e_3)
    "dim 4\n1 3 4 1\n2 4 2 1\n",  # (1,3) is its first key pair
], ids=["last-pair", "middle-pair"])
def test_a_triple_reached_through_a_later_key_pair_is_checked(tmp_path, text):
    path = tmp_path / "broken.alg"
    path.write_text(text)
    with pytest.raises(InvalidAlgebraError, match=r"\(e_1, e_2, e_3\)"):
        algebra_from_file(str(path))
