"""The bitmask wedge kernel, d and contraction against tuple references that
share no code with them, on exact Poly forms and on the float forms of the
torus scans; the tuple view of mask-keyed forms."""

import bisect
import math
import random
import types
from fractions import Fraction

import pytest

from contactforge import config, exterior
from contactforge.errors import DegreeError, DimensionError, TermLimitError
from contactforge.exterior import Form, VField, ext_d, interior_product, wedge, wedge_power
from contactforge.numeric import _wedge_masks, pointwise_class, random_points, t3_form, t5_lutz_form
from contactforge.polyring import Poly

from conftest import rand_poly


# -- reference: the tuple-merge wedge the kernel replaced ------------------------


def reference_merge(t1: tuple, t2: tuple):
    """(sign, merged) of two strictly increasing tuples, None on a shared entry."""
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


def reference_add(out: dict, key, value) -> None:
    acc = out.get(key)
    acc = value if acc is None else acc + value
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


def reference_wedge(f: dict, g: dict) -> dict:
    """Poly-coefficient wedge of {generator tuple: Poly} dicts, zeros dropped."""
    out = {}
    for g1, c1 in f.items():
        for g2, c2 in g.items():
            merged = reference_merge(g1, g2)
            if merged is None:
                continue
            sign, gens = merged
            reference_add(out, gens, c1 * c2 if sign > 0 else -(c1 * c2))
    return out


def reference_ext_d(f: dict) -> dict:
    """d of a {generator tuple: Poly} dict: dv goes to its bisect slot, signed by the slot."""
    out = {}
    for gens, coeff in f.items():
        for var in sorted(coeff.variables()):
            slot = bisect.bisect_left(gens, var)
            if slot < len(gens) and gens[slot] == var:
                continue
            d = coeff.diff(var)
            reference_add(out, gens[:slot] + (var,) + gens[slot:], -d if slot % 2 else d)
    return out


def reference_interior_product(x: VField, f: dict) -> dict:
    """i(X) of a {generator tuple: Poly} dict: slot s is sliced out with sign (-1)^s."""
    out = {}
    for gens, coeff in f.items():
        for slot, var in enumerate(gens):
            xv = x.coeffs.get(var)
            if xv is not None:
                contrib = coeff * xv
                reference_add(out, gens[:slot] + gens[slot + 1:], -contrib if slot % 2 else contrib)
    return out


def reference_float_wedge(f: dict, g: dict) -> dict:
    out = {}
    for t1, c1 in f.items():
        for t2, c2 in g.items():
            merged = reference_merge(t1, t2)
            if merged is None:
                continue
            sign, gens = merged
            out[gens] = out.get(gens, 0.0) + sign * c1 * c2
    return out


def reference_pointwise_class(f, point, tol=1e-9):
    """(class, magnitude) by the tuple-merge route, powers up to the chart bound."""
    norm = lambda form: max((abs(v) for v in form.values()), default=0.0)
    alpha = {(i + 1,): v for i in range(f.dim) if (v := f.coeff[i](point))}
    dalpha = {}
    for i in range(f.dim):
        for j in range(i + 1, f.dim):
            v = f.partial[j][i](point) - f.partial[i][j](point)
            if v:
                dalpha[(i + 1, j + 1)] = v
    best_p = 0
    power = dalpha
    while norm(power) > tol and 2 * (best_p + 1) <= f.dim:
        best_p += 1
        power = reference_float_wedge(power, dalpha)
    if best_p == 0:
        mag = norm(alpha)
        return (1 if mag > tol else 0), mag
    top = alpha
    for _ in range(best_p):
        top = reference_float_wedge(top, dalpha)
    mag = norm(top)
    return (2 * best_p + 1 if mag > tol else 2 * best_p), mag


# -- random forms -----------------------------------------------------------------


def poly_pool(size: int) -> list[Poly]:
    """Constant and non-constant coefficients: a form may take either wedge path."""
    x = Poly.variable(size, 1, 1)
    return [Poly.const(size, 1), Poly.const(size, -1), x, -x, x + Poly.const(size, 2)]


def constant_pool(size: int) -> list[Poly]:
    """Int and Fraction constants only: every wedge takes the scalar path."""
    return [Poly.const(size, v) for v in (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7))]


def cancelling_form(rng: random.Random, size: int, degree: int, pool=poly_pool) -> Form:
    """A form over few generators with coefficients from a small pool, so that
    products collide on one generator tuple and often cancel there."""
    pool = pool(size)
    gens = [(r, c) for r in range(1, size + 1) for c in range(1, size + 1)]
    gens = rng.sample(gens, min(len(gens), 2 * degree + 1))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        key = tuple(sorted(rng.sample(gens, degree)))
        terms[key] = terms.get(key, Poly.zero(size)) + rng.choice(pool)
    return Form(size, degree, {k: c for k, c in terms.items() if not c.is_zero})


def test_poly_wedge_matches_the_tuple_merge_reference(monkeypatch):
    paths = []
    kernel = exterior._wedge_masks

    def spy(f, g, limit=math.inf):
        paths.append(all(type(c) in (int, Fraction) for c in (*f.values(), *g.values())))
        return kernel(f, g, limit)

    monkeypatch.setattr(exterior, "_wedge_masks", spy)
    for pool in (poly_pool, constant_pool):
        rng = random.Random(2024)
        cancelled = 0
        taken = {True: 0, False: 0}
        for _ in range(600):
            size = rng.randint(2, 4)
            d1 = rng.randint(0, 4)
            f = cancelling_form(rng, size, d1, pool)
            if rng.random() < 0.5:  # g shares f's terms: at odd degree their pairs cancel
                g = f + cancelling_form(rng, size, d1, pool)
            else:
                g = cancelling_form(rng, size, rng.randint(0, 4), pool)
            paths.clear()
            got = wedge(f, g)
            expected = reference_wedge(f.terms, g.terms)
            assert got.terms == expected
            assert got.degree == f.degree + g.degree
            assert all(not c.is_zero for c in got.terms.values())
            # the scalar path runs exactly when every coefficient of both factors is constant
            constant = all(c.is_constant for c in (*f.terms.values(), *g.terms.values()))
            assert paths in ([], [constant])
            taken[constant] += len(paths)
            merged = (reference_merge(a, b) for a in f.terms for b in g.terms)
            cancelled += any(m[1] not in expected for m in merged if m is not None)
            if d1 % 2:  # an odd form squares to zero by cancellation alone
                assert wedge(f, f).is_zero and not reference_wedge(f.terms, f.terms)
        assert cancelled >= 30  # products where some generator tuple cancelled out
        if pool is poly_pool:  # both paths, and mixed factors take the Poly one
            assert taken[True] >= 30 and taken[False] >= 100
        else:
            assert taken[True] >= 300 and not taken[False]


def test_wedge_commutes_with_fraction_scalars():
    # wedge(c F, G) = c wedge(F, G) = wedge(F, c G) on both wedge paths, with
    # products over a denominator and sums that bring two to a common one
    rng = random.Random(77)

    def fraction_pool(size):
        return [*poly_pool(size), rand_poly(rng, size) * Fraction(1, rng.randint(2, 9)),
                rand_poly(rng, size, 3, 3) * Fraction(rng.randint(1, 5), 6)]

    nonzero = 0
    for pool in (poly_pool, constant_pool, fraction_pool):
        for _ in range(150):
            size = rng.randint(2, 4)
            f = cancelling_form(rng, size, rng.randint(0, 3), pool)
            g = cancelling_form(rng, size, rng.randint(0, 3), pool)
            c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((2, 3, 4, 7)))
            expected = wedge(f, g) * c
            assert wedge(f * c, g) == expected == wedge(f, g * c)
            assert wedge(f * c, g * (1 / c)) == wedge(f, g)
            nonzero += not expected.is_zero
    assert nonzero >= 200


def random_field(rng: random.Random, size: int) -> VField:
    gens = [(r, c) for r in range(1, size + 1) for c in range(1, size + 1)]
    one = Poly.const(size, 1)
    return VField(size, {v: rng.choice([one, -one, rand_poly(rng, size)])
                         for v in rng.sample(gens, rng.randint(1, len(gens)))})


def test_d_and_contraction_match_the_tuple_references():
    rng = random.Random(909)
    exact = contracted_twice = 0
    for _ in range(400):
        size = rng.randint(2, 4)
        degree = rng.randint(0, 3)
        # the pool's random polynomials give d more than a[1,1] to differentiate
        pool = lambda n: [*poly_pool(n), rand_poly(rng, n, 3, 3), rand_poly(rng, n, 3, 3)]
        f = cancelling_form(rng, size, degree, pool)
        x = random_field(rng, size)
        # equal terms in equal order: bits are visited as the tuple slots were
        assert list(ext_d(f).terms.items()) == list(reference_ext_d(f.terms).items())
        assert ext_d(f).degree == degree + 1
        if degree:
            got = interior_product(x, f)
            assert list(got.terms.items()) == list(reference_interior_product(x, f.terms).items())
            assert got.degree == degree - 1
            # i(X) i(X) = 0: every term of the second contraction cancels
            if degree >= 2 and not got.is_zero:
                contracted_twice += 1
                assert interior_product(x, got).is_zero
                assert not reference_interior_product(x, got.terms)
        # d d = 0 on a form built by the reference d: all of it cancels in ext_d
        closed = Form(size, degree + 1, reference_ext_d(f.terms))
        if not closed.is_zero and degree + 2 <= size * size:
            exact += 1
            assert ext_d(closed).is_zero
    assert exact >= 150 and contracted_twice >= 50


def test_contraction_ignores_a_field_component_outside_the_matrix():
    # d/da[1,3] of a 2x2 matrix would alias bit 2, da[2,1], if it were given a bit
    one = Poly.const(2, 1)
    f = Form(2, 1, {((2, 1),): one})
    x = VField(2, {(1, 3): one})
    assert interior_product(x, f).is_zero
    assert not reference_interior_product(x, f.terms)


# -- the tuple view of mask-keyed forms -------------------------------------------


def test_form_terms_view_decodes_only_when_read(monkeypatch):
    one = Poly.const(3, 1)
    x = Poly.variable(3, 2, 2)
    tuples = {((1, 1), (2, 3)): one, ((1, 2), (3, 3)): x, ((2, 1), (3, 1)): -x}
    form = Form(3, 2, tuples)
    calls = []
    decode = exterior._decode

    def spy(mask, gens):
        calls.append(mask)
        return decode(mask, gens)

    monkeypatch.setattr(exterior, "_decode", spy)
    view = form.terms
    assert len(view) == 3 and not calls
    assert all(not c.is_zero for c in view.values()) and not calls
    assert list(view) == list(tuples) and len(calls) == 3
    assert view == tuples and dict(view) == tuples
    assert view.items() == list(tuples.items())
    assert form.coefficient(((1, 2), (3, 3))) == x


@pytest.mark.parametrize("gens", [
    ((2, 3), (1, 1)),  # unsorted
    ((1, 1), (1, 1)),  # repeated
    ((1, 1), (1, 4)),  # da[1,4] is outside; a bit formula would read it as da[2,1]
    ((0, 1), (1, 1)),  # outside
    ((1, 1),),  # wrong degree
    ((1, 1), (2, 3), (3, 3)),
    ("ab",),  # not a generator at all
], ids=["unsorted", "repeated", "aliasing", "row-0", "short", "long", "garbage"])
def test_a_malformed_tuple_is_not_in_the_view(gens):
    one = Poly.const(3, 1)
    form = Form(3, 2, {((1, 1), (2, 3)): one, ((1, 1), (2, 1)): one})
    assert gens not in form.terms
    assert form.coefficient(gens) == Poly.zero(3)


@pytest.mark.parametrize("dim", [3, 5])
def test_float_kernel_matches_the_tuple_merge_reference(dim):
    rng = random.Random(dim)
    for _ in range(300):
        forms = []
        for _ in range(2):
            degree = rng.randint(0, dim)
            form = {}
            for _ in range(rng.randint(0, 6)):
                key = tuple(sorted(rng.sample(range(1, dim + 1), degree)))
                form[key] = rng.choice([1.0, -1.0, rng.uniform(-2.0, 2.0)])
            forms.append(form)
        expected = reference_float_wedge(*forms)
        masks = [{sum(1 << (i - 1) for i in key): c for key, c in form.items()}
                 for form in forms]
        got = _wedge_masks(*masks)
        decoded = {tuple(i + 1 for i in range(dim) if m >> i & 1): c for m, c in got.items()}
        assert list(decoded.items()) == list(expected.items())


@pytest.mark.parametrize("form, seed", [(t5_lutz_form(), 11), (t3_form(3), 12)],
                         ids=["t5-lutz", "t3-n1-3"])
def test_pointwise_magnitudes_are_bit_equal_to_the_reference_route(form, seed):
    for point in random_points(form.dim, 4000, seed):
        got = pointwise_class(form, point)
        cls, mag = reference_pointwise_class(form, point)
        assert (got.cls, got.magnitude) == (cls, mag)
        assert mag > 0


# -- the public constructor and the budget ---------------------------------------------


def test_public_form_constructor_keeps_every_check():
    one = Poly.const(2, 1)
    with pytest.raises(DegreeError):
        Form(2, -1)
    with pytest.raises(DegreeError):
        Form(2, 2, {((1, 1),): one})
    with pytest.raises(ValueError, match="not strictly increasing"):
        Form(2, 2, {((1, 2), (1, 1)): one})
    with pytest.raises(ValueError, match="not strictly increasing"):
        Form(2, 2, {((1, 1), (1, 1)): one})
    with pytest.raises(DimensionError):
        Form(2, 1, {((1, 1),): Poly.const(3, 1)})
    with pytest.raises(DimensionError):  # da[1,3] would alias bit 2, da[2,1], of a 2x2 mask
        Form(2, 1, {((1, 3),): one})


def sum_of_generators(size, gens, coeff=None):
    coeff = Poly.const(size, 1) if coeff is None else coeff
    return Form(size, 1, {(g,): coeff for g in gens})


def test_over_budget_wedge_raises_and_reads_the_budget_once(monkeypatch):
    reads = []
    budget = [10 ** 9]

    def get_max_terms():
        reads.append(1)
        return budget[0]

    monkeypatch.setattr(exterior, "config", types.SimpleNamespace(get_max_terms=get_max_terms))
    # constant coefficients take the scalar path, a[3,3] the Poly path
    for coeff in (Poly.const(3, 1), Poly.variable(3, 3, 3)):
        reads.clear()
        budget[0] = 10 ** 9
        f = sum_of_generators(3, [(1, 1), (1, 2), (1, 3)], coeff)
        g = sum_of_generators(3, [(2, 1), (2, 2)], coeff)
        assert len(wedge(f, g).terms) == 6
        assert len(reads) == 1
        # each row of f adds two terms: the second row passes the budget, the third is not run
        budget[0] = 3
        with pytest.raises(TermLimitError, match=r"reached 4 terms \(budget 3\)"):
            wedge(f, g)
        assert len(reads) == 2


def test_configured_budget_stops_a_wedge():
    f = sum_of_generators(2, [(1, 1), (1, 2), (2, 1)])
    config.set_max_terms(2)
    try:
        with pytest.raises(TermLimitError):
            wedge(f, f)
    finally:
        config.set_max_terms(None)


# -- wedge powers -------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_wedge_power_equals_the_k_fold_wedge(p, request):
    d_omega = ext_d(request.getfixturevalue(f"frame_p{p}").omega)
    expected = dict(d_omega.terms)
    for k in range(1, 5):
        assert wedge_power(d_omega, k).terms == expected
        expected = reference_wedge(d_omega.terms, expected)
