"""Float pointwise class, torus scans, singular-set diagnostics, and the
cross-module oracle against the exact machinery."""

import math
import random
from fractions import Fraction

import pytest

from contactforge.errors import ParameterError
from contactforge.exterior import class_at_point, Form
from contactforge.numeric import (
    FormFn,
    contact_scan,
    grid_points,
    pointwise_class,
    random_points,
    singular_scan,
    t3_form,
    t5_lutz_form,
)
from conftest import poly_eval_float, rand_poly

F = Fraction


def test_t3_class_at_example_point():
    r = pointwise_class(t3_form(1), (0.3, 0.1, 0.2))
    assert r.cls == 3
    assert abs(r.magnitude - 1.0) < 1e-12  # |omega ^ d omega| = |n1|


def test_zero_form_class_0():
    zero = lambda th: 0.0
    f = FormFn(3, "zero", (zero,) * 3, ((zero,) * 3,) * 3)
    assert pointwise_class(f, (0.1, 0.2, 0.3)).cls == 0


def test_closed_constant_form_class_1():
    zero = lambda th: 0.0
    one = lambda th: 1.0
    f = FormFn(3, "dtheta1", (one, zero, zero), ((zero,) * 3,) * 3)
    scan = contact_scan(f, random_points(3, 200, seed=5))
    assert scan.min_class == scan.max_class == 1


def test_bad_tolerance_raises():
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ParameterError, match="finite and positive"):
            pointwise_class(t3_form(1), (0.0, 0.0, 0.0), tol=tol)
        with pytest.raises(ParameterError):
            contact_scan(t3_form(1), random_points(3, 5, seed=0), tol)
        with pytest.raises(ParameterError, match="finite and positive"):
            singular_scan(t5_lutz_form(), (4, 5), random_points(5, 5, seed=0), tol=tol)


def test_t3_grid_scan():
    scan = contact_scan(t3_form(1), grid_points(3, 12))
    assert scan.min_class == scan.max_class == 3
    assert scan.min_magnitude > 0.999  # density is exactly |n1| = 1
    assert not scan.submaximal_points


def test_t3_n1_2_magnitude():
    scan = contact_scan(t3_form(2), random_points(3, 300, seed=8))
    assert scan.min_class == 3
    assert abs(scan.min_magnitude - 2.0) < 1e-9


def test_t5_random_scan():
    scan = contact_scan(t5_lutz_form(), random_points(5, 1500, seed=9))
    assert scan.min_class == scan.max_class == 5
    assert scan.min_magnitude > 1e-3


def test_tolerance_stability():
    f5 = t5_lutz_form()
    pts = list(random_points(5, 150, seed=10))
    f3 = t3_form(1)
    pts3 = list(random_points(3, 150, seed=11))
    for tol in (1e-6, 1e-9, 1e-12):
        assert all(pointwise_class(f5, p, tol).cls == 5 for p in pts)
        assert all(pointwise_class(f3, p, tol).cls == 3 for p in pts3)


def test_partials_match_finite_differences():
    # the only sanctioned use of finite differences: self-test of the supplied partials
    h = 1e-6
    rng = random.Random(21)
    for f in (t3_form(3), t5_lutz_form()):
        for _ in range(20):
            pt = [rng.random() * 2 * math.pi for _ in range(f.dim)]
            for i in range(f.dim):
                for j in range(f.dim):
                    up = list(pt)
                    dn = list(pt)
                    up[j] += h
                    dn[j] -= h
                    fd = (f.coeff[i](up) - f.coeff[i](dn)) / (2 * h)
                    assert abs(fd - f.partial[i][j](pt)) < 1e-5


def test_t5_invariance_along_t4_t5():
    report = singular_scan(t5_lutz_form(), (4, 5), random_points(5, 300, seed=12))
    assert report.invariance_max_diff < 1e-9
    assert report.min_rank_off_sigma >= 1


def test_t5_rank_on_constructed_sigma_point():
    # phi = (c4, c5) vanishes at theta1 = theta2 = 0; the pairing map has full
    # rank 2 there, and rank >= 1 away from the singular set
    f = t5_lutz_form()
    sigma_point = (0.0, 0.0, 0.7, 1.1, 2.3)
    report = singular_scan(f, (4, 5), [sigma_point])
    assert report.sigma_candidates == [sigma_point]
    assert report.ranks_on_sigma == [2]


def test_t3_no_sigma_points():
    # J spanned by two coordinate fields with k = 2 <= p + 1: empty singular set
    report = singular_scan(t3_form(1), (2, 3), random_points(3, 2000, seed=13))
    assert report.sigma_candidates == []


def test_bad_direction_raises():
    with pytest.raises(ParameterError):
        singular_scan(t3_form(1), (9,), [(0.0, 0.0, 0.0)])


def test_no_direction_raises():
    with pytest.raises(ParameterError, match="at least one invariance direction"):
        singular_scan(t5_lutz_form(), (), random_points(5, 5, seed=0))
    with pytest.raises(ParameterError, match="empty point set"):
        singular_scan(t5_lutz_form(), (4, 5), [])


def test_more_than_two_directions_raises():
    # the Jacobian rank is read from entries and 2x2 minors only
    with pytest.raises(ParameterError, match="at most two invariance directions"):
        singular_scan(t5_lutz_form(), (3, 4, 5), random_points(5, 5, seed=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_raises(bad):
    with pytest.raises(ParameterError, match="non-finite"):
        pointwise_class(t3_form(1), (0.1, bad, 0.2))
    with pytest.raises(ParameterError, match="non-finite"):
        contact_scan(t5_lutz_form(), [(0.1, 0.2, 0.3, 0.4, 0.5), (0.1, 0.2, bad, 0.4, 0.5)])
    with pytest.raises(ParameterError, match="non-finite"):
        singular_scan(t5_lutz_form(), (4, 5), [(0.1, 0.2, 0.3, 0.4, 0.5), (0.1, 0.2, bad, 0.4, 0.5)])


def formfn_from_poly_form(form: Form) -> FormFn:
    """Bridge: wrap a polynomial 1-form as float coefficient functions."""
    n = form.size
    order = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    coeffs = [form.coefficient(((r, c),)) for (r, c) in order]
    partials = [[p.diff(v) for v in order] for p in coeffs]

    def as_point(th):
        return {var: th[k] for k, var in enumerate(order)}

    coeff_fns = tuple(
        (lambda p: (lambda th: poly_eval_float(p, as_point(th))))(p) for p in coeffs
    )
    partial_fns = tuple(
        tuple((lambda q: (lambda th: poly_eval_float(q, as_point(th))))(q) for q in row)
        for row in partials
    )
    return FormFn(n * n, "poly-bridge", coeff_fns, partial_fns)


def test_pointwise_class_agrees_with_exact_machinery():
    """Cross-module oracle: 50 random polynomial 1-forms on the SL(2) ambient."""
    rng = random.Random(31)
    order = [(i, j) for i in (1, 2) for j in (1, 2)]
    checked = 0
    while checked < 50:
        terms = {}
        for var in order:
            p = rand_poly(rng, 2, max_terms=2, max_deg=2)
            if not p.is_zero:
                terms[(var,)] = p
        form = Form(2, 1, terms)
        point = {v: F(rng.randint(-3, 3), rng.randint(1, 4)) for v in order}
        exact = class_at_point(form, point)
        bridge = formfn_from_poly_form(form)
        float_pt = [float(point[v]) for v in order]
        numeric = pointwise_class(bridge, float_pt, tol=1e-9)
        assert numeric.cls == exact
        checked += 1


def test_class_parity_is_odd_on_torus_examples():
    for f, dim in ((t3_form(1), 3), (t5_lutz_form(), 5)):
        for pt in random_points(dim, 100, seed=14):
            assert pointwise_class(f, pt).cls % 2 == 1
