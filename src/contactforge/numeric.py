"""Floating-point pointwise Cartan class for forms with trigonometric
coefficients, plus scan diagnostics for torus examples.

A FormFn carries the coefficient functions of a 1-form on a flat chart
together with analytically supplied partial derivatives; nothing here is ever
differentiated numerically (finite differences appear only as a self-test in
the suite). Class computations expand wedge powers combinatorially over the
chart basis, which matches the wedge-power definition of the class directly
and keeps the module dependency-free. Forms are {mask: float} dicts, with
d theta_{i+1} as bit i, under the exact layer's mask and sign rule: each
pair of mask layouts is compiled once by `exterior._wedge_plan`, kept on the
FormFn, and replayed at every point with the multiplies, negations and
left-to-right sums of `exterior._wedge_masks`, so results are bit-equal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ParameterError
from .exterior import _wedge_plan

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FormFn:
    """1-form on a dim-dimensional chart: coefficients and their partials.

    coeff[i](point) is the coefficient of d theta_{i+1}; partial[i][j](point)
    is its derivative along theta_{j+1}, supplied analytically. `plans` holds
    the wedge plans of the mask layouts its points have met.
    """

    dim: int
    name: str
    coeff: tuple
    partial: tuple
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def t3_form(n1: int = 1) -> FormFn:
    """cos(n1 t1) d t2 + sin(n1 t1) d t3 on the 3-torus."""
    zero = lambda th: 0.0
    return FormFn(
        dim=3,
        name=f"t3(n1={n1})",
        coeff=(
            zero,
            lambda th: math.cos(n1 * th[0]),
            lambda th: math.sin(n1 * th[0]),
        ),
        partial=(
            (zero, zero, zero),
            (lambda th: -n1 * math.sin(n1 * th[0]), zero, zero),
            (lambda th: n1 * math.cos(n1 * th[0]), zero, zero),
        ),
    )


def t5_lutz_form() -> FormFn:
    """The five-term contact form on the 5-torus, invariant along t4 and t5."""
    zero = lambda th: 0.0
    s, c = math.sin, math.cos
    return FormFn(
        dim=5,
        name="t5-lutz",
        coeff=(
            lambda th: s(th[1]) * c(th[1]),
            lambda th: -s(th[0]) * c(th[0]),
            lambda th: c(th[0]) * c(th[1]),
            lambda th: s(th[0]) * c(th[2]) - s(th[1]) * s(th[2]),
            lambda th: s(th[0]) * s(th[2]) + s(th[1]) * c(th[2]),
        ),
        partial=(
            (zero, lambda th: c(2 * th[1]), zero, zero, zero),
            (lambda th: -c(2 * th[0]), zero, zero, zero, zero),
            (lambda th: -s(th[0]) * c(th[1]), lambda th: -c(th[0]) * s(th[1]), zero, zero, zero),
            (
                lambda th: c(th[0]) * c(th[2]),
                lambda th: -c(th[1]) * s(th[2]),
                lambda th: -s(th[0]) * s(th[2]) - s(th[1]) * c(th[2]),
                zero,
                zero,
            ),
            (
                lambda th: c(th[0]) * s(th[2]),
                lambda th: c(th[1]) * c(th[2]),
                lambda th: s(th[0]) * c(th[2]) - s(th[1]) * s(th[2]),
                zero,
                zero,
            ),
        ),
    )


BUILTIN_FORMS = {"t3": t3_form, "t5-lutz": t5_lutz_form}


def _norm(f: dict) -> float:
    return max(map(abs, f.values()), default=0.0)


def _wedge(plans: dict, f: dict, g: dict) -> dict:
    """f ^ g by the plan of their mask layouts, built on first use."""
    key = (tuple(f), tuple(g))
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _wedge_plan(*key)
    masks, rows = plan
    gv = list(g.values())
    acc = [None] * len(masks)
    for c1, row in zip(f.values(), rows):
        for j, slot, negate in row:
            prod = c1 * gv[j]
            if negate:
                prod = -prod
            a = acc[slot]
            acc[slot] = prod if a is None else a + prod
    return dict(zip(masks, acc))


def _alpha_dalpha(f: FormFn, point):
    alpha = {}
    for i in range(f.dim):
        v = f.coeff[i](point)
        if v:
            alpha[1 << i] = v
    dalpha = {}
    for i in range(f.dim):
        for j in range(i + 1, f.dim):
            v = f.partial[j][i](point) - f.partial[i][j](point)
            if v:
                dalpha[1 << i | 1 << j] = v
    return alpha, dalpha


@dataclass
class PointClassReport:
    point: tuple
    cls: int
    magnitude: float
    tol: float


def pointwise_class(f: FormFn, point, tol: float = 1e-9) -> PointClassReport:
    """Pointwise Cartan class by exact combinatorial wedge expansion.

    Finds the largest p with ||(d a)^p|| > tol; the class is 2p+1 when
    ||a ^ (d a)^p|| > tol and 2p otherwise.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    point = tuple(float(x) for x in point)
    if len(point) != f.dim:
        raise ParameterError(f"point has length {len(point)}, chart dimension is {f.dim}")
    if not all(map(math.isfinite, point)):
        raise ParameterError(f"point has a non-finite coordinate: {point}")
    alpha, dalpha = _alpha_dalpha(f, point)
    best_p = 0
    power = dalpha
    while _norm(power) > tol:
        best_p += 1
        if 2 * (best_p + 1) > f.dim:
            break  # (d a)^(p+1) vanishes above the chart dimension
        power = _wedge(f.plans, power, dalpha)
    if best_p == 0:
        mag = _norm(alpha)
        return PointClassReport(point, 1 if mag > tol else 0, mag, tol)
    top = alpha
    for _ in range(best_p):
        top = _wedge(f.plans, top, dalpha)
    mag = _norm(top)
    cls = 2 * best_p + 1 if mag > tol else 2 * best_p
    return PointClassReport(point, cls, mag, tol)


def grid_points(dim: int, per_axis: int):
    if per_axis < 1:
        raise ParameterError("grid needs at least one point per axis")
    idx = [0] * dim
    while True:
        yield tuple(TWO_PI * t / per_axis for t in idx)
        d = dim - 1
        while d >= 0:
            idx[d] += 1
            if idx[d] < per_axis:
                break
            idx[d] = 0
            d -= 1
        if d < 0:
            return


def random_points(dim: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.random() * TWO_PI for _ in range(dim))


@dataclass
class ScanReport:
    form: str
    n_points: int
    tol: float
    min_class: int
    max_class: int
    min_magnitude: float
    submaximal_points: list = field(default_factory=list)


def contact_scan(f: FormFn, points, tol: float = 1e-9) -> ScanReport:
    """Class statistics over a point set; points is an iterable of chart points."""
    reports = [pointwise_class(f, pt, tol) for pt in points]
    if not reports:
        raise ParameterError("empty point set")
    classes = [r.cls for r in reports]
    max_cls = max(classes)
    submax = [r.point for r in reports if r.cls < max_cls][:20]
    return ScanReport(
        form=f.name,
        n_points=len(reports),
        tol=tol,
        min_class=min(classes),
        max_class=max_cls,
        min_magnitude=min(r.magnitude for r in reports),
        submaximal_points=submax,
    )


@dataclass
class SingularScanReport:
    form: str
    directions: tuple
    n_points: int
    tol: float
    invariance_max_diff: float
    sigma_candidates: list
    min_rank_off_sigma: int
    ranks_on_sigma: list


def _jacobian_rank(rows: list[list[float]], tol: float) -> int:
    """Rank of one or two rows by the magnitudes of their entries and 2x2 minors."""
    rank = int(any(abs(x) > tol for row in rows for x in row))
    if len(rows) == 2:
        a, b = rows
        if any(abs(a[c1] * b[c2] - a[c2] * b[c1]) > tol
               for c1 in range(len(a)) for c2 in range(c1 + 1, len(a))):
            rank = 2
    return rank


def singular_scan(f: FormFn, directions, points, tol: float = 1e-9, seed: int = 0) -> SingularScanReport:
    """Diagnostics for invariance directions: the singular set and the rank of
    the pairing map phi = (omega(Y_i)) along constant coordinate fields Y_i.

    directions are one or two 1-based chart axes. Invariance of every
    coefficient and partial along those axes is checked by evaluation at
    shifted points.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    dirs = tuple(directions)
    if not dirs:
        raise ParameterError("singular scan needs at least one invariance direction")
    if len(dirs) > 2:
        raise ParameterError("singular scan takes at most two invariance directions")
    if any(not 1 <= d <= f.dim for d in dirs):
        raise ParameterError("invariance directions must be chart axes")
    pts = [tuple(pt) for pt in points]
    if not pts:
        raise ParameterError("empty point set")
    for pt in pts:
        if not all(map(math.isfinite, pt)):
            raise ParameterError(f"point has a non-finite coordinate: {pt}")
    rng = random.Random(seed)
    max_diff = 0.0
    for _ in range(100):
        base = tuple(rng.random() * TWO_PI for _ in range(f.dim))
        shifted = list(base)
        for d in dirs:
            shifted[d - 1] += rng.random() * TWO_PI
        shifted = tuple(shifted)
        for i in range(f.dim):
            max_diff = max(max_diff, abs(f.coeff[i](base) - f.coeff[i](shifted)))
            for j in range(f.dim):
                max_diff = max(max_diff, abs(f.partial[i][j](base) - f.partial[i][j](shifted)))

    sigma = []
    min_rank_off = None
    ranks_on = []
    for pt in pts:
        phi = [f.coeff[d - 1](pt) for d in dirs]
        jac = [[f.partial[d - 1][j](pt) for j in range(f.dim)] for d in dirs]
        r = _jacobian_rank(jac, tol)
        if max(abs(v) for v in phi) < tol:
            sigma.append(pt)
            ranks_on.append(r)
        else:
            min_rank_off = r if min_rank_off is None else min(min_rank_off, r)
    return SingularScanReport(
        form=f.name,
        directions=dirs,
        n_points=len(pts),
        tol=tol,
        invariance_max_diff=max_diff,
        sigma_candidates=sigma[:20],
        min_rank_off_sigma=min_rank_off if min_rank_off is not None else -1,
        ranks_on_sigma=ranks_on,
    )
