"""Floating-point pointwise Cartan class for forms with trigonometric
coefficients, plus scan diagnostics for torus examples.

A FormFn carries the coefficient functions of a 1-form on a flat chart
together with analytically supplied partial derivatives; nothing here is ever
differentiated numerically (finite differences appear only as a self-test in
the suite). Class computations expand wedge powers combinatorially over the
chart basis, which matches the wedge-power definition of the class directly
and keeps the module dependency-free. Terms are keyed by mask, with
d theta_{i+1} as bit i, under the exact layer's mask and sign rule.

Compiled kernels: the whole class route of one layout of nonzero alpha and
d alpha terms (the norm test and exit of each power (d alpha)^k, the running
top alpha ^ d alpha ^ ... ^ d alpha and the returned class and magnitude) is
generated as one straight-line function. Each wedge takes its slots, signs
and summation order from `exterior._wedge_plan`: a slot is the sum of its
products in the order `exterior._wedge_masks` visits them, the first negated
as -(f*g) and later negated ones subtracted, so the floats are bit-equal to
that kernel applied to {mask: float} dicts of the nonzero terms.

Live partials: the built-in forms share the module's `_zero`, and a FormFn
compiles, once, the kernel of the layout where every coefficient and
d theta_i ^ d theta_j term that does not reduce to `_zero` is nonzero. That
kernel calls each live function once, never `_zero`, and only the other side
of a term whose one side is `_zero`; since a - 0.0 == a, and 0.0 - b differs
from -b only in the sign of a zero that the class drops anyway, the floats are
unchanged. A point where some live value is exactly 0.0 hands the values
already computed to the kernel of the nonzero layout, generated the same way
on first use and kept on the form; zero terms never enter a sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ParameterError
from .exterior import _wedge_plan

TWO_PI = 2.0 * math.pi


def _zero(th) -> float:
    """The identically zero coefficient or partial, never called by the class route."""
    return 0.0


@dataclass(frozen=True)
class FormFn:
    """1-form on a dim-dimensional chart: coefficients and their partials.

    coeff[i](point) is the coefficient of d theta_{i+1}; partial[i][j](point)
    is its derivative along theta_{j+1}, supplied analytically. `_kernel` is
    the class route compiled for the layout where every live term is nonzero;
    `_layouts` keeps the kernels of the nonzero subsets its points have met.
    """

    dim: int
    name: str
    coeff: tuple
    partial: tuple
    _kernel: object = field(init=False, repr=False, compare=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        if len(self.coeff) != n:
            raise ParameterError(f"{self.name}: {len(self.coeff)} coefficients, chart dimension is {n}")
        if len(self.partial) != n or any(len(row) != n for row in self.partial):
            raise ParameterError(f"{self.name}: partials are not {n} x {n}")
        alpha = [(1 << i, c) for i, c in enumerate(self.coeff) if c is not _zero]
        dalpha = [(1 << i | 1 << j, self.partial[j][i], self.partial[i][j])
                  for i in range(n) for j in range(i + 1, n)
                  if self.partial[j][i] is not _zero or self.partial[i][j] is not _zero]
        object.__setattr__(self, "_kernel", _live_kernel(self, alpha, dalpha))


def t3_form(n1: int = 1) -> FormFn:
    """cos(n1 t1) d t2 + sin(n1 t1) d t3 on the 3-torus."""
    return FormFn(
        dim=3,
        name=f"t3(n1={n1})",
        coeff=(
            _zero,
            lambda th: math.cos(n1 * th[0]),
            lambda th: math.sin(n1 * th[0]),
        ),
        partial=(
            (_zero, _zero, _zero),
            (lambda th: -n1 * math.sin(n1 * th[0]), _zero, _zero),
            (lambda th: n1 * math.cos(n1 * th[0]), _zero, _zero),
        ),
    )


def t5_lutz_form() -> FormFn:
    """The five-term contact form on the 5-torus, invariant along t4 and t5."""
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
            (_zero, lambda th: c(2 * th[1]), _zero, _zero, _zero),
            (lambda th: -c(2 * th[0]), _zero, _zero, _zero, _zero),
            (lambda th: -s(th[0]) * c(th[1]), lambda th: -c(th[0]) * s(th[1]), _zero, _zero, _zero),
            (
                lambda th: c(th[0]) * c(th[2]),
                lambda th: -c(th[1]) * s(th[2]),
                lambda th: -s(th[0]) * s(th[2]) - s(th[1]) * c(th[2]),
                _zero,
                _zero,
            ),
            (
                lambda th: c(th[0]) * s(th[2]),
                lambda th: c(th[1]) * c(th[2]),
                lambda th: s(th[0]) * c(th[2]) - s(th[1]) * s(th[2]),
                _zero,
                _zero,
            ),
        ),
    )


BUILTIN_FORMS = {"t3": t3_form, "t5-lutz": t5_lutz_form}


def _norm(names: list) -> str:
    """Source of the max norm of a nonempty list of value names, in list order."""
    return f"abs({names[0]})" if len(names) == 1 else f"max({', '.join(f'abs({v})' for v in names)})"


def _wedge_lines(lines: list, f: list, g: list, prefix: str) -> list:
    """Append the slots of f ^ g, for f and g lists of (mask, value name),
    by the plan of `exterior._wedge_plan`; return the (mask, name) list of
    the result."""
    masks, rows = _wedge_plan([m for m, _ in f], [m for m, _ in g])
    products = [[] for _ in masks]
    for (_, x), row in zip(f, rows):
        for j, slot, negate in row:
            products[slot].append((f"{x}*{g[j][1]}", negate))
    out = []
    for s, (mask, ((first, negate), *rest)) in enumerate(zip(masks, products)):
        expr = f"-({first})" if negate else first
        expr += "".join(f" - {p}" if neg else f" + {p}" for p, neg in rest)
        lines.append(f"{prefix}{s} = {expr}")
        out.append((mask, f"{prefix}{s}"))
    return out


def _route(alpha: list, dalpha: list) -> list:
    """Source lines of the class route for nonzero alpha and d alpha terms,
    given as (mask, value name) lists: the norm test of each power
    (d alpha)^k with its exit, the running top alpha ^ (d alpha)^k and the
    returned (cls, magnitude). An empty layout has norm 0.0, which never
    exceeds the positive tol, so its test is decided here."""
    lines = []

    def finish(p: int, top: list, indent: str = "") -> None:
        lines.append(f"{indent}mag = {_norm([v for _, v in top]) if top else '0.0'}")
        lines.append(f"{indent}return ({2 * p + 1} if mag > tol else {2 * p}), mag")

    power, top, p = dalpha, alpha, 0
    while power:  # a power above the chart dimension has no slots
        lines.append(f"if not {_norm([v for _, v in power])} > tol:")
        finish(p, top, "    ")
        p += 1
        top = _wedge_lines(lines, top, dalpha, f"t{p}_")
        power = _wedge_lines(lines, power, dalpha, f"w{p + 1}_")
    finish(p, top)
    return lines


def _compile(params: str, lines: list, namespace: dict):
    """The function `kernel(params)` with these body lines; the source holds
    only masks, indices and fixed names, never text from a caller."""
    source = f"def kernel({params}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"__builtins__": {}, "abs": abs, "max": max, **namespace}
    exec(source, namespace)
    return namespace["kernel"]


def _live_kernel(form: FormFn, alpha: list, dalpha: list):
    """kernel(point, tol) -> (cls, magnitude) for alpha = [(mask, coeff)] and
    dalpha = [(mask, plus, minus)], calling each live function once. When a
    value is 0.0 it hands the values to the kernel of the nonzero layout."""
    calls = {}
    lines = []
    for k, (_, coeff) in enumerate(alpha):
        calls[f"fa{k}"] = coeff
        lines.append(f"a{k} = fa{k}(th)")
    for k, (_, plus, minus) in enumerate(dalpha):
        sides = []
        if plus is not _zero:
            calls[f"fp{k}"] = plus
            sides.append(f"fp{k}(th)")
        if minus is not _zero:
            calls[f"fm{k}"] = minus
            sides.append(f"fm{k}(th)")
        lines.append(f"d{k} = {' - '.join(sides) if plus is not _zero else '-' + sides[0]}")
    a_names = [f"a{k}" for k in range(len(alpha))]
    d_names = [f"d{k}" for k in range(len(dalpha))]
    if alpha or dalpha:
        lines.append(f"if not ({' and '.join(a_names + d_names)}):")
        lines.append(f"    return vanishing([{', '.join(a_names)}], [{', '.join(d_names)}], tol)")
    alpha_masks = [m for m, _ in alpha]
    dalpha_masks = [m for m, *_ in dalpha]

    def vanishing(a: list, d: list, tol: float):
        key = tuple(map(bool, a + d))
        kernel = form._layouts.get(key)
        if kernel is None:
            live_a = [(m, f"a[{k}]") for k, m in enumerate(alpha_masks) if a[k]]
            live_d = [(m, f"d[{k}]") for k, m in enumerate(dalpha_masks) if d[k]]
            kernel = form._layouts[key] = _compile("a, d, tol", _route(live_a, live_d), {})
        return kernel(a, d, tol)

    calls["vanishing"] = vanishing
    lines += _route(list(zip(alpha_masks, a_names)), list(zip(dalpha_masks, d_names)))
    return _compile("th, tol", lines, calls)


@dataclass
class PointClassReport:
    point: tuple
    cls: int
    magnitude: float


def pointwise_class(f: FormFn, point, tol: float = 1e-9) -> PointClassReport:
    """Pointwise Cartan class by exact combinatorial wedge expansion.

    Finds the largest p with ||(d a)^p|| > tol; the class is 2p+1 when
    ||a ^ (d a)^p|| > tol and 2p otherwise.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    point = tuple(map(float, point))
    if len(point) != f.dim:
        raise ParameterError(f"point has length {len(point)}, chart dimension is {f.dim}")
    if not all(map(math.isfinite, point)):
        raise ParameterError(f"point has a non-finite coordinate: {point}")
    cls, mag = f._kernel(point, tol)
    return PointClassReport(point, cls, mag)


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
    draw = random.Random(seed).random
    axes = range(dim)
    for _ in range(count):
        yield tuple([draw() * TWO_PI for _ in axes])


SUBMAXIMAL_KEPT = 20  # submaximal points a ScanReport lists


@dataclass
class ScanReport:
    n_points: int
    min_class: int
    max_class: int
    min_magnitude: float
    submaximal_points: list = field(default_factory=list)


def contact_scan(f: FormFn, points, tol: float = 1e-9) -> ScanReport:
    """Class statistics over a point set; points is an iterable of chart points.

    Memory stays constant in the number of points: the scan keeps running
    extremes and the first SUBMAXIMAL_KEPT (index, point) pairs of each
    class. The first SUBMAXIMAL_KEPT points below the maximum class, in input
    order, are among those of their own class.
    """
    n_points = 0
    first: dict[int, list] = {}
    for n_points, pt in enumerate(points, 1):
        r = pointwise_class(f, pt, tol)
        if n_points == 1 or r.magnitude < min_mag:
            min_mag = r.magnitude
        kept = first.setdefault(r.cls, [])
        if len(kept) < SUBMAXIMAL_KEPT:
            kept.append((n_points, r.point))
    if not n_points:
        raise ParameterError("empty point set")
    max_cls = max(first)
    submax = sorted(pair for cls, kept in first.items() if cls < max_cls for pair in kept)
    return ScanReport(
        n_points=n_points,
        min_class=min(first),
        max_class=max_cls,
        min_magnitude=min_mag,
        submaximal_points=[pt for _, pt in submax[:SUBMAXIMAL_KEPT]],
    )


@dataclass
class SingularScanReport:
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
        invariance_max_diff=max_diff,
        sigma_candidates=sigma[:20],
        min_rank_off_sigma=min_rank_off if min_rank_off is not None else -1,
        ranks_on_sigma=ranks_on,
    )
