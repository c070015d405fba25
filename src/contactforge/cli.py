"""Command-line front end: named verification suites with JSON reports.

Exit status: 0 when no asserted claim is refuted (reported-only discrepancies
with quoted constants are flagged but do not fail the run), 1 when a claim is
refuted or an internal self-check fails, 2 on usage errors (a malformed
CONTACTFORGE_MAX_TERMS among them), 3 when the symbolic term budget is
exceeded or memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, config
from .errors import ContactforgeError, InvalidAlgebraError, ParameterError, TermLimitError
from .liealg import build_algebra, cartan_class, cartan_class_wedge, class_survey, random_covector
from .numeric import BUILTIN_FORMS, contact_scan, random_points, t3_form
from .orthogroup import so3_contact_check
from .report import CONFIRMED, REPORTED_ONLY, VerifyReport
from .slcontact import (
    SLFrame,
    build_frame,
    h_algebra,
    invariance_loci,
    reeb_field,
    structural_checks,
    u_decomposition,
    verify_contact_identity,
)


def _parse_algebra(args):
    if args.algebra.startswith("file:"):
        return build_algebra(args.algebra)
    if args.n is None:
        raise ParameterError("--n is required for the sl/so/heisenberg families")
    return build_algebra(args.algebra, args.n)


def _cartan_class(args, frame) -> VerifyReport:
    g = _parse_algebra(args)
    rep = VerifyReport(
        "cartan-class",
        {"algebra": g.label, "form": args.form or "random", "seed": args.seed},
    )
    if args.form:
        try:
            coords = tuple(Fraction(x) for x in args.form.split(","))
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"cannot parse --form {args.form!r}") from None
        if len(coords) != g.dim:
            raise ParameterError(f"--form needs {g.dim} coordinates for {g.label}")
    else:
        coords = random_covector(g, random.Random(args.seed))
    cls = cartan_class(g, coords)
    cls_wedge = cartan_class_wedge(g, coords)
    rep.check(
        "matrix-rank route agrees with the wedge route",
        cls,
        cls_wedge,
        "derived",
    )
    rep.add(
        f"class of {[str(c) for c in coords]} on {g.label}",
        cls,
        None,
        "definition",
        CONFIRMED,
    )
    return rep


def _class_survey(args, frame) -> VerifyReport:
    g = _parse_algebra(args)
    survey = class_survey(g, args.rank, args.samples, args.seed)
    rep = VerifyReport(
        "class-survey",
        {
            "algebra": g.label,
            "rank_hint": args.rank,
            "samples": args.samples,
            "seed": args.seed,
        },
    )
    rep.check(
        f"max observed class <= n - r + 1 = {survey.upper_bound}",
        survey.upper_bound_ok,
        True,
        "claimed",
        note=f"histogram {survey.histogram}",
    )
    if survey.parity_all_odd is not None:
        rep.check(
            "all observed classes odd (compact/nilpotent family)",
            survey.parity_all_odd,
            True,
            "claimed",
        )
    rep.add(
        f"min observed class vs reference lower bound {survey.lower_bound_reference}",
        survey.min_observed,
        survey.lower_bound_reference,
        "claimed",
        CONFIRMED if survey.min_observed >= survey.lower_bound_reference else REPORTED_ONLY,
        note="reported only: sampling bounds the maximum, not the minimum",
    )
    rep.add(
        "generic centralizer dimension (advisory rank estimate)",
        survey.generic_rank_estimate,
        args.rank,
        "derived",
        CONFIRMED if survey.generic_rank_estimate == args.rank else REPORTED_ONLY,
    )
    return rep


def _scan(args, frame) -> VerifyReport:
    if args.form not in BUILTIN_FORMS:
        raise ParameterError(f"unknown built-in form {args.form!r}")
    if args.form != "t3" and args.n1 is not None:
        raise ParameterError(f"--n1 applies to --form t3 only, not to {args.form}")
    if args.form == "t3" and args.n1 == 0:
        raise ParameterError("--n1 0 makes t3 the closed form d theta2 (class 1), not a contact form")
    form = t3_form(1 if args.n1 is None else args.n1) if args.form == "t3" else BUILTIN_FORMS[args.form]()
    rep = VerifyReport(
        "scan",
        {
            "form": form.name,
            "points": args.points,
            "seed": args.seed,
            "tol": args.tol,
        },
    )
    result = contact_scan(form, random_points(form.dim, args.points, args.seed), args.tol)
    expected = form.dim  # both built-ins, t3 for n1 != 0, are contact forms on their tori
    rep.check(
        "class is constant across the scan",
        result.min_class == result.max_class,
        True,
        "derived",
        note=f"min magnitude {result.min_magnitude:.6g}",
    )
    rep.check(
        f"observed class equals the chart dimension {expected}",
        result.min_class,
        expected,
        "claimed",
    )
    return rep


def positive_int(text: str) -> int:
    """argparse type for p, counts, ranks and budgets: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for tolerances: a finite float > 0 (nan and inf are refused)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


def _samples(default: int):
    return _arg("--samples", type=positive_int, default=default)


_SEED = _arg("--seed", type=int, default=0)
_ALGEBRA = (
    _arg("--algebra", required=True, help="sl | so | heisenberg | file:PATH"),
    _arg("--n", type=int, help="dimension parameter of the family"),
)


@dataclass(frozen=True)
class Suite:
    """One subcommand of the registry.

    `run(args, frame)` returns the suite's report; `frame()` is the run's one
    SLFrame for args.p, built on first use. `p` is the tuple of valid p, ()
    for every p >= 1, or None when the command takes no --p. `in_all` holds
    one argument override per run of this suite inside `all` (none: not run).
    """

    run: Callable[[argparse.Namespace, Callable[[], SLFrame]], VerifyReport] | None
    help: str
    p: tuple[int, ...] | None = None
    args: tuple = ()
    in_all: tuple[dict, ...] = ({},)


# `all` runs the in_all entries in this order.
SUITES: dict[str, Suite] = {
    "verify-contact": Suite(
        lambda a, frame: verify_contact_identity(a.p, frame()).report,
        "expand the top-degree contact identity", (1, 2, 3)),
    "reeb": Suite(
        lambda a, frame: reeb_field(a.p, frame()).report,
        "audit the quoted Reeb field", (1, 2, 3, 4)),
    "structural": Suite(
        lambda a, frame: structural_checks(a.p, frame()),
        "brackets, Lie derivatives, duality table", (1, 2, 3)),
    "invariance": Suite(
        # the loci for p >= 3 need no frame: every value there is a point evaluation
        lambda a, frame: invariance_loci(a.p, a.samples, a.seed, frame() if a.p <= 2 else None),
        "left/right invariance loci at sampled points", (), (_samples(20), _SEED)),
    "h-algebra": Suite(
        lambda a, frame: h_algebra(a.p).report,
        "the J-preserving subalgebra", ()),
    "u-decomp": Suite(
        lambda a, frame: u_decomposition(a.p, frame()),
        "coframe decomposition of the contact form", (1, 2, 3)),
    "cartan-class": Suite(
        _cartan_class, "Cartan class of a covector", None,
        (*_ALGEBRA, _arg("--form", help="comma-separated rational coordinates"), _SEED),
        in_all=()),
    "class-survey": Suite(
        _class_survey, "seeded random class survey", None,
        (*_ALGEBRA, _arg("--rank", type=positive_int, required=True), _samples(100), _SEED),
        in_all=()),
    "so3-check": Suite(
        lambda a, frame: so3_contact_check(a.samples, a.seed).report,
        "induced contact form on SO(3)", None, (_samples(50), _SEED)),
    "scan": Suite(
        _scan, "pointwise class scan of a built-in torus form", None,
        (
            _arg("--form", required=True, choices=sorted(BUILTIN_FORMS)),
            _arg("--n1", type=int, help="winding number of t3 (default 1)"),
            _arg("--points", type=positive_int, default=1000),
            _SEED,
            _arg("--tol", type=positive_float, default=1e-9),
        ),
        in_all=({"form": "t3", "n1": 1, "points": 500, "tol": 1e-9},
                {"form": "t5-lutz", "n1": None, "points": 500, "tol": 1e-9})),
    "all": Suite(None, "run every suite for one p", (1, 2, 3), (_samples(20), _SEED), in_all=()),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactforge",
        description="Exact verification suites for contact structures on matrix groups.",
    )
    parser.add_argument("--version", action="version", version=f"contactforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, suite in SUITES.items():
        sp = sub.add_parser(name, help=suite.help)
        if suite.p is not None:
            sp.add_argument("--p", type=positive_int, required=True, choices=suite.p or None,
                            help="half the matrix size of SL(2p)")
        for flags, kwargs in suite.args:
            sp.add_argument(*flags, **kwargs)
        sp.add_argument("--json", metavar="PATH", help="write the report as JSON")
        sp.add_argument("--max-terms", type=positive_int,
                        help="term budget for symbolic expansions (default: "
                             f"$CONTACTFORGE_MAX_TERMS, else {config.DEFAULT_MAX_TERMS})")
    return parser


def _run_suite(suite: Suite, args, frame) -> VerifyReport:
    started = time.monotonic()
    rep = suite.run(args, frame)
    elapsed = time.monotonic() - started
    print(f"suite {rep.suite}  ({elapsed:.2f}s)")
    for line in rep.summary_lines():
        print(line)
    return rep


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    budget = os.environ.get("CONTACTFORGE_MAX_TERMS")
    if args.max_terms is None and budget:  # the flag beats the variable; empty reads as unset
        try:
            args.max_terms = positive_int(budget)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"argument --max-terms: its default $CONTACTFORGE_MAX_TERMS is {budget!r}, "
                         "not an integer >= 1")
    frame = functools.cache(lambda: build_frame(args.p))
    if args.command == "all":
        steps = [
            (suite, argparse.Namespace(**{**vars(args), **extra}))
            for suite in SUITES.values()
            for extra in suite.in_all
        ]
    else:
        steps = [(SUITES[args.command], args)]

    if args.max_terms is not None:
        config.set_max_terms(args.max_terms)
    try:
        reports = [_run_suite(suite, step_args, frame) for suite, step_args in steps]
        ok = all(r.ok for r in reports)
        if args.command != "all":
            if args.json:
                reports[0].write_json(args.json)
            return 0 if ok else 1
        if args.json:
            payload = {
                "schema": 1,
                "suite": "all",
                "engine": f"contactforge {__version__}",
                "params": {"p": args.p, "samples": args.samples, "seed": args.seed},
                "reports": [r.as_dict() for r in reports],
            }
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
        print("overall:", "ok" if ok else "REFUTED CLAIMS PRESENT")
        return 0 if ok else 1
    except TermLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3
    except (ParameterError, InvalidAlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContactforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.max_terms is not None:
            config.set_max_terms(None)


if __name__ == "__main__":
    sys.exit(main())
