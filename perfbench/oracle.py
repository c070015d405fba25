"""Known answers for the benchmark workloads.

Each check records (name, ok, detail). Any failed check fails the run. The
answers come from outside the code under test: recorded golden report hashes
and verdict tallies, closed forms, and classes audited by hand.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import itertools
import json
import math
import traceback
from collections import Counter

# sha256 of `contactforge all --p P --samples 20 --seed 0 --json F`
GOLDEN_SHA256 = {
    1: "4bd2b7feb0f13d1c3b45981996261d8351d74fbad6d7a23be86377480e44fbfc",
    2: "66cf2e306b81d6f27bbe55bc59def10107bd5b07ac18d1cfc9d8329185c324c8",
}
# verdict tallies of `all --p P`, the same at every seed
AUDIT_TALLIES = {
    1: {"confirmed": 38, "reported-only": 5},
    2: {"confirmed": 34, "reported-only": 6},
}
# audited Cartan classes on sl(4): all-ones diagonal dual sum, regular 1,2,3
AUDITED_SL4_CLASSES = {(1, 1, 1): 7, (1, 2, 3): 13}
# terms -2 da[i,2j-1] ^ da[i,2j] of d(omega) at p = 3: 6 rows x 3 column pairs
DOMEGA_TERMS_P3 = 18


class Checks:
    """Collects check outcomes; a step that raises counts as one failed check."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok, detail="") -> bool:
        ok = bool(ok)
        self.results.append((name, ok, "" if ok else str(detail)))
        return ok

    @contextlib.contextmanager
    def step(self, name: str):
        # a boundary that must keep running: record the failure and go on
        try:
            yield
        except Exception:
            self.results.append((name, False, traceback.format_exc(limit=-4)))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def claims(report: dict) -> list[dict]:
    """All claims of a single-suite or an `all` report."""
    if "reports" in report:
        return [c for r in report["reports"] for c in r["claims"]]
    return report["claims"]


def _claim(report: dict, prefix: str) -> dict:
    found = [c for c in claims(report) if c["anchor"].startswith(prefix)]
    if len(found) != 1:
        raise ValueError(f"expected one claim starting {prefix!r}, found {len(found)}")
    return found[0]


def check_audit_report(checks: Checks, p: int, seed: int, code: int, data: bytes) -> None:
    label = f"all --p {p}"
    checks.expect(f"{label}: exit status 0", code == 0, f"exit {code}")
    tally = dict(Counter(c["verdict"] for c in claims(json.loads(data))))
    checks.expect(f"{label}: verdict tally", tally == AUDIT_TALLIES[p],
                  f"{tally} != {AUDIT_TALLIES[p]}")
    if seed == 0:
        digest = sha256(data)
        checks.expect(f"{label}: golden report sha256", digest == GOLDEN_SHA256[p], digest)


def check_suite_report(checks: Checks, label: str, code: int, data: bytes) -> dict:
    report = json.loads(data)
    refuted = [c["anchor"] for c in claims(report) if c["verdict"] == "refuted"]
    checks.expect(f"{label}: exit status 0", code == 0, f"exit {code}")
    checks.expect(f"{label}: no refuted claim", not refuted, refuted)
    return report


def check_h_algebra_report(checks: Checks, p: int, code: int, data: bytes) -> None:
    report = check_suite_report(checks, f"h-algebra --p {p}", code, data)
    dim = _claim(report, "dim h")["computed"]
    checks.expect(f"h-algebra --p {p}: dim h = p(2p+1)", dim == p * (2 * p + 1), dim)


def dw_power_answer(k: int) -> tuple[int, int]:
    """(number of terms, coefficient) of (d omega)^k at p = 3."""
    return math.comb(DOMEGA_TERMS_P3, k), (-2) ** k * math.factorial(k)


def check_dw_power(checks: Checks, k: int, form) -> None:
    count, value = dw_power_answer(k)
    bad = [g for g, c in form.terms.items() if len(g) != 2 * k or c.terms != {(): value}]
    checks.expect(f"(d omega)^{k}: C(18,{k}) = {count} terms",
                  len(form.terms) == count, len(form.terms))
    checks.expect(f"(d omega)^{k}: every coefficient (-2)^{k} {k}! = {value}",
                  not bad, f"{len(bad)} wrong terms, first {bad[:1]}")


def leibniz_minor(rows, cols) -> dict:
    """Terms of the generic minor on rows x cols as {monomial: coefficient},
    monomials in the (row, col, exponent) tuple form, by the Leibniz formula."""
    terms = {}
    for perm in itertools.permutations(range(len(cols))):
        mono = tuple((r, cols[perm[t]], 1) for t, r in enumerate(rows))
        terms[mono] = _sign(perm)
    return terms


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def check_class_report(checks: Checks, label: str, code: int, data: bytes,
                       bound: int, expected: int | None = None) -> None:
    report = check_suite_report(checks, label, code, data)
    agree = _claim(report, "matrix-rank route agrees")
    checks.expect(f"{label}: rank and wedge routes agree",
                  agree["computed"] == agree["reference"],
                  f"{agree['computed']} vs {agree['reference']}")
    cls = _claim(report, "class of")["computed"]
    checks.expect(f"{label}: class at most n - r + 1 = {bound}", 0 < cls <= bound, cls)
    if expected is not None:
        checks.expect(f"{label}: audited class {expected}", cls == expected, cls)


def check_survey_report(checks: Checks, label: str, code: int, data: bytes,
                        dim: int, rank: int) -> None:
    report = check_suite_report(checks, label, code, data)
    note = _claim(report, "max observed class")["note"]
    histogram = ast.literal_eval(note.removeprefix("histogram "))
    bound = dim - rank + 1
    checks.expect(f"{label}: survey maximum at most n - r + 1 = {bound}",
                  max(histogram) <= bound, histogram)


def check_scan_report(checks: Checks, label: str, code: int, data: bytes, dim: int) -> None:
    report = check_suite_report(checks, label, code, data)
    constant = _claim(report, "class is constant")["computed"]
    cls = _claim(report, "observed class equals")["computed"]
    checks.expect(f"{label}: class constant over the scan", constant is True, constant)
    checks.expect(f"{label}: class equals the chart dimension {dim}", cls == dim, cls)
