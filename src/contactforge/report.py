"""Verification records and deterministic JSON serialization.

Every suite produces a VerifyReport: a list of claims, each carrying the
computed value, the reference value it was checked against, where that
reference comes from, and a verdict. Verdicts follow the audit contract:

  confirmed      computed value equals the reference exactly (or within the
                 stated tolerance in the float modules);
  refuted        an asserted claim failed; this fails the run;
  reported-only  the computed value disagrees with a quoted reference
                 constant but the audit itself succeeded; flagged, not fatal.

JSON output is byte-deterministic for a fixed argv and seed: no timestamps,
fixed key order, fractions rendered as strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .polyring import Poly

CONFIRMED = "confirmed"
REFUTED = "refuted"
REPORTED_ONLY = "reported-only"


def poly_to_jsonable(p: Poly) -> list:
    """Canonical sparse encoding: [[coefficient, [[row, col, exp], ...]], ...]."""
    return [
        [str(coeff), [[r, c, e] for r, c, e in mono]]
        for mono, coeff in p.sorted_terms()
    ]


def to_jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Poly):
        return poly_to_jsonable(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class Claim:
    """One audited statement."""

    anchor: str
    computed: object
    reference: object
    provenance: str  # "claimed" (quoted constant), "derived", or "definition"
    verdict: str
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "anchor": self.anchor,
            "computed": to_jsonable(self.computed),
            "reference": to_jsonable(self.reference),
            "provenance": self.provenance,
            "verdict": self.verdict,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerifyReport:
    """Outcome of one verification suite."""

    suite: str
    params: dict
    claims: list[Claim] = field(default_factory=list)
    engine: str = f"contactforge {__version__}"

    @property
    def ok(self) -> bool:
        return all(c.verdict != REFUTED for c in self.claims)

    def add(self, anchor, computed, reference, provenance, verdict, note="") -> Claim:
        claim = Claim(anchor, computed, reference, provenance, verdict, note)
        self.claims.append(claim)
        return claim

    def check(self, anchor, computed, reference, provenance, note="") -> Claim:
        """Assertive claim: confirmed on exact equality, refuted otherwise."""
        verdict = CONFIRMED if computed == reference else REFUTED
        return self.add(anchor, computed, reference, provenance, verdict, note)

    def audit(self, anchor, computed, reference, note="") -> Claim:
        """Non-fatal comparison against a quoted reference constant."""
        verdict = CONFIRMED if computed == reference else REPORTED_ONLY
        return self.add(anchor, computed, reference, "claimed", verdict, note)

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "engine": self.engine,
            "params": to_jsonable(self.params),
            "claims": [c.as_dict() for c in self.claims],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.claims:
            tag = c.verdict.upper()
            lines.append(f"  [{tag:13s}] {c.anchor}" + (f"  ({c.note})" if c.note else ""))
        counts = {}
        for c in self.claims:
            counts[c.verdict] = counts.get(c.verdict, 0) + 1
        tally = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"  -- {self.suite}: {tally}")
        return lines
