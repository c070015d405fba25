"""Each benchmark workload pass, traced in-process: no failed check, and every
per-layer metric the workload must reach is nonzero.

A fast path that stops calling a traced layer (a module attribute the
benchmark's tracer wraps) turns one of those metrics to zero; this catches it
in the test suite rather than only in a traced benchmark run.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_reaches_every_expected_layer(name, tmp_path, monkeypatch):
    # the torus scans shrunk as in perfbench's own input tests; every other
    # workload runs its full pass
    monkeypatch.setattr(workloads, "T5_POINTS", 200)
    monkeypatch.setattr(workloads, "T3_POINTS", 200)
    make_inputs, build, run_pass = workloads.WORKLOADS[name]
    inputs = make_inputs(11)
    if name == "torus-scan":
        inputs["points"] = inputs["points"][:100]
    built = build(inputs)
    checks = oracle.Checks()
    out = workloads.PassOutput()
    with tracer.Tracer() as t:
        run_pass(built, tmp_path, checks, out)
    layers = t.layer_metrics()
    layers["report.bytes"] = out.report_bytes
    assert checks.failed == []
    zero = [m for m in workloads.EXPECTED_NONZERO[name] if not layers[m]]
    assert zero == []
