"""Seeded inputs, repeatable traced counts, and the runner's refusal without a program."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make_inputs = workloads.WORKLOADS[name][0]
    assert make_inputs(5) == make_inputs(5)
    assert make_inputs(5) != make_inputs(6)


def _traced_counts(name, inputs, workdir):
    _, build, run_pass = workloads.WORKLOADS[name]
    built = build(inputs)
    checks = oracle.Checks()
    with tracer.Tracer() as t:
        run_pass(built, workdir, checks, workloads.PassOutput())
    assert checks.failed == []
    return {k: v for k, v in t.layer_metrics().items()
            if k.rsplit(".", 1)[-1] in tracer.COUNT_SUFFIXES}


def test_same_seed_gives_identical_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "T5_POINTS", 200)
    monkeypatch.setattr(workloads, "T3_POINTS", 200)
    torus = workloads.torus_inputs(3)
    torus["points"] = torus["points"][:100]
    audit = {**workloads.full_audit_inputs(3), "ps": [1]}
    for name, inputs in (("torus-scan", torus), ("full-audit", audit)):
        first = _traced_counts(name, inputs, tmp_path)
        assert first == _traced_counts(name, inputs, tmp_path)
        assert first["cli.main.calls"] > 0


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((proc.stdout.strip().splitlines() or [""])[-1])
