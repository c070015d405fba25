"""Tracer: self-time arithmetic, binding patches, counts and the metric list."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from contactforge import exterior, polyring, slcontact  # noqa: E402
from contactforge.errors import DimensionError  # noqa: E402
from contactforge.polyring import Poly  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    own = tracer.self_times(spans)
    assert own == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert sum(own.values()) == 10.0  # self times partition the root span


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 4.0, 0),
        ("y", 3.0, 6.0, 0),   # overlaps x on [3, 4]
        ("z", 8.0, 12.0, 0),  # runs past the parent's end
    ]
    own = tracer.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_patches_every_binding_and_restores_it():
    original_mul = Poly.__dict__["__mul__"]
    original_wedge = exterior.wedge
    with tracer.Tracer() as t:
        # `from .exterior import wedge` bindings and the __rmul__ alias are patched too
        assert slcontact.wedge is exterior.wedge is not original_wedge
        assert Poly.__dict__["__rmul__"] is Poly.__dict__["__mul__"] is not original_mul
        x = Poly.variable(2, 1, 1) + Poly.variable(2, 1, 2)
        y = Poly.variable(2, 2, 1) - Poly.variable(2, 2, 2)
        x * y
        3 * x
        with pytest.raises(DimensionError):
            polyring.determinant([[x, y]])
    assert Poly.__dict__["__mul__"] is Poly.__dict__["__rmul__"] is original_mul
    assert slcontact.wedge is exterior.wedge is original_wedge
    metrics = t.layer_metrics()
    assert metrics["polyring.mul.calls"] == 2
    assert metrics["polyring.mul.term_pairs"] == 2 * 2 + 2
    assert metrics["polyring.mul.out_terms_max"] == 4
    assert metrics["polyring.determinant.calls"] == 1
    assert metrics["polyring.failed"] == 1
    assert metrics["exterior.failed"] == 0
    raised = [tracer.TARGETS[span[0]][1] for span in t.spans if span[4]]
    assert raised == ["determinant"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
