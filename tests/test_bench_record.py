"""scripts/bench_record.py on synthetic perfbench/run.py outputs."""

import json
import pathlib
import runpy

import pytest

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "bench_record.py"
METRICS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_output(tmp_path, side, seed, wall, trace=0, counts=None):
    """The stdout of one run.py run: header lines, then the JSON summary."""
    if trace:
        metrics = {name: {"value": v, "unit": "count"} for name, v in counts.items()}
    else:
        metrics = {name: {"value": wall if name == "wall_s" else 1.0, "unit": unit}
                   for name, unit in METRICS.items()}
    summary = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path = tmp_path / f"{side}_{seed}_{trace}.txt"
    path.write_text(
        f"workload sl6-exact  seed {seed}  seconds 27  trace {trace}\n"
        f"environment: python 3.11.7, nproc 2, src lines {3749 if side == 'parent' else 3785}\n"
        f"  wall_s {wall} s\n{json.dumps(summary)}\n"
    )
    return str(path)


def record(tmp_path, parent_walls, change_walls, monkeypatch):
    parent = [run_output(tmp_path, "parent", s, w) for s, w in enumerate(parent_walls)]
    change = [run_output(tmp_path, "change", s, w) for s, w in enumerate(change_walls)]
    parent.append(run_output(tmp_path, "parent", 0, 0, 1, {"polyring.mul.calls": 62376,
                                                          "polyring.mul.self_s": 0.3}))
    change.append(run_output(tmp_path, "change", 0, 0, 1, {"polyring.mul.calls": 4542,
                                                          "polyring.mul.self_s": 0.1}))
    out = tmp_path / "BENCH.json"
    argv = ["bench_record.py", "--parent", *parent, "--change", *change,
            "--out", str(out), "--claim", "sl6-exact:wall_s"]
    monkeypatch.setattr("sys.argv", argv)
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == 0
    return json.loads(out.read_text())


def test_pairs_quartiles_claim_and_traced_counts(tmp_path, monkeypatch, capsys):
    parent = [1.0, 1.2, 1.1, 1.3, 1.4, 1.0, 1.2, 1.1, 1.3, 1.25]
    change = [0.6, 0.7, 0.65, 1.35, 0.7, 0.6, 0.7, 0.65, 0.6, 0.7]  # loses the fourth pair
    bench = record(tmp_path, parent, change, monkeypatch)
    assert bench["src_lines"] == {"parent": [3749], "change": [3785]}
    assert bench["environment"] == ["python 3.11.7, nproc 2"]
    row = bench["workloads"]["sl6-exact"]
    assert row["seeds"] == list(range(10))
    wall = row["end_to_end"]["wall_s"]
    assert (wall["pairs"], wall["pairs_won"]) == (10, 9)
    assert wall["parent"]["median"] == 1.2 and wall["parent"]["q1"] == 1.1
    assert wall["parent"]["q3"] == 1.2875
    assert wall["claim_met"] and wall["within_bound"]
    assert row["end_to_end"]["cpu_s"]["pairs_won"] == 0  # ties count for neither side
    assert "claim_met" not in row["end_to_end"]["cpu_s"]
    assert row["traced"]["parent"]["counts"] == {"polyring.mul.calls": 62376}
    assert row["traced"]["change"]["self_s"] == {"polyring.mul.self_s": 0.1}
    assert "sl6-exact       wall_s" in capsys.readouterr().out


def test_a_claim_with_too_few_pairs_won_is_not_met(tmp_path, monkeypatch):
    parent = [1.0, 1.2, 1.1, 1.3, 1.4]
    change = [0.6, 1.3, 0.65, 1.35, 0.7]  # 3 of 5 pairs
    row = record(tmp_path, parent, change, monkeypatch)["workloads"]["sl6-exact"]
    assert not row["end_to_end"]["wall_s"]["claim_met"]
