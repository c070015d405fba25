"""contactforge benchmark: one workload, closed loop, one pass per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Passes run one at a time, each in a fresh single-threaded process that
imports contactforge from ./src, builds its inputs from the seed and runs the
workload once; the next pass starts when the last verdict is in. Passes
repeat until the next one would end after --seconds (at least three passes,
or four with --trace 1). With --trace 0 each pass is preceded by
SETUP_SAMPLES set-up-only processes, and the last line is a JSON object with
the end-to-end metrics (medians over passes, and over every set-up for
setup_s); with --trace 1 untraced and traced passes alternate and it carries
the per-layer metrics. Every metric is also printed by name with its unit.
The run exits 1 when a known-answer check fails or fewer than two traced
passes fit in RUN_LIMIT_S, and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from tracer import COUNT_SUFFIXES, metric_names

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# --trace 1 alternates untraced and traced passes, so 4 gives two traced ones
MIN_PASSES = {0: 3, 1: 4}
SETUP_SAMPLES = 2
# the whole run, set-up included, must end well within three minutes
RUN_LIMIT_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    # the default 5,000,000-term budget applies; it is never loosened
    env.pop("CONTACTFORGE_MAX_TERMS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(workload: str, seed: int, mode: str, workdir: pathlib.Path, timeout: float) -> dict:
    """Run one worker process; returns its result with setup_s measured from the spawn."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(workdir)],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    result["traced"] = mode == "traced"
    return result


def run_passes(workload: str, seed: int, seconds: float,
               trace: int) -> tuple[list[dict], list[float]]:
    """Returns the passes and every set-up time measured on the way."""
    workdir = ROOT / ".perfbench" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()

    def left() -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - start))

    while True:
        if not trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(spawn(workload, seed, "setup", workdir, left())["setup_s"])
        mode = "traced" if trace and len(passes) % 2 == 1 else "plain"
        passes.append(spawn(workload, seed, mode, workdir, left()))
        setups.append(passes[-1]["setup_s"])
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(passes)
        if len(passes) >= MIN_PASSES[trace] and next_end > seconds:
            break
        if next_end > RUN_LIMIT_S:
            break
    return passes, setups


def _cross_pass_checks(passes: list[dict]) -> list:
    checks = []
    if len(passes) > 1:
        digests = {p["digest"] for p in passes}
        checks.append((f"reports byte-identical across {len(passes)} passes of one seed",
                       len(digests) == 1, f"{len(digests)} distinct digests"))
    traced = [p["layers"] for p in passes if p["traced"]]
    if len(traced) > 1:
        counts = [{k: v for k, v in layers.items() if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES}
                  for layers in traced]
        changed = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        checks.append((f"deterministic counts repeat across {len(traced)} traced passes",
                       not changed, changed))
    return checks


def summarize(spec: dict, passes: list[dict], setups: list[float], trace: int) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [tuple(c) for p in passes for c in p["checks"]]
    checks += _cross_pass_checks(passes)
    failed = [c for c in checks if not c[1]]

    def median(key, group):
        return statistics.median(p[key] for p in group)

    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = median("wall_s", traced) - median("wall_s", untraced)
            elif name.endswith(".self_s"):
                value = statistics.median(p["layers"][name] for p in traced)
            else:
                value = traced[-1]["layers"][name]
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "wall_s": median("wall_s", untraced),
            "cpu_s": median("cpu_s", untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb", untraced),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics, "_failed_checks": failed}


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contactforge" / "__init__.py").is_file():
        print(f"error: no contactforge source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if sorted(metric_names()) != sorted(m["name"] for m in spec["per_layer"]):
        print("error: BENCHMARK.json per_layer does not match the tracer", file=sys.stderr)
        return 2

    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_traced = sum(p["traced"] for p in passes)
    if args.trace and n_traced < 2:
        print(f"error: {n_traced} traced pass(es) fit in {RUN_LIMIT_S:g} s; the per-layer "
              "counts need two to be checked for repeatability", file=sys.stderr)
        return 1
    summary = summarize(spec, passes, setups, args.trace)
    failed_checks = summary.pop("_failed_checks")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"src lines {src_lines()}")
    print(f"inputs: {json.dumps(passes[0]['sizes'], sort_keys=True)}")
    print(f"passes: {len(passes)} ({len(passes) - n_traced} untraced, {n_traced} traced), "
          f"set-ups: {len(setups)}; values are medians")
    for name, m in summary["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {summary['failed'] / summary['attempted']:>14.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} checks)")
    for name, _, detail in failed_checks:
        print(f"FAILED {name}: {detail}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
