"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--record perfbench/baseline.json]

For every workload in BENCHMARK.json it runs `run.py` once for each of the
seeds 1 to 10 with the BENCHMARK.json run length, one run at a time, and
prints each end-to-end metric's median, quartiles and spread (quartile
distance over the median, as `statistics.quantiles(values, n=4)` gives the
quartiles) next to a third of its bound; it exits 1 when any spread is not
below that. With --record it also writes the figures together with the
machine they were taken on, the `src/` line count and the golden hashes.
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

import oracle
from run import HERE, ROOT, src_lines

SEEDS = range(1, 11)


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=pathlib.Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} checks failed")
                steady = False
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        table[workload] = {}
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            table[workload][name] = stats
            ok = stats["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {workload:15s} {name:12s} median {stats['median']:.4g}  "
                  f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}  spread {stats['spread']:.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}  {'ok' if ok else 'WIDE'}", flush=True)

    if args.record:
        record = {
            "environment": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "cpu_model": _cpu_model(),
            },
            "src_lines": src_lines(),
            "golden_sha256": {f"p{p}": h for p, h in oracle.GOLDEN_SHA256.items()},
            "run_seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "end_to_end": table,
        }
        args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
