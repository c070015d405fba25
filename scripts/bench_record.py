"""Turn saved perfbench/run.py outputs of a parent and a change into one BENCH file.

Usage:
    python scripts/bench_record.py --parent P1.txt P2.txt ... --change C1.txt C2.txt ... \
        --out BENCH_N.json [--claim WORKLOAD:METRIC ...]

Each input file is the saved stdout of one
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1` run.
Its header names the workload, seed, run length, trace mode and the `src/`
line count of the checkout it ran in; its last line is the JSON summary.

For every workload the output holds, per end-to-end metric and side, the
values of the untraced runs with their median and quartiles; the pairs (an
untraced parent and change run of one seed) and how many of them the change
won, ties counting for neither; and whether the change's median stays
within the bound BENCHMARK.json fixes. A `--claim` metric is also scored
as a gain: won in at least nine tenths of the pairs, and medians apart by
more than the distance between the parent's quartiles. Traced runs give
the deterministic per-layer counts and self times of each side.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
HEADER = re.compile(r"workload (\S+)\s+seed (-?\d+)\s+seconds (\S+)\s+trace ([01])")
ENVIRONMENT = re.compile(r"environment: (python [^,]+, nproc \d+)")
SRC_LINES = re.compile(r"src lines (\d+)")
COUNT_SUFFIXES = ("calls", "term_pairs", "out_terms_max", "steps", "pairs", "entries")


def read_run(path: pathlib.Path) -> dict:
    """Workload, seed, seconds, trace mode, src lines and summary of one saved run."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next((HEADER.match(line) for line in lines if HEADER.match(line)), None)
    env = next((ENVIRONMENT.match(line) for line in lines if ENVIRONMENT.match(line)), None)
    src = next((SRC_LINES.search(line) for line in lines if SRC_LINES.search(line)), None)
    summary = next((line for line in reversed(lines) if line.startswith("{")), None)
    if header is None or env is None or src is None or summary is None:
        raise ValueError(f"{path}: not the output of a completed perfbench/run.py run")
    return {
        "workload": header[1],
        "seed": int(header[2]),
        "seconds": float(header[3]),
        "trace": int(header[4]),
        "environment": env[1],
        "src_lines": int(src[1]),
        "summary": json.loads(summary),
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values, with the values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(spec: dict, runs: dict[str, list[dict]], claims: set[str]) -> dict:
    """One workload's end-to-end rows, checks and traced metrics for both sides."""
    plain = {side: {r["seed"]: r["summary"] for r in rs if not r["trace"]}
             for side, rs in runs.items()}
    seeds = sorted(set(plain["parent"]) & set(plain["change"]))
    out: dict = {"seeds": seeds,
                 "seconds": sorted({r["seconds"] for rs in runs.values() for r in rs}),
                 "end_to_end": {}}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: spread([plain[side][s]["metrics"][name]["value"] for s in seeds])
                 for side in plain}
        won = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(sides["parent"]["values"], sides["change"]["values"])
        )
        pm, cm = sides["parent"]["median"], sides["change"]["median"]
        limit = pm * (1 + m["bound"]) if lower else pm * (1 - m["bound"])
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **sides,
               "pairs": len(seeds), "pairs_won": won,
               "change_over_parent": cm / pm if pm else None,
               "within_bound": cm <= limit if lower else cm >= limit}
        if name in claims:
            iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
            row["claim_met"] = won >= 0.9 * len(seeds) and abs(pm - cm) > iqr and (
                cm < pm if lower else cm > pm)
        out["end_to_end"][name] = row
    out["checks"] = {side: {"attempted": sum(s["attempted"] for s in plain[side].values()),
                            "failed": sum(s["failed"] for s in plain[side].values())}
                     for side in plain}
    traced = {side: [r for r in rs if r["trace"]] for side, rs in runs.items()}
    if traced["parent"] and traced["change"]:
        out["traced"] = {}
        for side, rs in traced.items():
            metrics = {k: v["value"] for k, v in rs[0]["summary"]["metrics"].items()}
            out["traced"][side] = {
                "seed": rs[0]["seed"],
                "counts": {k: v for k, v in metrics.items()
                           if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES},
                "self_s": {k: v for k, v in metrics.items() if k.endswith(".self_s")},
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, type=pathlib.Path)
    parser.add_argument("--change", nargs="+", required=True, type=pathlib.Path)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="end-to-end metric claimed as a gain on one workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        runs = {side: [read_run(p) for p in getattr(args, side)] for side in ("parent", "change")}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record: dict = {
        "schema": 1,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1",
        "environment": sorted({r["environment"] for rs in runs.values() for r in rs}),
        "src_lines": {side: sorted({r["src_lines"] for r in rs}) for side, rs in runs.items()},
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        by_side = {side: [r for r in rs if r["workload"] == w] for side, rs in runs.items()}
        seeds = [{r["seed"] for r in rs if not r["trace"]} for rs in by_side.values()]
        if not set.intersection(*seeds):  # no untraced pair of this workload
            continue
        claims = {c.split(":", 1)[1] for c in args.claim if c.split(":", 1)[0] == w}
        record["workloads"][w] = compare(spec, by_side, claims)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for w, row in record["workloads"].items():
        for name, m in row["end_to_end"].items():
            verdict = "claim met" if m.get("claim_met") else (
                "claim NOT met" if "claim_met" in m else
                "within bound" if m["within_bound"] else "OUT OF BOUND")
            print(f"{w:15s} {name:12s} parent {m['parent']['median']:9.4g}  "
                  f"change {m['change']['median']:9.4g}  won {m['pairs_won']}/{m['pairs']}  "
                  f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
