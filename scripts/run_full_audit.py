#!/usr/bin/env python3
"""Run every verification suite for each p that `all` accepts (1, 2 and 3) and
write JSON reports.

Usage: python scripts/run_full_audit.py [output-dir]
"""

import pathlib
import sys
import time

from contactforge.cli import SUITES, main


def run(out_dir: pathlib.Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for p in SUITES["all"].p:
        target = out_dir / f"audit_p{p}.json"
        started = time.monotonic()
        code = main(["all", "--p", str(p), "--samples", "20", "--seed", "0",
                     "--json", str(target)])
        print(f"== p={p}: exit {code}, {time.monotonic() - started:.1f}s, report {target}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    sys.exit(run(out))
