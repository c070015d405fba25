"""One workload pass in its own process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is `setup`, `plain` or `traced`. Set-up (interpreter start,
`import contactforge`, input construction) ends at the monotonic time
reported as `setup_end`; the caller subtracts its own spawn time. With
`setup` the process stops there. Otherwise the pass is timed with tracing
off (`plain`) or on (`traced`) and its outputs are checked. One JSON object
is printed on the last line of stdout.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], pathlib.Path(argv[3])

    import oracle
    import workloads

    make_inputs, build, run_pass = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    built = build(inputs)
    setup_end = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    checks = oracle.Checks()
    out = workloads.PassOutput()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        run_pass(built, workdir, checks, out)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": out.digest,
        "sizes": workloads.sizes(inputs),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["report.bytes"] = out.report_bytes
        zero = [m for m in workloads.EXPECTED_NONZERO[workload] if not layers[m]]
        checks.expect("every per-layer metric expected nonzero is nonzero", not zero, zero)
        result["layers"] = layers
        tracer.write_spans(workdir / "spans.json")
    result["checks"] = checks.results
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
