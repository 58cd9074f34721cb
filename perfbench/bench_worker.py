"""One iteration of one workload, in a fresh process.

    python3 perfbench/bench_worker.py --workload NAME --seed N --trace 0|1 \
        --mode full|setup --t0 MONOTONIC_NS

``run.py`` starts this process and passes ``--t0``, its monotonic clock
just before the start. The worker imports oraclebench from ``src/`` of the
checkout it lives in, prepares the workload's inputs and then, with
``--mode setup``, stops; with ``--mode full`` it runs every step, checks
every result and prints one JSON line: set-up time (t0 to the first
workload call), wall time (first call to last checked result), peak
resident memory of this process, the checks, a fingerprint of the results
and, when traced, the per-layer metrics. A fresh process per iteration
keeps one iteration's heap out of the next one's peak.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import oraclebench

    if not Path(oraclebench.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: oraclebench came from {oraclebench.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench_tracing
    import bench_workloads

    state = bench_workloads.prepare(args.workload, args.seed, OUT_DIR)
    lib = bench_workloads.library()
    tracer = bench_tracing.Tracer() if args.trace else None
    if tracer is not None:
        lib = tracer.library(lib)
    first = time.monotonic_ns()
    report = {"setup_s": (first - args.t0) * 1e-9}
    if args.mode == "full":
        if tracer is None:
            outcome = bench_workloads.run(args.workload, lib, state)
        else:
            with tracer.installed():
                outcome = bench_workloads.run(args.workload, lib, state, around_step=tracer.step)
        last = time.monotonic_ns()
        report.update(
            wall_s=(last - first) * 1e-9,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB on Linux
            checks=[[c.name, c.ok, c.detail] for c in outcome.checks],
            fingerprint=outcome.fingerprint,
        )
        if tracer is not None:
            layers = tracer.metrics()
            layers["game.transcript_bytes"] = outcome.fingerprint.get("transcript_bytes", 0)
            report["layers"] = layers
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
