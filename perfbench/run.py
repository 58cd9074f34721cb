"""Benchmark of oraclebench: exact workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {halting,bounds,dimension} \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
A run first starts a few set-up probes (interpreter start, ``import
oraclebench``, input generation), then repeats whole iterations of the
workload, each in a fresh ``bench_worker.py`` process, while another one
fits in ``--seconds``. It reports medians over iterations.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of ``bench_tracing.PER_LAYER``, including the
tracing overhead. Every iteration checks every result exactly, and must
reproduce the first iteration's results (mistake counts, check outcomes,
transcript digest); a traced iteration must reproduce an untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics for a reader, with ``error_rate`` (failed checks
over checks attempted, an exception counting as a failed check) and, on
``halting``, ``transcript_bytes``. The run exits non-zero without a result
when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench_worker.py"
WORKLOADS = ("halting", "bounds", "dimension")
SETUP_PROBES = 5
RUN_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from bench_tracing import PER_LAYER  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def spawn(args: argparse.Namespace, mode: str, trace: int, started: float) -> dict:
    """Run one worker process to completion and return its report."""
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    t0 = time.monotonic_ns()
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--mode", mode, "--t0", str(t0),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, remaining)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace) -> tuple[list[float], list[tuple[int, dict]], list[str]]:
    """Set-up probes, then whole iterations (untraced, or untraced/traced
    pairs) while the next one is expected to end inside the window."""
    started = time.monotonic()
    setups = [spawn(args, "setup", 0, started)["setup_s"] for _ in range(SETUP_PROBES)]
    iterations: list[tuple[int, dict]] = []
    crashes: list[str] = []
    longest = 0.0
    while not iterations or time.monotonic() - started + longest <= args.seconds:
        began = time.monotonic()
        try:
            for trace in (0, 1) if args.trace else (0,):
                iterations.append((trace, spawn(args, "full", trace, started)))
        except WorkerFailed as exc:
            crashes.append(str(exc))
            break
        longest = max(longest, time.monotonic() - began)
    return setups, iterations, crashes


def gate(iterations: list[tuple[int, dict]], crashes: list[str]) -> list[tuple[str, bool, str]]:
    """Every check of every iteration, plus one reproduction check per
    iteration after the first, plus one failed check per crash."""
    checks = [tuple(c) for _, report in iterations for c in report["checks"]]
    reference = iterations[0][1]["fingerprint"]
    for i, (trace, report) in enumerate(iterations[1:], 1):
        kind = "traced" if trace else "untraced"
        same = report["fingerprint"] == reference
        checks.append((f"iteration {i} ({kind}) reproduces iteration 0", same, ""))
    checks += [("worker", False, crash) for crash in crashes]
    return checks


def summarize(args, setups, iterations) -> dict[str, float]:
    """Medians over iterations of every metric the run reports."""
    untraced = [r for trace, r in iterations if trace == 0]
    traced = [r for trace, r in iterations if trace == 1]
    wall = statistics.median(r["wall_s"] for r in untraced)
    if not args.trace:
        return {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["trace.wall_untraced_s"] = wall
    out["trace.wall_traced_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead"] = out["trace.wall_traced_s"] / wall
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of oraclebench (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups, iterations, crashes = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not any(trace == args.trace for trace, _ in iterations):
        kind = "traced " if args.trace else ""
        print(f"error: no {kind}iteration completed: {crashes[0]}", file=sys.stderr)
        return 1
    checks = gate(iterations, crashes)
    failed = sum(1 for _, ok, _ in checks if not ok)
    values = summarize(args, setups, iterations)
    metrics = {name: (values[name], unit) for name, unit in (PER_LAYER if args.trace else END_TO_END)}

    print(f"workload {args.workload}, seed {args.seed}, {len(iterations)} iterations, trace {args.trace}")
    for trace in sorted({trace for trace, _ in iterations}):
        walls = " ".join(f"{r['wall_s']:.3f}" for t, r in iterations if t == trace)
        print(f"{'traced' if trace else 'untraced'} iteration wall_s: {walls}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print(f"error_rate = {failed}/{len(checks)} = {failed / len(checks):.4g}")
    transcript = iterations[0][1]["fingerprint"].get("transcript_bytes")
    if transcript is not None:
        print(f"transcript_bytes = {transcript} bytes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
