"""Benchmark entry point: one workload, one workload seed, one run.

    python3 bench/run.py --workload {regular-k3,enumeration}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run reports the end-to-end metrics: set-up time is the
median over several fresh processes, and the query list is answered in an
untraced process, with every time scaled to a reference host (see
hostspeed.py).  With --trace 1 a separate process reports the
per-layer metrics from spans.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
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

import hostspeed

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

# fresh processes timed from start to the first query, half before and half
# after the measuring process, so that a short slow spell of the host moves
# few of them; the measuring process adds one more
SETUP_PROBES = 8
# the whole run must end well inside three minutes
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def _start(mode: str, args) -> tuple:
    """Start a worker and wait for its "ready" line.

    Returns the process, its set-up seconds and the host-speed probes taken
    right before and right after the set-up.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    before = hostspeed.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=BENCH.parent)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    after = hostspeed.sample()
    if line.strip() != "ready":
        _finish(proc, 10.0)
        raise WorkerError(f"{mode} worker did not get ready (exit code {proc.returncode})")
    return proc, (setup, before, after)


def _finish(proc, timeout: float) -> str:
    """Wait for the worker, killing it past the timeout; returns the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline and was stopped")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _probe_setup(args, count: int, deadline: float) -> list:
    """Set-ups of `count` fresh processes that exit once ready."""
    setups = []
    for _ in range(count):
        proc, setup = _start("setup", args)
        _finish(proc, deadline - time.perf_counter())
        setups.append(setup)
    return setups


def _setup_on_reference(setups: list) -> float:
    """Median set-up time, each scaled to the reference host like the query
    latencies; the host speed around a set-up is the median of its probes."""
    return statistics.median(
        hostspeed.on_reference(setup, statistics.median(before), statistics.median(after))
        for setup, before, after in setups
    )


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        proc, _ = _start("trace", args)
        out = _finish(proc, deadline - time.perf_counter())
        return json.loads(out.strip().splitlines()[-1])
    setups = _probe_setup(args, SETUP_PROBES // 2, deadline)
    proc, setup = _start("measure", args)
    setups.append(setup)
    out = _finish(proc, deadline - time.perf_counter())
    setups += _probe_setup(args, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    print(f"set-up: unscaled median {statistics.median(s[0] for s in setups):.4f} s", file=sys.stderr)
    result["metrics"]["setup_s"] = {"value": _setup_on_reference(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tandemdup benchmark: one workload, one run")
    parser.add_argument("--workload", required=True,
                        choices=("regular-k3", "enumeration"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (BENCH.parent / "src" / "tandemdup" / "__init__.py").is_file():
        print(f"no tandemdup sources under {BENCH.parent / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
