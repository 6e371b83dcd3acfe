"""One benchmark process: set up a workload, answer its queries, check them.

    python3 bench/worker.py --mode {setup,measure,trace} --workload W --seed N [--seconds S]

setup    import the package, build the inputs, answer the warm-up query,
         print "ready" and exit.
measure  set up and print "ready", then answer the query list untraced,
         in as many passes as fit in --seconds (at least MIN_PASSES), with
         a host-speed probe between queries; print the end-to-end metrics
         as JSON.
trace    set up and print "ready", then answer the list once untraced, once
         with spans and once under tracemalloc; print the per-layer
         metrics as JSON and write the spans under bench/traces/.

One client, closed loop: each query starts when the previous one returns.
CLI queries go through `tandemdup.cli.main(argv)` with `--out` pointing
into a temporary directory inside bench/.  The answers are checked after
the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import hostspeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MEMORY_STRIDE = 2
# every query is answered at least this often before its fastest answer counts
MIN_PASSES = 3


def _import_package():
    """Import tandemdup from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import tandemdup

    if Path(tandemdup.__file__).resolve().parent != SRC / "tandemdup":
        raise SystemExit(f"tandemdup imported from {tandemdup.__file__}, not from {SRC}")


class Runner:
    """Answers queries and keeps their answers for the oracle."""

    def __init__(self, outdir: str):
        from tandemdup import DuplicationSystem, build_automaton, cli, count_accepted, errors
        from tandemdup.expressiveness import check_coverage, verify_witness_absent

        self.cli = cli
        self.parse_system = DuplicationSystem.parse
        # the errors the CLI reports with exit code 1
        self.domain_errors = (
            errors.BudgetExceededError,
            errors.EmptyLanguageError,
            errors.InsufficientDataError,
            errors.NonConvergenceError,
            errors.NondeterministicAutomatonError,
            errors.UnsupportedDuplicationLength,
        )
        self.outdir = outdir
        # public functions called directly; the traced run swaps these entries
        self.api = SimpleNamespace(
            build_automaton=build_automaton,
            count_accepted=count_accepted,
            check_coverage=check_coverage,
            verify_witness_absent=verify_witness_absent,
        )
        self.output_bytes = 0

    def run(self, q):
        """Answer one query: (exit code, answer, seconds).

        A call that raises a domain error gets exit code 1, as the CLI would
        give it; anything else that escapes gets -1.  Both count as failed.
        """
        path = os.path.join(self.outdir, f"q{q.qid}.out")
        start = time.perf_counter()
        try:
            if q.is_cli:
                answer, rc = None, self.cli.main(q.argv() + ["--out", path])
            else:
                answer, rc = self._call(q), 0
        except self.domain_errors as exc:
            answer, rc = repr(exc), 1
        except Exception:
            answer, rc = traceback.format_exc(), -1
        elapsed = time.perf_counter() - start
        if q.is_cli and os.path.exists(path):
            with open(path) as handle:
                answer = handle.read()
            os.remove(path)
            self.output_bytes += len(answer)
        return rc, answer, elapsed

    def _call(self, q):
        api = self.api
        system = self.parse_system(q.alphabet, q.seed, q.kmax)
        p = q.params
        if q.op == "count_accepted":
            return api.count_accepted(api.build_automaton(system), p["n"])
        if q.op == "check_coverage":
            return api.check_coverage(system, p["length"], p["max_len"])
        if q.op == "verify_witness_absent":
            return api.verify_witness_absent(system, system.alphabet.word(p["word"]), p["max_len"])
        raise ValueError(f"unknown call {q.op!r}")


class Outcomes:
    """First answer per query, plus every problem seen for it."""

    def __init__(self):
        self.first = {}
        self.problems = {}

    def record(self, q, rc, answer):
        if q.qid not in self.first:
            self.first[q.qid] = (rc, answer)
        elif self.first[q.qid] != (rc, answer):
            self.problems.setdefault(q.qid, "answer changed between passes")

    def check(self, queries, oracle):
        for q in queries:
            rc, answer = self.first[q.qid]
            problem = oracle.check(q, rc, answer)
            if problem is not None:
                self.problems.setdefault(q.qid, problem)
        for qid, problem in sorted(self.problems.items()):
            print(f"query {qid} ({queries[qid].label()}): {problem}", file=sys.stderr)
        return len(self.problems)


def _pass(runner, queries, outcomes, latencies=None, around=None, speeds=None):
    """Answer every query once; returns the wall time of the pass.

    With `speeds`, a host-speed probe runs before the first query and after
    each query, outside the query's latency.
    """
    start = time.perf_counter()
    if speeds is not None:
        speeds.append(hostspeed.probe())
    for q in queries:
        if around is None:
            rc, answer, elapsed = runner.run(q)
        else:
            with around(q):
                rc, answer, elapsed = runner.run(q)
        if speeds is not None:
            speeds.append(hostspeed.probe())
        if latencies is not None:
            latencies.append(elapsed)
        outcomes.record(q, rc, answer)
    return time.perf_counter() - start


def measure(runner, queries, seconds: float) -> dict:
    """Answer the list in as many passes as fit in `seconds`.

    The host is shared, and its load slows whole passes by up to two
    times.  So each answer is scaled to the reference host (see
    `hostspeed`), and each query's latency is the median of its scaled
    answers over the passes.  `wall_s` is the sum of these latencies, the
    quantiles are taken over them.
    """
    outcomes = Outcomes()
    answers = [[] for _ in queries]
    walls = []
    start = time.perf_counter()
    # stop before a pass that would end past the time allowed
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        latencies, speeds = [], []
        walls.append(_pass(runner, queries, outcomes, latencies, speeds=speeds))
        for i, elapsed in enumerate(latencies):
            answers[i].append((elapsed, speeds[i], speeds[i + 1]))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from oracle import Oracle

    failed = outcomes.check(queries, Oracle())
    latency = [statistics.median(hostspeed.on_reference(*a) for a in times) for times in answers]
    _, p50, p75 = statistics.quantiles(latency, n=4)
    metrics = {
        "wall_s": (math.fsum(latency), "s"),
        "query_p50_s": (p50, "s"),
        "query_p75_s": (p75, "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    fastest = math.fsum(min(a[0] for a in times) for times in answers)
    print(f"{len(walls)} passes of {len(queries)} queries, pass times "
          + " ".join(f"{w:.2f}" for w in walls)
          + f"; unscaled: fastest answers sum to {fastest:.3f} s, median probe "
          + f"{statistics.median(a[1] for times in answers for a in times) * 1e6:.1f} us",
          file=sys.stderr)
    return _result(queries, failed, metrics)


def trace(runner, queries, workload: str, seed: int) -> dict:
    from contextlib import contextmanager

    from tandemdup import build_automaton
    from tandemdup.core import iter_tandem_repeats

    import tracing
    from oracle import Oracle

    outcomes = Outcomes()
    untraced = _pass(runner, queries, outcomes)

    tracer = tracing.Tracer()
    builds = []

    @contextmanager
    def around(q):
        tracer.query = q.qid
        if "word" in q.params and q.is_cli:
            # the benchmark's own words, scanned for squares by the core layer
            with tracer.span("core.square_scan"):
                squares = sum(1 for _ in iter_tandem_repeats(q.params["word"], q.kmax))
            tracer.count("core.squares", squares)
        if q.is_cli:
            with tracer.span(f"cli.{q.label()}"):
                yield
        else:
            yield

    runner.output_bytes = 0
    with tracing.traced(tracer, runner.api, builds):
        traced = _pass(runner, queries, outcomes, around=around)
    output_bytes = runner.output_bytes

    # the replayed pipeline must be the program's own
    checked = {}
    for system, minimize, machine in builds:
        key = (system, minimize)
        if key not in checked:
            checked[key] = build_automaton(system, minimize=minimize) == machine
    mismatched = {(s.alphabet.to_text(), s.alphabet.text(s.seed), s.kmax)
                  for (s, _), same in checked.items() if not same}
    for q in queries:
        if (q.alphabet, q.seed, q.kmax) in mismatched:
            outcomes.problems.setdefault(q.qid, "replayed automaton differs from build_automaton")

    # tracemalloc slows every allocation several times over, so its pass
    # takes every MEMORY_STRIDE-th query only
    peaks = {}
    start = time.perf_counter()
    with tracing.allocation_peaks(peaks, runner.api):
        _pass(runner, queries[::MEMORY_STRIDE], outcomes)
    print(f"passes: untraced {untraced:.2f} s, traced {traced:.2f} s, "
          f"tracemalloc {time.perf_counter() - start:.2f} s", file=sys.stderr)
    failed = outcomes.check(queries, Oracle())

    metrics = tracing.layer_metrics(tracer, traced, untraced, peaks, output_bytes)
    shares = tracing.layer_shares(tracer.spans, traced)
    out = BENCH / "traces"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-{seed}.json", "w") as handle:
        json.dump({
            "workload": workload, "seed": seed, "queries": len(queries),
            "untraced_wall_s": untraced, "traced_wall_s": traced,
            "layer_shares": shares, "metrics": metrics,
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "query": s[5]} for s in tracer.spans],
        }, handle)
    print("layer shares of traced wall time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()), file=sys.stderr)
    return _result(queries, failed, metrics)


def _result(queries, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": len(queries),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import build_queries, warmup_query

    queries = build_queries(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as outdir:
        runner = Runner(outdir)
        rc, _, _ = runner.run(warmup_query(args.workload))
        if rc != 0:
            print(f"warm-up query failed with exit code {rc}", file=sys.stderr)
            return 1
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(runner, queries, args.seconds)
        else:
            result = trace(runner, queries, args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
