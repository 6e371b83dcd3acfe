"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

from helpers import canonical_patterns  # noqa: E402
from tandemdup import Alphabet, DuplicationSystem, avoidance_capacity, build_automaton  # noqa: E402

from hostspeed import REFERENCE_S, on_reference  # noqa: E402
from oracle import Oracle, brute_closure  # noqa: E402
from tracing import Tracer, layer_shares, replay_build, self_times  # noqa: E402
from workloads import WORKLOADS, build_queries, warmup_query  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = build_queries(workload, 11)
    assert first == build_queries(workload, 11)
    assert first != build_queries(workload, 12)
    assert len(first) >= 40


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_query_has_a_command_line_or_a_call(workload):
    for q in build_queries(workload, 3) + [warmup_query(workload)]:
        if q.is_cli:
            assert q.argv()[0] == q.op
        assert q.label()


def test_non_members_keep_the_deduplication_invariants():
    # first symbol, last symbol and symbol set survive every deduplication,
    # so a non-member that broke one would be rejected without any search
    queries = build_queries("enumeration", 2)
    non_members = [q for q in queries if q.op == "member" and not q.expect["member"]]
    assert len(non_members) >= 40
    for q in non_members:
        word = q.params["word"]
        assert (word[0], word[-1], set(word)) == (q.seed[0], q.seed[-1], set(q.seed))


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_replayed_pipeline_equals_build_automaton(kmax):
    for pattern in canonical_patterns(5):
        alphabet = "0123"[: int(max(pattern)) + 1]
        system = DuplicationSystem.parse(alphabet, pattern, kmax)
        for minimize in (False, True):
            assert replay_build(system, minimize) == build_automaton(system, minimize=minimize)


def test_replay_records_each_step():
    tracer = Tracer()
    replay_build(DuplicationSystem.parse("012", "0120", 3), True, tracer)
    names = [s[1] for s in tracer.spans]
    assert names == ["automaton.nfa", "automaton.subset", "automaton.trim", "automaton.minimize"]
    assert tracer.counters["automaton.subset_states"] >= tracer.counters["automaton.min_states"] > 0


def test_latency_scales_by_the_probes_around_the_answer():
    # probes at the reference time leave a latency as it is; probes twice
    # as slow mean the host ran at half the reference speed
    assert on_reference(0.4, REFERENCE_S, REFERENCE_S) == 0.4
    assert math.isclose(on_reference(0.4, 1.5 * REFERENCE_S, 2.5 * REFERENCE_S), 0.2)


def test_self_time_subtracts_direct_children():
    spans = [(0, "cli.count", 0.0, 10.0, None, 1), (1, "enumeration.levels", 1.0, 7.0, 0, 1),
             (2, "core.square_scan", 8.0, 9.0, 0, 1)]
    assert self_times(spans) == {0: 3.0, 1: 6.0, 2: 1.0}
    shares = layer_shares(spans, 20.0)
    assert math.isclose(sum(shares.values()), 1.0)
    assert shares["enumeration"] == 0.3


def test_brute_closure_matches_hand_count():
    # seed 012, k = 3: 138 words of length 8 (pinned in the CLI tests)
    assert len(brute_closure("012", 3, 8)[8]) == 138


def test_oracle_rejects_wrong_answers():
    oracle = Oracle()
    member = [q for q in build_queries("enumeration", 5) if q.op == "member"]
    yes = next(q for q in member if q.expect["member"])
    no = next(q for q in member if not q.expect["member"] and q.kmax == 3)
    assert oracle.check(yes, 0, '{"member": true}') is None
    assert oracle.check(yes, 0, '{"member": false}') is not None
    assert oracle.check(no, 0, '{"member": false}') is None
    assert oracle.check(no, 0, '{"member": true}') is not None
    assert oracle.check(yes, 1, None) == "exit code 1"


def _window_capacity(alphabet, forbidden):
    """Avoidance capacity from numpy eigenvalues of the window graph."""
    window = max(len(w) for w in forbidden) - 1
    states = [""]
    for _ in range(window):
        states = [s + c for s in states for c in alphabet]
    states = [s for s in states if not any(f in s for f in forbidden)]
    index = {s: i for i, s in enumerate(states)}
    m = np.zeros((len(states), len(states)))
    for s in states:
        for c in alphabet:
            if not any((s + c).endswith(f) for f in forbidden) and (s + c)[1:] in index:
                m[index[s], index[(s + c)[1:]]] += 1
    return math.log(max(abs(np.linalg.eigvals(m)))) / math.log(len(alphabet))


@pytest.mark.xfail(strict=True, reason=(
    "spectral_radius stops when the max-norm estimate repeats, which happens "
    "before convergence on this window graph: it returns 3.0 for a radius of 2.92"))
def test_avoidance_capacity_agrees_with_eigenvalues():
    forbidden = ["1100", "1220"]
    got = avoidance_capacity(Alphabet("012"), forbidden)
    assert abs(got - _window_capacity("012", forbidden)) < 1e-4
