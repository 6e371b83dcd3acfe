"""Spans around the public calls into each layer, for the traced run.

The program carries no instrumentation of its own, so the traced run
swaps the names that `tandemdup.cli` and `tandemdup.capacity` import from
the other modules for wrappers that record a span around each call.
`build_automaton` calls private helpers, so its wrapper replays the same
steps through public calls (`seed_regex` -> `regex_to_nfa` ->
`determinized` -> `trimmed` -> `minimized`) and returns the replayed
machine; the runner checks afterwards that it equals `build_automaton`.

A span is (id, name, start, end, parent id, query id).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from tandemdup import Alphabet, CountTable, LabeledAutomaton, regex_to_nfa, seed_regex
from tandemdup import capacity as capacity_module
from tandemdup import cli as cli_module

Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.query = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.query)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount


def replay_build(system, minimize: bool = False, tracer: Optional[Tracer] = None) -> LabeledAutomaton:
    """The work of `build_automaton`, step by step through public calls."""
    tracer = tracer or Tracer()
    with tracer.span("automaton.nfa"):
        # one distinct token per seed position, colored as build_automaton does
        tokens = tuple(f"{s}~{i}" for i, s in enumerate(system.seed))
        colored = regex_to_nfa(seed_regex(tokens, system.kmax), Alphabet(tokens))
        plain = {(p, s.rsplit("~", 1)[0], q) for p, s, q in colored.edges}
        nfa = LabeledAutomaton(system.alphabet, colored.states, colored.start, colored.accepting, plain)
    with tracer.span("automaton.subset"):
        dfa = nfa.determinized()
    with tracer.span("automaton.trim"):
        machine = dfa.trimmed()
    tracer.count("automaton.nfa_states", len(nfa.states))
    tracer.count("automaton.subset_states", len(dfa.states))
    tracer.count("automaton.trim_states", len(machine.states))
    if minimize:
        with tracer.span("automaton.minimize"):
            machine = machine.minimized()
        tracer.count("automaton.min_states", len(machine.states))
    return machine


# (module, attribute, span name, counter hook) for every patched call
def _targets(tracer: Tracer, api) -> List[Tuple[object, str, str, Optional[Callable]]]:
    def words(result):
        if isinstance(result, CountTable):
            sizes = list(result.counts.values())
        else:
            sizes = [len(ws) for ws in result.by_length.values()]
        tracer.count("enumeration.words", sum(sizes))
        tracer.counters["enumeration.max_level_words"] = max(
            tracer.counters["enumeration.max_level_words"], max(sizes, default=0)
        )

    def member(result):
        tracer.count("enumeration.members" if result else "enumeration.non_members")

    return [
        (cli_module, "verify_duplication_closure", "automaton.closure",
         lambda r: tracer.count("automaton.closure_checks", len(r.checks))),
        (cli_module, "language_upto", "automaton.language_upto", None),
        (capacity_module, "transfer_matrix", "automaton.transfer", None),
        (api, "count_accepted", "automaton.count_accepted", None),
        (cli_module, "spectral_capacity", "capacity.spectral", None),
        (cli_module, "empirical_capacity", "capacity.empirical", None),
        (cli_module, "count_words", "enumeration.levels", words),
        (cli_module, "enumerate_words", "enumeration.levels", words),
        (cli_module, "derives_from", "enumeration.member", member),
        (cli_module, "dedup_roots", "enumeration.dedup_roots",
         lambda r: tracer.count("enumeration.roots", len(r.roots))),
        (cli_module, "dedup_distance", "enumeration.dedup_distance", None),
        (api, "check_coverage", "expressiveness.coverage", None),
        (api, "verify_witness_absent", "expressiveness.witness_absent", None),
    ]


@contextmanager
def _patched(replacements):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, new in replacements:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


@contextmanager
def traced(tracer: Tracer, api, builds: list):
    """Record spans around every layer call made while the block runs.

    Each replayed build is appended to `builds` as (system, minimize,
    machine) so the caller can compare it with `build_automaton` later.
    """

    def wrap(fn, name, hook):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def build(system, minimize=False):
        with tracer.span("automaton.build"):
            machine = replay_build(system, minimize, tracer)
        builds.append((system, minimize, machine))
        return machine

    replacements = [(obj, attr, wrap(getattr(obj, attr), name, hook))
                    for obj, attr, name, hook in _targets(tracer, api)]
    replacements += [(cli_module, "build_automaton", build),
                     (capacity_module, "build_automaton", build),
                     (api, "build_automaton", build)]
    with _patched(replacements):
        yield


# entry points whose allocation peaks are measured, by layer; None stands
# for the runner's own table of public functions
_MEMORY_LAYERS = {
    "automaton": [(cli_module, "build_automaton"), (capacity_module, "build_automaton"),
                  (None, "build_automaton"), (cli_module, "verify_duplication_closure"),
                  (cli_module, "language_upto"), (capacity_module, "transfer_matrix"),
                  (None, "count_accepted")],
    "enumeration": [(cli_module, "count_words"), (cli_module, "enumerate_words"),
                    (cli_module, "derives_from"), (cli_module, "dedup_roots"),
                    (cli_module, "dedup_distance")],
}


@contextmanager
def allocation_peaks(peaks: Dict[str, float], api):
    """Track the largest tracemalloc peak of any single call into each layer, in MiB."""

    def wrap(fn, layer):
        def wrapper(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - before
                peaks[layer] = max(peaks.get(layer, 0.0), peak / 2**20)

        return wrapper


    replacements = []
    for layer, entries in _MEMORY_LAYERS.items():
        for obj, attr in entries:
            obj = api if obj is None else obj
            replacements.append((obj, attr, wrap(getattr(obj, attr), layer)))
    tracemalloc.start()
    try:
        with _patched(replacements):
            yield
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {sid: end - start for sid, _, start, end, _, _ in spans}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_shares(spans: List[Span], total: float) -> Dict[str, float]:
    """Share of the traced wall time spent in each layer's own code."""
    own = self_times(spans)
    by_layer: Dict[str, float] = defaultdict(float)
    for sid, name, *_ in spans:
        by_layer[name.split(".")[0]] += own[sid]
    by_layer["benchmark"] = total - sum(by_layer.values())
    return {layer: t / total for layer, t in sorted(by_layer.items())}


CLI_SUBCOMMANDS = ("automaton", "capacity", "verify", "count", "generate", "member", "dedup")

# timed per-layer metric -> the span name whose total duration it sums
_SPAN_TOTALS = {
    "automaton.nfa_s": "automaton.nfa",
    "automaton.subset_s": "automaton.subset",
    "automaton.trim_s": "automaton.trim",
    "automaton.minimize_s": "automaton.minimize",
    "automaton.closure_s": "automaton.closure",
    "automaton.transfer_s": "automaton.transfer",
    "automaton.count_accepted_s": "automaton.count_accepted",
    "automaton.language_upto_s": "automaton.language_upto",
    "capacity.empirical_s": "capacity.empirical",
    "enumeration.levels_s": "enumeration.levels",
    "enumeration.member_s": "enumeration.member",
    "enumeration.dedup_roots_s": "enumeration.dedup_roots",
    "enumeration.dedup_distance_s": "enumeration.dedup_distance",
    "expressiveness.coverage_s": "expressiveness.coverage",
    "expressiveness.witness_absent_s": "expressiveness.witness_absent",
    "core.square_scan_s": "core.square_scan",
}

_COUNTERS = (
    "automaton.nfa_states", "automaton.subset_states", "automaton.trim_states",
    "automaton.min_states", "automaton.closure_checks", "enumeration.words",
    "enumeration.max_level_words", "enumeration.members", "enumeration.non_members",
    "enumeration.roots", "core.squares",
)


def layer_metrics(tracer: Tracer, traced: float, untraced: float,
                  peaks: Dict[str, float], output_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    own = self_times(tracer.spans)
    total: Dict[str, float] = defaultdict(float)
    self_total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for sid, name, start, end, _, _ in tracer.spans:
        total[name] += end - start
        self_total[name] += own[sid]
        calls[name] += 1
    metrics = {metric: (total[name], "s") for metric, name in _SPAN_TOTALS.items()}
    # spectral_capacity's own time, without the automaton build and transfer matrix
    metrics["capacity.spectral_radius_s"] = (self_total["capacity.spectral"], "s")
    for name in _COUNTERS:
        metrics[name] = (tracer.counters[name], "count")
    levels = total["enumeration.levels"]
    words = tracer.counters["enumeration.words"]
    metrics["enumeration.words_per_s"] = (words / levels if levels else 0.0, "1/s")
    metrics["automaton.peak_mib"] = (peaks.get("automaton", 0.0), "MiB")
    metrics["enumeration.peak_mib"] = (peaks.get("enumeration", 0.0), "MiB")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (self_total[f"cli.{sub}"], "s")
    metrics["cli.queries"] = (sum(calls[f"cli.{sub}"] for sub in CLI_SUBCOMMANDS), "count")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return dict(sorted(metrics.items()))
