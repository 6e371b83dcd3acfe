"""Growth rates of duplication languages.

The capacity of a system is the exponential growth rate of its per-length
word counts, measured in base-|alphabet| logarithms so that a free monoid
has capacity 1.  For kmax <= 3 the language is regular and the capacity is
the log of the spectral radius of the automaton's transfer matrix; that
radius also has a closed form depending only on gross features of the seed.

numpy is imported only where `spectral_radius` builds its arrays, so the
closed form and the estimate from counts answer without paying for its
import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from .automaton import REGULAR_KMAX, avoidance_automaton, build_automaton, transfer_matrix
from .core import Alphabet, DuplicationSystem, Word
from .enumeration import CountTable
from .errors import (
    EmptyLanguageError,
    InsufficientDataError,
    NonConvergenceError,
    UnsupportedDuplicationLength,
)

if TYPE_CHECKING:
    import numpy as np

# growth rate of the three-distinct-symbol block machine: (3 + sqrt 5) / 2
ABC_BLOCK_GROWTH = (3.0 + math.sqrt(5.0)) / 2.0

CASE_UNARY = "unary-seed"
CASE_TWO_SYMBOL = "two-symbol"
CASE_ABC = "abc-substring"
CASE_K1 = "binary-k1"
CASE_EMPIRICAL = "empirical"

# power iterations per strongly connected block before giving up
_MAX_POWER_ITERATIONS = 100_000


def _sccs(adjacency):
    """Strongly connected components via Kosaraju, iterative."""
    n = len(adjacency)
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, 0)]
        seen[root] = True
        while stack:
            node, idx = stack.pop()
            if idx < len(adjacency[node]):
                stack.append((node, idx + 1))
                child = adjacency[node][idx]
                if not seen[child]:
                    seen[child] = True
                    stack.append((child, 0))
            else:
                order.append(node)
    reverse = [[] for _ in range(n)]
    for p in range(n):
        for q in adjacency[p]:
            reverse[q].append(p)
    component = [-1] * n
    count = 0
    for node in reversed(order):
        if component[node] != -1:
            continue
        stack = [node]
        component[node] = count
        while stack:
            p = stack.pop()
            for q in reverse[p]:
                if component[q] == -1:
                    component[q] = count
                    stack.append(q)
        count += 1
    groups = [[] for _ in range(count)]
    for node, c in enumerate(component):
        groups[c].append(node)
    return groups


def _power_radius(block: np.ndarray, tol: float) -> float:
    """Largest eigenvalue of an irreducible nonnegative matrix.

    Iterates on block + I: the shift makes the matrix primitive, so the
    plain power method converges even when the block itself is periodic.
    """
    import numpy as np

    b = block + np.eye(len(block))
    v = np.ones(len(b))
    estimate = None
    stable = 0
    for _ in range(_MAX_POWER_ITERATIONS):
        w = b @ v
        top = w.max()
        v = w / top
        if estimate is not None and abs(top - estimate) <= tol:
            stable += 1
            if stable >= 2:
                return top - 1.0
        else:
            stable = 0
        estimate = top
    raise NonConvergenceError(
        None if estimate is None else estimate - 1.0, _MAX_POWER_ITERATIONS
    )


def spectral_radius(matrix, tol: float = 1e-10) -> float:
    """Spectral radius of a nonnegative square matrix by the power method.

    Reducible matrices are split into strongly connected blocks first, and
    the maximum over the distinct blocks, each iterated once, is returned.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    if not tol >= 0:  # NaN too: no estimate would ever be within it
        raise ValueError("tolerance must be nonnegative")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.size and m.min() < 0:
        raise ValueError("matrix must be nonnegative")
    n = m.shape[0]
    if n == 0:
        return 0.0
    adjacency = [[] for _ in range(n)]
    for i, j in zip(*(index.tolist() for index in np.nonzero(m))):
        adjacency[i].append(j)
    best = 0.0
    blocks = {}  # each distinct block of two or more states, by its shape and bytes
    for group in _sccs(adjacency):
        if len(group) == 1:
            best = max(best, float(m[group[0], group[0]]))
            continue
        block = m[np.ix_(group, group)]
        blocks[block.shape, block.tobytes()] = block
    return max([best, *(_power_radius(block, tol) for block in blocks.values())])


@dataclass(frozen=True)
class CapacityReport:
    """Capacity value plus the rule that produced it."""

    value: float
    base: int
    case: str
    exact_form: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "base": self.base,
            "case": self.case,
            "exactForm": self.exact_form,
        }


def _has_three_distinct_window(seed: Word) -> bool:
    return any(
        seed[i] != seed[i + 1] and seed[i + 1] != seed[i + 2] and seed[i] != seed[i + 2]
        for i in range(len(seed) - 2)
    )


def exact_capacity(system: DuplicationSystem) -> CapacityReport:
    """Closed-form capacity for systems with kmax <= 3.

    A one-symbol seed grows polynomially, as does any seed when only
    single symbols may be copied.  Otherwise the rate is 2, except that a
    window of three pairwise distinct seed symbols raises it to
    (3 + sqrt 5) / 2 when kmax is 3.
    """
    if system.kmax > REGULAR_KMAX:
        raise UnsupportedDuplicationLength(
            f"closed forms cover kmax <= {REGULAR_KMAX}, got {system.kmax}"
        )
    base = system.base
    if len(set(system.seed)) == 1:
        return CapacityReport(0.0, base, CASE_UNARY, "0")
    if system.kmax == 1:
        return CapacityReport(0.0, base, CASE_K1, "0")
    if system.kmax == 3 and _has_three_distinct_window(system.seed):
        value = math.log(ABC_BLOCK_GROWTH) / math.log(base)
        return CapacityReport(value, base, CASE_ABC, f"log_{base}((3+sqrt(5))/2)")
    value = math.log(2.0) / math.log(base)
    return CapacityReport(value, base, CASE_TWO_SYMBOL, f"log_{base}(2)")


def spectral_capacity(system: DuplicationSystem, tol: float = 1e-10) -> float:
    """Capacity measured on the constructed automaton, for cross-checking."""
    if system.base == 1:
        # one word per length, nothing to measure
        return 0.0
    rho = spectral_radius(transfer_matrix(build_automaton(system, minimize=True)), tol)
    if rho < 1.0:
        # a duplication language always pumps at least one run
        raise EmptyLanguageError("transfer matrix has no productive cycle")
    return math.log(rho) / math.log(system.base)


@dataclass(frozen=True)
class GrowthEstimate:
    """Per-length growth ratios from a count table plus their window mean."""

    base: int
    ratios: Dict[int, float]
    window: int
    estimate: float

    def to_json_dict(self) -> dict:
        return {
            "value": self.estimate,
            "base": self.base,
            "case": CASE_EMPIRICAL,
            "window": self.window,
            "ratios": {str(n): r for n, r in sorted(self.ratios.items())},
        }


def empirical_capacity(table: CountTable, *, window: int = 5) -> GrowthEstimate:
    """Growth estimate log_base(counts[n+1] / counts[n]), averaged over the
    last `window` ratios, where base is the alphabet size of the counted
    system, `table.system.base`.  Over one symbol nothing grows, so every
    ratio is 0.0, as in `exact_capacity` and `spectral_capacity`."""
    if window < 1:
        raise ValueError("window must be at least 1")
    base = table.system.base
    counts = table.counts
    ratios = {
        n: math.log(counts[n + 1] / counts[n]) / math.log(base) if base > 1 else 0.0
        for n in sorted(counts)
        if counts.get(n, 0) > 0 and counts.get(n + 1, 0) > 0
    }
    if not any(n + 1 in ratios for n in ratios):
        raise InsufficientDataError(
            "need at least three consecutive nonzero counts to estimate growth"
        )
    tail = [ratios[n] for n in sorted(ratios)][-window:]
    return GrowthEstimate(base, ratios, window, sum(tail) / len(tail))


def avoidance_capacity(
    alphabet: Alphabet, forbidden: Iterable[Word], tol: float = 1e-6
) -> float:
    """Capacity of the words avoiding every forbidden factor.

    The log of the spectral radius of the transfer matrix of
    `avoidance_automaton`, the minimal pattern-trie machine of those words,
    as `spectral_capacity` measures the duplication machine.
    """
    if not tol >= 0:  # before the empty list's answer, as for every other list
        raise ValueError("tolerance must be nonnegative")
    patterns = [tuple(w) for w in forbidden]
    if not patterns:
        # the free monoid; over one symbol the log ratio would be 0 / 0
        return 1.0
    if any(len(p) < 2 for p in patterns):
        raise ValueError("forbidden words need length at least 2")
    rho = spectral_radius(transfer_matrix(avoidance_automaton(alphabet, patterns)), tol)
    if rho == 0.0:
        raise EmptyLanguageError("every long enough word hits a forbidden factor")
    return math.log(rho) / math.log(len(alphabet))
