"""Shared exception types.

Every domain error inherits `DomainError` next to the builtin base it has
always had, so callers that catch `ValueError` or `RuntimeError` see no
change, and the CLI can tell a well-posed question it cannot answer
(`DomainError`, exit 1) from bad input (any other `ValueError`, exit 2).
"""


class DomainError(Exception):
    """A well-posed question the library cannot answer; the CLI exits 1 on it."""


class BudgetExceededError(DomainError, RuntimeError):
    """A search would exceed its word budget.

    ``depth_reached`` is the largest word length whose level was fully
    built before the budget ran out, or None for the reverse searches,
    which build no levels.
    """

    def __init__(self, limit, depth_reached=None):
        message = f"word budget of {limit} exceeded"
        if depth_reached is not None:
            message += f"; levels complete through length {depth_reached}"
        super().__init__(message)
        self.limit = limit
        self.depth_reached = depth_reached


class UnsupportedDuplicationLength(DomainError, ValueError):
    """The requested construction only exists for duplication bounds up to 3."""


class EmptyLanguageError(DomainError, ValueError):
    """A constraint set leaves no arbitrarily long words."""


class InsufficientDataError(DomainError, ValueError):
    """A count table is too short to estimate a growth rate."""


class NondeterministicAutomatonError(DomainError, ValueError):
    """An operation that needs a deterministic automaton got a nondeterministic one."""


class NonConvergenceError(DomainError, RuntimeError):
    """Power iteration failed to stabilize within the iteration cap."""

    def __init__(self, last_estimate, iterations):
        super().__init__(
            f"spectral radius estimate did not converge after {iterations} "
            f"iterations (last estimate {last_estimate})"
        )
        self.last_estimate = last_estimate
        self.iterations = iterations
