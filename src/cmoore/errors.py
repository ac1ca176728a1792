"""Exception hierarchy shared across the package, and the limits the CLI names.

Everything that reflects bad input or an unsatisfiable request derives from
DomainError; the CLI maps those to exit code 1 and a single machine-readable
line on stdout.
"""

# Limits and defaults that the CLI's help text names.  They live here, beside
# BudgetError, so that building the parser imports no engine module;
# ``analysis``, ``cluster`` and ``temporal`` import them from here and apply them.
DEFAULT_HORIZON = 2**64
CYCLE_WINDOW_LIMIT = 1_000_000
SYNC_WORK_LIMIT = 100_000_000


class DomainError(Exception):
    """Base class for input/domain failures (CLI exit code 1)."""

    code = "domain"


class InputDomainError(DomainError):
    """An argument referred to something outside the operation's domain."""

    code = "input"


class HaltedError(DomainError):
    """A machine halted before the requested horizon was reached."""

    code = "halted"

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class AmbiguousChainError(DomainError):
    """Stationary behavior is not unique: several closed classes exist."""

    code = "ambiguous-chain"

    def __init__(self, message, classes=()):
        super().__init__(message)
        self.classes = tuple(tuple(c) for c in classes)


class InfeasibleError(DomainError):
    """No machine within the size budget meets the requested tolerance."""

    code = "infeasible"

    def __init__(self, message, best_epsilon=None, best_size=None):
        super().__init__(message)
        self.best_epsilon = best_epsilon
        self.best_size = best_size


class BudgetError(DomainError):
    """A search or simulation exceeded its configured budget.

    ``used`` is the count that passed the budget when it was refused and
    ``limit`` the budget it passed; either is None when not given.
    """

    code = "budget"

    def __init__(self, message, used=None, limit=None):
        super().__init__(message)
        self.used = used
        self.limit = limit


def digit_count(value: int) -> int:
    """Exact decimal digit count, safe past the interpreter's int-to-str
    limit."""
    if value < 0:
        raise InputDomainError("digit count is defined for non-negative integers")
    if value == 0:
        return 1
    digits = max(1, int(value.bit_length() * 0.3010299956639812))
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


def leading_digits(value: int, count: int = 12) -> str:
    total = digit_count(value)
    if total <= count:
        return str(value)
    return str(value // 10 ** (total - count))


class UnsupportedStructureError(DomainError):
    """The operation is only defined for a narrower class of machines."""

    code = "unsupported"


class UnassignedWindowError(DomainError):
    """A fluent window touches base units with no assigned truth value."""

    code = "unassigned"


class ContradictionError(DomainError):
    """Context filtering removed every remaining sense."""

    code = "contradiction"
