"""Exception hierarchy shared across the package.

Everything that reflects bad input or an unsatisfiable request derives from
DomainError; the CLI maps those to exit code 1 and a single machine-readable
line on stdout.
"""


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


class UnsupportedStructureError(DomainError):
    """The operation is only defined for a narrower class of machines."""

    code = "unsupported"


class UnassignedWindowError(DomainError):
    """A fluent window touches base units with no assigned truth value."""

    code = "unassigned"


class ContradictionError(DomainError):
    """Context filtering removed every remaining sense."""

    code = "contradiction"
