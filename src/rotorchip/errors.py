"""Shared exception types and the default game budget."""

# Default cap on the batches of a bounded game and on the firings of
# ``halts``; the CLI's ``--budget-steps`` defaults to it too.
DEFAULT_GAME_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """A simulation or search ran out of its step or state budget.

    Raised instead of silently running forever: bounded games and
    configuration-space searches can be exponentially long in the input
    bit length, so every potentially long loop carries an explicit budget.
    """


class InstanceFormatError(ValueError):
    """Malformed or inconsistent instance file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
