"""Error taxonomy shared across the package.

The CLI maps these onto its exit-code contract, so raising the right
category matters more than the message text.
"""

import numpy as np

__all__ = ["ParameterError", "InputError", "FormatError",
           "EstimationError", "NumericError", "SearchBudgetError"]


class ParameterError(ValueError):
    """A parameter is outside its validity range."""


def ensure(ok, message: str) -> None:
    """ParameterError(message) unless `ok` holds, at every element of an
    array. State the rule, not its breach: NaN then fails every check."""
    if not np.all(ok):
        raise ParameterError(message)


class InputError(ValueError):
    """An input object is structurally unusable (empty tape, missing prices)."""


class FormatError(ValueError):
    """A serialized file violates the format contract."""


class EstimationError(RuntimeError):
    """An estimator cannot produce a value from the given data."""


class NumericError(RuntimeError):
    """A numeric procedure failed (non-positive-definite input, blow-up)."""


class SearchBudgetError(RuntimeError):
    """Exhaustive search refused: candidate space exceeds the budget."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(
            f"search space has {count} canonical candidate strategies, "
            f"above the budget of {budget}; raise the budget or shrink the grid"
        )

    def __reduce__(self):
        # pickled with its own arguments, so it crosses a worker's pipe
        return type(self), (self.count, self.budget)
