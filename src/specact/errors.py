"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """A route's work, in index tuples or contour entries, would exceed its budget."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""
