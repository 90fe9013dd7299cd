"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An index-tuple enumeration would exceed the configured budget."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""
