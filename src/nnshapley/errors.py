"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed or inconsistent input data (CSV parse failures, zero vectors, ...)."""


class DataWarning(UserWarning):
    """Input data that loads but is likely not what was meant (a stray label, ...)."""


class ParameterError(ValueError):
    """A parameter outside its documented domain."""


class EnumerationLimitError(ParameterError):
    """Exact enumeration requested beyond the configured size guard."""


class AccountingError(RuntimeError):
    """Privacy accounting cannot produce a valid answer at the current grid."""
