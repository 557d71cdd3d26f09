"""Exception hierarchy shared across the package, and its input guards."""

import numpy as np

__all__ = ["EvtriskError", "DataError", "EstimationError", "NegativeGammaError",
           "ConvergenceError"]


class EvtriskError(Exception):
    """Base class for all errors raised by evtrisk."""


class DataError(EvtriskError):
    """Malformed or inconsistent input data (bad CSV rows, duplicate dates, ...)."""


class EstimationError(EvtriskError):
    """An estimator could not produce a usable result on the given input."""


class NegativeGammaError(EstimationError):
    """Bias correction drove the extreme value index to a nonpositive value.

    No estimate is substituted: a caller that wants the plain Hill fit instead
    computes it itself, as `backtest.method_quantile` does.
    """


class ConvergenceError(EstimationError):
    """An iterative optimizer failed to converge from every starting point."""


def _finite_floats(x, what: str) -> np.ndarray:
    """x as a float array; a NaN or inf in it is a DataError naming `what`."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DataError(f"non-finite value in {what}")
    return x


def _check_integer(value, name: str) -> None:
    """A count or seed must be an int or NumPy integer: a float would be
    truncated and a bool read as 0 or 1 silently, so either is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
