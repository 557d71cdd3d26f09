"""Extreme-value tail risk toolkit for financial return series.

Heavy-tail index and high-quantile estimation, extremal index and
declustering diagnostics, AR(1)-GARCH(1,1) QMLE filtering, rolling
quantile-forecast backtesting with coverage tests, block-bootstrap
confidence intervals, and bivariate tail dependence.

The root re-exports the `__all__` of each submodule, where every public
name is declared.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in ("argarch", "backtest", "bootstrap", "decluster", "errors", "extremal",
              "ingest", "simulate", "taildep", "tailest"):
    _module = import_module(f".{_name}", __name__)
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del import_module, _name, _module
