"""Layer-by-layer tracing of evtrisk from outside the package.

`Tracer.install` replaces every public function of the traced modules,
in every module that binds it (the defining module, the ``from .x import f``
copies in other modules and the package root), with a wrapper that records
a span: name, start, end and parent.  Calls made through a module global,
including lazy ``from .x import f`` inside a function, resolve to the
wrapper at call time.  A layer's self time is its span's duration minus the
time covered by its child spans.

The optimizer counts are read from the ``OptimizeResult`` of the
``minimize`` name bound in ``evtrisk.argarch``, the boundary between
argarch and SciPy.  No private function is wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = ("argarch", "backtest", "tailest", "bootstrap", "extremal", "taildep",
           "decluster", "ingest", "cli")

# (metric, unit, better); a stat of a function with no calls reads 0.
PER_LAYER = [
    ("argarch.fit_qmle.calls", "count", "lower"),
    ("argarch.fit_qmle.self_s", "s", "lower"),
    ("argarch.fit_qmle.p50_ms", "ms", "lower"),
    ("argarch.fit_qmle.p90_ms", "ms", "lower"),
    ("argarch.nfev_per_fit", "count", "lower"),
    ("argarch.starts_per_fit", "count", "lower"),
    ("argarch.useful_start_ratio", "ratio", "higher"),
    ("argarch.converged_ratio", "ratio", "higher"),
    ("argarch.filter_series.calls", "count", "lower"),
    ("argarch.filter_series.self_s", "s", "lower"),
    ("argarch.forecast_next.calls", "count", "lower"),
    ("argarch.forecast_next.self_s", "s", "lower"),
    ("backtest.roll_conditional.self_s", "s", "lower"),
    ("backtest.method_quantile.calls", "count", "lower"),
    ("backtest.method_quantile.self_s", "s", "lower"),
    ("backtest.roll_unconditional.self_s", "s", "lower"),
    ("backtest.sliding_backtest.calls", "count", "lower"),
    ("backtest.sliding_backtest.self_s", "s", "lower"),
    ("tailest.hill.calls", "count", "lower"),
    ("tailest.hill.self_s", "s", "lower"),
    ("tailest.hill_corrected.calls", "count", "lower"),
    ("tailest.hill_corrected.self_s", "s", "lower"),
    ("tailest.weissman_quantile.calls", "count", "lower"),
    ("tailest.weissman_quantile.self_s", "s", "lower"),
    ("tailest.empirical_quantile.calls", "count", "lower"),
    ("tailest.empirical_quantile.self_s", "s", "lower"),
    ("tailest.tail_index_trace.self_s", "s", "lower"),
    ("bootstrap.resample_indices.calls", "count", "lower"),
    ("bootstrap.resample_indices.self_s", "s", "lower"),
    ("bootstrap.resample_indices.p50_us", "us", "lower"),
    ("bootstrap.resample_indices.p99_us", "us", "lower"),
    ("bootstrap.percentile_ci.calls", "count", "lower"),
    ("bootstrap.percentile_ci.self_s", "s", "lower"),
    ("bootstrap.replicates", "count", "lower"),
    ("bootstrap.dropped_ratio", "ratio", "lower"),
    ("bootstrap.index_bytes", "bytes", "lower"),
    ("extremal.extremal_index_sliding.calls", "count", "lower"),
    ("extremal.extremal_index_sliding.self_s", "s", "lower"),
    ("extremal.extremal_index_sliding.p50_us", "us", "lower"),
    ("extremal.block_maxima_sliding.calls", "count", "lower"),
    ("extremal.block_maxima_sliding.self_s", "s", "lower"),
    ("extremal.block_maxima_sliding.p50_us", "us", "lower"),
    ("extremal.theta_sweep.self_s", "s", "lower"),
    ("taildep.chi_hat.calls", "count", "lower"),
    ("taildep.chi_hat.self_s", "s", "lower"),
    ("taildep.chi_hat.p50_us", "us", "lower"),
    ("taildep.chi_ci.self_s", "s", "lower"),
    ("taildep.chi_trace.self_s", "s", "lower"),
    ("taildep.residual_pair.self_s", "s", "lower"),
    ("decluster.rank_gap_keep_mask.calls", "count", "lower"),
    ("decluster.rank_gap_keep_mask.self_s", "s", "lower"),
    ("decluster.weekday_subsample.self_s", "s", "lower"),
    ("ingest.load_returns.calls", "count", "lower"),
    ("ingest.load_returns.self_s", "s", "lower"),
    ("ingest.acf.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class OptimizerCounter:
    """Counts optimizer starts, evaluations and successes of argarch fits."""

    def __init__(self):
        self.starts = 0
        self.nfev = 0
        self.converged = 0

    def install(self, argarch) -> None:
        minimize = argarch.minimize  # AttributeError if the binding is gone

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.starts += 1
            self.nfev += int(res.nfev)
            self.converged += bool(res.success)
            return res

        argarch.minimize = counted


class Tracer:
    """Spans around evtrisk's public functions, kept in memory."""

    def __init__(self):
        self.spans = []       # (name, parent index, start, end, self seconds)
        self._stack = []      # [span index, child seconds] of open spans
        self.bindings = {}    # span name -> module attributes patched
        self.optimizer = OptimizerCounter()
        self.replicates = 0
        self.dropped = 0
        self.index_bytes = 0

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"evtrisk.{short}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (f"{short}.{name}",
                                        self._wrap(f"{short}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "evtrisk" and not modname.startswith("evtrisk."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    span, wrapper = wrappers[id(val)]
                    setattr(mod, attr, wrapper)
                    self.bindings.setdefault(span, []).append(f"{modname}.{attr}")
        self.optimizer.install(sys.modules["evtrisk.argarch"])
        missing = sorted({m.rsplit(".", 1)[0] for m, _, _ in PER_LAYER
                          if m.count(".") == 2} - set(self.bindings))
        if missing:
            raise RuntimeError(f"traced functions not found: {missing}")

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, parent, start, end, end - start - frame[1])

        if name in ("bootstrap.percentile_ci", "taildep.chi_ci"):
            return self._count_bootstrap(fn, traced)
        traced.__wrapped__ = fn
        return traced

    def _count_bootstrap(self, fn, traced):
        """Count the replicates and index bytes of a bootstrap CI call, and
        the replicates its statistic fails on (dropped by percentile_ci)."""
        sig = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            reps = bound.arguments["spec"].replicates
            self.replicates += reps
            self.index_bytes += reps * len(bound.arguments["x"]) * 8
            statistic = bound.arguments.get("statistic")
            if statistic is not None:
                def counted_statistic(xs):
                    try:
                        return statistic(xs)
                    except Exception:
                        self.dropped += 1
                        raise

                bound.arguments["statistic"] = counted_statistic
            return traced(*bound.args, **bound.kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- results ------------------------------------------------------------

    def stats(self) -> dict:
        """{span name: (calls, self seconds, [durations])}, from the spans."""
        out = {}
        for name, _, start, end, self_s in self.spans:
            calls, total, durations = out.get(name, (0, 0.0, []))
            durations.append(end - start)
            out[name] = (calls + 1, total + self_s, durations)
        return out

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio."""
        stats = self.stats()
        fits = stats.get("argarch.fit_qmle", (0,))[0]
        opt = self.optimizer
        values = {
            "argarch.nfev_per_fit": opt.nfev / fits if fits else 0.0,
            "argarch.starts_per_fit": opt.starts / fits if fits else 0.0,
            "argarch.useful_start_ratio": fits / opt.starts if opt.starts else 0.0,
            "argarch.converged_ratio": opt.converged / opt.starts if opt.starts else 0.0,
            "bootstrap.replicates": self.replicates,
            "bootstrap.dropped_ratio": (self.dropped / self.replicates
                                        if self.replicates else 0.0),
            "bootstrap.index_bytes": self.index_bytes,
        }
        for metric, unit, _ in PER_LAYER:
            if metric in values or metric.count(".") != 2:
                continue
            span, stat = metric.rsplit(".", 1)
            calls, self_s, durations = stats.get(span, (0, 0.0, []))
            if stat == "calls":
                values[metric] = calls
            elif stat == "self_s":
                values[metric] = self_s
            else:
                q = float(stat[1:stat.index("_")])
                values[metric] = _percentile(durations, q) * _SCALE[unit]
        return values

    def self_check(self, expected: dict) -> list:
        """Mismatches between recorded and expected call counts."""
        stats = self.stats()
        return [f"{span}: {stats.get(span, (0,))[0]} calls, expected {want}"
                for span, want in expected.items()
                if stats.get(span, (0,))[0] != want]
