"""Spans around the public functions of each chebpush module, from outside.

The tracer replaces a function everywhere it is bound: ``cli`` imports
functions by name, ``montecarlo`` binds ``cheb_eval``, and ``pushforward``
calls its own module globals, so patching only the defining module would
miss most calls. Spans are kept in memory as
``[name, start, end, parent index, command id]`` and written out at the end
of the run by the caller. Work counts are taken at the same boundaries.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> public functions traced in it. A function missing from the
# package is skipped, and its metrics then read 0.
LAYERS = {
    "chebpoly": ("cheb_eval", "cheb_integral"),
    "densities": ("parse_density", "make_density", "sample"),
    "spectral": ("expand_density", "normalization_residual", "even_moment_sum"),
    "pushforward": ("bounded_factor", "pushforward_cdf", "pushforward_on_grid",
                    "convergence_report", "sup_error", "asymptotic_bounded_factor",
                    "mass_left_of_zero", "default_grid"),
    "montecarlo": ("push_samples", "histogram", "ks_statistic", "uniform_stream"),
    "cli": ("main",),
}

# Span name of the cdf callback handed to ks_statistic, so that the
# statistic's own self time excludes the cdf it is given.
KS_CDF = "montecarlo.ks_statistic.cdf"


def _angle_evals(args, result):
    # one angle evaluation is one preimage angle at one point
    return {"angle_evals": int(args["k"]) * int(np.size(args["z"]))}


# Span name -> function of (bound arguments, result) giving work counts.
COUNTERS = {
    "chebpoly.cheb_eval": lambda a, r: {"points": int(np.size(a["x"]))},
    "densities.sample": lambda a, r: {"draws": int(a["n"])},
    "spectral.expand_density": lambda a, r: {"undecayed": int(not r.decayed)},
    "pushforward.bounded_factor": _angle_evals,
    "pushforward.pushforward_cdf": _angle_evals,
    "montecarlo.ks_statistic": lambda a, r: {"samples": int(a["batch"].n)},
}


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.command = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        wraps_cdf = name == "montecarlo.ks_statistic"

        def traced(*args, **kwargs):
            if counter is not None or wraps_cdf:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if wraps_cdf:
                    bound.arguments["cdf"] = self.wrap(KS_CDF, bound.arguments["cdf"])
                args, kwargs = bound.args, bound.kwargs
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.command]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(bound.arguments, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Patch every binding of each traced function in the chebpush modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "chebpush" or n.startswith("chebpush.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"chebpush.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        # rows handed to the emitter, counted without a span so that
        # cli.main's self time keeps covering the output formatting
        cli = sys.modules["chebpush.cli"]
        emit = getattr(cli, "_emit", None)
        if emit is None:
            return

        def counted_emit(ns, headers, rows, *rest):
            self.counts["cli.main.rows"] += len(rows)
            return emit(ns, headers, rows, *rest)

        self._patches.append((cli, "_emit", emit))
        cli._emit = counted_emit

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Calls run on one thread, so children of one span never overlap and
    their durations add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(spans):
    """{span name: {"calls", "busy_s", "self_s"}} over the given spans."""
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["busy_s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(table)
