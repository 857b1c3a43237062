"""Spans around the public functions of each ``hamconc`` module.

The benchmark traces the library without touching its source: ``Tracer``
wraps every public module-level function of the seven layer modules (plus the
private stage functions the metrics name) and rebinds the name in every
``hamconc`` module that holds it.  The pipelines import collaborators by name
(``from .transport import transport_distance``), so patching only the
defining module would miss most calls.

A span is (name, start, end, parent).  Spans stay in memory; the caller
writes them out when the run ends.  Counts read from arguments and return
values are taken in the same wrapper, at the same boundary.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

from stats import self_times

LAYERS = ("measures", "information", "transport", "concentration",
          "decompose", "processes", "cli")

#: private functions that are stages of their own in the metrics
EXTRA = {"decompose": ("_sample_coarsen_detail",)}

#: helpers called per coordinate, group or pair from inside their own layer
#: (about 220k calls in one mixture pass); a span each would cost more than
#: the work it times, so their time stays with the caller
SKIP = {"entropy_of_vector", "binary_entropy", "shannon_entropy",
        "conditional_coordinate_entropy", "hamming", "exact_support_cap"}

PRIMAL_CHILDREN = {"transport_distance", "condition", "dual_gap"}


def _transport_counts(args, kwargs, out, counts):
    if kwargs.get("method", "exact") == "exact":
        counts["transport.solves"] += 1
        counts["transport.cells"] += len(args[0]) * len(args[1])


def _refute_counts(args, kwargs, out, counts):
    counts["concentration.refuted"] += int(out.refuted)
    for key in ("subsets_checked", "restarts_run", "gradient_steps"):
        counts[f"concentration.{key}"] += out.budget_used.get(key, 0)


def _decrement_counts(args, kwargs, out, counts):
    counts["decompose.decrement_fired"] += int(out is not None)


def _recursion_counts(args, kwargs, out, counts):
    counts["decompose.recursion_rounds"] += len(out[1]["rounds"])


def _carve_counts(args, kwargs, out, counts):
    counts["decompose.carve_small_tc"] += int(out.case == "small-tc")


HOOKS = {
    "transport_distance": _transport_counts,
    "refute_T": _refute_counts,
    "decrement_step": _decrement_counts,
    "decrement_recursion": _recursion_counts,
    "carve_concentrated_set": _carve_counts,
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager around the
    traced calls.  ``spans`` and ``counts`` accumulate until ``reset``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._layer_of: dict[str, str] = {}
        self._patches: list[tuple] = []   # (module, attribute, original)
        self._wrappers = self._build_wrappers()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hamconc.{layer}")
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not n.startswith("_") and n not in SKIP]
            names += EXTRA.get(layer, ())
            for name in names:
                fn = getattr(module, name)
                self._layer_of[name] = layer
                wrappers[fn] = self._wrap(fn, name)
        return wrappers

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, out, self.counts)
            return out
        return wrapper

    def __enter__(self):
        for modname, module in list(sys.modules.items()):
            if modname != "hamconc" and not modname.startswith("hamconc."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(obj) if callable(obj) else None
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        return False

    def summary(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since ``reset``.

        Times are span self times, except ``*_incl_s`` (whole span) and the
        split of ``refute_T`` into its primal children and the rest.
        """
        out: dict[str, float] = defaultdict(float)
        out.update(self.counts)
        selfs = self_times(self.spans)
        for (name, start, end, parent), own in zip(self.spans, selfs):
            layer = self._layer_of[name]
            out[f"{layer}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.incl_s"] += end - start
            if parent >= 0 and name in PRIMAL_CHILDREN \
                    and self.spans[parent][0] == "refute_T":
                out["refute_T.primal_s"] += end - start
        return dict(out)
