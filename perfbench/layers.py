"""Layer spans for the traced run.

:class:`Tracer` wraps every public function of each ``zakvmo`` module (the
layers) from the outside; nothing in the package changes.  Modules import
names directly (``zak_transform`` is bound in ``zak``, ``gabor`` and
``metaplectic``), so the wrapper replaces every module-level binding of the
function object, and :meth:`Tracer.restore` puts each one back.

Spans nest.  A span's self time is its duration minus the durations of the
spans it directly contains; spans opened while no other span is open are
*top-level*, and their total over an op is the part of the op the layers
account for.  The CLI handlers (``cmd_*``) and ``main`` are the op itself,
so they are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "zak", "gabor", "vmo", "_kernels", "symplectic", "metaplectic", "uncertainty")


# Computed work counts recorded at a layer boundary, from the call's bound
# arguments and its result.
def _osc_cells(a, out):
    """|F - F_Q| evaluations: one per cell of every scanned cube."""
    return {"cells": out.size * a["sx"] * a["sy"]}


def _fourier_pairs(a, out):
    """Input samples times output nodes of the trigonometric sum."""
    return {"pairs": len(a["f"].values) * len(out.values)}


def _gagliardo_pairs(a, out):
    """Sample pairs (i, i + d) with band <= d < n."""
    m = max(len(a["vals"]) - int(a["band"]), 0)
    return {"pairs": m * (m + 1) // 2}


def _written_bytes(a, out):
    return {"bytes": os.path.getsize(a["path"])}


def _generator_kind(a, out):
    return {f"{a['step'].kind}.calls": 1}


COUNTERS = {
    "kernels.osc_scan": _osc_cells,
    "core.fourier_transform": _fourier_pairs,
    "kernels.gagliardo_pairs": _gagliardo_pairs,
    "cli.atomic_write": _written_bytes,
    "metaplectic.apply_generator": _generator_kind,
}


def layer_name(layer: str) -> str:
    """Metric names start with a letter, so ``_kernels`` reads ``kernels``."""
    return layer.lstrip("_")


def layer_functions():
    """(span name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"zakvmo.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and (name == "main" or name.startswith("cmd_")):
                continue
            out.append((f"{layer_name(layer)}.{name}", obj))
    return out


def package_bindings():
    """(module, attribute, value) for every module-level binding in zakvmo."""
    return [
        (mod, attr, val)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "zakvmo" or name.startswith("zakvmo."))
        for attr, val in list(vars(mod).items())
    ]


class Tracer:
    """Collects per-span totals while installed: calls, s, self_s, counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_level_s = 0.0
        self._open = []  # child-time accumulator of each open span
        self._saved = []

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                st = self.stats[span]
                st["calls"] += 1
                st["s"] += dt
                st["self_s"] += dt - child
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_level_s += dt
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in counter(bound.arguments, out).items():
                    st[k] += v
            return out

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(span, fn)) for span, fn in layer_functions()}
        for mod, attr, val in package_bindings():
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                self._saved.append((mod, attr, val))
                setattr(mod, attr, hit[1])
        return self

    def restore(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def metrics(self, n_ops: int) -> dict:
        """Per-op means: ``<span>.<counter>`` and ``layer.<layer>.self_s``."""
        out = {}
        layer_self = defaultdict(float)
        for span, st in self.stats.items():
            for counter, total in st.items():
                out[f"{span}.{counter}"] = total / n_ops
            layer_self[span.split(".")[0]] += st["self_s"]
        for layer in map(layer_name, LAYERS):
            out[f"layer.{layer}.self_s"] = layer_self[layer] / n_ops
        return out
