"""Spans and counters of the traced run.

Spans are put around calls into the library from outside it: around the
benchmark's own calls, and around the bindings through which the library's
modules call one another, which the tracer swaps for wrappers only while a
traced loop runs.  A span holds its name, start, end, parent span and
operation id; spans stay in memory until the run writes them out.  A
layer's busy time is the self time of its spans: duration minus the time
covered by child spans.
"""

import collections
import contextlib
import functools
import importlib
import time
import types

import numpy as np

import frenetdir
from frenetdir.errors import DomainError, NumericalError

# library function -> span name "<layer>.<name>"; the steps that build a
# direction curve, and the checks made on it, share one span name each
SPAN_OF = {
    "evaluate_catalog": "curves.evaluate_catalog",
    "arclength_reparametrize": "curves.arclength_reparametrize",
    "load_csv": "curves.load_csv",
    "save_csv": "curves.save_csv",
    "frenet_apparatus": "frenet.frenet_apparatus",
    "verify_frame": "frenet.verify_frame",
    "osculating_coefficients": "direction.construct",
    "direction_field": "direction.construct",
    "integrate_direction_curve": "direction.construct",
    "predicted_bar_data": "direction.checks",
    "mannheim_check": "direction.checks",
    "compare_predicted": "direction.checks",
    "classify": "classify.classify",
    "od_osculating_curve": "od.od_osculating_curve",
    "verify_od_properties": "od.verify_od_properties",
}

# modules whose calls into other layers get spans; `verify` is left whole,
# so `frenetdir verify` time stays inside the cli.verify span
CALLERS = ("frenetdir.cli", "frenetdir.classify", "frenetdir.od")

LAYERS = ("numerics", "curves", "frenet", "direction", "classify", "od", "verify", "cli")

# exceptions counted per layer (they still propagate)
COUNTED = (DomainError, NumericalError, ValueError)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.op = None
        self.errors = collections.Counter()
        self.solves = 0
        self.frenet_valid = 0
        self.frenet_samples = 0

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except COUNTED as exc:
            # counted once, in the layer that raised it
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "frenet.frenet_apparatus":
                self.frenet_valid += int(out.frenet_valid.sum())
                self.frenet_samples += out.frenet_valid.size
            return out

        return traced

    def library(self):
        """The package namespace with every SPAN_OF function traced."""
        ns = types.SimpleNamespace(**{k: getattr(frenetdir, k) for k in frenetdir.__all__})
        for fn_name, span_name in SPAN_OF.items():
            setattr(ns, fn_name, self.wrap(span_name, getattr(frenetdir, fn_name)))
        return ns

    @contextlib.contextmanager
    def installed(self):
        """Trace the library's own inter-layer calls and count
        numpy.linalg.solve calls until the block exits."""
        saved = []
        for mod_name in CALLERS:
            mod = importlib.import_module(mod_name)
            for fn_name, span_name in SPAN_OF.items():
                if hasattr(mod, fn_name):
                    saved.append((mod, fn_name, getattr(mod, fn_name)))
                    setattr(mod, fn_name, self.wrap(span_name, getattr(mod, fn_name)))
        solve = np.linalg.solve

        def counted_solve(*args, **kwargs):
            self.solves += 1
            return solve(*args, **kwargs)

        np.linalg.solve = counted_solve
        try:
            yield
        finally:
            np.linalg.solve = solve
            for mod, fn_name, fn in reversed(saved):
                setattr(mod, fn_name, fn)

    def self_times(self):
        """{span name: (total self seconds, call count)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name][0] += end - start - covered
            out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def records(self, t0):
        """Spans as dicts, times in seconds from t0."""
        return [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
