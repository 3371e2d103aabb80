"""Spans around the program's public functions, recorded from outside.

The tracer replaces each traced function, wherever a loaded poissonize module
holds a reference to it, by a wrapper that records one span per call: name,
start, end, parent span and the operation (trace id) it belongs to, plus a
small attribute such as the row count or cumulant order.  Spans stay in memory
and are written out once, when the run ends, together with each layer's self
time (a span's duration minus the part covered by its child spans).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict


def _rows(args, kwargs, position):
    value = kwargs.get("count", args[position] if len(args) > position else None)
    return int(value)


# name -> (module, attribute, attribute extractor).  The extractor sees the
# call's arguments and returns the value recorded with the span: a row count,
# an order, a point count or a dimension, and for the sampler the row count
# together with the kind of source.
TRACED = {
    "poissonization.sample_approx_ica_batch": (
        "poissonize.poissonization", "sample_approx_ica_batch",
        lambda a, k: (_rows(a, k, 4),
                      "blackbox" if type(a[0]).__name__ == "MixtureSource" else "gmm")),
    "cumulants.MomentAccumulator.update": (
        "poissonize.cumulants", "MomentAccumulator.update", lambda a, k: len(a[1])),
    "cumulants.assemble_flat_cumulant": (
        "poissonize.cumulants", "assemble_flat_cumulant",
        lambda a, k: int(k.get("ell", a[1] if len(a) > 1 else 0))),
    "ica.recover_from_cumulants": ("poissonize.ica", "recover_from_cumulants", None),
    "gmm_learner.recover_weights": ("poissonize.gmm_learner", "recover_weights", None),
    "gmm_learner.derive_bounds": ("poissonize.gmm_learner", "derive_bounds", None),
    "gmm_learner.learn_means": ("poissonize.gmm_learner", "learn_means", None),
    "distributions.gmm_pdf": (
        "poissonize.distributions", "gmm_pdf",
        lambda a, k: len(a[1]) if getattr(a[1], "ndim", 0) == 2 else 1),
    "lowdim_hardness.l1_distance": (
        "poissonize.lowdim_hardness", "l1_distance", lambda a, k: a[0].n),
    "lowdim_hardness.interpolate": ("poissonize.lowdim_hardness", "interpolate", None),
    "lowdim_hardness.compute_fill": ("poissonize.lowdim_hardness", "compute_fill", None),
    "smoothed_analysis.run_smoothed": ("poissonize.smoothed_analysis", "run_smoothed", None),
}


class Tracer:
    """In-memory span recorder.  Spans are tuples
    (span id, parent id, trace id, name, start, end, attribute)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace_id = -1
        self._patched = []
        self.enabled = False
        self.observers = defaultdict(list)  # name -> callables(args, result)

    # -- spans ---------------------------------------------------------------
    def _open(self):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attribute):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span_id] = (span_id, parent, self._trace_id, name, start, end, attribute)

    def operation(self, name, index):
        """Context manager for one benchmark operation: the root span whose
        id every span inside it carries as its trace id."""
        return _Operation(self, name, index)

    # -- patching ------------------------------------------------------------
    def _wrap(self, name, original, attribute_of):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            attribute = attribute_of(args, kwargs) if attribute_of else None
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start, attribute)
            for observe in tracer.observers[name]:
                observe(args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in each loaded poissonize module that
        refers to it, so the spans do not depend on which module imports
        which name."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "poissonize" or key.startswith("poissonize.")]
        for name, (module_name, attribute, attribute_of) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original, attribute_of))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, attribute_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Total self time per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[5] - span[4]
        totals = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[5] - span[4] - child_time[span[0]]
        return dict(totals)

    def write(self, path):
        """Spans as JSON lines, gzip-compressed, preceded by one header line
        with the self time of every layer."""
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"self_seconds": self.self_times(),
                                     "fields": ["id", "parent", "trace", "name",
                                                "start", "end", "attribute"]}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _Operation:
    def __init__(self, tracer, name, index):
        self.tracer, self.name, self.index = tracer, name, index

    def __enter__(self):
        tracer = self.tracer
        self.span_id, self.parent = tracer._open()
        tracer._trace_id = self.span_id
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer._close(self.span_id, self.parent, self.name, self.start, self.index)
        tracer._trace_id = -1
        return False

    @property
    def seconds(self):
        return self.tracer.spans[self.span_id][5] - self.start
