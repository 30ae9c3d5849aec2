"""Span recording around gcsdyn's public functions, installed from outside.

A layer is a gcsdyn module. Every public function a layer defines is
replaced by a wrapper that records one span (name, layer, start, end,
parent) per call, both in the defining module and in every gcsdyn module
that imported it by name, so calls through `from .x import f` are seen
too. Private names (`_STEPPERS`, `_check_monitors`, ...) are never
patched: their cost stays in the calling span's self time. Spans live in
memory until the run ends.
"""

import functools
import importlib
import sys
import time

# Layers and the public functions traced in each; None means every public
# function the module defines. In `models` only the set-up entry points are
# traced: its pointwise kernels (potential_value, ground_density_values, ...)
# run inside hydrodynamics on every step and are timed as part of it.
LAYERS = {
    "config": None,
    "models": ("ground_moments", "ground_state"),
    "displacement": None,
    "classical": None,
    "hydrodynamics": None,
    "diagnostics": None,
    "propagation": None,
    "output": None,
}


def public_functions(module, names=None):
    """Names of the public callables `module` defines (not imports)."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if names is None or name in names:
            found.append(name)
    return found


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "top")

    def __init__(self, name, layer, start, parent, top):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.top = top  # no enclosing span of the same layer

    @property
    def duration_ns(self):
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}
        self.originals = {}

    def _wrap(self, layer, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns
        qualified = f"{layer}.{name}"
        depth.setdefault(layer, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qualified, layer, clock(), stack[-1] if stack else -1,
                        depth[layer] == 0)
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                stack.pop()
                span.end = clock()

        return traced

    def install(self, package="gcsdyn"):
        """Wrap every traced function wherever a gcsdyn module binds it."""
        layers = {layer: importlib.import_module(f"{package}.{layer}")
                  for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, names in LAYERS.items():
            module = layers[layer]
            for name in public_functions(module, names):
                original = getattr(module, name)
                wrapped = self._wrap(layer, name, original)
                self.originals[f"{layer}.{name}"] = original
                for m in modules:
                    if getattr(m, name, None) is original:
                        setattr(m, name, wrapped)

    # -- reductions ------------------------------------------------------

    def child_ns(self):
        """Summed duration of each span's direct children."""
        total = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                total[s.parent] += s.duration_ns
        return total

    def children_nested(self, index):
        """True when the direct children of span `index` lie inside it and
        do not overlap, so that children plus self time equal the span."""
        parent = self.spans[index]
        kids = sorted((s for s in self.spans if s.parent == index),
                      key=lambda s: s.start)
        edge = parent.start
        for s in kids:
            if s.start < edge or s.end > parent.end:
                return False
            edge = s.end
        return True

    def layer_totals(self):
        """Per layer: calls into it and busy time (outermost spans only)."""
        calls, busy = {}, {}
        for s in self.spans:
            if s.top:
                calls[s.layer] = calls.get(s.layer, 0) + 1
                busy[s.layer] = busy.get(s.layer, 0) + s.duration_ns
        return calls, busy

    def count(self, name):
        return sum(1 for s in self.spans if s.name == name)
