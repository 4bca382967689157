"""Outside-in span tracer for the confmax layers.

The tracer wraps, from outside the package, every public function of each
layer module and rebinds the wrapper under every name a confmax module uses
for it. The modules bind their collaborators with ``from .x import y``, so
wrapping only the defining module would miss most calls: ``maximizer`` calls
its own ``solve_pencil`` binding, ``certify`` its own ``detect_collapse``,
and so on. ``scipy.sparse.linalg.eigsh`` is wrapped where ``confmax.eigen``
binds it, so each ARPACK run (one factorization of K - sigma M) is a span.

Spans are kept in memory with their parent ids; self time and the derived
counters are computed from them after the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("mesh", "fem", "eigen", "frame", "maximizer", "certify", "oracle")

# foreign functions traced where a layer binds them: (module, attribute)
FOREIGN = (("eigen", "eigsh"),)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    fields: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.

    ``observers`` maps a span name to ``f(args, kwargs, result) -> dict``;
    the returned fields are stored on the span (keep them small).
    """

    def __init__(self, observers=None):
        self.spans = []
        self.observers = dict(observers or {})
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, name,
                        time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.fields.update(observe(args, kwargs, result))
            return result

        return traced

    def _targets(self):
        """id(original) -> wrapper, for every traced function."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"confmax.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, attr in FOREIGN:
            obj = getattr(sys.modules[f"confmax.{layer}"], attr)
            targets[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        return targets

    def __enter__(self):
        import confmax  # noqa: F401  (loads every layer module)

        targets = self._targets()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "confmax" or n.startswith("confmax.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False


def aggregate(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out = {}
    for s in spans:
        rec = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["s"] += s.seconds
        rec["self_s"] += s.seconds - child_time.get(s.id, 0.0)
    return out
