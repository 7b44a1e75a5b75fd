"""Per-layer spans, recorded from the benchmark's own files.

A layer is a package under ``src/repro/``. :func:`install` wraps, at
class level and before any system is built:

- every public method defined in a layer's classes;
- every message handler in the engines' ``@handles`` dispatch tables
  (the protocol's entry points, reached without a public call);
- every callback handed to the sim loop or to a sim timer, attributed
  to the layer that defined the callback.

Each wrapper records a span. A layer's self time is its spans'
duration minus the part their child spans cover. Nothing under
``src/`` changes; the wrappers live only in a traced process.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("sim", "net", "consensus", "raft", "fastraft", "craft", "smr",
          "snapshot", "storage")


def layer_of(fn) -> str:
    """The layer whose module defined ``fn`` ("other" outside them)."""
    fn = getattr(fn, "func", fn)            # functools.partial
    fn = getattr(fn, "__func__", fn)        # bound method
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerTracer:
    """Span stack plus per-layer call counts and self time."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.timers_scheduled = 0
        #: Messages handled, by message type name.
        self.handled: Counter = Counter()
        self._stack: list[float] = []      # child time of each open span

    def wrap(self, layer: str, fn, message_type: str | None = None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        handled = self.handled

        def span(*args, **kwargs):
            if message_type is not None:
                handled[message_type] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.handled.clear()
        self.timers_scheduled = 0


def _layer_classes():
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        names = [package.__name__] + [
            info.name for info in pkgutil.walk_packages(
                package.__path__, prefix=f"{package.__name__}.")]
        for name in names:
            module = importlib.import_module(name)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == name:
                    yield layer, cls


def install(tracer: LayerTracer) -> None:
    from repro.sim.loop import SimLoop
    from repro.sim.timers import PeriodicTimer, RestartableTimer

    for layer, cls in _layer_classes():
        for name, value in list(vars(cls).items()):
            if (not name.startswith("_") and inspect.isfunction(value)):
                setattr(cls, name, tracer.wrap(layer, value))
        table = vars(cls).get("_DISPATCH_TABLE")
        if table:
            for message_type, handler in list(table.items()):
                table[message_type] = tracer.wrap(
                    layer_of(handler), handler, message_type.__name__)

    def traced_callback(schedule):
        def scheduler(self, first, callback, *args):
            tracer.timers_scheduled += 1
            return schedule(self, first,
                            tracer.wrap(layer_of(callback), callback), *args)
        return scheduler

    # The wheel loop binds its fused schedulers per instance, so patching
    # the class before any loop exists covers every scheduling path.
    for name in ("call_at", "_call_later_wheel"):
        setattr(SimLoop, name, traced_callback(getattr(SimLoop, name)))
    soon = SimLoop._call_soon_wheel

    def call_soon(self, callback, *args):
        tracer.timers_scheduled += 1
        return soon(self, tracer.wrap(layer_of(callback), callback), *args)

    SimLoop._call_soon_wheel = call_soon

    for timer_cls in (PeriodicTimer, RestartableTimer):
        init = timer_cls.__init__

        def traced_init(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            self._callback = tracer.wrap(layer_of(self._callback),
                                         self._callback)

        timer_cls.__init__ = traced_init
