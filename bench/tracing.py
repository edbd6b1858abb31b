"""Tracing shim: times calls into the program's modules from outside it.

`Tracer.installed()` swaps every public function and public method of the
given modules (and any extra attributes named by the caller) for a timing
wrapper, in every loaded module that holds a reference to it, and restores
the originals on exit.  Outside that block the program runs untouched.

Each call becomes a span (name, start_ns, end_ns, parent index, op id) in an
in-memory list.  Calls are single-threaded and strictly nested, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from types import ModuleType

NO_PARENT = -1


def _public_targets(module: ModuleType, short: str):
    """(owner, attribute, span name, original) for the module's public callables.

    Methods are named `module.method`, so the same method of sibling classes
    (e.g. each sampling plan's draw_counts) shares one span name.
    """
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if name.startswith("_"):
                    continue
                if isinstance(member, staticmethod) or inspect.isfunction(member):
                    yield obj, name, f"{short}.{name}", member


class Tracer:
    def __init__(self, modules: dict[str, ModuleType], extra=(), observers=None):
        """`modules` maps short names to modules; `extra` holds
        (owner, attribute, span name) triples traced in addition;
        `observers` maps span names to callbacks f(args, result)."""
        self.targets = [t for short, mod in modules.items() for t in _public_targets(mod, short)]
        self.targets += [(owner, attr, name, getattr(owner, attr)) for owner, attr, name in extra]
        self.observers = observers or {}
        self.package = next(iter(modules.values())).__name__.rpartition(".")[0]
        self.spans: list = []
        self._stack = [NO_PARENT]
        self.op = 0
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace = {}
        for owner, attr, name, original in self.targets:
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            replace[id(original)] = wrapped
        # Modules that imported a function by name hold their own reference.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None and getattr(mod, attr) is not wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. one benchmark operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def take(self) -> list:
        """Return the finished spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list) -> list[int]:
    """Per-span self time in ns: duration minus the direct children's durations."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            out[parent] -= end - start
    return out
