"""Span tracer that times a program from outside it.

The tracer rebinds names (module functions and class attributes) to
timing wrappers and puts every one of them back on ``restore``.  Each
thread keeps its own stack of open spans.  A span opened with an explicit
parent, as a pool task is, hangs under that parent even when it runs on
another thread.  A span's self time is its duration minus the union of
the intervals its children cover, so children that overlap on several
threads are subtracted once.  Aggregates are kept in memory per span
name: calls, inclusive seconds and self seconds, plus free-form counters.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def mark(wrapper):
    """Tag a wrapper so ``leftovers`` can find it after a restore."""
    wrapper.__perfbench_wrapper__ = True
    return wrapper


def modules(package: str) -> list:
    """The package and its submodules that are imported."""
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def leftovers(package: str) -> list:
    """Names in the package's modules and classes still bound to a wrapper."""
    found = []
    for modname, mod in modules(package):
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if getattr(cvalue, "__perfbench_wrapper__", False):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


class Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children: list = []
        self.start = time.perf_counter()

    def within(self, name: str) -> bool:
        """True when this span or one of its ancestors has the given name."""
        span = self
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.own: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.missing: set = set()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str, parent: Span | None = None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        stack.append(span)
        return span

    def end(self, span: Span) -> tuple:
        """Close the innermost span of this thread; returns (duration, self time)."""
        stop = time.perf_counter()
        popped = self._local.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        dur = stop - span.start
        with self._lock:
            own = dur - covered(span.children, span.start, stop)
            self.calls[span.name] += 1
            self.total[span.name] += dur
            self.own[span.name] += own
            if span.parent is not None:
                span.parent.children.append((span.start, stop))
        return dur, own

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def timed(self, name: str, fn):
        """Wrapper of fn that records one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return mark(wrapper)

    # -- rebinding -----------------------------------------------------------
    def rebind(self, owner, attr: str, new) -> None:
        """Set owner.attr = new (a marked wrapper) and remember how to undo it."""
        mark(new)
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, new)

    def rebind_everywhere(self, fn, new, package: str) -> None:
        """Rebind every module-level name of the package bound to fn."""
        for _, mod in modules(package):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.rebind(mod, attr, new)

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
