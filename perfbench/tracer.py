"""Spans around the calls into each layer, installed from outside ``src/``.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces a layer's public function (or method) with a
wrapper that opens a span around every call, for the duration of the
traced phase only, and puts the originals back afterwards.  A function
is replaced under every name a loaded ``repro`` module holds it by
(``from x import f`` copies the reference), so calls made deep inside
the program are seen too.

Each span records its wall time and its *self* time: the wall time minus
the part covered by child spans opened on the same thread.  The parsers
are generators; their spans cover each ``next()`` call, so a consumer's
own work between records is not charged to the parser.

Spans are kept in memory as per-name totals (plus the per-call
durations of the names asked for), and read once when the phase ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class _TimedIterator:
    """A generator proxy that charges each ``next()`` to one span."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            item = next(self._inner)
        except BaseException:  # StopIteration included: close, re-raise
            tracer._close(self._name, stack, start)
            raise
        tracer._close(self._name, stack, start, items=1)
        return item


class Tracer:
    """Per-name call counts, wall time, self time and item counts."""

    def __init__(self, *, samples: tuple[str, ...] = ()):
        self.calls: dict[str, int] = defaultdict(int)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        #: Per-call durations, kept only for the names listed.
        self.samples: dict[str, list[float]] = {name: [] for name in samples}
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: float | None = None

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, stack: list[float], start: float, *,
               items: int = 0) -> float:
        elapsed = time.perf_counter() - start
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.calls[name] += 1
            self.wall_s[name] += elapsed
            self.self_s[name] += elapsed - children
            self.items[name] += items
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(elapsed)
        return elapsed

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stack, start)

    def add_items(self, name: str, count: int) -> None:
        with self._lock:
            self.items[name] += count

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name: str, fn, kind: str):
        tracer = self

        if kind == "iter":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TimedIterator(tracer, name, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, stack, start)
            if kind == "sized":
                tracer.add_items(name, len(result))
            return result
        return wrapper

    def patch(self, target: str, name: str, kind: str = "call") -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` as span ``name``.

        ``kind`` is ``"call"`` (one span per call), ``"sized"`` (also
        count ``len()`` of the result as items) or ``"iter"`` (the
        function returns an iterator; one span per ``next()``, one item
        per element).
        """
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._set(owner, attr, self._wrapper(name, vars(owner)[attr], kind))
            return
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, kind)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- lifetime ------------------------------------------------------------

    def install(self, targets) -> "Tracer":
        """Patch every ``(target, name, kind)`` and start the GC clock."""
        for target, name, kind in targets:
            self.patch(target, name, kind)
        gc.callbacks.append(self._on_gc)
        return self

    def close(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
