"""Span recording around calls into the program's layers.

The benchmark times layers from its own files: :meth:`Tracer.wrap`
replaces a module attribute or class method with a wrapper that opens a
span named after the layer (a module of the repository, e.g.
``engine.ucg``).  Spans nest per thread; when one closes, its duration
minus the time its child spans covered is added to the layer's *self*
time, so self times of all layers add up to the traced wall time minus
whatever ran outside every span.

A :class:`Ledger` receives the self times and counts.  Each thread writes
to the tracer's shared ledger unless it has bound its own with
:meth:`Tracer.bind` — the traced server binds one ledger per request.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Optional


class Ledger:
    """Per-layer self seconds and named counts."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


class Tracer:
    """Nested per-thread spans whose self times land in a :class:`Ledger`."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Ledger:
        """The ledger this thread writes to."""
        return getattr(self._local, "ledger", None) or self.ledger

    @contextmanager
    def bind(self, ledger: Ledger):
        """Route this thread's spans and counts into ``ledger``."""
        previous = getattr(self._local, "ledger", None)
        self._local.ledger = ledger
        try:
            yield ledger
        finally:
            self._local.ledger = previous

    @property
    def depth(self) -> int:
        """How many spans are open on this thread."""
        return len(self._stack())

    def count(self, name: str, amount: float = 1.0) -> None:
        ledger = self.current()
        with self._lock:
            ledger.counts[name] += amount

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            ledger = self.current()
            with self._lock:
                ledger.seconds[layer] += duration - frame[0]
                ledger.counts[layer + ".calls"] += 1

    def wrap(
        self,
        owner,
        name: str,
        layer: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.name`` as a span of ``layer``.

        ``owner`` is a module or a class; class- and static methods keep
        their binding.  ``count(tracer, args, kwargs, result)`` runs after
        each call to add work counts.
        """
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            fn, rebind = raw.__func__, type(raw)
        else:
            fn, rebind = raw, None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        setattr(owner, name, rebind(traced) if rebind else traced)


def self_time_table(seconds: Dict[str, float], wall: float) -> str:
    """A plain-text table of layer self times and their share of ``wall``."""
    lines = [f"{'layer':<28} {'self_s':>10} {'share':>7}"]
    for layer, value in sorted(seconds.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<28} {value:>10.4f} {value / wall:>7.1%}")
    covered = sum(seconds.values())
    lines.append(f"{'(uncovered)':<28} {wall - covered:>10.4f} {1 - covered / wall:>7.1%}")
    return "\n".join(lines)
