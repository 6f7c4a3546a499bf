"""Spans around calls into ndspec, recorded from outside the package.

``Tracer.install`` swaps a module attribute for a timing wrapper, so every
call that looks the name up in that module becomes a span, and wrapped calls
made inside it become its child spans. ``Tracer.span`` opens a span around a
block of the benchmark's own code; the outermost open span is the root that
every nested span is filed under.

Spans are summed in memory per (root, parent, name) rather than kept one by
one: a single sweep makes hundreds of thousands of calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # open spans, innermost last: [name, seconds covered by child spans]
        self._stack: list[list] = []
        # (root, parent, name) -> [calls, seconds, self seconds]
        self.totals: dict[tuple, list] = {}
        # span name -> sizes computed from the arguments of its last call
        self.meta: dict[str, dict] = {}
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            key = (stack[0][0], parent[0], frame[0])
        else:
            key = (frame[0], None, frame[0])
        entry = self.totals.get(key)
        if entry is None:
            self.totals[key] = [1, elapsed, elapsed - frame[1]]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    def install(self, module, attr: str, name, describe=None) -> None:
        """Wrap ``module.attr`` so each call is a span called ``name``.

        ``name`` may be a callable of the call's positional arguments that
        returns the span name. ``describe``, if given, maps the same
        arguments to a dict stored in ``meta`` under the span name. A name
        the module no longer has is recorded in ``missing`` and skipped, so
        its counts read 0.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.skip(f"{module.__name__}.{attr}")
            return
        enter, leave, meta, clock = self._enter, self._exit, self.meta, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            if describe is not None:
                meta[label] = describe(*args)
            frame = enter(label)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, clock() - start)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def skip(self, label: str) -> None:
        """Record a name that could not be wrapped."""
        if label not in self.missing:
            self.missing.append(label)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def take(self) -> dict[tuple, list]:
        """The totals gathered since the last call, which are then cleared."""
        totals, self.totals = self.totals, {}
        return totals


def total(totals: dict, root: str, name: str, parent=None) -> tuple[int, float, float]:
    """(calls, seconds, self seconds) of spans ``name`` under ``root``.

    ``parent`` restricts to spans whose direct parent is that name, or, when
    it is a tuple, whose parent name starts with one of its entries.
    """
    calls, seconds, own = 0, 0.0, 0.0
    for (r, p, n), (c, s, o) in totals.items():
        if r != root or n != name:
            continue
        if parent is not None:
            if isinstance(parent, tuple):
                if p is None or not p.startswith(parent):
                    continue
            elif p != parent:
                continue
        calls += c
        seconds += s
        own += o
    return calls, seconds, own
