"""In-memory span tracer that wraps functions from outside the package.

Wrapping replaces every binding of a function: the module attribute, each
``from module import name`` copy in other modules, and default arguments
that captured it. Spans record (name, start, end, parent, attrs); hot
per-item functions get plain counters, optionally with accumulated time,
so the tracer does not dominate the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.clock = time.perf_counter  # may be swapped for one that skips probe time
        self.on = True
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def reset(self) -> list[list]:
        """Forget everything recorded so far and return the spans."""
        spans, self.spans = self.spans, []
        self.counts.clear()
        self.seconds.clear()
        return spans

    @contextlib.contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- wrapping --------------------------------------------------------

    def wrap_span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span per call; ``on_result(args, kwargs, result)`` may return attrs."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None:
                attrs = on_result(args, kwargs, result)
                if attrs:
                    self.spans[sid][4] = attrs
            return result

        self._replace(owner, attr, fn, wrapper)

    def wrap_count(self, owner, attr: str, name: str, timed: bool = False) -> None:
        """Count calls (and, if ``timed``, accumulate their duration) without spans."""
        fn = getattr(owner, attr)
        counts, seconds = self.counts, self.seconds

        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                t0 = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += self.clock() - t0
                    counts[name] += 1
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.on:
                    counts[name] += 1
                return fn(*args, **kwargs)

        self._replace(owner, attr, fn, wrapper)

    def _replace(self, owner, attr: str, fn, wrapper) -> None:
        if isinstance(owner, type):
            # a method: every caller reaches it through the class
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, fn))
            return
        for mod in [m for k, m in sys.modules.items() if k == self.package or k.startswith(self.package + ".")]:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append(lambda mod=mod, key=key: setattr(mod, key, fn))
                # a default argument that captured fn, also behind an earlier wrapper
                target = getattr(value, "__wrapped__", value)
                defaults = getattr(target, "__defaults__", None)
                if defaults and any(d is fn for d in defaults):
                    target.__defaults__ = tuple(wrapper if d is fn else d for d in defaults)
                    self._undo.append(lambda t=target, d=defaults: setattr(t, "__defaults__", d))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def has_ancestor(self, sid: int, name: str) -> bool:
        """Whether a span named ``name`` encloses span ``sid``."""
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        self_s = self.self_times()
        doc = {
            "spans": [
                {"id": i, "name": s[0], "start_s": s[1] - origin, "end_s": s[2] - origin,
                 "self_s": self_s[i], "parent": s[3], "attrs": s[4] or {}}
                for i, s in enumerate(self.spans)
            ],
            "counts": dict(sorted(self.counts.items())),
            "seconds": dict(sorted(self.seconds.items())),
        }
        with open(path, "w") as f:
            json.dump(doc, f)
            f.write("\n")
