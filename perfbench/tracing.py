"""In-memory spans and counters around hyperon's layer boundaries.

The tracer patches module attributes, the names a caller looks up at call
time, so nothing under src/ changes.  Each span records its name, start,
end, parent span, thread id and the workload step that was open.  A span
opened on a thread with no open span of its own (a worker of mc.generate's
pool) takes the innermost open span of the main thread as its parent, so
parallel kernel spans hang under the generate call that started them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    step: str | None
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()  # (name, step) -> calls
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._step: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def step(self, name: str):
        """Tag every span and count opened inside with the step `name`."""
        self._step = name
        try:
            yield
        finally:
            self._step = None

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, keep_result: bool = False) -> None:
        """Replace owner.attr with a wrapper that records one span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                enclosing = stack or self._stacks.get(self._main, [])
                parent = enclosing[-1] if enclosing else None
                sid = len(self.spans)
                self.spans.append(None)
                stack.append(sid)
            step = self._step
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
                    self.spans[sid] = Span(
                        sid, name, start, end, parent, tid, step,
                        result if keep_result else None,
                    )

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr with a wrapper that only counts calls per step."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[(name, self._step)] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def span_imports(self, module, layer_module) -> None:
        """Span every function that `module` imported from `layer_module`."""
        layer = layer_module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == layer_module.__name__:
                self.span(module, attr, f"{layer}.{attr}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def done(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def dump(self) -> dict:
        return {
            "spans": [asdict(s) | {"result": _plain(s.result)} for s in self.done()],
            "counts": [{"name": n, "step": st, "calls": c} for (n, st), c in self.counts.items()],
        }


def _plain(value):
    return value if isinstance(value, (int, float, str, type(None))) else repr(value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
