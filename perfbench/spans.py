"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and run id, plus work
counts taken at the same boundary.  Spans are kept in a list and written
out once, when the run ends.  Instrumentation is installed by replacing
the attributes a calling module binds (for example
``ugconn.lemmas.disconnection_census``) and is removed afterwards, so an
untraced run executes the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one single-threaded process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].span_id if self._open else None
        sp = Span(next(self._ids), name, parent, self.run_id, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        """fn inside a span; count(args, kwargs, result) gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.counts.update(count(args, kwargs, result))
                return result

        return traced

    def subtree(self, root: Span) -> list[Span]:
        """root and every span opened while it was open, in start order."""
        inside = {root.span_id}
        out = [root]
        for sp in self.spans:
            if sp.parent in inside:
                inside.add(sp.span_id)
                out.append(sp)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def span_seconds(calls: int = 20000) -> float:
    """Seconds one traced call adds: an empty function wrapped, less the bare one."""

    def empty():
        return None

    traced = Tracer("calibration").wrap(empty, "empty")
    times = []
    for fn in (empty, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return max(0.0, (times[1] - times[0]) / calls)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {sp.span_id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent in own:
            own[sp.parent] -= sp.duration
    return own


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
