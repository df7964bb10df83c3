"""In-memory spans and counts, plus attribute patching.

Spans are recorded only from the benchmark's own files: a traced run wraps
public functions and methods of the patchmoe modules from outside, so the
package itself knows nothing about tracing. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover. The
        spans of one thread nest, so children of one parent never overlap."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return {s.id: s.duration - covered.get(s.id, 0.0) for s in self.spans}

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        self_times = self.self_times()
        payload["spans"] = [dict(asdict(s), self=self_times[s.id])
                            for s in sorted(self.spans, key=lambda s: s.id)]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


class Patches:
    """Temporarily replaced attributes of modules and classes."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original)."""
        self.set(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
