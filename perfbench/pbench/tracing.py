"""In-memory spans around calls into the program's layers.

The benchmark does not change the program: it wraps the public entry points
it calls (and the module references through which one layer calls the
next) in spans for the duration of a traced replay, then restores them.
A span records name, start, end, parent and request id; spans stay in
memory and are written out when the run ends.  A layer's self time is its
span minus its child spans.  The replay is strictly sequential (one request
in flight), so a single stack gives every span its parent, including spans
opened on the server's executor thread.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[str] = None
    index: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    _stack: List[Span] = field(default_factory=list)
    request: Optional[str] = None
    _patches: List[tuple] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=None if parent is None else parent.index,
                    request=self.request, index=len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.remove(span)
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def patch(self, owner: object, attr: str, name: str, wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, (wrapper or self.wrap)(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is not None:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def by_name(self, name: str, request_prefix: str = "") -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name and (s.request or "").startswith(request_prefix)
        ]

    def self_times(self, name: str, request_prefix: str = "") -> Dict[str, float]:
        """Summed self time of spans named ``name``, per request id."""
        out: Dict[str, float] = {}
        for span in self.by_name(name, request_prefix):
            out[span.request] = out.get(span.request, 0.0) + span.self_time
        return out

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "self_s": s.self_time}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")
