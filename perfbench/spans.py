"""In-memory spans for the traced run.

A span is (name, start, end, parent, run id).  Names are
``<layer>.<function>`` where the layer is the program module, e.g.
``index.query.InvertedIndex.search`` belongs to layer ``index.query``.
Spans opened on a worker thread with no open span of its own take the
innermost open span of the main thread as parent (the program's
partition pool is started from there).  Nothing is recorded unless the
tracer is enabled, and only the traced run enables it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def _span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = [name, time.perf_counter(), None, parent]
        with self._lock:
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attribute, span name)`` with a traced
        wrapper for the duration of the block (enabled tracer only)."""
        saved = []
        try:
            if self.enabled:
                for owner, attr, name in targets:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries -------------------------------------------------------
    def durations(self, name: str, parent: str | None = None, since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` (whose parent is called
        ``parent``, when given) among those opened from index ``since``."""
        return [
            s[2] - s[1]
            for s in self.spans[since:]
            if s[0] == name
            and (parent is None or (s[3] is not None and self.spans[s[3]][0] == parent))
        ]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's
        intervals."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[3] is not None:
                kids.setdefault(s[3], []).append((s[1], s[2]))
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(kids.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((end - start) - covered)
        return out

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t in self.self_by_name().items():
            layer = ".".join(name.split(".")[:2])
            out[layer] = out.get(layer, 0.0) + t
        return out

    def dump(self, path: str) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": [
                        {
                            "name": n,
                            "start_s": round(a - t0, 6),
                            "end_s": round(b - t0, 6),
                            "parent": p,
                            "run_id": self.run_id,
                        }
                        for n, a, b, p in self.spans
                    ],
                    "self_s_by_layer": self.self_by_layer(),
                },
                f,
            )
