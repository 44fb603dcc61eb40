"""In-memory span recorder and the tracer that wraps the package's public
layer calls in spans.

A span has a name, a start, an end (process CPU time, the clock the
benchmark times everything with), the index of its parent span and the
id of the operation it belongs to. Spans stay in memory until the run ends.
Nothing here is installed unless a traced run asks for it, so an untraced
run pays nothing.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "latentflow"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.process_time(), None, parent, self.op))
        self._open.append(idx)
        return idx

    @property
    def open(self) -> bool:
        return bool(self._open)

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.process_time()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (self seconds, total seconds, span count).

        Self time is a span's duration minus the time its child spans
        cover; children of one span run one after another, so their
        durations add up. Total time counts a span nested in a span of the
        same name once, through the outer one.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for s, c in zip(self.spans, child):
            acc = out[s.name]
            acc[0] += (s.end - s.start) - c
            if s.parent is None or self.spans[s.parent].name != s.name:
                acc[1] += s.end - s.start
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op}) + "\n")


class Tracer:
    """Replaces each target callable, wherever a ``latentflow`` module or
    class binds it, with a wrapper that records a span around the call
    when the call happens inside an open span.

    ``targets`` is a list of (owner, attribute, span name); the owner is a
    module for functions and a class for methods. ``remove`` restores
    every binding it replaced.
    """

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        rec = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.open:  # outside an operation, e.g. in an output check
                return fn(*args, **kwargs)
            return rec.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for owner, attr, name in self.targets:
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
