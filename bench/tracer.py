"""Outside-in tracer for costlens's public functions.

The costlens modules import functions from each other by name
(``from .trace import execution_steps``), so wrapping a function in its
home module alone would miss most calls. :class:`Tracer` replaces every
binding of each target function in every loaded ``costlens`` module
namespace, and puts the originals back on exit. A target that no longer
exists is skipped and reports zero calls.

Each call becomes a span: name, start, end, parent span and operation
id. Spans stay in memory until :meth:`Tracer.write`. A span's self time
is its duration minus the durations of its child spans (calls are
properly nested on the single calling thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    work: int = 0


@dataclass
class SpanTotals:
    calls: int = 0
    self_ns: int = 0
    work: int = 0


class Tracer:
    """Wraps ``targets`` (``"<module>.<function>"`` under ``costlens``).
    ``work`` maps a target to a function of its return value that counts
    the work the call did; it is recorded on the span."""

    def __init__(self, targets: list[str], work: dict[str, Callable[[Any], int]]):
        self.targets = targets
        self.work = work
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "costlens" or name.startswith("costlens."))]
        for target in self.targets:
            module_name, func_name = target.split(".")
            home = sys.modules.get(f"costlens.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, count = self.spans, self._stack, self.work.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.op)
            if count is not None:
                try:
                    spans[sid].work = count(result)
                except (TypeError, AttributeError):
                    pass
            return result

        return wrapper

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, self time and work per target, over every span."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out = {t: SpanTotals() for t in self.targets}
        for s in self.spans:
            t = out[s.name]
            t.calls += 1
            t.self_ns += s.end_ns - s.start_ns - child_ns[s.id]
            t.work += s.work
        return out

    def write(self, path) -> None:
        """One JSON object per span, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
