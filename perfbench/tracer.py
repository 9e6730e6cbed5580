"""In-memory spans and counters around the calls one ambigseq layer makes into another.

The benchmark does not instrument the program. Instead ``child.py`` rebinds
the module attributes that each calling layer looks up at call time (for
example ``campaign.build_prompt`` or ``backends.matching_generators``) to
wrappers that record a span: name, start, end, parent span and the plan key
of the query being executed. Spans stay in memory until ``write`` and are
reduced to per-layer totals and self times by ``layer_table``; a layer is the
part of a span name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from statistics import quantiles
from typing import Any, Callable

# Work is done by the program, so recording must stay cheap: a span is a
# tuple, and its parent is an index into the same list.
_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}
        self.request_id: Any = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result)`` runs outside the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span, for very hot functions."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span_attr(self, owner: object, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def finished(self) -> list[tuple]:
        if any(s is None for s in self.spans):
            raise RuntimeError("trace reduced while a span is still open")
        return self.spans  # type: ignore[return-value]

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s[_END] - s[_START]) / 1e6 for s in self.finished() if s[_NAME] == name
        ]

    def self_ms(self) -> dict[str, float]:
        """Per-span self time: duration minus the time its direct children cover."""
        spans = self.finished()
        child_ns = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        out: dict[str, float] = {}
        for s, covered in zip(spans, child_ns):
            out[s[_NAME]] = out.get(s[_NAME], 0.0) + (s[_END] - s[_START] - covered) / 1e6
        return out

    def layer_table(self) -> dict[str, dict[str, float]]:
        """{layer: {"calls", "total_ms", "self_ms"}}; total counts outermost spans only."""
        spans = self.finished()
        table: dict[str, dict[str, float]] = {}
        layers = [s[_NAME].split(".", 1)[0] for s in spans]
        for i, s in enumerate(spans):
            row = table.setdefault(layers[i], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            parent = s[_PARENT]
            while parent >= 0 and layers[parent] != layers[i]:
                parent = spans[parent][_PARENT]
            if parent < 0:  # no enclosing span of the same layer
                row["total_ms"] += (s[_END] - s[_START]) / 1e6
        for name, ms in self.self_ms().items():
            table[name.split(".", 1)[0]]["self_ms"] += ms
        return table

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order, times in ns from the first span."""
        spans = self.finished()
        origin = min((s[_START] for s in spans), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[_NAME],
                            "start_ns": s[_START] - origin,
                            "end_ns": s[_END] - origin,
                            "parent": s[_PARENT],
                            "request": s[_REQUEST],
                        }
                    )
                    + "\n"
                )


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (1..99) by linear interpolation; the value itself for n=1."""
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[p - 1]
