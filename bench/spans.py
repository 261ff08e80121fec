"""In-memory spans and counters around the benchmark's calls into compacta.

A span is (name, start_ns, end_ns, parent, op_id); `parent` is the index
of the enclosing span in the same list, or -1.  The untraced runner uses
`NullTracer`, whose `call` is a plain call, so both modes run the same op
code.  Spans live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), None, parent, self.op_id])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def call(self, name, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()

    def count(self, name, k=1):
        self.counts[name] += k

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: spans and counts recorded after it."""
        return len(self.spans), Counter(self.counts)

    def busy_and_calls(self, since: int = 0) -> tuple[dict, dict]:
        """Inclusive seconds and call count per span name."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, t0, t1, _, _ in self.spans[since:]:
            busy[name] += (t1 - t0) / 1e9
            calls[name] += 1
        return busy, calls

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0 - child_ns[i]) / 1e9
        return dict(out)

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "summary": summary,
                    "self_s": self.self_times(),
                    "counts": dict(self.counts),
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
