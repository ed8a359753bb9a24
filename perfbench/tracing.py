"""In-memory span recording around the benchmark's calls into the store.

Spans are taken in the benchmark's own code, at the public calls into each
layer; the program itself is not instrumented.  A span records its name,
start, end, parent span and the op it belongs to, plus free-form
attributes; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects spans for one benchmark run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def by_op(self, name: str) -> Dict[str, float]:
        """Duration of the span ``name`` keyed by op id (last one wins)."""
        return {s["op"]: s["end"] - s["start"] for s in self.spans if s["name"] == name}

    def children(self, span_id: int) -> List[Dict[str, object]]:
        return [s for s in self.spans if s["parent"] == span_id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


class _NullSpan:
    def __enter__(self) -> Dict[str, object]:
        return {}

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Recorder used for untraced ops: same interface, records nothing."""

    enabled = False
    op: Optional[str] = None
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = NullRecorder()
