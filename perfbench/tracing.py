"""Span tracing from outside the package.

The benchmark records spans by replacing public layer functions with
thin wrappers (``Tracer.wrap``) and by opening spans around its own
calls (``Tracer.span``).  A span is ``name, start, end, parent``; spans
are kept in memory and written out when the pass ends.

Pool workers are forked from a process that already holds wrapped
functions, so calls made inside a worker are traced too.  A worker
cannot append to the parent's list; it appends each finished span to
``spans-<pid>.jsonl`` in ``spill_dir`` instead, and the parent reads
those files back with :meth:`Tracer.collect_worker_spans`.  The
worker's spans name as parent the span that was open in the parent
when the worker was forked; self time only subtracts children that ran
in the same process, so parallel worker time never makes a parent's
self time negative.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spill_dir: Optional[str] = None):
        self.pid = self._root_pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: List[Dict[str, object]] = []
        self._stack: List[str] = []

    def _after_fork(self) -> None:
        # Keep the inherited stack: its top is the parent-process span
        # that caused this worker's spans.
        self.pid = os.getpid()
        self.spans = []

    @contextmanager
    def span(self, name: str):
        if os.getpid() != self.pid:
            self._after_fork()
        record: Dict[str, object] = {
            "id": f"{self.pid}.{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self.spill_dir is not None and self.pid != self._root_pid:
                path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        measure: Optional[Callable[[], float]] = None,
        keep: Optional[list] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``measure`` is sampled before and after the call and its
        increase is stored on the span as ``inner_s`` (the evaluator's
        SAN-stage seconds, say).  ``keep`` collects ``(span, return value)``
        pairs, for results whose statistics the pass reads afterwards.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                before = measure() if measure is not None else 0.0
                result = original(*args, **kwargs)
                if measure is not None:
                    record["inner_s"] = measure() - before
            if keep is not None:
                keep.append((record, result))
            return result

        setattr(owner, attr, traced)

    def collect_worker_spans(self) -> None:
        """Fold the spans pool workers spilled into this tracer.  A
        worker stopped mid-write leaves a truncated last line, which is
        skipped."""
        if self.spill_dir is None or not os.path.isdir(self.spill_dir):
            return
        for entry in sorted(os.listdir(self.spill_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.spill_dir, entry), encoding="utf-8") as handle:
                    for line in handle:
                        try:
                            self.spans.append(json.loads(line))
                        except json.JSONDecodeError:
                            continue

    def named(self, name: str) -> List[Dict[str, object]]:
        return [span for span in self.spans if span["name"] == name]


class NullTracer:
    """The untraced pass: same interface, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield {}


def duration(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])


def self_times(spans: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds (total
    minus the time covered by same-process child spans)."""
    by_id = {span["id"]: span for span in spans}
    covered: Dict[str, float] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            covered[parent["id"]] = covered.get(parent["id"], 0.0) + duration(span)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration(span)
        row["self_s"] += duration(span) - covered.get(span["id"], 0.0)
    return table
