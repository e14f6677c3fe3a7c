"""Spans the benchmark records around its own calls into the program.

A span has a name, a start, an end, the span that caused it and the run
id shared by every span of one benchmark run.  Spans stay in memory; the
traced run reduces them to per-layer totals and self times when it ends.
The untraced run uses :data:`NO_SPANS`, which records nothing.
"""

import contextlib
import itertools
import time


class Spans:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.records = []
        self._open = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name):
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records.append({
                "id": span_id, "name": name, "parent": parent,
                "run": self.run_id, "start": start, "end": end,
            })

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def self_times(self):
        """``{name: seconds}``: each span's duration minus its children's."""
        child_time = {}
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] = (
                    child_time.get(record["parent"], 0.0)
                    + record["end"] - record["start"]
                )
        totals = {}
        for record in self.records:
            own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def descendants(self, name):
        """Names of the spans nested (at any depth) under spans ``name``."""
        roots = {r["id"] for r in self.records if r["name"] == name}
        parent_of = {r["id"]: r["parent"] for r in self.records}
        names = set()
        for record in self.records:
            parent = record["parent"]
            while parent is not None and parent not in roots:
                parent = parent_of.get(parent)
            if parent is not None:
                names.add(record["name"])
        return names


class _NoSpans:
    """The untraced stand-in: every span is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()


NO_SPANS = _NoSpans()
