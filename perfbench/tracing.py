"""In-memory spans recorded around the benchmark's calls into clpbn.

A span has a name, start, end, parent span and operation id, plus a dict
of attributes (for instance the node count of an answer). Spans are kept
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Records nothing; used for the untraced, end-to-end measurement."""

    op = None

    def span(self, name, **attrs):
        return nullcontext(attrs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None  # the operation id new spans are tagged with

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread and nest properly, so children never
        overlap and their durations add up to the time they cover.
        """
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps(dict(s, self=own), sort_keys=True) + "\n")
