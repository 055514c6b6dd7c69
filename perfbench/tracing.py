"""In-memory spans for the benchmark's traced run.

Spans are recorded from the benchmark's own code around calls into the
library's public functions.  Each span keeps its name, start, end,
parent span and case id; counters are kept per traced pass.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Tracer.spans
    case: str
    pass_no: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[int, dict] = defaultdict(dict)
        self.case = "setup"
        self.pass_no = -1          # -1 marks set-up and diagnostics
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.case, self.pass_no))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0):
        self.counts[self.pass_no][name] += amount

    def note_max(self, name: str, value: float):
        table = self.maxima[self.pass_no]
        table[name] = max(table.get(name, value), value)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, pass_no: int):
        """Summed span durations by name for one pass, in seconds."""
        out = defaultdict(float)
        for s in self.spans:
            if s.pass_no == pass_no:
                out[s.name] += s.end - s.start
        return out

    def write(self, path):
        own = self.self_times()
        rows = [dict(asdict(s), self_s=o) for s, o in zip(self.spans, own)]
        with open(path, "w") as fh:
            json.dump({"spans": rows,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()},
                       "maxima": {str(k): v for k, v in self.maxima.items()}},
                      fh)
