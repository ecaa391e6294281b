"""In-memory spans with per-layer self times, plus the sample statistics the benchmark reports.

A span records its name, start, end, parent and cell id; children inherit
the cell id of their parent, so every span of one cell shares it.  Spans
are kept in memory and written out only when a traced run ends.  A
disabled tracer still times each span (the end-to-end numbers come from
the same code path) but keeps nothing, so untraced runs pay only two
clock reads per boundary.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np


class Span:
    __slots__ = ("tracer", "name", "cell", "parent", "start", "end")

    def __init__(self, tracer, name, cell):
        self.tracer = tracer
        self.name = name
        self.cell = cell
        self.parent = None

    def __enter__(self):
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer.stack
            if stack:
                self.parent = stack[-1]
                if self.cell is None:
                    self.cell = tracer.spans[self.parent].cell
            stack.append(len(tracer.spans))
            tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer.stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stack = []

    def span(self, name: str, cell=None) -> Span:
        return Span(self, name, cell)

    def self_times(self) -> list:
        """Each span's duration minus the part of it its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        return [span.seconds - covered for span, covered in zip(self.spans, child)]

    def self_seconds(self, name: str, cell: str = "") -> list:
        """Self times of the spans called name whose cell id starts with cell."""
        return [t for span, t in zip(self.spans, self.self_times())
                if span.name == name and str(span.cell).startswith(cell)]

    def write(self, path, env: dict):
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {"name": s.name, "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, "cell": s.cell, "self": t}
            for s, t in zip(self.spans, self.self_times())
        ]
        with open(path, "w") as handle:
            json.dump({"env": env, "spans": rows}, handle)


def span_cost(count: int = 2000) -> float:
    """Seconds one enabled span adds around the code it wraps, nested one deep."""
    tracer = Tracer(True)
    with tracer.span("probe.parent"):
        start = time.perf_counter()
        for _ in range(count):
            with tracer.span("probe"):
                pass
        return (time.perf_counter() - start) / count


def median(samples) -> float:
    return float(statistics.median(samples))


def high_percentile(samples, q: float = 75.0) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def philox_position(g: np.random.Generator):
    """Number of 64-bit words a Philox generator has handed out so far, or None.

    Read from outside the program: the 256-bit block counter times the
    four words per block, less the words still buffered.  None when the
    generator is not Philox.
    """
    state = g.bit_generator.state
    if state["bit_generator"] != "Philox":
        return None
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"]) - 4
