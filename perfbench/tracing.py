"""In-memory span recorder that instruments holorag from the outside.

The traced run replaces selected module globals of holorag with wrappers
that record one span per call: name, start, end, parent span and request
id (spans of one request share the id of its root span).  Hot inner
functions, called thousands of times per request, get an aggregate counter
(calls and total time) instead of spans.  Spans stay in memory until the run
ends and writes them out.  Nothing inside holorag changes.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple

from holorag.backends.base import ModelBackend


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    trace_id: int
    name: str
    start: float
    end: float
    thread: int
    phase: str  # the benchmark phase, e.g. "setup" or "measure"

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        # (phase, name) -> [calls, seconds]
        self.counters: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0])
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent_id, trace_id = (stack[-1][0], stack[-1][1]) if stack else (0, span_id)
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, parent_id, trace_id, name, start, end, threading.get_ident(), self.phase
            ))

    def wrap(self, owner, attr: str, name: str, aggregate: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until `restore`."""
        original = getattr(owner, attr)
        if aggregate:
            counters = self.counters
            lock = self._lock

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    with lock:
                        counter = counters[(self.phase, name)]
                        counter[0] += 1
                        counter[1] += elapsed
        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def view(self, *phases: str) -> "SpanView":
        return SpanView(s for s in self.spans if s.phase in phases)

    def counter(self, name: str, *phases: str):
        """(calls, seconds) of an aggregate counter summed over ``phases``."""
        with self._lock:
            found = [self.counters.get((phase, name), (0, 0.0)) for phase in phases]
        return sum(c[0] for c in found), sum(c[1] for c in found)

    def dump(self, path) -> None:
        """Write spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")
            for (phase, name), (calls, total) in sorted(self.counters.items()):
                record = {"counter": name, "phase": phase, "calls": calls, "seconds": total}
                handle.write(json.dumps(record) + "\n")


class TracedBackend(ModelBackend):
    """Delegating backend that records one ``backend.<role>`` span per call."""

    def __init__(self, inner: ModelBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def embed_query(self, query):
        with self.tracer.span("backend.embed"):
            return self.inner.embed_query(query)

    def embed_document(self, doc):
        with self.tracer.span("backend.embed"):
            return self.inner.embed_document(doc)

    def generate(self, request):
        with self.tracer.span("backend." + request.prompt_role.value):
            return self.inner.generate(request)


class SpanView:
    """Queries over one slice of the recorded spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s.parent_id].append(s)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.ms for s in self.named(name))

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return sum(s.ms for s in spans) / len(spans) if spans else 0.0

    def count(self, name: str) -> int:
        return len(self.named(name))

    def self_ms(self, name: str) -> float:
        """Total duration of ``name`` spans not covered by their direct children."""
        return sum(
            s.ms - sum(c.ms for c in self.children[s.span_id]) for s in self.named(name)
        )


def calibrate(calls: int = 20000):
    """Per-call cost in ms of a span wrapper and of a counter wrapper."""

    class Target:
        @staticmethod
        def noop():
            return None

    costs = []
    for aggregate in (False, True):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(calls):
            Target.noop()
        bare = time.perf_counter() - start
        tracer.wrap(Target, "noop", "noop", aggregate=aggregate)
        start = time.perf_counter()
        for _ in range(calls):
            Target.noop()
        wrapped = time.perf_counter() - start
        tracer.restore()
        costs.append(max(0.0, wrapped - bare) * 1000.0 / calls)
    return tuple(costs)


def trace_layers(tracer: Tracer, phase: str, ops: int, elapsed: float) -> dict:
    """Throughput under tracing and the estimated cost of the tracing itself."""
    span_cost, counter_cost = calibrate()
    spans = sum(1 for s in tracer.spans if s.phase == phase)
    counter_calls = sum(c[0] for (p, _), c in tracer.counters.items() if p == phase)
    return {
        "trace.throughput_per_s": ops / elapsed,
        "trace.spans_per_op": spans / ops,
        "trace.overhead_ms_per_op": (spans * span_cost + counter_calls * counter_cost) / ops,
    }
