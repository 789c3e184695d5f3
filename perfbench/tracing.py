"""In-memory spans around the benchmark's own calls into the package.

A span records its name, the span open around it, the request it serves and
its start and end on the monotonic clock.  Spans stay in a list until the
pass ends; the parent process writes them out with the run's result.
Counters are plain sums kept beside the spans, recorded where the work
happens.
"""

from contextlib import contextmanager
from time import perf_counter_ns

# span record fields
ID, NAME, PARENT, REQUEST, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = 0
        self._open = []

    def _begin(self, name):
        rec = [len(self.spans), name, self._open[-1] if self._open else None,
               self.request, 0, 0]
        self.spans.append(rec)
        self._open.append(rec[ID])
        rec[START] = perf_counter_ns()
        return rec

    def _end(self, rec):
        rec[END] = perf_counter_ns()
        self._open.pop()

    def call(self, name, fn, *args):
        """fn(*args) inside a span called name."""
        rec = self._begin(name)
        try:
            return fn(*args)
        finally:
            self._end(rec)

    @contextmanager
    def span(self, name):
        """A span that encloses the calls made inside the with block."""
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def durations(self, name):
        """Durations in ns of every span called name, in start order."""
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total_ns(self, names):
        names = set(names)
        return sum(s[END] - s[START] for s in self.spans if s[NAME] in names)


def with_self_times(spans):
    """Span records extended with self time: duration minus the part covered
    by child spans (children never overlap: one thread, nested spans)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    return [s + [s[END] - s[START] - child_ns[s[ID]]] for s in spans]
