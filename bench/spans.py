"""Measurement helpers: the reference speed, and spans around the calls
into the program's layers, recorded from outside.

A span is ``[op, id, parent, name, start_ns, end_ns, counts, round]``:
``op`` is shared by the spans of one operation, ``parent`` is the enclosing
span (None for the operation itself), ``counts`` holds the work counts read
at the same boundary and ``round`` is the round the span belongs to.  Spans stay in memory until the run writes them out.  A
function that calls itself through a patched name is one span: only its
outermost call is recorded.
"""

import gc
import signal
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from fractions import Fraction

now = time.perf_counter_ns

# seconds one reference slice takes on an idle core of the machine the
# benchmark was calibrated on (2 vCPUs, Python 3.11.7)
REFERENCE_SLICE_S = 0.00055

_REF_GRAPH = {i: ((i + 1) % 300, (i * 7 + 3) % 300, (i * 13 + 5) % 300) for i in range(300)}


class _RefPoint:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_slice():
    """Fixed work like the program's own (a BFS over a dict graph, exact
    fractions with small denominators, slotted objects, tuple keys, a keyed
    sort), timed in seconds with the garbage collector paused."""
    gc.disable()
    try:
        t0 = now()
        dist = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in _REF_GRAPH[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        acc = Fraction(0)
        for i in range(1, 80):
            acc = (acc + Fraction(i % 5, 8)) % 3
        objs = [(_RefPoint(i, acc), (i & 31, f"e{i & 15}")) for i in range(400)]
        {o[1] for o in objs}
        sorted(objs, key=lambda o: o[1])
        t1 = now()
    finally:
        gc.enable()
    return (t1 - t0) / 1e9


class Speed:
    """Samples the machine's speed with the reference slice: from a timer
    signal every 50 ms while running, so long operations are sampled
    throughout.  The handler's own time is kept in ``spent_ns`` so that
    callers can subtract it from what they timed."""

    interval = 0.05

    def __init__(self):
        self.samples = [reference_slice()]
        self.spent_ns = 0
        self._busy = False

    def _tick(self, signum, frame):
        # a tick that arrives while the handler runs (the process was
        # descheduled for a whole interval) is dropped, not nested
        if self._busy:
            return
        self._busy = True
        t0 = now()
        self.samples.append(reference_slice())
        self.spent_ns += now() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Nanoseconds that exclude the handler's own time."""
        return now() - self.spent_ns

    def timer(self):
        return Timed(self)


class Timed:
    """Wall seconds between ``__init__`` and ``done``, less the sampling
    handler's time, and the mean reference slice over that interval (the
    latest one when no tick fell inside)."""

    __slots__ = ("speed", "k", "t0", "seconds", "ref")

    def __init__(self, speed):
        self.speed, self.k = speed, len(speed.samples)
        self.t0 = speed.clock()

    def done(self):
        sp = self.speed
        self.seconds = (sp.clock() - self.t0) / 1e9
        inside = sp.samples[self.k:]
        self.ref = sum(inside) / len(inside) if inside else sp.samples[-1]
        return self


class Tracer:
    """Spans timed with ``clock`` (nanoseconds), kept in ``spans``."""

    def __init__(self, clock=now):
        self.clock = clock
        self.spans = []
        self.round = 0
        self._stack = []
        self._active = defaultdict(int)
        self._next = 0
        self._patches = []
        self.enabled = False

    def _open(self, name):
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        op = parent[0] if parent else self._next
        span = [op, self._next, parent[1] if parent else None, name, self.clock(), 0, None,
                self.round]
        self._stack.append(span)
        self._active[name] += 1
        return span

    def _close(self, span):
        span[5] = self.clock()
        self._stack.pop()
        self._active[span[3]] -= 1
        self.spans.append(span)

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if not self.enabled or self._active[name] or not self._stack:
                return fn(*args, **kwargs)
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                s[6] = count(result)
            return result
        return traced

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def round_totals(spans, rounds):
    """Per traced round: inclusive seconds and summed counts by span name,
    and self seconds (duration minus the direct children) by span name
    under ``<name>#self`` and by layer (the name's first part) under
    ``<layer>#layer``."""
    totals = {r: defaultdict(float) for r in rounds}
    counts = {r: defaultdict(int) for r in rounds}
    child_ns = defaultdict(int)
    for op, sid, parent, name, t0, t1, cnt, rnd in spans:
        if rnd not in totals:
            continue
        totals[rnd][name] += (t1 - t0) / 1e9
        if parent is not None:
            child_ns[parent] += t1 - t0
        for k, v in (cnt or {}).items():
            counts[rnd][k] += v
    for op, sid, parent, name, t0, t1, cnt, rnd in spans:
        if rnd in totals:
            own = (t1 - t0 - child_ns[sid]) / 1e9
            totals[rnd][name + "#self"] += own
            totals[rnd][name.split(".")[0] + "#layer"] += own
    return totals, counts

