"""In-memory spans around the benchmark's calls into twophase.

A span records its name, start, end, parent span and the operation it
belongs to. Spans stay in memory while the workload runs and are written
out once it ends. Self time is a span's duration minus the part of it that
its child spans cover.
"""

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def untraced(name):
    """Stand-in for Tracer.span when tracing is off."""
    return _NULL


class Tracer:
    def __init__(self):
        self.op = "setup"
        self.starts = []
        self.ends = []
        self.names = []
        self.parents = []
        self.ops = []
        self._open = []

    @contextmanager
    def span(self, name):
        sid = len(self.starts)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(self.op)
        self.ends.append(None)
        self._open.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        """fn with a span around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self):
        """Duration of each span minus the union of its children's
        intervals, clipped to the span."""
        children = [[] for _ in self.starts]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid, start in enumerate(self.starts):
            end = self.ends[sid]
            covered, reach = 0.0, start
            for child in sorted(children[sid], key=self.starts.__getitem__):
                lo = max(self.starts[child], reach)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def problems(self):
        """Violated span invariants: unclosed spans, negative self times and
        children that run outside their parent."""
        found = []
        for sid, end in enumerate(self.ends):
            if end is None:
                found.append(f"span {sid} ({self.names[sid]}) never closed")
        if found:
            return found
        for sid, self_time in enumerate(self.self_times()):
            if self_time < 0.0:
                found.append(f"span {sid} ({self.names[sid]}) has negative "
                             f"self time {self_time:.3g}")
            parent = self.parents[sid]
            if parent >= 0 and not (
                    self.starts[parent] <= self.starts[sid]
                    and self.ends[sid] <= self.ends[parent]):
                found.append(f"span {sid} ({self.names[sid]}) runs outside "
                             f"its parent {parent}")
        return found

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": self.parents[sid],
                    "op": self.ops[sid], "start": self.starts[sid],
                    "end": self.ends[sid]}) + "\n")
