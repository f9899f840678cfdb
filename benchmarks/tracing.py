"""In-memory span tracer that wraps module attributes from outside ouexit.

Each wrapped call records one span: its name, start and end (ns), and the
index of the enclosing span.  Spans live in flat typed arrays, so the
millions of leaf calls of a long run stay small, and are written out once,
when the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

import time
from array import array

import numpy as np


class Tracer:
    """Records spans from the wrappers it installs; ``restore`` undoes them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.name_id = array("i")
        self.parent = array("i")
        self.counters = {}
        self._stack = [-1]
        self._patched = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one.  ``on_result(tracer, span_name, args,
        result)`` runs after each successful call; a call that raises counts
        under ``<span_name>.failed``.
        """
        fn = getattr(module, attr)
        name_of = name if callable(name) else (lambda args: name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = name_of(args)
            idx = len(self.start)
            self.start.append(0)
            self.end.append(0)
            self.name_id.append(self._id(span))
            self.parent.append(stack[-1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(span + ".failed")
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                on_result(self, span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def summary(self):
        """Per span name: calls, total ns and self ns."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, path):
        """Write every span to ``path`` (numpy .npz: names, start, end, name_id, parent)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
