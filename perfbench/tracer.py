"""Outside-in span tracer for the benchmark's traced run.

Each public function of interest is replaced, at the name its caller looks
up, by a wrapper that records one span: the layer name, start, end and the
index of the enclosing span in the same thread. Spans stay in memory in
per-thread buffers and are written out once, after the traced pass. Self
time is a span's duration minus the durations of its child spans.
"""

import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class _Buffer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]


class Tracer:
    """Install with ``with tracer.installed(targets):``; read with ``layers()``.

    ``targets`` is a list of ``(layer_name, owner, attribute)``: the wrapper
    replaces ``owner.attribute`` for the duration of the ``with`` block.
    One layer name may cover several owners, such as ``sim.run`` as looked up
    by the benchmark and by the command line. Calls to the layer
    ``qp.solve`` also record the problem's row count and the returned active
    set in ``qp_results``, from which the solver's counts are derived.
    """

    def __init__(self):
        self.names = []
        self.qp_results = []  # (rows, active set) of every qp.solve call
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        layer_id = self.names.index(layer)
        local = self._local
        new_buffer = self._buffer
        qp_results = self.qp_results if layer == "qp.solve" else None

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            i = len(buf.start)
            buf.name.append(layer_id)
            buf.parent.append(buf.stack[-1])
            buf.end.append(0.0)
            buf.stack.append(i)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter()
                buf.stack.pop()
            if qp_results is not None:
                qp_results.append((args[0].A.shape[0], result.active_set))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for layer, owner, attr in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self):
        """All spans as arrays (name, parent, start, end); a parent is an
        index into the same arrays, -1 for a root span."""
        name, parent, start, end = [], [], [], []
        offset = 0
        for buf in self._buffers:
            par = np.asarray(buf.parent, dtype=np.int64)
            name.append(np.asarray(buf.name, dtype=np.int64))
            parent.append(np.where(par >= 0, par + offset, -1))
            start.append(np.asarray(buf.start, dtype=np.float64))
            end.append(np.asarray(buf.end, dtype=np.float64))
            offset += len(buf.start)
        return tuple(np.concatenate(col) if col else np.zeros(0, dtype)
                     for col, dtype in ((name, np.int64), (parent, np.int64),
                                        (start, np.float64), (end, np.float64)))

    def layers(self):
        """Per layer name: {"calls", "total_s", "self_s"}."""
        name, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {layer: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(self_s[i])}
                for i, layer in enumerate(self.names)}

    def write(self, path) -> None:
        name, parent, start, end = self.spans()
        np.savez(path, layer_names=np.array(self.names), name=name,
                 parent=parent, start=start, end=end)
