"""In-memory span tracer that wraps the program's public methods from outside.

Wrapping happens at the class, so every call site is covered without
touching the program.  A plain method becomes one span per call.  A
generator method (a simulation process body, a lazy source) becomes one
span per *resume*: the wrapper drives the original generator and times
each ``send``/``throw``, so time spent suspended in the event queue is
never charged to the layer.

Spans are kept in flat arrays (name, start, end, parent, request id) and
written out only at the end.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """Span store plus named counters for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self._open: List[int] = []
        self._next_request = 0
        self.counts: Dict[str, int] = {}

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def begin(self, nid: int, request: int = -1) -> int:
        idx = len(self.name)
        opened = self._open
        if opened:
            parent = opened[-1]
            if request < 0:
                request = self.request[parent]
        else:
            parent = -1
        self.name.append(nid)
        self.parent.append(parent)
        self.request.append(request)
        self.end.append(0.0)
        opened.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, request: bool = False,
             on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``request`` gives each call a fresh request id (its child spans
        inherit it).  Generator methods also count their calls under
        ``name`` in :attr:`counts`.  ``on_return(result)`` sees the result
        of each plain call.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                tracer.count(name)
                rid = tracer.new_request() if request else -1
                gen = _traced_resumes(tracer, nid, rid, inner)
                gen.__name__ = inner.__name__
                gen.__qualname__ = inner.__qualname__
                return gen
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(nid, tracer.new_request() if request else -1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.finish(idx)
                if on_return is not None:
                    on_return(result)
                return result
        setattr(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` with a version that only counts calls."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- analysis --------------------------------------------------------
    def summary(self, lo: float = float("-inf"), hi: float = float("inf")) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds (spans starting in ``[lo, hi)``)."""
        n = len(self.name)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        start = np.frombuffer(self.start, dtype=np.float64)
        window = (start >= lo) & (start < hi)
        # Inclusive time counts only the outermost span of each name, so a
        # method that nests into itself (a modulator chain) is not doubled.
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        outermost = parent_name != names
        out: Dict[str, Dict[str, float]] = {}
        for nid, label in enumerate(self.names):
            sel = window & (names == nid)
            out[label] = {
                "calls": int(np.count_nonzero(sel & outermost)),
                "spans": int(np.count_nonzero(sel)),
                "incl_s": float(dur[sel & outermost].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def nesting_errors(self) -> int:
        """Spans that do not lie inside their parent span (a broken wrapper)."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        child = parent >= 0
        up = parent[child]
        return int(np.count_nonzero((start[child] < start[up]) | (end[child] > end[up])))

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return dur[names == nid]

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: name, start_us, end_us, parent, request."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_us\tend_us\tparent\trequest\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(
                    f"{names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\t{self.request[i]}\n"
                )


def _traced_resumes(tracer: Tracer, nid: int, rid: int, inner):
    """Drive ``inner``, recording one span per resume.

    The yielded item is handed over through ``box.pop()`` so this frame
    holds no reference to it while suspended: the kernel recycles events
    by reference count, and an extra reference would change that.
    """
    send = inner.send
    throw = inner.throw
    box: list = []
    value = None
    error: Optional[BaseException] = None
    while True:
        idx = tracer.begin(nid, rid)
        try:
            if error is None:
                box.append(send(value))
            else:
                exc, error = error, None
                box.append(throw(exc))
                del exc
        except StopIteration as stop:
            tracer.finish(idx)
            return stop.value
        except BaseException:
            tracer.finish(idx)
            raise
        tracer.finish(idx)
        value = None
        try:
            value = yield box.pop()
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as thrown:
            error = thrown
