"""In-memory span recorder that wraps the package's functions from outside.

A span is (name, start, end, parent, aux, aux2): the wall-clock interval of
one call into a wrapped function, the span that was open when it started,
and two numbers the wrapper records about the call (points evaluated,
bytes generated, sample-steps, ...).  Spans live in flat arrays while the
run goes on and are written out once, at the end.

Every workload runs its estimator passes with one worker, so all calls
happen on one thread and the spans nest as a single stack: a span's
children lie inside it and do not overlap one another.
"""

from __future__ import annotations

import functools
import math
import time
from array import array


class Tracer:
    """Span store plus the patching that feeds it."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.aux = array("d")
        self.aux2 = array("d")
        self._stack = []
        self.patches = []               # (owner, attribute, original)

    def __len__(self):
        return len(self.names)

    # ------------------------------------------------------------- wrapping

    def wrap(self, name, fn, *, aux=None, on_result=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``aux(args, kwargs)`` gives the span's (aux, aux2) before the call;
        ``on_result(tracer, span, result, args, kwargs)`` may fill them in
        after it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a, a2 = aux(args, kwargs) if aux is not None else (0.0, 0.0)
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.aux.append(a)
            tracer.aux2.append(a2)
            tracer.end.append(math.nan)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, i, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, **options):
        """Replace ``owner.attr`` by a traced wrapper; False if it is absent.

        Handles plain functions (module attributes and methods) and
        classmethods.  :meth:`unpatch` restores every original.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, raw, **options)
        setattr(owner, attr, wrapped)
        self.patches.append((owner, attr, raw))
        return True

    def unpatch(self, keep=0):
        """Restore the originals of all but the first ``keep`` patches."""
        while len(self.patches) > keep:
            owner, attr, raw = self.patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- analysis

    def columns(self, lo=0, hi=None):
        """Spans ``lo:hi`` as plain lists, parents re-based to the slice."""
        hi = len(self.names) if hi is None else hi
        parent = [p - lo if p >= lo else -1 for p in self.parent[lo:hi]]
        return dict(name=self.names[lo:hi], start=list(self.start[lo:hi]),
                    end=list(self.end[lo:hi]), parent=parent,
                    aux=list(self.aux[lo:hi]), aux2=list(self.aux2[lo:hi]))


def self_times(start, end, parent):
    """Each span's duration minus the summed durations of its children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def block_seconds(names, start, end, begin="sde.block_normals",
                  finish="estimators.from_values"):
    """Wall time of each noise block, from the spans in the order recorded.

    A block runs from the start of its ``begin`` call (drawing the block's
    noise) to the end of the last ``finish`` call (summarising it) before
    the next block begins.
    """
    out, opened, last = [], None, None
    for name, s, e in zip(names, start, end):
        if name == begin:
            if opened is not None and last is not None:
                out.append(last - opened)
            opened, last = s, None
        elif name == finish and opened is not None:
            last = e
    if opened is not None and last is not None:
        out.append(last - opened)
    return out
