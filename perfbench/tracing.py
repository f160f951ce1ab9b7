"""Spans around calls into the library, recorded from outside it.

instrument(tracer) swaps the library's public module-level functions and
the PMB force method for wrappers that record one span per call (name,
start, end, parent span, run id) plus counts taken at the same boundary,
and restores the originals on exit. Spans stay in memory until write_spans.
Counting work runs outside the span it belongs to, so it lands in the
parent's self time and in the measured tracing overhead, not in the layer.
"""

from collections import defaultdict
from contextlib import contextmanager
import gzip
import hashlib
import json
import os
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "counts")

    def __init__(self, name, start, end, parent, run_id, counts=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.run_id, self.counts = parent, run_id, counts


class Tracer:
    """In-memory span recorder; the parent of a span is the innermost open one."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, name, fn, before=None, after=None):
        """fn recording a span per call; before(args, kwargs) -> memo and
        after(args, kwargs, out, memo) -> counts run just outside the span."""

        def traced(*args, **kwargs):
            memo = before(args, kwargs) if before is not None else None
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                self.spans[index].counts = after(args, kwargs, out, memo)
            return out

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(spans[index])
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result


def write_spans(path, spans):
    """Spans as gzip-compressed JSON lines; parent is an index into the file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "run": span.run_id, "counts": span.counts,
            }) + "\n")


def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bonds_counts(args, kwargs, out, memo):
    return {"bytes": _array_bytes(out)}


def _config_digest(args, kwargs):
    positions = np.ascontiguousarray(_arg(args, kwargs, 0, "positions"))
    return hashlib.blake2b(positions.tobytes(), digest_size=16).hexdigest()


def _search_counts(args, kwargs, out, digest):
    return {"config": digest}


def _force_counts(args, kwargs, out, memo):
    arrays = [_arg(args, kwargs, 1, "xi"), _arg(args, kwargs, 2, "eta"), out]
    mu = args[3] if len(args) > 3 else kwargs.get("mu")
    if mu is not None:
        arrays.append(mu)
    return {"bytes": sum(np.asarray(a).nbytes for a in arrays)}


def _mu_before(args, kwargs):
    return _arg(args, kwargs, 3, "mu").copy()


def _breaker_counts(args, kwargs, out, before):
    mu = _arg(args, kwargs, 3, "mu")
    return {
        "examined": int(mu.size),
        "changed": int(np.count_nonzero(mu != before)),
        "broken": int(np.count_nonzero((before > 0.0) & (mu == 0.0))),
    }


def _file_counts(args, kwargs, out, memo):
    return {"bytes": os.path.getsize(out)}


@contextmanager
def instrument(tracer):
    """Route the library's layer boundaries through tracer for the duration.

    Functions are patched where their callers look them up: build_bonds in
    scenarios too, directed_pairs in fluidpd too, update_breaker under the
    name dynamics imported it as.
    """
    from peribond import discretization, dynamics, fluidpd, kernels, outputs, scenarios

    targets = [
        (discretization, "build_bonds", "discretization.build_bonds", None, _bonds_counts),
        (scenarios, "build_bonds", "discretization.build_bonds", None, _bonds_counts),
        (discretization, "directed_pairs", "discretization.directed_pairs",
         _config_digest, _search_counts),
        (fluidpd, "directed_pairs", "discretization.directed_pairs",
         _config_digest, _search_counts),
        (kernels.PMB, "force", "kernels.force", None, _force_counts),
        (dynamics, "update_breaker", "kernels.update_breaker", _mu_before, _breaker_counts),
        (dynamics, "run", "dynamics.run", None, None),
        (dynamics, "step_verlet", "dynamics.step_verlet", None, None),
        (dynamics, "internal_force", "dynamics.internal_force", None, None),
        (dynamics, "bond_stretches", "dynamics.bond_stretches", None, None),
        (dynamics, "potential_energy", "dynamics.potential_energy", None, None),
        (fluidpd, "run_fluid", "fluidpd.run_fluid", None, None),
        (fluidpd, "fluid_force", "fluidpd.fluid_force", None, None),
        (outputs, "write_snapshot", "outputs.write_snapshot", None, _file_counts),
        (outputs, "write_series", "outputs.write_series", None, _file_counts),
    ]
    saved = []
    try:
        for owner, attr, name, before, after in targets:
            saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
