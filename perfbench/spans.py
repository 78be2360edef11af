"""Host-time spans recorded from outside, around the program's entry points.

:class:`SpanRecorder` replaces each entry point named in :data:`ENTRIES` —
on the class that defines it, or for a module function in every module
namespace that imported it by name — with a wrapper that records one span
per call: entry, start, end, span id, parent id, thread and an *amount*
(bytes, transfers, hit flag) taken at the same boundary.  Spans stay in
memory; :func:`analyze` turns one trial's spans into self times, and
:func:`write_jsonl` dumps them when the benchmark ends.

Self time is a span's duration minus the part of it its child spans cover.
Children run on the caller's thread one after another, so that part is
their summed duration — except digests, which the scheme fans out to its
thread pool while the caller blocks: those are subtracted as the *union* of
their intervals, and their own time is summed across threads (CPU seconds,
which may exceed the time the caller waited).

Entry points the program calls tens of times per op (the metric
instruments) are only counted; a span each would cost more than the call.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Entry:
    """Entry points that share a metric group, and how to read their amount."""

    group: str  # metric prefix, e.g. "erasure.encode"
    owner: str  # "package.module:Class" or "package.module" for functions
    names: tuple[str, ...]
    amount: Callable | None = None  # (args, result) -> number
    subclasses: bool = False  # also patch overrides in loaded subclasses
    op: bool = False  # request-level span: descendants carry its id as op id


def _len_result(args, result):
    return len(result)


ENTRIES: tuple[Entry, ...] = (
    Entry("workloads.synth", "repro.workloads.trace:TraceReplayer",
          ("payload", "patch_payload"), _len_result),
    Entry("workloads.synth", "repro.service.traffic:TrafficGenerator", ("payload",), _len_result),
    Entry("workloads.replay", "repro.workloads.trace:TraceReplayer", ("run",)),
    Entry("workloads.tracegen", "repro.workloads.ia_trace", ("synthesize_ia_trace",)),
    Entry("workloads.tracegen", "repro.workloads.postmark", ("generate_postmark",)),
    Entry("workloads.tracegen", "repro.service.traffic:TrafficGenerator", ("__init__", "start")),
    Entry("erasure.encode", "repro.erasure.codec:ErasureCodec", ("encode", "encode_views"),
          lambda args, result: len(args[1]), subclasses=True),
    Entry("erasure.encode", "repro.erasure.codec:ErasureCodec", ("encode_views_batch",),
          lambda args, result: sum(len(p) for p in args[1]), subclasses=True),
    Entry("erasure.decode", "repro.erasure.codec:ErasureCodec", ("decode",),
          lambda args, result: len(result), subclasses=True),
    Entry("erasure.decode", "repro.erasure.codec:ErasureCodec", ("reconstruct_fragment",),
          lambda args, result: len(result) * args[0].k, subclasses=True),
    Entry("erasure.striping", "repro.erasure.striping",
          ("split_views", "split_shards", "join_fragments", "join_shards")),
    Entry("schemes.op", "repro.schemes.base:Scheme",
          ("put", "get", "update", "remove", "stat", "listdir", "heal_returned"),
          subclasses=True, op=True),
    Entry("schemes.digest", "repro.schemes.base:Scheme", ("_digest",),
          lambda args, result: len(args[0])),
    Entry("core.dispatch", "repro.core.dispatcher:RequestDispatcher",
          ("decide", "replica_targets", "erasure_targets", "erasure_codec", "should_promote",
           "promotion_target", "refresh")),
    Entry("core.dispatch", "repro.core.monitor:WorkloadMonitor", ("observe",)),
    Entry("fs.meta", "repro.fs.metadata", ("encode_group",), _len_result),
    Entry("fs.meta", "repro.fs.metadata", ("decode_group",)),
    Entry("fs.meta", "repro.fs.metadata:MetadataStore", ("encode_dir", "apply_group")),
    Entry("fs.meta", "repro.fs.metadata:MetadataStore", ("is_cached",),
          lambda args, result: float(result)),
    Entry("cloud.provider", "repro.cloud.provider:SimulatedProvider", ("put",),
          lambda args, result: len(args[3])),
    Entry("cloud.provider", "repro.cloud.provider:SimulatedProvider", ("get",), _len_result),
    Entry("cloud.provider", "repro.cloud.provider:SimulatedProvider",
          ("head", "list", "remove", "create")),
    Entry("sim.bandwidth", "repro.sim.bandwidth", ("simulate_transfers",),
          lambda args, result: len(args[0])),
    Entry("sim.events", "repro.sim.events:EventLoop", ("step",), op=True),
    Entry("metrics.collector", "repro.metrics.collector:LatencyCollector", ("add",)),
    Entry("service.admission", "repro.service.admission:AdmissionController",
          ("submit", "next_request", "shed_request", "next_eligible_time")),
    Entry("service.frontend", "repro.service.frontend:ServicePlane", ("route",)),
    # ``_pump`` is the one seam an admitted request executes under.
    Entry("service.frontend", "repro.service.frontend:FrontendHandler", ("handle", "_pump")),
)

#: the metric instruments' mutators: counted, never spanned
COUNTED: tuple[tuple[str, str], ...] = (
    ("repro.metrics.registry:Counter", "inc"),
    ("repro.metrics.registry:Gauge", "set"),
    ("repro.metrics.registry:Histogram", "observe"),
)

#: the group whose spans may run on pool threads
THREADED_GROUP = "schemes.digest"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _with_subclasses(cls) -> list[type]:
    found, queue = [], [cls]
    while queue:
        klass = queue.pop()
        found.append(klass)
        queue.extend(klass.__subclasses__())
    return found


class SpanRecorder:
    """Installs the wrappers, holds the spans of the trial in progress."""

    def __init__(self) -> None:
        #: (span id, parent id, span-name index, start, end, amount, thread)
        self.records: list[tuple] = []
        #: span-name index -> (span name, group, is op)
        self.names: list[tuple[str, str, bool]] = []
        self.counted = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = [0]
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrappers
    def _span(self, fn, index: int, amount):
        ids, stack, records, clock = self._ids, self._stack, self.records, time.perf_counter

        def span(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                records.append((sid, parent, index, t0, t1, 0.0, 0))
                raise
            t1 = clock()
            stack.pop()
            records.append(
                (sid, parent, index, t0, t1, amount(args, result) if amount else 0.0, 0)
            )
            return result

        span.__wrapped__ = fn
        return span

    def _threaded_span(self, fn, index: int, amount):
        """A leaf span that may run on a pool thread: its parent is whatever
        the (blocked) main thread has open, and it opens nothing itself."""
        ids, stack, records, clock = self._ids, self._stack, self.records, time.perf_counter
        main, ident = self._main, threading.get_ident

        def span(*args):
            sid = next(ids)
            parent = stack[-1]
            t0 = clock()
            result = fn(*args)
            t1 = clock()
            thread = ident()
            records.append(
                (sid, parent, index, t0, t1, amount(args, result), 0 if thread == main else thread)
            )
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.counted += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------ installation
    def _replace(self, holder, name: str, new) -> None:
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, new)

    def _patch_class(self, cls, name: str, make) -> None:
        raw = vars(cls)[name]
        if getattr(raw, "__isabstractmethod__", False):
            return
        if isinstance(raw, staticmethod):
            self._replace(cls, name, staticmethod(make(raw.__func__, f"{cls.__name__}.{name}")))
        else:
            self._replace(cls, name, make(raw, f"{cls.__name__}.{name}"))

    def _patch_function(self, module, name: str, make) -> None:
        original = vars(module)[name]
        wrapper = make(original, f"{module.__name__.rpartition('.')[2]}.{name}")
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._replace(other, attr, wrapper)

    def install(self) -> None:
        self.names.clear()
        for entry in ENTRIES:
            owner = _resolve(entry.owner)
            threaded = entry.group == THREADED_GROUP

            def make(fn, span_name, entry=entry, threaded=threaded):
                self.names.append((span_name, entry.group, entry.op))
                index = len(self.names) - 1
                wrap = self._threaded_span if threaded else self._span
                return wrap(fn, index, entry.amount)

            if not isinstance(owner, type):
                for name in entry.names:
                    self._patch_function(owner, name, make)
                continue
            for cls in _with_subclasses(owner) if entry.subclasses else [owner]:
                for name in entry.names:
                    if name in vars(cls):
                        self._patch_class(cls, name, make)
        for owner, name in COUNTED:
            self._patch_class(_resolve(owner), name, lambda fn, _name: self._count(fn))

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> tuple[list[tuple], int]:
        """Hand over the spans and instrument-call count gathered so far."""
        records, counted = self.records[:], self.counted
        self.records.clear()
        self.counted = 0
        return records, counted


# ------------------------------------------------------------------- analysis
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def analyze(records: list[tuple], names, windows: list[tuple[float, float]]) -> dict:
    """Self time, calls and amounts per span name and per group.

    A group counts a call (and its amount) once: spans nested under a span
    of the same group — a subclass calling ``super().get``, ``encode_views``
    falling back to ``encode`` — add self time only.  Only spans that lie
    inside one of the timed ``windows`` count, so the self times tile the
    trial's host seconds; ``covered_s`` is the part of the windows spent
    inside any entry point at all.
    """
    per_name = {n: {"self_s": 0.0, "calls": 0, "amount": 0.0, "group": g} for n, g, _ in names}
    if not records:
        return {"names": per_name, "groups": {}, "covered_s": 0.0, "spans": 0}
    table = np.array(records, dtype=np.float64)
    sid, parent, index = (table[:, i].astype(np.int64) for i in range(3))
    t0, t1, amount, thread = table[:, 3], table[:, 4], table[:, 5], table[:, 6]
    inside = np.zeros(len(table), dtype=bool)
    for w0, w1 in windows:
        inside |= (t0 >= w0) & (t1 <= w1)
    sid, parent, index, t0, t1, amount, thread = (
        a[inside] for a in (sid, parent, index, t0, t1, amount, thread)
    )
    order = np.argsort(sid)
    sid, parent, index, t0, t1, amount, thread = (
        a[order] for a in (sid, parent, index, t0, t1, amount, thread)
    )
    duration = t1 - t0
    where = np.searchsorted(sid, parent)
    where[where == len(sid)] = 0
    has_parent = sid[where] == parent  # false for top-level spans

    own_thread = has_parent & (thread == 0)
    covered = np.bincount(where[own_thread], weights=duration[own_thread], minlength=len(sid))
    pooled: dict[int, list[tuple[float, float]]] = {}
    for i in np.flatnonzero(has_parent & (thread != 0)):
        pooled.setdefault(int(where[i]), []).append((t0[i], t1[i]))
    for i, intervals in pooled.items():
        covered[i] += _union_length(intervals)
    self_s = duration - covered

    group_ids = {g: i for i, g in enumerate(dict.fromkeys(g for _, g, _ in names))}
    group_of = np.array([group_ids[g] for _, g, _ in names])[index]
    outermost = ~has_parent | (group_of[where] != group_of)

    def by_name(weights=None, mask=None) -> np.ndarray:
        picked = index if mask is None else index[mask]
        if weights is not None and mask is not None:
            weights = weights[mask]
        return np.bincount(picked, weights=weights, minlength=len(names))

    self_by, calls_by, amount_by = by_name(self_s), by_name(), by_name(amount)
    outer_calls_by, outer_amount_by = by_name(mask=outermost), by_name(amount, outermost)
    groups = {g: {"self_s": 0.0, "calls": 0, "amount": 0.0} for g in group_ids}
    for i, (name, group, _op) in enumerate(names):
        per_name[name].update(
            self_s=float(self_by[i]), calls=int(calls_by[i]), amount=float(amount_by[i])
        )
        groups[group]["self_s"] += float(self_by[i])
        groups[group]["calls"] += int(outer_calls_by[i])
        groups[group]["amount"] += float(outer_amount_by[i])
    top = ~has_parent & (thread == 0)
    return {
        "names": per_name,
        "groups": groups,
        "covered_s": float(duration[top].sum()),
        "spans": int(len(sid)),
    }


def write_jsonl(path, records: list[tuple], names) -> int:
    """One JSON object per span; returns how many parent ids do not resolve."""
    records = sorted(records)
    op_of: dict[int, int] = {0: 0}
    dangling = 0
    with open(path, "w") as out:
        for sid, parent, index, t0, t1, amount, thread in records:
            name, group, is_op = names[index]
            if parent not in op_of:
                dangling += 1
            op = op_of.get(parent, 0) or (sid if is_op else 0)
            op_of[sid] = op
            out.write(
                f'{{"name":"{name}","layer":"{group}","start":{t0!r},"end":{t1!r},'
                f'"id":{sid},"parent":{parent},"op":{op},"thread":{thread},"amount":{amount!r}}}\n'
            )
    return dangling
