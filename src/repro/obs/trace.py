"""Span-based tracing on the simulation clock.

The tracer answers the question the flat :class:`~repro.metrics.collector.OpReport`
cannot: *why* was this one operation slow?  Every scheme operation opens a
**root span**; inside it the engine records **child spans** for each provider
request, retry sleep, breaker fast-fail, hedge, codec encode/decode, and
write-log fallback, each carrying attributes (provider name, attempt number,
byte counts, outcome).  Timestamps are simulation-clock seconds, so a trace
of a deterministic run is itself deterministic.

Two tracer implementations share one duck-typed interface:

:data:`NOOP_TRACER`
    The default everywhere.  ``enabled`` is ``False``; ``span()`` returns a
    single shared null context manager and nothing is ever allocated — the
    engine additionally guards its span bookkeeping behind
    ``if tracer.enabled``, so tracing-off runs execute the exact same
    arithmetic as before this module existed (verified by a test that makes
    :class:`SpanRecord` construction raise).

:class:`RecordingTracer`
    Records spans, point events, and mirrored metric updates (see
    :class:`~repro.metrics.registry.MetricsRegistry`) into an in-memory list
    of plain dicts, exportable as JSON-lines (:meth:`RecordingTracer.to_jsonl`)
    and renderable as a flame summary (:func:`flame_summary`).

JSON-lines schema (one JSON object per line, in record order)::

    {"t": "meta",   "attrs": {...}}                       # run identity
    {"t": "span",   "id": 3, "parent": 1, "name": "...",
                    "start": 12.5, "end": 13.1, "attrs": {...}}
    {"t": "event",  "name": "...", "time": 12.5, "span": 1, "attrs": {...}}
    {"t": "metric", "kind": "counter", "name": "retries",
                    "labels": [["provider", "s3"]], "value": 1}

Span records are emitted when the span *closes*, so children precede their
parents in the file; ``id``/``parent`` reconstruct the tree.  Floats survive
the round trip exactly (``json`` uses ``repr``, Python's shortest-round-trip
float format), which is what lets a replayed report be byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "SpanRecord",
    "NoopTracer",
    "NOOP_TRACER",
    "RecordingTracer",
    "format_jsonl",
    "write_jsonl",
    "read_jsonl",
    "parse_jsonl",
    "flame_summary",
    "span_tree",
]


@dataclass(slots=True)
class SpanRecord:
    """One timed region of a run, on the simulation clock.

    ``span_id`` is unique within a tracer (1-based, allocation order);
    ``parent_id`` is ``None`` for root (operation-level) spans.  ``attrs``
    are JSON-safe key/value pairs — provider names, attempt numbers, byte
    counts, outcomes.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (usable while it is open)."""
        self.attrs.update(attrs)

    def to_record(self) -> dict[str, Any]:
        return {
            "t": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared, stateless stand-in for a span when tracing is off.

    Reentrant and reusable: it holds no state, so one instance serves every
    ``with tracer.span(...)`` site in the program.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NoopTracer:
    """The zero-cost default tracer.

    Every method is a constant-time no-op and none allocates a
    :class:`SpanRecord`.  Call sites that would build span bookkeeping
    (lists of pending spans, attr dicts) must guard on :attr:`enabled` so
    the disabled path stays allocation-free.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def metric(self, kind: str, name: str, labels, value) -> None:
        pass

    def meta(self, **attrs: Any) -> None:
        pass


#: Process-wide shared no-op tracer; the default for every scheme.
NOOP_TRACER = NoopTracer()


class _OpenSpan:
    """Context manager returned by :meth:`RecordingTracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "RecordingTracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        self._tracer._stack.append(self.record.span_id)
        return self.record

    def __exit__(self, *exc: object) -> bool:
        self._tracer._stack.pop()
        self.record.end = self._tracer.clock.now
        self._tracer.records.append(self.record.to_record())
        return False


class RecordingTracer:
    """Tracer that records spans/events/metrics against a sim clock.

    Parameters
    ----------
    clock:
        Anything with a ``now`` attribute in simulated seconds
        (:class:`repro.sim.clock.SimClock` in practice).

    The tracer never *advances* the clock or draws randomness — it only
    reads ``clock.now`` — so attaching it cannot perturb a run.
    """

    enabled = True

    def __init__(self, clock) -> None:
        self.clock = clock
        #: All records in emission order (meta/span/event/metric dicts).
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1

    # -------------------------------------------------------------- recording
    def _alloc(self, name: str, start: float, attrs: dict[str, Any]) -> SpanRecord:
        rec = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start=start,
            attrs=attrs,
        )
        self._next_id += 1
        return rec

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a span at ``clock.now``; closes (and records) on ``__exit__``.

        The ``with`` target is the underlying :class:`SpanRecord`, so call
        sites can attach late attributes: ``with t.span("op.put") as sp:
        ... sp.set(outcome="ok")``.
        """
        return _OpenSpan(self, self._alloc(name, self.clock.now, attrs))

    def add(self, name: str, start: float, end: float, **attrs: Any) -> SpanRecord:
        """Record a span with explicit timestamps.

        The scheme engine simulates whole phases of concurrent transfers
        and only knows each request's finish time afterwards; this lets it
        backfill per-request spans once the phase resolves.  The parent is
        whatever span is currently open.
        """
        rec = self._alloc(name, start, attrs)
        rec.end = end
        self.records.append(rec.to_record())
        return rec

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous point event at ``clock.now``.

        The record carries the id of the innermost *open* span (``None`` at
        top level): two back-to-back operations share a boundary timestamp,
        so time alone cannot say which op an event at that instant belongs
        to — the enclosing span can.
        """
        self.records.append(
            {
                "t": "event",
                "name": name,
                "time": self.clock.now,
                "span": self._stack[-1] if self._stack else None,
                "attrs": attrs,
            }
        )

    def metric(self, kind: str, name: str, labels, value) -> None:
        """Mirror one registry mutation (called by :class:`MetricsRegistry`).

        ``labels`` arrives as the registry's canonical sorted tuple of
        ``(key, value)`` pairs; it is stored as a list-of-pairs so JSON
        round-trips it losslessly.
        """
        self.records.append(
            {
                "t": "metric",
                "kind": kind,
                "name": name,
                "labels": [list(kv) for kv in labels],
                "value": value,
            }
        )

    def meta(self, **attrs: Any) -> None:
        """Record run identity (scheme name, seed, config) for replay."""
        self.records.append({"t": "meta", "attrs": attrs})

    # ---------------------------------------------------------------- queries
    def spans(self) -> list[SpanRecord]:
        """All closed spans, as :class:`SpanRecord` objects, in close order."""
        return [
            SpanRecord(
                span_id=r["id"],
                parent_id=r["parent"],
                name=r["name"],
                start=r["start"],
                end=r["end"],
                attrs=r["attrs"],
            )
            for r in self.records
            if r["t"] == "span"
        ]

    # ----------------------------------------------------------------- export
    def to_jsonl(self) -> str:
        """The whole trace as JSON-lines (:func:`format_jsonl`)."""
        return format_jsonl(self.records)

    def write_jsonl(self, fp_or_path) -> None:
        """Write the trace to a path or open text file (:func:`write_jsonl`)."""
        write_jsonl(self.records, fp_or_path)


# ------------------------------------------------------------------ JSON-lines
# The one record codec of ``repro.obs``: traces, metric time series and
# attribution records all go through these four functions.
def format_jsonl(records: Iterable[dict[str, Any]]) -> str:
    """Records as canonical JSON-lines: one object per line, compact
    separators, sorted keys, no final newline.  Floats render with ``repr``
    (shortest round trip), so parse → re-format is byte-identical."""
    return "\n".join(json.dumps(r, separators=(",", ":"), sort_keys=True) for r in records)


def write_jsonl(records: Iterable[dict[str, Any]], fp_or_path) -> None:
    """Write :func:`format_jsonl` plus a final newline to a path or an open
    text file."""
    text = format_jsonl(records) + "\n"
    if hasattr(fp_or_path, "write"):
        fp_or_path.write(text)
    else:
        with open(fp_or_path, "w", encoding="utf-8") as fp:
            fp.write(text)


def parse_jsonl(lines: Iterable[str]) -> list[dict[str, Any]]:
    """Parse JSON-lines text back into record dicts (blank lines skipped).

    Inverse of :func:`format_jsonl` up to the canonical dict representation
    (trace ``labels`` stay lists-of-pairs, as written).
    """
    return [json.loads(line) for line in lines if line.strip()]


def read_jsonl(path) -> list[dict[str, Any]]:
    """Read a file written by :func:`write_jsonl`."""
    with open(path, "r", encoding="utf-8") as fp:
        return parse_jsonl(fp)


def _iter_span_records(records: Iterable[dict[str, Any]]) -> Iterator[dict[str, Any]]:
    for r in records:
        if r.get("t") == "span":
            yield r


def span_tree(
    records: Iterable[dict[str, Any]],
) -> tuple[list[dict[str, Any]], dict[int, list[dict[str, Any]]]]:
    """Rebuild the span forest from a record stream.

    Returns ``(roots, children)``: the root spans (``parent is None``) in
    emission order, and a map from every span id to its direct children.
    Spans whose parent never closed (a truncated trace) are treated as
    roots.  Consumers that need the *transitive* descendants — the
    attribution analyzer, for one — walk ``children`` from each root.
    """
    spans = list(_iter_span_records(records))
    ids = {r["id"] for r in spans}
    roots: list[dict[str, Any]] = []
    children: dict[int, list[dict[str, Any]]] = {r["id"]: [] for r in spans}
    for r in spans:
        parent = r["parent"]
        if parent is None or parent not in ids:
            roots.append(r)
        else:
            children[parent].append(r)
    return roots, children


def flame_summary(records: Iterable[dict[str, Any]], max_depth: int = 4) -> str:
    """Aggregate spans by call path and render an indented flame summary.

    Spans are grouped by their *name path* (root name / child name / ...);
    for each path the summary shows the call count, total simulated time,
    and mean duration, sorted by total time within each parent.  This is a
    text flame graph: width (total seconds) is printed instead of drawn.

    ``records`` may be live (``tracer.records``) or parsed from JSON-lines.
    """
    spans = list(_iter_span_records(records))
    for r in spans:
        if r["end"] < r["start"]:
            raise ValueError(
                f"span {r['id']} ({r['name']!r}) ends before it starts: "
                f"start={r['start']}, end={r['end']} — clock misuse or a "
                "corrupted trace"
            )
    by_id = {r["id"]: r for r in spans}

    def path_of(r: dict[str, Any]) -> tuple[str, ...]:
        parts = [r["name"]]
        parent = r["parent"]
        while parent is not None:
            pr = by_id.get(parent)
            if pr is None:  # pragma: no cover - truncated trace
                break
            parts.append(pr["name"])
            parent = pr["parent"]
        return tuple(reversed(parts))

    agg: dict[tuple[str, ...], list[float]] = {}
    for r in spans:
        p = path_of(r)
        if len(p) > max_depth:
            continue
        cell = agg.setdefault(p, [0, 0.0])
        cell[0] += 1
        cell[1] += r["end"] - r["start"]

    if not agg:
        return "(no spans recorded)"

    # Sort siblings by total time, keeping children under their parent.
    def sort_key(path: tuple[str, ...]) -> tuple:
        key: list = []
        for depth in range(1, len(path) + 1):
            prefix = path[:depth]
            total = agg.get(prefix, [0, 0.0])[1]
            key.append((-total, prefix[-1]))
        return tuple(key)

    lines = [f"{'span':<48} {'count':>7} {'total_s':>10} {'mean_s':>10}"]
    for path in sorted(agg, key=sort_key):
        count, total = agg[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<48} {count:>7d} {total:>10.3f} {total / count:>10.4f}")
    return "\n".join(lines)
