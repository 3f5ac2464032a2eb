"""Span-event sinks: in-memory, JSONL-on-disk, and streaming summary.

A sink is anything with ``emit(event)``; optionally it may also accept
a metrics snapshot (``emit_metrics(snapshot)``) and release resources
(``close()``).  The tracer delivers every finished span to each of its
sinks in order, so sinks must stay cheap — the expensive roll-ups live
in :mod:`repro.telemetry.phases` and run after the fact.

The JSONL sink writes through :class:`repro.io.runlog.RunLogger` with
per-record flushing, so a killed run keeps its trace — the same
crash-safety contract as the production run logs the paper's figures
were drawn from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from ..io.runlog import RunLogger, read_runlog_records
from .phases import SpanFold
from .tracer import SpanEvent


@runtime_checkable
class Sink(Protocol):
    """Minimal sink interface."""

    def emit(self, event: SpanEvent) -> None: ...


class InMemorySink:
    """Retains every event in a list (tests, post-hoc aggregation)."""

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []
        self.metrics_snapshots: list[dict[str, Any]] = []

    def emit(self, event: SpanEvent) -> None:
        self.events.append(event)

    def emit_metrics(self, snapshot: dict[str, Any]) -> None:
        self.metrics_snapshots.append(snapshot)

    def clear(self) -> None:
        self.events.clear()
        self.metrics_snapshots.clear()


class JSONLSink:
    """Streams span events to a JSONL run log (``kind="span"`` records).

    Parameters
    ----------
    path:
        Target file; appended to, shareable with :class:`RunLogger`
        sample records.
    flush:
        Per-record flushing (default; crash-safe).
    header:
        Metadata for the log's header record.
    """

    def __init__(self, path: str | Path, flush: bool = True, **header: Any) -> None:
        self._log = RunLogger(path, flush=flush, **header).open()
        self.path = Path(path)

    def emit(self, event: SpanEvent) -> None:
        self._log.record("span", **event.as_record())

    def emit_metrics(self, snapshot: dict[str, Any]) -> None:
        self._log.record("metrics", snapshot=snapshot)

    def close(self) -> None:
        self._log.close()


class SummarySink:
    """O(1)-memory aggregation: per-span-name counts and totals.

    For long runs where retaining every event is too heavy; feeds the
    quick ``{name: {count, total_us}}`` view without a second pass.
    """

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = {}

    def emit(self, event: SpanEvent) -> None:
        entry = self.totals.get(event.name)
        if entry is None:
            entry = self.totals[event.name] = {"count": 0, "total_us": 0.0}
        entry["count"] += 1
        entry["total_us"] += event.dur_us


class StreamingPhaseSink(SpanFold):
    """O(1)-memory phase attribution for arbitrarily long runs.

    :class:`repro.telemetry.PhaseAggregator` retains every event and
    aggregates post hoc — right for bounded benchmark trials, wrong for
    a week-long service run.  This sink is a
    :class:`~repro.telemetry.phases.SpanFold` that cuts at every span:
    each subtree is then just that span's self time, added to the
    running phase totals as it closes.  Spans the fold cannot tag (no
    phase, no name-map entry) land in ``T_other``; the instrumented
    integrators tag or name every hot span.

    ``snapshot()`` is cheap and safe to call at any record cadence —
    the service supervisor turns it into periodic ``phases`` records on
    the snapshot bus.
    """

    def __init__(self, span_phases: dict[str, str] | None = None) -> None:
        super().__init__(span_phases)
        self.totals_us: dict[str, float] = {}
        self.n_events = 0

    def _cut(self, event: SpanEvent, subtree: dict[str, list[float]],
             count: int) -> bool:
        for phase, (wall_us, _) in subtree.items():
            self.totals_us[phase] = self.totals_us.get(phase, 0.0) + wall_us
        self.n_events += 1
        return True

    def snapshot(self) -> dict[str, Any]:
        """Cumulative phase totals so far (microseconds, by phase)."""
        return {
            "n_events": self.n_events,
            "wall_us": dict(self.totals_us),
        }


def read_spans(path: str | Path) -> tuple[dict, list[SpanEvent], dict[str, Any]]:
    """Round-trip a JSONL trace back into memory.

    Returns ``(header, events, last_metrics_snapshot)``; the snapshot
    is empty if the tracer was never flushed.
    """
    header, _, by_kind = read_runlog_records(path)
    events = [SpanEvent.from_record(rec) for rec in by_kind.get("span", [])]
    metrics_records = by_kind.get("metrics", [])
    snapshot = metrics_records[-1]["snapshot"] if metrics_records else {}
    return header, events, snapshot
