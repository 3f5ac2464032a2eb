"""Chrome trace-event export of span trees (the flight recorder's film).

The paper's figs. 14/16/18 are *aggregate* budgets; finding the NIC
bottleneck of section 4.4 also needed the *sequence* — what ran when,
what waited on what, per blockstep.  This module renders a finished
span stream as Trace Event JSON loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_:

* every span becomes a complete ("X") event with microsecond ``ts``
  and ``dur``, categorised by its resolved paper phase, carrying its
  attributes in ``args``;
* both clock domains are exported side by side as separate trace
  processes — pid 1 is the wall clock, pid 2 the virtual (simulated
  machine) clock — so the same blockstep can be read in real time and
  in the time the paper's figures plot;
* sampler ticks (:mod:`repro.telemetry.sampler`) appear as instant
  ("i") events, so profiling samples are visually correlated with the
  spans they were attributed to.

The exporter consumes retained :class:`SpanEvent` lists (an
:class:`InMemorySink`, or :func:`read_spans` of a JSONL trace);
:class:`TimelineSink` streams into the same file shape directly from a
tracer for zero-ceremony capture.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..io.documents import atomic_write
from .phases import PhaseAggregator
from .sampler import Sample
from .tracer import SpanEvent

#: Registry of Chrome-trace process ids — one lane group per
#: subsystem, assigned here so no exporter invents a colliding pid.
#: ``comm`` is a *base*: a run with several simulated networks renders
#: network ``i`` under ``TRACE_PIDS["comm"] + i`` (the range up to
#: ``regimes`` is reserved for it, which bounds a hybrid run at 37
#: fabrics — far beyond the paper's 4 clusters).
TRACE_PIDS: dict[str, int] = {
    "wall": 1,
    "virtual": 2,
    "comm": 3,
    "regimes": 40,
    "efficiency": 50,
    "ranks": 60,
}

if len(set(TRACE_PIDS.values())) != len(TRACE_PIDS):  # pragma: no cover
    raise ValueError(f"TRACE_PIDS assigns one pid twice: {TRACE_PIDS}")

#: Trace process ids for the two clock domains.
WALL_PID = TRACE_PIDS["wall"]
VIRTUAL_PID = TRACE_PIDS["virtual"]

#: displayTimeUnit for the JSON object format.
_DISPLAY_UNIT = "ms"


def process_name_event(pid: int, name: str) -> dict[str, Any]:
    """The metadata event that names trace process ``pid`` (a lane group)."""
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def lane_event(
    name: str, cat: str, ts: float, dur: float, pid: int, tid: int,
    args: dict[str, Any],
) -> dict[str, Any]:
    """One event on an observatory lane: complete ("X"), or a
    thread-scoped instant ("i") when it has no positive duration."""
    if dur > 0.0:
        return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                "pid": pid, "tid": tid, "args": args}
    return {"name": name, "cat": cat, "ph": "i", "ts": ts,
            "pid": pid, "tid": tid, "args": args, "s": "t"}


def timeline_events(
    events: Sequence[SpanEvent],
    clock: str = "wall",
    pid: int | None = None,
    tid: int = 1,
    span_phases: dict[str, str] | None = None,
) -> list[dict[str, Any]]:
    """Complete ("X") trace events for one clock domain, sorted by ts.

    ``clock`` is ``"wall"`` or ``"virtual"``; in the virtual domain,
    spans without virtual timestamps (tracer not wired to a simulated
    network) are skipped.  Zero-duration tracer events become instant
    ("i") events rather than zero-width rectangles.
    """
    if clock not in ("wall", "virtual"):
        raise ValueError(f"unknown clock {clock!r} (want 'wall' or 'virtual')")
    if pid is None:
        pid = WALL_PID if clock == "wall" else VIRTUAL_PID
    agg = PhaseAggregator(span_phases)
    by_id = {e.span_id: e for e in events}
    out: list[dict[str, Any]] = []
    for e in events:
        if clock == "virtual":
            if e.v_start_us is None:
                continue
            ts, dur = e.v_start_us, e.v_dur_us or 0.0
        else:
            ts, dur = e.t_start_us, e.dur_us
        phase = agg._phase_of(e, by_id)
        record: dict[str, Any] = {
            "name": e.name,
            "cat": phase,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
            "args": {"span_id": e.span_id, "depth": e.depth, **e.attrs},
        }
        if dur <= 0.0:
            record.pop("dur")
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    out.sort(key=lambda r: (r["ts"], -r.get("dur", 0.0)))
    return out


def sample_events(
    samples: Iterable[Sample], pid: int = WALL_PID
) -> list[dict[str, Any]]:
    """Sampler ticks as thread-scoped instant ("i") events."""
    return [
        {
            "name": f"sample:{s.phase}",
            "cat": "sampler",
            "ph": "i",
            "ts": s.t_us,
            "pid": pid,
            "tid": s.thread_id,
            "s": "t",
            "args": {"phase": s.phase, "source": s.source, "label": s.label},
        }
        for s in samples
    ]


def build_timeline(
    events: Sequence[SpanEvent],
    samples: Iterable[Sample] | None = None,
    metadata: dict[str, Any] | None = None,
    span_phases: dict[str, str] | None = None,
    extra_events: Iterable[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """The full trace document: both clock domains plus sampler ticks.

    ``extra_events`` appends pre-built trace events verbatim — the hook
    the comm-ledger uses (:meth:`repro.parallel.CommLedger.trace_events`
    renders barrier/exchange lanes under its own pid) so network
    attribution lands in the same document as the span film.

    Returns the JSON object format (``traceEvents`` list wrapped with
    ``displayTimeUnit`` and free-form ``otherData``) — the shape both
    ``chrome://tracing`` and Perfetto load directly.
    """
    trace: list[dict[str, Any]] = [process_name_event(WALL_PID, "wall clock")]
    trace += timeline_events(events, clock="wall", span_phases=span_phases)
    virtual = timeline_events(events, clock="virtual", span_phases=span_phases)
    if virtual:
        trace.append(process_name_event(VIRTUAL_PID, "virtual clock (simulated machine)"))
        trace += virtual
    if samples is not None:
        trace += sample_events(samples)
    if extra_events is not None:
        trace += list(extra_events)
    return {
        "traceEvents": trace,
        "displayTimeUnit": _DISPLAY_UNIT,
        "otherData": dict(metadata or {}),
    }


def write_timeline(
    path: str | Path,
    events: Sequence[SpanEvent],
    samples: Iterable[Sample] | None = None,
    metadata: dict[str, Any] | None = None,
    span_phases: dict[str, str] | None = None,
    extra_events: Iterable[dict[str, Any]] | None = None,
) -> Path:
    """Build and write one trace document; returns the path."""
    doc = build_timeline(events, samples=samples, metadata=metadata,
                         span_phases=span_phases, extra_events=extra_events)
    return atomic_write(path, json.dumps(doc, sort_keys=True) + "\n")


def validate_timeline(doc: Any, source: str = "timeline") -> dict[str, Any]:
    """Cheap structural check (tests and the CLI run it after export).

    Asserts the Trace Event contract the viewers rely on: a
    ``traceEvents`` list whose duration events are "B"/"E"/"X" with
    numeric microsecond ``ts`` and ``pid``/``tid`` present — and that
    no pid is claimed by two differently-named trace processes (the
    collision a hand-assigned pid outside :data:`TRACE_PIDS` risks).
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError(f"{source}: expected object with a 'traceEvents' list")
    pid_names: dict[Any, str] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"{source}: traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "M", "C"):
            raise ValueError(f"{source}: traceEvents[{i}] has unknown ph {ph!r}")
        if ph == "M":
            if ev.get("name") == "process_name":
                pid, name = ev.get("pid"), (ev.get("args") or {}).get("name")
                if name is not None and pid is not None:
                    if pid_names.get(pid, name) != name:
                        raise ValueError(
                            f"{source}: pid {pid} claimed by two processes "
                            f"({pid_names[pid]!r} and {name!r}); assign lanes "
                            f"from telemetry.timeline.TRACE_PIDS"
                        )
                    pid_names[pid] = name
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(ev.get(key), (int, float)):
                raise ValueError(
                    f"{source}: traceEvents[{i}] missing numeric {key!r}"
                )
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            raise ValueError(f"{source}: traceEvents[{i}] 'X' event lacks 'dur'")
    return doc


class TimelineSink:
    """Tracer sink that writes a trace document on :meth:`close`.

    Buffers span events (timeline files need global sorting and the
    virtual-domain scan, so streaming JSON incrementally buys nothing)
    and serialises them — plus any sampler attached via
    :meth:`attach_sampler` — when the tracer closes it.
    """

    def __init__(self, path: str | Path, **metadata: Any) -> None:
        self.path = Path(path)
        self.metadata = metadata
        self.events: list[SpanEvent] = []
        self._sampler = None

    def attach_sampler(self, sampler) -> None:
        """Include ``sampler.samples`` as instant events at close."""
        self._sampler = sampler

    def emit(self, event: SpanEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        samples = self._sampler.samples if self._sampler is not None else None
        write_timeline(self.path, self.events, samples=samples,
                       metadata=self.metadata)
