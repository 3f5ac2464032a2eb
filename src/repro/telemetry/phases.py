"""The paper's section-4 phase taxonomy and the span-to-phase roll-up.

Eq. (10) decomposes the time per blockstep as

    T = T_host + T_comm + T_GRAPE

and section 4.4 further isolates the synchronisation (barrier) term
that becomes the 1/N wall of figs. 16 and 18.  The aggregator here
rolls raw :class:`repro.telemetry.tracer.SpanEvent` streams up into
exactly that taxonomy:

* ``T_host``    — host arithmetic: prediction, correction, timestep
  selection, scheduling;
* ``T_pipe``    — the GRAPE pipelines (``T_GRAPE`` in eq. 10): force
  evaluation on the (emulated) hardware, j-memory DMA;
* ``T_comm``    — host-host point-to-point traffic;
* ``T_barrier`` — synchronisation rounds (butterfly barrier);
* ``other``     — anything unattributed (kept visible, never folded
  into a paper phase silently).

Attribution uses **self time**: a span's duration minus the durations
of its direct children, so nested instrumentation ("blockstep"
containing "predict"/"force"/"correct") never double-counts.  A span
with no explicit phase inherits its nearest ancestor's phase, falling
back to the span-name map and then to ``other``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .tracer import SpanEvent

#: Phase labels (the paper's names, minus the math markup).
T_HOST = "host"
T_PIPE = "pipe"
T_COMM = "comm"
T_BARRIER = "barrier"
T_OTHER = "other"

#: All phases, report order.
PHASES: tuple[str, ...] = (T_HOST, T_PIPE, T_COMM, T_BARRIER, T_OTHER)

#: Paper-facing names for the report renderer.
PAPER_PHASE_NAMES: dict[str, str] = {
    T_HOST: "T_host",
    T_PIPE: "T_pipe",
    T_COMM: "T_comm",
    T_BARRIER: "T_barrier",
    T_OTHER: "other",
}

#: Default span-name -> phase map for the instrumented code paths.
#: Explicit ``phase=`` arguments on spans always win over this table.
DEFAULT_SPAN_PHASES: dict[str, str] = {
    "predict": T_HOST,
    "correct": T_HOST,
    "timestep": T_HOST,
    "schedule": T_HOST,
    "force": T_PIPE,
    "grape.force": T_PIPE,
    "grape.jmem_load": T_PIPE,
    "net.send": T_COMM,
    "net.recv": T_COMM,
    "net.exchange": T_COMM,
    "net.barrier": T_BARRIER,
}

#: Ordered direct-attribution rules for code outside any span: (path
#: fragment, function name or None for any, phase).  First match wins;
#: paths are '/'-normalised.
ATTRIBUTION_RULES: list[tuple[str, str | None, str]] = [
    ("repro/parallel/simcomm.py", "barrier", T_BARRIER),
    ("repro/parallel/barrier.py", None, T_BARRIER),
    ("repro/parallel/simcomm.py", None, T_COMM),
    ("repro/parallel/virtualtime.py", None, T_COMM),
    ("repro/parallel/", None, T_COMM),
    ("repro/forces/", None, T_PIPE),
    ("repro/hardware/", None, T_PIPE),
    ("repro/telemetry/", None, T_OTHER),
    ("repro/core/", None, T_HOST),
    ("repro/perfmodel/", None, T_HOST),
    ("repro/models/", None, T_HOST),
]


@dataclass
class PhaseTotals:
    """Accumulated self-times (microseconds) per phase in one domain
    (wall clock or virtual clock)."""

    totals: dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})

    def add(self, phase: str, us: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + us

    @property
    def total_us(self) -> float:
        return sum(self.totals.values())

    def fraction(self, phase: str) -> float:
        t = self.total_us
        return self.totals.get(phase, 0.0) / t if t > 0 else 0.0


@dataclass
class SpanSummary:
    """Per-span-name aggregate for the detailed report table."""

    name: str
    phase: str
    count: int = 0
    self_us: float = 0.0
    total_us: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


@dataclass
class PhaseBreakdown:
    """The fig. 14/16/18-style attribution result.

    ``wall`` always holds wall-clock self-times; ``virtual`` is None
    unless the events carried virtual timestamps (i.e. the tracer was
    wired to a simulated network's clock), in which case it holds the
    simulated machine's attribution — the quantity the paper plots.
    """

    wall: PhaseTotals
    virtual: PhaseTotals | None
    spans: list[SpanSummary]
    n_events: int

    def as_dict(self) -> dict:
        out = {
            "n_events": self.n_events,
            "wall_us": dict(self.wall.totals),
            "wall_total_us": self.wall.total_us,
            "spans": [
                {
                    "name": s.name,
                    "phase": s.phase,
                    "count": s.count,
                    "self_us": s.self_us,
                    "total_us": s.total_us,
                }
                for s in self.spans
            ],
        }
        if self.virtual is not None:
            out["virtual_us"] = dict(self.virtual.totals)
            out["virtual_total_us"] = self.virtual.total_us
        return out


class PhaseAggregator:
    """Rolls a span-event stream up into the paper's phase taxonomy.

    Usage::

        agg = PhaseAggregator()
        agg.consume(sink.events)
        breakdown = agg.breakdown()

    Events may arrive in any order; aggregation happens at
    :meth:`breakdown` time from the retained event list.
    """

    def __init__(self, span_phases: dict[str, str] | None = None) -> None:
        self.span_phases = dict(DEFAULT_SPAN_PHASES)
        if span_phases:
            self.span_phases.update(span_phases)
        self._events: list[SpanEvent] = []

    def consume(self, events: Iterable[SpanEvent]) -> "PhaseAggregator":
        self._events.extend(events)
        return self

    # -- attribution ----------------------------------------------------------

    def _phase_of(self, event: SpanEvent, by_id: dict[int, SpanEvent]) -> str:
        if event.phase is not None:
            return event.phase
        mapped = self.span_phases.get(event.name)
        if mapped is not None:
            return mapped
        # inherit from the nearest ancestor with a resolvable phase
        parent_id = event.parent_id
        guard = 0
        while parent_id is not None and guard < 10_000:
            parent = by_id.get(parent_id)
            if parent is None:
                break
            if parent.phase is not None:
                return parent.phase
            mapped = self.span_phases.get(parent.name)
            if mapped is not None:
                return mapped
            parent_id = parent.parent_id
            guard += 1
        return T_OTHER

    def breakdown(self) -> PhaseBreakdown:
        """Compute self-times, attribute phases, and total per phase."""
        events = self._events
        by_id = {e.span_id: e for e in events}

        child_wall: dict[int, float] = {}
        child_virtual: dict[int, float] = {}
        for e in events:
            if e.parent_id is not None and e.parent_id in by_id:
                child_wall[e.parent_id] = child_wall.get(e.parent_id, 0.0) + e.dur_us
                if e.v_dur_us is not None:
                    child_virtual[e.parent_id] = (
                        child_virtual.get(e.parent_id, 0.0) + e.v_dur_us
                    )

        wall = PhaseTotals()
        virtual = PhaseTotals()
        any_virtual = False
        spans: dict[tuple[str, str], SpanSummary] = {}

        for e in events:
            phase = self._phase_of(e, by_id)
            self_wall = max(e.dur_us - child_wall.get(e.span_id, 0.0), 0.0)
            wall.add(phase, self_wall)
            if e.v_dur_us is not None:
                any_virtual = True
                self_virtual = max(e.v_dur_us - child_virtual.get(e.span_id, 0.0), 0.0)
                virtual.add(phase, self_virtual)

            key = (e.name, phase)
            summary = spans.get(key)
            if summary is None:
                summary = spans[key] = SpanSummary(name=e.name, phase=phase)
            summary.count += 1
            summary.self_us += self_wall
            summary.total_us += e.dur_us

        ordered = sorted(spans.values(), key=lambda s: -s.self_us)
        return PhaseBreakdown(
            wall=wall,
            virtual=virtual if any_virtual else None,
            spans=ordered,
            n_events=len(events),
        )
