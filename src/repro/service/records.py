"""The snapshot bus's unit of traffic: :class:`SnapshotRecord`.

One producer (the job supervisor) emits a monotonically numbered
stream of records; consumers see the same stream independently.  The
record kinds mirror what a long production run needs to reconstruct
afterwards:

``state``
    Periodic integration sample — time, counters, cheap energy
    estimate (from the maintained potentials; no extra force
    evaluations).
``phases``
    Cumulative telemetry phase totals (the paper's
    T_host/T_pipe/T_comm/T_barrier taxonomy) forwarded from the
    streaming phase sink.
``signature``
    Phase-observatory snapshot: the current blockstep regime, regime
    counts/shares and the compact regime lane, plus the full
    ``repro.phase_signature/1`` summary document (nested under
    ``summary``; the flat scalars exist so ``tail`` shows them).
``efficiency``
    Efficiency-observatory snapshot: the run's fraction of peak, real
    Gflops and loss-bucket fractions so far, plus the full
    ``repro.efficiency/1`` waterfall (nested under ``summary``; the
    flat scalars exist so ``tail`` shows them).
``rank``
    Rank-observatory snapshot: real-execution telemetry from the
    dispatch observer — blocksteps/tasks dispatched so far, busy/idle
    rank-time, utilisation, mean/max real straggler skew and publish
    bytes per step (the flat scalars ``tail`` shows), plus the full
    ``repro.rank_sample/1`` summary nested under ``summary``.
``checkpoint``
    A durable checkpoint hit disk (path, blockstep, t).
``discontinuity``
    The stream resumed from a checkpoint: everything between the
    checkpointed blockstep and the kill is *not* in this stream, and
    the record carries both the checkpoint's provenance and the
    resuming process's, so cross-machine/commit resumes are visible.
``job``
    Lifecycle edges (submitted / started / interrupted / completed /
    failed) with status detail.
``bench_artifact``
    A completed sweep's validated ``BENCH_*.json`` artifact body, for
    the history-ingest consumer.

Records are JSON-ready dicts on the wire (``as_record`` /
``from_record``), schema-tagged so archives from future layouts are
refused loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..telemetry.observatory import (
    KIND_EFFICIENCY,
    KIND_RANK,
    KIND_SIGNATURE,
    OBSERVATORIES,
)

#: Bump on breaking record-layout changes.
SNAPSHOT_RECORD_SCHEMA = "repro.snapshot_record/1"

KIND_STATE = "state"
KIND_PHASES = "phases"
KIND_CHECKPOINT = "checkpoint"
KIND_DISCONTINUITY = "discontinuity"
KIND_JOB = "job"
KIND_BENCH_ARTIFACT = "bench_artifact"

#: Every kind the bus emits for the built-in observatories; an
#: observatory registered later adds its own kind (:func:`known_kind`).
RECORD_KINDS = (
    KIND_STATE,
    KIND_PHASES,
    KIND_SIGNATURE,
    KIND_EFFICIENCY,
    KIND_RANK,
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_JOB,
    KIND_BENCH_ARTIFACT,
)


class RecordError(ValueError):
    """Raised for malformed snapshot records."""


def known_kind(kind: Any) -> bool:
    """A kind of :data:`RECORD_KINDS` or of a registered observatory."""
    return kind in RECORD_KINDS or kind in {o.kind for o in OBSERVATORIES} - {None}


@dataclass(frozen=True)
class SnapshotRecord:
    """One immutable bus record."""

    seq: int
    kind: str
    wall_unix: float
    t: float | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    def as_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "schema": SNAPSHOT_RECORD_SCHEMA,
            "seq": self.seq,
            "kind": self.kind,
            "wall_unix": self.wall_unix,
        }
        if self.t is not None:
            rec["t"] = self.t
        if self.payload:
            rec["payload"] = self.payload
        return rec

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "SnapshotRecord":
        if not isinstance(rec, dict):
            raise RecordError("record must be an object")
        if rec.get("schema") != SNAPSHOT_RECORD_SCHEMA:
            raise RecordError(
                f"record schema {rec.get('schema')!r} not supported "
                f"(need {SNAPSHOT_RECORD_SCHEMA!r})"
            )
        kind = rec.get("kind")
        if not known_kind(kind):
            raise RecordError(f"unknown record kind {kind!r}")
        return cls(
            seq=int(rec["seq"]),
            kind=str(kind),
            wall_unix=float(rec["wall_unix"]),
            t=None if rec.get("t") is None else float(rec["t"]),
            payload=dict(rec.get("payload", {})),
        )


def make_record(
    seq: int, kind: str, t: float | None = None, **payload: Any
) -> SnapshotRecord:
    """Build one record, stamping the wall clock."""
    if not known_kind(kind):
        raise RecordError(f"unknown record kind {kind!r}")
    return SnapshotRecord(
        seq=seq, kind=kind, wall_unix=time.time(), t=t, payload=payload
    )
