"""Per-blockstep phase signatures and regime clustering (the phase
observatory).

The paper's headline numbers (§5, figs. 13-19) are *sustained* over
week-long runs whose blockstep mix drifts through a small set of
recurring regimes: core-collapse phases with tiny active blocks,
quiescent stretches where whole power-of-two rungs fire together,
startup transients where every particle steps at once.  Measuring the
sustained claims today means running the full workload; the phase
observatory instead captures a cheap **signature vector per
blockstep** — the LoopPoint idea (basic-block vectors per region,
clustered, sampled) transplanted from instruction streams to blockstep
streams:

* :class:`PhaseSignature` — one blockstep's fingerprint: block size,
  active fraction, a power-of-two block-size bucket, per-phase
  T_host/T_pipe/T_comm/T_barrier self-time *shares*, and the
  emulator's j-memory load/elision counters;
* :class:`SignatureRecorder` — a tracer sink that cuts one signature
  per closing ``blockstep`` span in O(1) memory (exact subtree
  self-times via streaming child subtraction, no retained event list);
* :class:`StreamingKMeans` / :class:`RegimeTracker` — deterministic
  online clustering of the signature stream into **regimes** with
  hold-window regime-change detection;
* :func:`regime_trace_events` — the regime lane for the Chrome-trace
  timeline, one rectangle per contiguous regime run.

Signatures split into a *schedule* part (active fraction + block-size
bucket) that is bit-identical across force backends and across
checkpoint/resume — the block schedule is deterministic, property-
pinned in ``tests/property`` — and a *timing* part (phase shares,
j-memory counters) that fingerprints where the wall time went.  The
sampled-run estimator (:mod:`repro.bench.sampling`) clusters on the
full vector but assigns *projected* blocksteps by the schedule part
alone, which is all a dry-run of the scheduler can know.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..io.documents import require_schema
from .phases import DEFAULT_SPAN_PHASES, PHASES, T_OTHER
from .timeline import TRACE_PIDS, lane_event, process_name_event
from .tracer import SpanEvent

#: Bump on breaking signature-record/artifact layout changes.
SIGNATURE_SCHEMA = "repro.phase_signature/1"

#: Power-of-two block-size buckets in the signature vector.  Bucket i
#: holds block sizes in [2^i, 2^(i+1)); the last bucket absorbs
#: everything larger, so paper-scale N (2M -> bucket 21) stays in
#: range.  An empty block (degenerate) lights no bucket at all.
N_BUCKETS = 24

#: Trace process id for the regime lane, from the central pid registry
#: (:data:`repro.telemetry.timeline.TRACE_PIDS`) so it can never
#: collide with the clock-domain, comm-ledger or efficiency lanes.
REGIME_PID = TRACE_PIDS["regimes"]

#: Span name the recorder cuts signatures on (the block-timestep
#: integrator's per-blockstep root span).
ROOT_SPAN = "blockstep"


class SignatureError(ValueError):
    """Raised for malformed signature records and artifacts."""


# -- the signature ----------------------------------------------------------


@dataclass(frozen=True)
class PhaseSignature:
    """One blockstep's phase-signature vector (see module docstring).

    ``shares`` always maps every phase in
    :data:`repro.telemetry.PHASES` to a share in [0, 1]; the shares sum
    to 1 when the blockstep had any attributed self-time and are all
    exactly 0.0 for degenerate (zero-duration) blocksteps — never NaN.
    """

    blockstep: int
    t: float | None
    n: int
    block_size: int
    wall_us: float
    shares: dict[str, float]
    jmem_loads: int = 0
    jmem_elided: int = 0
    t_start_us: float = 0.0

    @property
    def active_fraction(self) -> float:
        """Fraction of particles in the block; 0.0 (never NaN) for
        empty blocks or unknown N."""
        if self.n <= 0 or self.block_size <= 0:
            return 0.0
        return self.block_size / self.n

    @property
    def log2_bucket(self) -> int:
        """Floor log2 of the block size, clamped to the vector's bucket
        range; -1 for an empty block (no bucket lights up)."""
        if self.block_size <= 0:
            return -1
        return min(self.block_size.bit_length() - 1, N_BUCKETS - 1)

    @property
    def elision_fraction(self) -> float:
        """Share of j-memory loads elided by the fingerprint cache."""
        total = self.jmem_loads + self.jmem_elided
        return self.jmem_elided / total if total > 0 else 0.0

    # -- vectors ------------------------------------------------------------

    def schedule_vector(self) -> np.ndarray:
        """The backend-independent part: ``[active_fraction,
        one-hot block-size bucket]`` (length ``1 + N_BUCKETS``).

        Bit-identical across direct/batched/faithful backends and
        across checkpoint/resume, because the block schedule itself is
        (property-pinned).
        """
        v = np.zeros(1 + N_BUCKETS, dtype=np.float64)
        v[0] = self.active_fraction
        bucket = self.log2_bucket
        if bucket >= 0:
            v[1 + bucket] = 1.0
        return v

    def vector(self) -> np.ndarray:
        """The full clustering vector: schedule part + per-phase
        self-time shares + j-memory elision fraction."""
        timing = np.array(
            [self.shares.get(p, 0.0) for p in PHASES] + [self.elision_fraction],
            dtype=np.float64,
        )
        return np.concatenate([self.schedule_vector(), timing])

    # -- records ------------------------------------------------------------

    def as_record(self) -> dict[str, Any]:
        """Flat schema-tagged dict (bus records, JSONL, artifacts)."""
        rec: dict[str, Any] = {
            "schema": SIGNATURE_SCHEMA,
            "blockstep": self.blockstep,
            "n": self.n,
            "block_size": self.block_size,
            "active_fraction": self.active_fraction,
            "wall_us": self.wall_us,
            "shares": {p: self.shares.get(p, 0.0) for p in PHASES},
            "jmem_loads": self.jmem_loads,
            "jmem_elided": self.jmem_elided,
        }
        if self.t is not None:
            rec["t"] = self.t
        return rec

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "PhaseSignature":
        if not isinstance(rec, dict):
            raise SignatureError("signature record must be an object")
        if rec.get("schema") != SIGNATURE_SCHEMA:
            raise SignatureError(
                f"signature schema {rec.get('schema')!r} not supported "
                f"(need {SIGNATURE_SCHEMA!r})"
            )
        return cls(
            blockstep=int(rec["blockstep"]),
            t=None if rec.get("t") is None else float(rec["t"]),
            n=int(rec["n"]),
            block_size=int(rec["block_size"]),
            wall_us=float(rec["wall_us"]),
            shares={p: float(rec.get("shares", {}).get(p, 0.0)) for p in PHASES},
            jmem_loads=int(rec.get("jmem_loads", 0)),
            jmem_elided=int(rec.get("jmem_elided", 0)),
        )


def normalise_shares(totals_us: dict[str, float]) -> dict[str, float]:
    """Per-phase self-times -> shares over :data:`PHASES`.

    Degenerate inputs (no attributed time at all, e.g. an empty
    blockstep with zero-duration spans) renormalise to all-zero shares
    rather than NaN; negative noise clamps to zero before
    normalisation.
    """
    clamped = {p: max(float(totals_us.get(p, 0.0)), 0.0) for p in PHASES}
    total = sum(clamped.values())
    if total <= 0.0:
        return {p: 0.0 for p in PHASES}
    return {p: us / total for p, us in clamped.items()}


# -- streaming capture ------------------------------------------------------


class SignatureRecorder:
    """Tracer sink cutting one :class:`PhaseSignature` per blockstep.

    Spans close children-before-parents, so the recorder can maintain
    each open span's *subtree* phase totals incrementally: when a span
    closes, its self-time (duration minus already-folded children) is
    added to its own subtree totals, and the whole subtree folds into
    its parent.  When a span named ``root_span`` closes, its subtree
    totals *are* the blockstep's exact phase attribution — identical to
    what :class:`repro.telemetry.PhaseAggregator` computes post hoc
    from a retained event list — and the recorder cuts a signature.
    Memory is O(tree depth), so it is safe on week-long runs; spans
    outside any blockstep (startup force evaluation, benchmark
    scaffolding) are discarded, never folded into a signature.

    Parameters
    ----------
    callback:
        Optional ``f(signature)`` invoked at each cut (the service
        supervisor's bus hook, a regime tracker, ...).
    keep:
        Retain cut signatures in :attr:`signatures` (default).  Turn
        off for unbounded runs where a callback consumes the stream.
    root_span:
        Span name that delimits one blockstep.
    span_phases:
        Extra span-name -> phase mappings on top of the defaults.
    """

    def __init__(
        self,
        callback: Callable[[PhaseSignature], None] | None = None,
        keep: bool = True,
        root_span: str = ROOT_SPAN,
        span_phases: dict[str, str] | None = None,
    ) -> None:
        self._span_phases = dict(DEFAULT_SPAN_PHASES)
        if span_phases:
            self._span_phases.update(span_phases)
        self._callback = callback
        self._keep = bool(keep)
        self._root = root_span
        self._child_us: dict[int, float] = {}
        self._subtree: dict[int, dict[str, float]] = {}
        self.signatures: list[PhaseSignature] = []
        self.count = 0
        self.latest: PhaseSignature | None = None

    def emit(self, event: SpanEvent) -> None:
        phase = event.phase or self._span_phases.get(event.name, T_OTHER)
        self_us = max(event.dur_us - self._child_us.pop(event.span_id, 0.0), 0.0)
        subtree = self._subtree.pop(event.span_id, None)
        if subtree is None:
            subtree = {}
        subtree[phase] = subtree.get(phase, 0.0) + self_us

        if event.name == self._root:
            self._cut(event, subtree)
            # the blockstep's time still folds into any enclosing span
            # for other sinks' benefit, but its subtree dict is done
        if event.parent_id is not None:
            self._child_us[event.parent_id] = (
                self._child_us.get(event.parent_id, 0.0) + event.dur_us
            )
            if event.name != self._root:
                parent = self._subtree.setdefault(event.parent_id, {})
                for p, us in subtree.items():
                    parent[p] = parent.get(p, 0.0) + us
        # top-level non-blockstep spans (startup force, scaffolding)
        # simply drop their subtree totals here

    def _cut(self, event: SpanEvent, subtree: dict[str, float]) -> None:
        attrs = event.attrs
        block_size = int(attrs.get("n_block", 0) or 0)
        n = int(attrs.get("n", 0) or 0)
        t = attrs.get("t")
        sig = PhaseSignature(
            blockstep=self.count,
            t=None if t is None else float(t),
            n=n,
            block_size=block_size,
            wall_us=float(event.dur_us),
            shares=normalise_shares(subtree),
            jmem_loads=int(attrs.get("jmem_loads", 0) or 0),
            jmem_elided=int(attrs.get("jmem_elided", 0) or 0),
            t_start_us=float(event.t_start_us),
        )
        self.count += 1
        self.latest = sig
        if self._keep:
            self.signatures.append(sig)
        if self._callback is not None:
            self._callback(sig)


# -- streaming k-means ------------------------------------------------------


class StreamingKMeans:
    """Deterministic online k-means over signature vectors.

    MacQueen's sequential update: each vector joins its nearest
    centroid (which then moves by ``1/count`` of the residual), unless
    it is farther than ``spawn_distance`` from every centroid and the
    cluster budget ``k_max`` is not exhausted, in which case it seeds a
    new cluster.  No RNG, no epochs — the same stream always produces
    the same regimes, which is what makes signature clustering
    reproducible across runs and machines.
    """

    def __init__(self, k_max: int = 8, spawn_distance: float = 0.6) -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        self.k_max = int(k_max)
        self.spawn_distance = float(spawn_distance)
        self.centroids: list[np.ndarray] = []
        self.counts: list[int] = []

    @property
    def k(self) -> int:
        return len(self.centroids)

    def nearest(
        self, v: np.ndarray, features: slice | None = None
    ) -> tuple[int, float]:
        """Index and distance of the closest centroid.

        ``features`` restricts the distance to a feature subspace —
        the sampled-run estimator assigns *projected* blocksteps using
        only the schedule-visible features.  Raises on an empty model.
        """
        if not self.centroids:
            raise ValueError("no clusters yet")
        v = np.asarray(v, dtype=np.float64)
        best, best_d = 0, np.inf
        for i, c in enumerate(self.centroids):
            if features is not None:
                d = float(np.linalg.norm(v[features] - c[features]))
            else:
                d = float(np.linalg.norm(v - c))
            if d < best_d:
                best, best_d = i, d
        return best, best_d

    def update(self, v: np.ndarray) -> int:
        """Assign ``v`` to a (possibly new) cluster and learn; returns
        the cluster index."""
        v = np.asarray(v, dtype=np.float64)
        if not self.centroids:
            self.centroids.append(v.copy())
            self.counts.append(1)
            return 0
        idx, dist = self.nearest(v)
        if dist > self.spawn_distance and self.k < self.k_max:
            self.centroids.append(v.copy())
            self.counts.append(1)
            return self.k - 1
        self.counts[idx] += 1
        self.centroids[idx] += (v - self.centroids[idx]) / self.counts[idx]
        return idx


# -- regime tracking --------------------------------------------------------


@dataclass(frozen=True)
class RegimeChange:
    """One detected regime transition."""

    blockstep: int
    t: float | None
    from_regime: int | None
    to_regime: int


@dataclass
class _RegimeRun:
    """One contiguous stretch of blocksteps in the same regime."""

    regime: int
    start_blockstep: int
    count: int = 0
    t_start_us: float = 0.0
    t_end_us: float = 0.0


class RegimeTracker:
    """Clusters a signature stream into regimes, online.

    Wraps :class:`StreamingKMeans` with a hold window: a raw
    reassignment only becomes a *regime change* after ``hold``
    consecutive blocksteps agree, so single-blockstep excursions (one
    odd barrier, one cold cache) do not shred the regime lane.  Keeps
    run-length-compressed assignments (O(number of changes) memory),
    per-regime accumulators for the summary, and the change list.
    """

    def __init__(
        self,
        k_max: int = 8,
        spawn_distance: float = 0.6,
        hold: int = 3,
    ) -> None:
        self.kmeans = StreamingKMeans(k_max=k_max, spawn_distance=spawn_distance)
        self.hold = max(int(hold), 1)
        self.current: int | None = None
        self.changes: list[RegimeChange] = []
        self.runs: list[_RegimeRun] = []
        self.count = 0
        self._pending: int | None = None
        self._pending_count = 0
        # per-regime accumulators: count, wall_us, block, active, shares
        self._acc: dict[int, dict[str, Any]] = {}

    def update(self, sig: PhaseSignature) -> int:
        """Feed one signature; returns the (smoothed) current regime."""
        raw = self.kmeans.update(sig.vector())
        acc = self._acc.setdefault(
            raw,
            {"count": 0, "wall_us": 0.0, "block": 0.0, "active": 0.0,
             "shares": {p: 0.0 for p in PHASES},
             "jmem_loads": 0, "jmem_elided": 0},
        )
        acc["count"] += 1
        acc["wall_us"] += sig.wall_us
        acc["block"] += sig.block_size
        acc["active"] += sig.active_fraction
        for p in PHASES:
            acc["shares"][p] += sig.shares.get(p, 0.0)
        acc["jmem_loads"] += sig.jmem_loads
        acc["jmem_elided"] += sig.jmem_elided

        if self.current is None:
            self._switch(raw, sig)
        elif raw == self.current:
            self._pending = None
            self._pending_count = 0
        elif raw == self._pending:
            self._pending_count += 1
            if self._pending_count >= self.hold:
                self._switch(raw, sig)
        else:
            self._pending = raw
            self._pending_count = 1
            if self.hold <= 1:
                self._switch(raw, sig)

        run = self.runs[-1]
        run.count += 1
        run.t_end_us = sig.t_start_us + sig.wall_us
        self.count += 1
        return self.current  # type: ignore[return-value]

    def _switch(self, regime: int, sig: PhaseSignature) -> None:
        self.changes.append(
            RegimeChange(
                blockstep=sig.blockstep,
                t=sig.t,
                from_regime=self.current,
                to_regime=regime,
            )
        ) if self.current is not None else None
        self.current = regime
        self._pending = None
        self._pending_count = 0
        self.runs.append(
            _RegimeRun(
                regime=regime,
                start_blockstep=sig.blockstep,
                t_start_us=sig.t_start_us,
                t_end_us=sig.t_start_us + sig.wall_us,
            )
        )

    # -- views --------------------------------------------------------------

    @property
    def n_regimes(self) -> int:
        return self.kmeans.k

    def dominant_regime(self) -> tuple[int | None, float]:
        """(regime id, share of blocksteps) of the most common regime."""
        if not self._acc or self.count == 0:
            return None, 0.0
        regime = max(self._acc, key=lambda r: self._acc[r]["count"])
        return regime, self._acc[regime]["count"] / self.count

    def lane(self, max_runs: int = 24) -> str:
        """Compact run-length regime sequence, e.g. ``0x41 1x7 0x12``
        (newest runs kept when truncating)."""
        runs = self.runs[-max_runs:]
        prefix = "... " if len(self.runs) > max_runs else ""
        return prefix + " ".join(f"{r.regime}x{r.count}" for r in runs)

    def summary(self) -> dict[str, Any]:
        """Schema-tagged regime summary for artifacts and bus records."""
        dominant, share = self.dominant_regime()
        regimes = []
        for regime in sorted(self._acc):
            acc = self._acc[regime]
            c = acc["count"]
            regimes.append(
                {
                    "regime": regime,
                    "count": c,
                    "share": c / self.count if self.count else 0.0,
                    "mean_block_size": acc["block"] / c if c else 0.0,
                    "mean_active_fraction": acc["active"] / c if c else 0.0,
                    "mean_wall_us": acc["wall_us"] / c if c else 0.0,
                    "shares": {p: acc["shares"][p] / c if c else 0.0
                               for p in PHASES},
                    "jmem_loads": acc["jmem_loads"],
                    "jmem_elided": acc["jmem_elided"],
                }
            )
        return {
            "schema": SIGNATURE_SCHEMA,
            "kind": "summary",
            "count": self.count,
            "n_regimes": self.n_regimes,
            "dominant_regime": dominant,
            "dominant_share": share,
            "changes": len(self.changes),
            "lane": self.lane(),
            "regimes": regimes,
        }


def validate_signature_summary(obj: Any, source: str = "signatures") -> dict:
    """Structural check of a :meth:`RegimeTracker.summary` document."""
    require_schema(obj, SIGNATURE_SCHEMA, source, SignatureError, "summary")
    regimes = obj.get("regimes")
    if not isinstance(regimes, list):
        raise SignatureError(f"{source}: summary must carry a 'regimes' list")
    for i, reg in enumerate(regimes):
        if not isinstance(reg, dict) or "regime" not in reg or "count" not in reg:
            raise SignatureError(
                f"{source}: regimes[{i}] must carry 'regime' and 'count'"
            )
        share = reg.get("share")
        if share is not None and not (
            isinstance(share, (int, float)) and 0.0 <= float(share) <= 1.0
        ):
            raise SignatureError(
                f"{source}: regimes[{i}] 'share' must be within [0, 1]"
            )
    return obj


# -- timeline lane ----------------------------------------------------------


def regime_trace_events(
    tracker: RegimeTracker, pid: int = REGIME_PID
) -> list[dict[str, Any]]:
    """The regime lane: one complete ("X") event per contiguous regime
    run, in the wall-clock time base of the span timeline, under its
    own trace process so Perfetto renders it as a separate lane."""
    return [process_name_event(pid, "blockstep regimes")] + [
        lane_event(
            f"regime {run.regime}", "regime", run.t_start_us,
            run.t_end_us - run.t_start_us, pid, 1,
            {
                "regime": run.regime,
                "blocksteps": run.count,
                "start_blockstep": run.start_blockstep,
            },
        )
        for run in tracker.runs
    ]


# -- convenience ------------------------------------------------------------


def signatures_from_events(
    events: Iterable[SpanEvent], **recorder_kwargs: Any
) -> list[PhaseSignature]:
    """Replay a retained event list through a fresh recorder."""
    rec = SignatureRecorder(**recorder_kwargs)
    for e in events:
        rec.emit(e)
    return rec.signatures


def schedule_signature(
    blockstep: int, block_size: int, n: int, t: float | None = None
) -> PhaseSignature:
    """A timing-free signature for a *projected* blockstep (dry-run
    schedules know sizes, not durations)."""
    return PhaseSignature(
        blockstep=blockstep,
        t=t,
        n=n,
        block_size=int(block_size),
        wall_us=0.0,
        shares={p: 0.0 for p in PHASES},
    )


#: Feature subspace of :meth:`PhaseSignature.vector` that a dry-run
#: schedule can reproduce (active fraction + block-size bucket).
SCHEDULE_FEATURES = slice(0, 1 + N_BUCKETS)

