"""Top-down "real Tflops" accounting (the efficiency observatory).

The paper's title claim — *towards 40 "real" Tflops* — is an
efficiency statement: how much of peak pipeline throughput survives
host time, communication, barriers and under-populated pipelines
(§4-§6, figs. 13-19).  The phase observatory answers *where the time
went*; this module answers *where the flops went*.  Per blockstep the
:class:`FlopsLedger` computes the peak-available flops from the
hardware configuration (chips x pipelines x clock x 57
flops/interaction over the blockstep's duration) and attributes the
shortfall to named loss buckets:

``real``
    useful work actually retired: ``57 * n_block * N`` (eq. 9);
``pipeline_idle``
    under-populated pipelines — an i-block streams the j-memory in
    passes of ``lanes_per_chip`` (48) i-slots whether or not they are
    filled, the small-N wall of fig. 13;
``jmem``
    j-memory load time (the fingerprint cache makes elided reloads
    nearly free — the gap is visible here);
``retry``
    block-exponent overflow retries re-stream the whole block;
``host``
    predictor/corrector/scheduler self-time (eq. 10 ``T_host``);
``comm`` / ``barrier``
    communication and synchronisation (eq. 10 ``T_comm`` /
    ``T_barrier``), from span phases per blockstep and refined from the
    :class:`~repro.parallel.ledger.CommLedger` at summary time;
``other``
    the unattributed residual.  It absorbs estimation slack, so the
    identity ``real + sum(buckets) == peak`` holds *by construction*
    on every blockstep (property-pinned), and every degenerate input —
    zero-duration blocksteps, empty blocks, no hardware — yields plain
    zeros, never NaN (mirroring the phase-signature guards).

Like :class:`~repro.telemetry.signatures.SignatureRecorder`, the
ledger is a :class:`~repro.telemetry.phases.SpanFold` tracer sink:
exact subtree self-times, one record cut per closing ``blockstep``
span, O(tree depth) memory, safe always-on for week-long runs.  Durations prefer
the virtual clock (what the paper's figures plot) and fall back to the
wall clock when no simulated network drives one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..constants import FLOPS_PER_INTERACTION
from ..io.documents import require_finite, require_schema
from .phases import T_BARRIER, T_COMM, T_PIPE, SpanFold
from .signatures import ROOT_SPAN
from .timeline import TRACE_PIDS, lane_event, process_name_event
from .tracer import SpanEvent

#: Bump on breaking efficiency-record/section layout changes.
EFFICIENCY_SCHEMA = "repro.efficiency/1"

#: Loss-bucket names, waterfall order.  ``other`` must stay last: it is
#: the residual that makes the buckets sum to peak exactly.
BUCKETS = (
    "pipeline_idle",
    "jmem",
    "retry",
    "host",
    "comm",
    "barrier",
    "other",
)

#: Trace process id of the efficiency lane (central registry).
EFFICIENCY_PID = TRACE_PIDS["efficiency"]

#: Span name whose subtree self-time is the j-memory load bucket.
JMEM_SPAN = "grape.jmem_load"

#: Loss category of every other span, by phase (default ``host``).
_CATEGORIES = {T_PIPE: "pipe", T_COMM: "comm", T_BARRIER: "barrier"}


class EfficiencyError(ValueError):
    """Raised for malformed efficiency records and sections."""


# -- hardware profile --------------------------------------------------------


@dataclass(frozen=True)
class HardwareProfile:
    """The three numbers the flops accounting needs from the hardware."""

    n_chips: int
    lanes_per_chip: int
    #: Peak speed [flop/s] at the 57-op accounting convention.
    flops_per_s: float

    @property
    def flops_per_us(self) -> float:
        return self.flops_per_s / 1.0e6

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_chips": self.n_chips,
            "lanes_per_chip": self.lanes_per_chip,
            "peak_flops_per_s": self.flops_per_s,
        }

    @classmethod
    def detect(cls, hardware: Any = None) -> "HardwareProfile":
        """Build a profile from whatever describes the machine.

        Accepts a :class:`HardwareProfile`, anything exposing the
        ``peak_flops()`` / ``lanes_per_chip`` introspection API
        (:class:`repro.hardware.Grape6Emulator`), or any of the
        :mod:`repro.config` hardware dataclasses (Machine/Node/Board/
        ChipConfig).  ``None`` defaults to the paper's single host
        (:class:`repro.config.NodeConfig`: 4 boards, 128 chips) so the
        ledger is meaningful always-on, without plumbing.
        """
        if isinstance(hardware, HardwareProfile):
            return hardware
        if hardware is None:
            from ..config import NodeConfig

            hardware = NodeConfig()
        lanes = getattr(hardware, "lanes_per_chip", None)
        if lanes is not None:
            peak = hardware.peak_flops
            return cls(
                n_chips=int(hardware.n_chips),
                lanes_per_chip=int(lanes),
                flops_per_s=float(peak() if callable(peak) else peak),
            )
        # config dataclasses: walk down to the chip for the lane count
        node = getattr(hardware, "node", hardware)
        board = getattr(node, "board", node)
        chip = getattr(board, "chip", board)
        iparallel = getattr(chip, "iparallel", None)
        peak = getattr(hardware, "peak_flops", None)
        if iparallel is None or peak is None:
            raise EfficiencyError(
                f"cannot derive a hardware profile from {type(hardware).__name__}"
            )
        return cls(
            n_chips=int(getattr(hardware, "chips", 1)),
            lanes_per_chip=int(iparallel),
            flops_per_s=float(peak),
        )


# -- per-blockstep record ----------------------------------------------------


@dataclass(frozen=True)
class BlockstepEfficiency:
    """One blockstep's flops account.

    ``real_flops + sum(buckets.values()) == peak_flops`` exactly (the
    ``other`` bucket is defined as the remainder); every field is a
    finite float on any input, including zero-duration and zero-block
    degenerate blocksteps.
    """

    blockstep: int
    t: float | None
    n: int
    block_size: int
    #: Duration in the accounting clock domain [us].
    dur_us: float
    #: Wall-clock duration [us] (always available; the timeline lane).
    wall_us: float
    #: ``"virtual"`` or ``"wall"`` — which clock priced the peak.
    clock: str
    peak_flops: float
    real_flops: float
    buckets: dict[str, float]
    t_start_us: float = 0.0

    @property
    def fraction_of_peak(self) -> float:
        """Real/peak; 0.0 (never NaN) for degenerate blocksteps."""
        return self.real_flops / self.peak_flops if self.peak_flops > 0 else 0.0

    def as_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "schema": EFFICIENCY_SCHEMA,
            "kind": "blockstep",
            "blockstep": self.blockstep,
            "n": self.n,
            "block_size": self.block_size,
            "dur_us": self.dur_us,
            "clock": self.clock,
            "peak_flops": self.peak_flops,
            "real_flops": self.real_flops,
            "fraction_of_peak": self.fraction_of_peak,
            "buckets": {b: self.buckets.get(b, 0.0) for b in BUCKETS},
        }
        if self.t is not None:
            rec["t"] = self.t
        return rec


# -- the ledger --------------------------------------------------------------


class FlopsLedger(SpanFold):
    """Tracer sink cutting one :class:`BlockstepEfficiency` per
    blockstep and keeping running totals for the run-level waterfall.

    Its :class:`~repro.telemetry.phases.SpanFold` key is the loss
    category, and it folds each subtree's exponent retries too.

    Parameters
    ----------
    hardware:
        Anything :meth:`HardwareProfile.detect` accepts (an emulator
        backend, a config dataclass, a profile, or ``None`` for the
        paper's single host).
    callback:
        Optional ``f(record)`` invoked at each cut (service bus hook).
    keep:
        Retain records in :attr:`records` (default).  Turn off for
        unbounded runs where only the totals matter.
    root_span, span_phases:
        As for :class:`~repro.telemetry.signatures.SignatureRecorder`.
    """

    count_attr = "exponent_retries"

    def __init__(
        self,
        hardware: Any = None,
        callback: Callable[[BlockstepEfficiency], None] | None = None,
        keep: bool = True,
        root_span: str = ROOT_SPAN,
        span_phases: dict[str, str] | None = None,
    ) -> None:
        super().__init__(span_phases)
        self.hardware = HardwareProfile.detect(hardware)
        self._callback = callback
        self._keep = bool(keep)
        self._root = root_span
        self.records: list[BlockstepEfficiency] = []
        self.count = 0
        self.latest: BlockstepEfficiency | None = None
        # run totals (accounting-clock domain of each record)
        self.peak_flops = 0.0
        self.real_flops = 0.0
        self.bucket_flops: dict[str, float] = {b: 0.0 for b in BUCKETS}
        self.span_us = 0.0
        self._clocks: set[str] = set()
        # attributed self-time of top-level spans *outside* any
        # blockstep (startup force, coherence exchanges, barriers),
        # by category, each span in its own best clock
        self._outside_us: dict[str, float] = {}

    # -- streaming capture ---------------------------------------------------

    def _key(self, event: SpanEvent, phase: str) -> str:
        if event.name == JMEM_SPAN:
            return "jmem"
        return _CATEGORIES.get(phase, "host")

    def _outside(self, event: SpanEvent, subtree: dict[str, list[float]]) -> None:
        # run overhead outside any blockstep (startup force evaluation,
        # the driver's coherence exchange, scaffolding) — charged to the
        # run-level waterfall at summary time
        dom = 1 if event.v_dur_us is not None else 0
        for cat, times in subtree.items():
            self._outside_us[cat] = self._outside_us.get(cat, 0.0) + times[dom]

    def _cut(
        self, event: SpanEvent, subtree: dict[str, list[float]], retries: int
    ) -> bool:
        if event.name != self._root:
            return False
        attrs = event.attrs
        block_size = int(attrs.get("n_block", 0) or 0)
        n = int(attrs.get("n", 0) or 0)
        t = attrs.get("t")
        use_virtual = event.v_dur_us is not None
        dom = 1 if use_virtual else 0
        dur = float(event.v_dur_us if use_virtual else event.dur_us)
        dur = max(dur, 0.0)

        hw = self.hardware
        rate = hw.flops_per_us
        peak = rate * dur
        real = min(float(FLOPS_PER_INTERACTION) * block_size * n, peak)

        # pipeline under-population: passes of `lanes` i-slots stream
        # the whole j-memory whether or not the slots are filled
        lanes = hw.lanes_per_chip
        if block_size > 0 and lanes > 0:
            passes = -(-block_size // lanes)
            util = block_size / (passes * lanes)
        else:
            util = 1.0

        def cat_us(name: str) -> float:
            times = subtree.get(name)
            return times[dom] if times is not None else 0.0

        # pipeline idle: time the pipelines were busy beyond the work
        # they retired (empty lanes, streaming passes); when the span
        # stream carries no pipe spans (clock not advanced under them)
        # the lane-population lower bound of fig. 13 stands in
        idle_lanes = real * (1.0 / util - 1.0) if util > 0.0 else 0.0
        pipe_excess = rate * cat_us("pipe") - real
        raw = {
            "pipeline_idle": max(idle_lanes, pipe_excess),
            "jmem": rate * cat_us("jmem"),
            "retry": float(FLOPS_PER_INTERACTION) * block_size * n * retries,
            "host": rate * cat_us("host"),
            "comm": rate * cat_us("comm"),
            "barrier": rate * cat_us("barrier"),
        }
        budget = max(peak - real, 0.0)
        buckets: dict[str, float] = {}
        for name in BUCKETS[:-1]:
            take = min(max(raw.get(name, 0.0), 0.0), budget)
            buckets[name] = take
            budget -= take
        buckets["other"] = max(budget, 0.0)

        rec = BlockstepEfficiency(
            blockstep=self.count,
            t=None if t is None else float(t),
            n=n,
            block_size=block_size,
            dur_us=dur,
            wall_us=float(event.dur_us),
            clock="virtual" if use_virtual else "wall",
            peak_flops=peak,
            real_flops=real,
            buckets=buckets,
            t_start_us=float(event.t_start_us),
        )
        self.count += 1
        self.latest = rec
        self.peak_flops += peak
        self.real_flops += real
        self.span_us += dur
        for b in BUCKETS:
            self.bucket_flops[b] += buckets[b]
        self._clocks.add(rec.clock)
        if self._keep:
            self.records.append(rec)
        if self._callback is not None:
            self._callback(rec)
        return True

    # -- views ---------------------------------------------------------------

    @property
    def clock(self) -> str:
        """Accounting clock of the run: ``virtual``, ``wall``,
        ``mixed`` (pathological) or ``none`` (no blocksteps yet)."""
        if not self._clocks:
            return "none"
        if len(self._clocks) == 1:
            return next(iter(self._clocks))
        return "mixed"

    @property
    def fraction_of_peak(self) -> float:
        return self.real_flops / self.peak_flops if self.peak_flops > 0 else 0.0

    def summary(self, comm: dict[str, Any] | None = None) -> dict[str, Any]:
        """The run-level ``repro.efficiency/1`` waterfall document.

        Time attributed to spans outside any blockstep (startup,
        coherence exchange, barriers) is priced at the hardware rate
        and added to both the peak and the matching bucket, so the
        run-level identity holds too.  With a comm-ledger summary (or
        :func:`~repro.parallel.ledger.merge_comm_summaries` rollup)
        given, the comm and barrier buckets are raised to at least the
        ledger's measured exchange/synchronisation cost by moving the
        deficit out of ``other`` — a pure reallocation, so the sum is
        preserved.  Single-rank runs with no ledger are a no-op.
        """
        hw = self.hardware
        rate = hw.flops_per_us
        buckets = dict(self.bucket_flops)
        peak = self.peak_flops
        real = self.real_flops
        span_us = self.span_us
        for cat, us in sorted(self._outside_us.items()):
            target = cat if cat in ("comm", "barrier") else "other"
            flops = rate * max(us, 0.0)
            buckets[target] += flops
            peak += flops
            span_us += max(us, 0.0)
        if comm:
            exchange_us, barrier_us = _comm_ledger_times(comm)
            for target, ledger_us in (("comm", exchange_us), ("barrier", barrier_us)):
                deficit = max(rate * ledger_us - buckets[target], 0.0)
                move = min(deficit, buckets["other"])
                buckets[target] += move
                buckets["other"] -= move
        return {
            "schema": EFFICIENCY_SCHEMA,
            "kind": "summary",
            "blocksteps": self.count,
            "clock": self.clock,
            "hardware": hw.as_dict(),
            "span_us": span_us,
            "peak_flops": peak,
            "real_flops": real,
            "fraction_of_peak": real / peak if peak > 0 else 0.0,
            "real_gflops": real / span_us * 1.0e6 / 1.0e9 if span_us > 0 else 0.0,
            "buckets": {
                b: {
                    "flops": buckets[b],
                    "fraction": buckets[b] / peak if peak > 0 else 0.0,
                }
                for b in BUCKETS
            },
        }


def _comm_ledger_times(comm: dict[str, Any]) -> tuple[float, float]:
    """(exchange virtual us, barrier sync us) from a ledger summary or
    a :func:`merge_comm_summaries` rollup (tolerates either shape)."""
    networks = comm.get("networks")
    nets = networks if isinstance(networks, list) else [comm]
    exchange_us = 0.0
    for net in nets:
        exchanges = net.get("exchanges") if isinstance(net, dict) else None
        if isinstance(exchanges, dict):
            for agg in exchanges.values():
                if isinstance(agg, dict):
                    exchange_us += float(agg.get("virtual_us", 0.0) or 0.0)
    barrier_us = float(comm.get("barrier_sync_us", 0.0) or 0.0)
    return exchange_us, barrier_us


# -- validation --------------------------------------------------------------


def validate_efficiency(obj: Any, source: str = "efficiency") -> dict[str, Any]:
    """Structural + arithmetic check of a :meth:`FlopsLedger.summary`
    document: schema, all buckets present and finite, fractions within
    [0, 1], and ``real + sum(buckets) == peak`` within float tolerance.
    """
    require_schema(obj, EFFICIENCY_SCHEMA, source, EfficiencyError,
                   "efficiency section")
    require_finite(obj, ("blocksteps", "peak_flops", "real_flops",
                         "fraction_of_peak"), source, EfficiencyError)
    buckets = obj.get("buckets")
    if not isinstance(buckets, dict):
        raise EfficiencyError(f"{source}: must carry a 'buckets' object")
    total = float(obj["real_flops"])
    for b in BUCKETS:
        entry = buckets.get(b)
        if not isinstance(entry, dict):
            raise EfficiencyError(f"{source}: bucket {b!r} missing")
        require_finite(entry, ("flops", "fraction"), source, EfficiencyError,
                       f"bucket {b!r} ")
        flops, frac = entry["flops"], entry["fraction"]
        if not -1e-9 <= float(frac) <= 1.0 + 1e-9:
            raise EfficiencyError(
                f"{source}: bucket {b!r} fraction {frac} outside [0, 1]"
            )
        total += float(flops)
    peak = float(obj["peak_flops"])
    if abs(total - peak) > max(1e-6 * max(abs(peak), 1.0), 1e-3):
        raise EfficiencyError(
            f"{source}: buckets + real = {total} do not sum to peak = {peak}"
        )
    return obj


# -- timeline lane -----------------------------------------------------------


def efficiency_trace_events(
    ledger: FlopsLedger, pid: int = EFFICIENCY_PID
) -> list[dict[str, Any]]:
    """The efficiency lane: one complete ("X") event per kept
    blockstep record in the wall-clock time base, labelled with its
    fraction of peak, under the registry's efficiency pid."""
    return [process_name_event(pid, "efficiency (fraction of peak)")] + [
        lane_event(
            f"eff {rec.fraction_of_peak:.0%}", "efficiency", rec.t_start_us,
            rec.wall_us, pid, 1,
            {
                "blockstep": rec.blockstep,
                "block_size": rec.block_size,
                "fraction_of_peak": rec.fraction_of_peak,
                "clock": rec.clock,
            },
        )
        for rec in ledger.records
    ]


# -- convenience -------------------------------------------------------------


def efficiency_from_events(
    events: Iterable[SpanEvent], **ledger_kwargs: Any
) -> FlopsLedger:
    """Replay a retained event list through a fresh ledger."""
    ledger = FlopsLedger(**ledger_kwargs)
    for e in events:
        ledger.emit(e)
    return ledger


def per_regime_efficiency(
    records: list, tracker: Any
) -> list[dict[str, Any]]:
    """Join per-blockstep efficiency records onto phase-observatory
    regime runs (matched on blockstep index), one aggregate row per
    contiguous regime run: which scheduling regime wastes which flops.
    """
    rows: list[dict[str, Any]] = []
    for run in getattr(tracker, "runs", []):
        start = run.start_blockstep
        stop = start + run.count
        peak = real = 0.0
        buckets = {b: 0.0 for b in BUCKETS}
        n_steps = 0
        for rec in records:
            if start <= rec.blockstep < stop:
                peak += rec.peak_flops
                real += rec.real_flops
                for b in BUCKETS:
                    buckets[b] += rec.buckets.get(b, 0.0)
                n_steps += 1
        if n_steps == 0:
            continue
        rows.append(
            {
                "regime": run.regime,
                "start_blockstep": start,
                "blocksteps": n_steps,
                "peak_flops": peak,
                "real_flops": real,
                "fraction_of_peak": real / peak if peak > 0 else 0.0,
                "buckets": {
                    b: {
                        "flops": buckets[b],
                        "fraction": buckets[b] / peak if peak > 0 else 0.0,
                    }
                    for b in BUCKETS
                },
            }
        )
    return rows
