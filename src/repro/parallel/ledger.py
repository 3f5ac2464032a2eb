"""Per-link communication ledger: the §4.4 measurement substrate.

The paper's decisive tuning move — swapping the NS 83820 NIC for the
Intel 82540EM — came from *measuring* per-message and per-barrier
costs, not from the aggregate counters the earlier code kept.  The
three global numbers of :class:`repro.parallel.simcomm.MessageStats`
(messages/bytes/barriers) cannot answer the questions that analysis
asks: which link carries the traffic, how large the messages are, how
long each flight takes, who arrives last at each barrier and how much
the other hosts wait for it.

:class:`CommLedger` answers them.  One ledger per
:class:`~repro.parallel.simcomm.SimNetwork` records

* a **link ledger** per (src, dst, kind): message count, byte volume,
  and size/flight-time histograms (kind separates point-to-point
  payload traffic from the 16-byte collective/barrier messages, so the
  latency/bandwidth structure stays fittable — mixing them would blur
  the two regimes the linear NIC model distinguishes);
* **barrier attribution** per barrier, in virtual time: every rank's
  arrival, the straggler (who arrived last), the arrival skew, the
  per-butterfly-round clock spread, and the pure synchronisation cost
  (release minus last arrival — the ``rounds x flight`` term of
  :func:`repro.parallel.barrier.butterfly_barrier_us`);
* **exchange records**: each coherence exchange (ring allgather,
  grid row/column broadcast, inter-cluster ring) as a timed, annotated
  event bracketing the messages it generated.

The export is schema-versioned (:data:`COMM_LEDGER_SCHEMA`) and feeds
three consumers: the ``comm`` section of ``BENCH_*.json`` artifacts
(:mod:`repro.bench.runner`), the calibration fit of
:mod:`repro.perfmodel.calibrate`, and the flight-recorder timeline
(:meth:`CommLedger.trace_events` renders barriers per rank lane and
exchanges as annotated Chrome-trace events in the virtual clock
domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..io.documents import require_keys, require_schema
from ..telemetry import Histogram
from ..telemetry.timeline import TRACE_PIDS, lane_event, process_name_event

#: Bump on breaking layout changes of the ledger export; the bench
#: ``ledger`` CLI and the calibration fit refuse mismatches.
COMM_LEDGER_SCHEMA = "repro.comm_ledger/1"

#: Link kinds: payload point-to-point traffic vs the small collective
#: (barrier/broadcast bookkeeping) messages sent with negative tags.
KIND_P2P = "p2p"
KIND_COLLECTIVE = "collective"

#: Base trace process id for ledger events, from the central registry
#: (:data:`repro.telemetry.timeline.TRACE_PIDS`): network ``i`` of a
#: multi-fabric run renders under ``COMM_PID + i`` so its per-rank comm
#: lanes never interleave with span rows or the regime/efficiency lanes.
COMM_PID = TRACE_PIDS["comm"]

#: Keys every ledger export must carry (validation contract).
_REQUIRED_LEDGER_KEYS = (
    "schema", "nic", "n_ranks", "messages", "bytes", "barriers",
    "barrier_rounds", "barrier_sync_us", "barrier_wait_us", "links",
    "exchanges",
)


class LedgerError(ValueError):
    """Raised for schema violations in ledger exports."""


@dataclass
class LinkStats:
    """Traffic ledger of one directed (src, dst) link, one kind."""

    src: int
    dst: int
    kind: str
    messages: int = 0
    bytes: int = 0
    size_hist: Histogram = field(
        default_factory=lambda: Histogram("link.bytes"))
    flight_hist: Histogram = field(
        default_factory=lambda: Histogram("link.flight_us"))

    def record(self, nbytes: int, flight_us: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.size_hist.observe(nbytes)
        self.flight_hist.observe(flight_us)

    @property
    def mean_bytes(self) -> float:
        return self.bytes / self.messages if self.messages else 0.0

    @property
    def mean_flight_us(self) -> float:
        return self.flight_hist.mean

    def as_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "messages": self.messages,
            "bytes": self.bytes,
            "mean_bytes": self.mean_bytes,
            "mean_flight_us": self.mean_flight_us,
            "p50_flight_us": self.flight_hist.percentile(50.0),
            "max_flight_us": self.flight_hist.max if self.messages else 0.0,
            "max_bytes": self.size_hist.max if self.messages else 0.0,
        }


@dataclass(frozen=True)
class BarrierRecord:
    """One barrier's per-rank attribution, in virtual microseconds.

    ``arrivals_us[r]`` is rank r's clock when it entered the barrier;
    ``release_us`` is the common clock everyone leaves with.  The
    *straggler* is the last arriver — every other rank's wait includes
    the skew it caused; the *sync* cost is what even a perfectly
    balanced machine would pay (``release - max(arrivals)``, i.e.
    rounds x message flight — the 1/N wall of figs. 16/18).
    """

    index: int
    arrivals_us: tuple[float, ...]
    release_us: float
    rounds: int
    round_skew_us: tuple[float, ...]

    @property
    def straggler(self) -> int:
        return max(range(len(self.arrivals_us)),
                   key=lambda r: self.arrivals_us[r])

    @property
    def skew_us(self) -> float:
        """Arrival spread: how unbalanced the ranks were at entry."""
        return max(self.arrivals_us) - min(self.arrivals_us)

    @property
    def sync_us(self) -> float:
        """Pure synchronisation cost once everyone has arrived."""
        return self.release_us - max(self.arrivals_us)

    @property
    def wait_us(self) -> tuple[float, ...]:
        """Per-rank wait: release minus own arrival (straggler waits
        least, early arrivers pay its skew on top of the sync cost)."""
        return tuple(self.release_us - a for a in self.arrivals_us)

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "arrivals_us": list(self.arrivals_us),
            "release_us": self.release_us,
            "rounds": self.rounds,
            "round_skew_us": list(self.round_skew_us),
            "straggler": self.straggler,
            "skew_us": self.skew_us,
            "sync_us": self.sync_us,
        }


@dataclass(frozen=True)
class ExchangeRecord:
    """One coherence exchange (ring allgather, grid broadcast, ...)."""

    kind: str
    t_start_us: float
    t_end_us: float
    messages: int
    bytes: int
    n_particles: int = 0

    @property
    def dur_us(self) -> float:
        return self.t_end_us - self.t_start_us

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "t_start_us": self.t_start_us,
            "t_end_us": self.t_end_us,
            "dur_us": self.dur_us,
            "messages": self.messages,
            "bytes": self.bytes,
            "n_particles": self.n_particles,
        }


class CommLedger:
    """Message/barrier/exchange ledger of one simulated network."""

    def __init__(self, n_ranks: int, nic: str = "?") -> None:
        self.n_ranks = int(n_ranks)
        self.nic = str(nic)
        self._links: dict[tuple[int, int, str], LinkStats] = {}
        self.barrier_records: list[BarrierRecord] = []
        self.exchange_records: list[ExchangeRecord] = []

    # -- recording -------------------------------------------------------------

    def record_message(
        self, src: int, dst: int, nbytes: int, flight_us: float,
        collective: bool = False,
    ) -> None:
        kind = KIND_COLLECTIVE if collective else KIND_P2P
        key = (src, dst, kind)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = LinkStats(src=src, dst=dst, kind=kind)
        link.record(nbytes, flight_us)

    def record_barrier(
        self,
        arrivals_us: Iterable[float],
        release_us: float,
        rounds: int,
        round_skew_us: Iterable[float] = (),
    ) -> BarrierRecord:
        rec = BarrierRecord(
            index=len(self.barrier_records),
            arrivals_us=tuple(float(a) for a in arrivals_us),
            release_us=float(release_us),
            rounds=int(rounds),
            round_skew_us=tuple(float(s) for s in round_skew_us),
        )
        self.barrier_records.append(rec)
        return rec

    def record_exchange(
        self, kind: str, t_start_us: float, t_end_us: float,
        messages: int, nbytes: int, n_particles: int = 0,
    ) -> ExchangeRecord:
        rec = ExchangeRecord(
            kind=kind,
            t_start_us=float(t_start_us),
            t_end_us=float(t_end_us),
            messages=int(messages),
            bytes=int(nbytes),
            n_particles=int(n_particles),
        )
        self.exchange_records.append(rec)
        return rec

    def reset(self) -> None:
        """Forget everything (fresh trial on a reused network)."""
        self._links.clear()
        self.barrier_records.clear()
        self.exchange_records.clear()

    # -- views -----------------------------------------------------------------

    @property
    def links(self) -> list[LinkStats]:
        return [self._links[k] for k in sorted(self._links)]

    @property
    def messages(self) -> int:
        return sum(l.messages for l in self._links.values())

    @property
    def bytes(self) -> int:
        return sum(l.bytes for l in self._links.values())

    @property
    def barrier_sync_us(self) -> float:
        return sum(b.sync_us for b in self.barrier_records)

    @property
    def barrier_wait_us(self) -> float:
        return sum(sum(b.wait_us) for b in self.barrier_records)

    @property
    def barrier_rounds(self) -> int:
        return sum(b.rounds for b in self.barrier_records)

    def straggler_counts(self) -> dict[int, int]:
        """How often each rank was the last barrier arriver."""
        out: dict[int, int] = {}
        for b in self.barrier_records:
            out[b.straggler] = out.get(b.straggler, 0) + 1
        return out

    def mean_barrier_skew_us(self) -> float:
        if not self.barrier_records:
            return 0.0
        return sum(b.skew_us for b in self.barrier_records) / len(
            self.barrier_records)

    def exchange_totals(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for rec in self.exchange_records:
            agg = out.setdefault(
                rec.kind,
                {"count": 0, "messages": 0, "bytes": 0, "virtual_us": 0.0},
            )
            agg["count"] += 1
            agg["messages"] += rec.messages
            agg["bytes"] += rec.bytes
            agg["virtual_us"] += rec.dur_us
        return out

    # -- export ----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Compact JSON-ready rollup (the artifact's ``comm`` section)."""
        return {
            "nic": self.nic,
            "n_ranks": self.n_ranks,
            "messages": self.messages,
            "bytes": self.bytes,
            "barriers": len(self.barrier_records),
            "barrier_rounds": self.barrier_rounds,
            "barrier_sync_us": self.barrier_sync_us,
            "barrier_wait_us": self.barrier_wait_us,
            "mean_barrier_skew_us": self.mean_barrier_skew_us(),
            "straggler_ranks": {
                str(r): c for r, c in sorted(self.straggler_counts().items())
            },
            "exchanges": self.exchange_totals(),
            "links": [l.as_dict() for l in self.links],
        }

    def as_dict(self) -> dict[str, Any]:
        """Full schema-versioned export, including per-barrier and
        per-exchange records (the ``bench ledger`` CLI's output)."""
        return {
            "schema": COMM_LEDGER_SCHEMA,
            **self.summary(),
            "barrier_records": [b.as_dict() for b in self.barrier_records],
            "exchange_records": [e.as_dict() for e in self.exchange_records],
        }

    # -- timeline --------------------------------------------------------------

    def trace_events(self, pid: int = COMM_PID,
                     label: str | None = None) -> list[dict[str, Any]]:
        """Chrome trace events in the virtual-clock domain.

        Per barrier, one ``"X"`` event per rank lane (tid = rank)
        spanning arrival to release — the straggler's lane is the
        shortest bar, the wait it caused is everyone else's overhang;
        per exchange, one annotated ``"X"`` event on the lane past the
        last rank.  The output plugs straight into a ``traceEvents``
        list next to :func:`repro.telemetry.timeline.timeline_events`
        and passes :func:`repro.telemetry.timeline.validate_timeline`.
        """
        name = label or f"comm[{self.nic}]"
        events = [
            lane_event(
                "net.barrier.wait", "barrier", arrival, wait, pid, rank,
                {
                    "barrier": b.index,
                    "rank": rank,
                    "straggler": b.straggler,
                    "skew_us": b.skew_us,
                    "sync_us": b.sync_us,
                    "rounds": b.rounds,
                },
            )
            for b in self.barrier_records
            for rank, (arrival, wait) in enumerate(zip(b.arrivals_us, b.wait_us))
        ]
        events += [
            lane_event(
                f"net.exchange.{e.kind}", "exchange", e.t_start_us, e.dur_us,
                pid, self.n_ranks,
                {
                    "kind": e.kind,
                    "messages": e.messages,
                    "bytes": e.bytes,
                    "n_particles": e.n_particles,
                },
            )
            for e in self.exchange_records
        ]
        events.sort(key=lambda r: r["ts"])
        return [
            process_name_event(pid, f"{name} ledger (virtual clock)"), *events
        ]


def validate_comm_ledger(obj: Any, source: str = "ledger") -> dict[str, Any]:
    """Check a ledger export against its schema; returns it on success."""
    require_schema(obj, COMM_LEDGER_SCHEMA, source, LedgerError, "ledger root")
    require_keys(obj, _REQUIRED_LEDGER_KEYS, source, LedgerError)
    links = obj["links"]
    if not isinstance(links, list):
        raise LedgerError(f"{source}: 'links' must be a list")
    for i, link in enumerate(links):
        if not isinstance(link, dict):
            raise LedgerError(f"{source}: links[{i}] must be an object")
        require_keys(link, ("src", "dst", "kind", "messages", "bytes",
                            "mean_bytes", "mean_flight_us"),
                     source, LedgerError, f"links[{i}] ")
    if not isinstance(obj["exchanges"], dict):
        raise LedgerError(f"{source}: 'exchanges' must be an object")
    return obj


def merge_comm_summaries(
    summaries: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Roll per-network ledger summaries into one artifact ``comm``
    section.

    Networks are kept individually under ``networks`` (they may model
    different NICs — a hybrid run has one network per cluster plus the
    inter-cluster links, and the calibration fit must not mix NIC
    regimes); the top-level counters are totals across all of them.
    """
    summaries = list(summaries)
    return {
        "schema": COMM_LEDGER_SCHEMA,
        "networks": summaries,
        "messages": sum(s.get("messages", 0) for s in summaries),
        "bytes": sum(s.get("bytes", 0) for s in summaries),
        "barriers": sum(s.get("barriers", 0) for s in summaries),
        "barrier_rounds": sum(s.get("barrier_rounds", 0) for s in summaries),
        "barrier_sync_us": sum(
            s.get("barrier_sync_us", 0.0) for s in summaries),
        "barrier_wait_us": sum(
            s.get("barrier_wait_us", 0.0) for s in summaries),
    }


def validate_comm_section(obj: Any, source: str = "comm") -> dict[str, Any]:
    """Check an artifact ``comm`` section (a :func:`merge_comm_summaries`
    rollup); returns it on success."""
    require_schema(obj, COMM_LEDGER_SCHEMA, source, LedgerError, "section")
    if not isinstance(obj.get("networks"), list):
        raise LedgerError(f"{source}: must carry a 'networks' list")
    return obj

