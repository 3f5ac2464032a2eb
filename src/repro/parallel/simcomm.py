"""Virtual-time message-passing network.

An mpi4py-flavoured interface (lower-case object send/recv plus
collectives, following the tutorial idioms) whose cost model is the
linear latency/bandwidth model of the paper's NICs: a message of
``nbytes`` costs ``latency + nbytes / bandwidth`` from post to arrival,
where latency is half the measured round trip (section 4.4: NS 83820
200 us RTT / 60 MB/s; Intel 82540EM 67 us RTT / 105 MB/s).

The paper's own synchronisation is "butterfly message exchange using
TCP/IP", which :meth:`SimNetwork.barrier` reproduces: log2(p) rounds of
pairwise exchanges, so a barrier costs ~log2(p) latencies — this is the
1/N wall of figs. 16 and 18.

The implementation executes rank programs step-by-step from a single
driver (BSP style): ``send`` deposits the payload with its arrival
time; ``recv`` advances the receiver clock to max(own, arrival).  The
data really moves, so algorithms built on top are checked for
correctness, not just cost.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any

from ..config import NICConfig, NIC_NS83820
from ..telemetry import T_BARRIER, Tracer, get_tracer
from .ledger import CommLedger
from .virtualtime import VirtualClock


#: Bytes per particle for the paper's exchanges: position, velocity,
#: acceleration, jerk (4 x 3 doubles), mass, time, timestep, index —
#: ~112 bytes; we round to the conventional 128-byte particle record.
PARTICLE_BYTES: int = 128


class SimNetwork:
    """A set of ranks connected by a full crossbar of NIC links.

    Parameters
    ----------
    n_ranks:
        Number of hosts.
    nic:
        Latency/bandwidth model; defaults to the paper's original
        NS 83820 cards.
    per_message_overhead_us:
        Host-side protocol overhead charged to the sender per message
        (TCP/IP stack traversal), included in the latency figure by
        default.
    tracer:
        Telemetry tracer; defaults to the process-wide one.  Wire the
        tracer's ``virtual_clock`` to ``network.clock.elapsed`` (as
        :meth:`attach_tracer` does) to get virtual-time attribution of
        communication and barrier spans — the quantity figs. 16/18
        plot.
    """

    def __init__(
        self,
        n_ranks: int,
        nic: NICConfig = NIC_NS83820,
        per_message_overhead_us: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = VirtualClock(n_ranks)
        self.nic = nic
        self.overhead_us = float(per_message_overhead_us)
        self.ledger = CommLedger(n_ranks, nic=nic.name)
        self._tracer = tracer
        self._mailbox: dict[tuple[int, int, int], deque] = {}

    @property
    def stats(self) -> CommLedger:
        """Traffic totals (``messages``/``bytes``/``barriers``)."""
        return self.ledger

    def reset_stats(self) -> None:
        """Zero the communication ledger without touching the clocks
        or in-flight messages (used by the bench runner so per-trial
        counters never carry over)."""
        self.ledger.reset()

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def attach_tracer(self, tracer: Tracer) -> Tracer:
        """Bind a tracer to this network and point its virtual clock at
        the network's :class:`VirtualClock`; returns the tracer."""
        tracer.virtual_clock = lambda: self.clock.elapsed
        self._tracer = tracer
        return tracer

    @property
    def n_ranks(self) -> int:
        return self.clock.n_ranks

    # -- point to point -------------------------------------------------------

    def message_time_us(self, nbytes: int) -> float:
        """Post-to-arrival time of one message."""
        return (
            self.nic.rtt_latency_us / 2.0
            + self.overhead_us
            + nbytes / self.nic.bandwidth_mbs  # MB/s == bytes/us
        )

    def send(self, src: int, dst: int, payload: Any, nbytes: int, tag: int = 0) -> None:
        """Non-blocking send: deposits the payload with its arrival time."""
        if src == dst:
            raise ValueError("self-sends are not modelled")
        flight_us = self.message_time_us(nbytes)
        t_arrive = self.clock.now(src) + flight_us
        self._mailbox.setdefault((src, dst, tag), deque()).append((t_arrive, payload))
        self.ledger.record_message(src, dst, nbytes, flight_us,
                                   collective=tag < 0)
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("net.messages")
            tracer.count("net.bytes", nbytes)
            tracer.observe("net.message_bytes", nbytes)
            tracer.observe("net.message_us", flight_us)

    def recv(self, dst: int, src: int, tag: int = 0) -> Any:
        """Blocking receive: advances the receiver to the arrival time."""
        queue = self._mailbox.get((src, dst, tag))
        if not queue:
            raise RuntimeError(f"no message from {src} to {dst} with tag {tag}")
        t_arrive, payload = queue.popleft()
        wait_us = t_arrive - self.clock.now(dst)
        self.clock.wait_until(dst, t_arrive)
        tracer = self.tracer
        if tracer.enabled and wait_us > 0:
            tracer.observe("net.recv_wait_us", wait_us)
        return payload

    # -- collectives ------------------------------------------------------------

    def barrier(self) -> None:
        """Butterfly barrier: log2(p) pairwise-exchange rounds.

        For non-power-of-two p, the standard dissemination variant is
        used (rank exchanges with (rank +/- 2^k) mod p), which has the
        same ceil(log2 p)-round cost.
        """
        p = self.n_ranks
        if p == 1:
            return
        tracer = self.tracer
        rounds = 0
        arrivals = self.clock.snapshot()
        round_skews: list[float] = []
        with tracer.span("net.barrier", phase=T_BARRIER, p=p) as span:
            k = 1
            while k < p:
                for r in range(p):
                    self.send(r, (r + k) % p, None, 16, tag=-1 - k)
                for r in range(p):
                    self.recv(r, (r - k) % p, tag=-1 - k)
                k *= 2
                rounds += 1
                snap = self.clock.snapshot()
                round_skews.append(float(snap.max() - snap.min()))
            release = self.clock.synchronize()
            record = self.ledger.record_barrier(
                arrivals, release, rounds, round_skews)
            span.set(rounds=rounds, straggler=record.straggler,
                     skew_us=record.skew_us, sync_us=record.sync_us)
        if tracer.enabled:
            tracer.count("net.barriers")
            tracer.count("net.barrier_rounds", rounds)
            tracer.observe("net.barrier_skew_us", record.skew_us)
            tracer.observe("net.barrier_sync_us", record.sync_us)

    @contextmanager
    def exchange_phase(self, kind: str, n_particles: int = 0):
        """Bracket one coherence exchange for the ledger.

        Snapshots the traffic counters and the virtual clock around the
        body; the delta becomes an annotated
        :class:`~repro.parallel.ledger.ExchangeRecord` (and an
        exchange event on the flight-recorder timeline).
        """
        t0 = self.clock.elapsed
        m0, b0 = self.stats.messages, self.stats.bytes
        yield
        self.ledger.record_exchange(
            kind,
            t0,
            self.clock.elapsed,
            messages=self.stats.messages - m0,
            nbytes=self.stats.bytes - b0,
            n_particles=n_particles,
        )

    def bcast(self, root: int, payload: Any, nbytes: int) -> list[Any]:
        """Binomial-tree broadcast; returns the payload as seen by each rank."""
        p = self.n_ranks
        received = [None] * p
        received[root] = payload
        have = [root]
        k = 1
        while len(have) < p:
            senders = list(have)
            for s in senders:
                dst = (s + k) % p
                if received[dst] is None:
                    self.send(s, dst, payload, nbytes, tag=-100)
                    received[dst] = self.recv(dst, s, tag=-100)
                    have.append(dst)
            k *= 2
        return received

    def allgather(self, payloads: list[Any], nbytes_each: int) -> list[list[Any]]:
        """Ring allgather: p-1 shifts; every rank ends with all payloads."""
        p = self.n_ranks
        if len(payloads) != p:
            raise ValueError("one payload per rank required")
        if p == 1:
            return [list(payloads)]
        holding = [[(r, payloads[r])] for r in range(p)]
        for _ in range(p - 1):
            in_flight = [holding[r][-1] for r in range(p)]
            for r in range(p):
                self.send(r, (r + 1) % p, in_flight[r], nbytes_each, tag=-200)
            for r in range(p):
                holding[r].append(self.recv(r, (r - 1) % p, tag=-200))
        result = []
        for r in range(p):
            by_origin = dict(holding[r])
            result.append([by_origin[q] for q in range(p)])
        return result
