"""The benchmark's seeded workloads: one round of each, and its checks.

Every workload integrates Plummer models with the paper's constant
softening eps = 1/64.  A run's ``--seed`` expands into a fixed set of
realisations (one Plummer model each); a *round* integrates every
realisation once, and a run repeats rounds.  Averaging over several
realisations keeps a metric's seed-to-seed spread small: block sizes,
and with them the cost per particle step, differ between realisations
of a small cluster.

The energy check compares E(0) of the generated model with the energy
of the final state predicted to ``t_end`` (``synchronize``); the service
workload's ``t_end`` is a multiple of the largest step (1/8), so its
``final.npz`` already has every particle at ``t_end``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core import (
    BlockTimestepIntegrator,
    EnergyDiagnostics,
    ParticleSystem,
    constant_softening,
)
from repro.hardware import Grape6Emulator
from repro.io import read_snapshot
from repro.models import plummer_model
from repro.service import JOB_SCHEMA, JobSpec, Supervisor, read_archive
from repro.telemetry import get_tracer

#: Largest relative energy error |E(t_end) - E(0)| / |E(0)| a
#: realisation may end with.  Typical runs read 1e-8..1e-6, but a close
#: encounter in the first steps can reach ~1e-4 on a correct program
#: (the float64 and emulator backends alike), so this catches a blow-up;
#: unchanged arithmetic is guarded by the bitwise checks.
ENERGY_TOLERANCE = 1e-3
#: Simulated hosts of the service workload's copy algorithm.
SERVICE_RANKS = 8
#: Checkpoint cadence of the service workload, in blocksteps.
SERVICE_CHECKPOINT_EVERY = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``direct`` (block integrator on :class:`DirectSummation`),
    ``grape`` (the same on :class:`Grape6Emulator`) or ``service`` (a
    ``repro.service`` copy-algorithm run job).  ``layers`` names the
    layers whose wrapped functions the workload must call.
    """

    name: str
    kind: str
    n: int
    t_end: float
    realisations: int
    layers: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # host-bound: thousands of small blocks, predict/correct/
        # timestep/schedule and the integrator's own Python dominate
        Workload("plummer_direct_small", "direct", 64, 1.0, 32,
                 ("forces", "core")),
        # emulator-bound: the float kernel is never called
        Workload("plummer_grape", "grape", 256, 0.125, 16,
                 ("hardware", "core")),
        # service path: exchange, rank kernels, checkpoints, resume, bus
        Workload("service_copy_ckpt", "service", 256, 0.125, 16,
                 ("core", "parallel", "io", "service")),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of ``workload`` for the benchmark's tests."""
    return replace(workload, n=32, t_end=0.125, realisations=2)


def realisation_seeds(seed: int, count: int) -> list[int]:
    """The model seeds a run's ``--seed`` expands into."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def state_digest(system: ParticleSystem, blocksteps: int) -> str:
    """Bitwise fingerprint of a final state and its blockstep count."""
    h = hashlib.blake2b(repr(blocksteps).encode(), digest_size=16)
    for name in ("mass", "pos", "vel", "acc", "jerk", "snap", "crackle",
                 "pot", "t", "dt"):
        h.update(np.ascontiguousarray(getattr(system, name)).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one realisation of a round measured and produced."""

    index: int
    setup_s: float
    loop_s: float
    #: Set-up plus loop: the interval the traced run attributes.
    wall_s: float
    blocksteps: int
    particle_steps: int
    samples_ms: list[float]
    #: Final state, and the same predicted to ``t_end`` for the energy
    #: check; :meth:`Bench.verify` drops both, so that memory does not
    #: grow with the number of rounds a run keeps for its timings.
    final: ParticleSystem | None
    synced: ParticleSystem | None
    #: Service only: bus records published, and those lost or failed.
    records: int = 0
    lost_records: int = 0
    statuses: tuple[str, ...] = ()


@dataclass
class Bench:
    """One run's workload, its realisations and its check ledger."""

    workload: Workload
    seed: int
    workdir: Path
    seeds: list[int] = field(init=False)
    eps2: float = field(init=False)
    #: Operations attempted (blocksteps, bus records, checks) and the
    #: failed ones, described.
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    energy_errors: list[float] = field(default_factory=list)
    _first: dict[int, str] = field(default_factory=dict)
    _reference: dict[int, tuple[int, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.seeds = realisation_seeds(self.seed, self.workload.realisations)
        self.eps2 = constant_softening(self.workload.n) ** 2

    # -- ledger ---------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_tracer_off(self) -> None:
        self.check(not get_tracer().enabled,
                   "the process-wide tracer is enabled")

    # -- running ----------------------------------------------------------------

    def prepare(self, warm_up: bool = True) -> None:
        """Untimed: serial references (service) and a warm-up realisation
        of the tiny variant, which runs every code path once."""
        if warm_up:
            warm = Bench(tiny(self.workload), self.seed, self.workdir)
            warm.prepare(warm_up=False)
            warm.verify([warm.realisation(0)])
            self.attempted += warm.attempted
            self.failures.extend(warm.failures)
        if self.workload.kind == "service":
            for k, seed in enumerate(self.seeds):
                system = plummer_model(self.workload.n, seed=seed)
                integ = BlockTimestepIntegrator(system, self.eps2)
                integ.run(self.workload.t_end)
                self._reference[k] = (
                    integ.stats.blocksteps,
                    state_digest(system, integ.stats.blocksteps),
                )

    def round(self) -> list[Outcome]:
        """Integrate every realisation once."""
        return [self.realisation(k) for k in range(len(self.seeds))]

    def realisation(self, k: int) -> Outcome:
        if self.workload.kind == "service":
            return self._service(k)
        return self._library(k)

    def _library(self, k: int) -> Outcome:
        w = self.workload
        t0 = time.perf_counter()
        system = plummer_model(w.n, seed=self.seeds[k])
        backend = Grape6Emulator(self.eps2) if w.kind == "grape" else None
        integ = BlockTimestepIntegrator(system, self.eps2, backend=backend)
        stamps = [time.perf_counter()]
        # the loop BlockTimestepIntegrator.run() runs, with a stamp per
        # completed blockstep
        while True:
            t_next, _ = integ.scheduler.next_block()
            if t_next > w.t_end:
                break
            integ.step()
            stamps.append(time.perf_counter())
        t_done = time.perf_counter()
        return Outcome(
            index=k,
            setup_s=stamps[0] - t0,
            loop_s=stamps[-1] - stamps[0],
            wall_s=t_done - t0,
            blocksteps=integ.stats.blocksteps,
            particle_steps=integ.stats.particle_steps,
            samples_ms=[(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
            final=system,
            synced=integ.synchronize(w.t_end),
        )

    def _service(self, k: int) -> Outcome:
        w = self.workload
        jobdir = self.workdir / f"job-{k}"
        shutil.rmtree(jobdir, ignore_errors=True)
        spec = JobSpec.from_dict({
            "schema": JOB_SCHEMA,
            "kind": "run",
            "name": f"{w.name}-{k}",
            "params": {
                "model": "plummer", "n": w.n, "seed": self.seeds[k],
                "t_end": w.t_end, "algorithm": "copy",
                "ranks": SERVICE_RANKS,
            },
            "checkpoint_every": SERVICE_CHECKPOINT_EVERY,
            "sample_every": 1,
            # interrupt about halfway; the resume below finishes the job
            "max_blocksteps": max(1, self._reference[k][0] // 2),
            "exec_backend": "inline",
        })
        unix0 = time.time()
        t0 = time.perf_counter()
        sup = Supervisor.submit(spec, jobdir)
        first = sup.execute()
        # lift the budget on the persisted spec, as an operator would
        spec.max_blocksteps = None
        sup.paths.spec.write_text(
            json.dumps(spec.as_dict(), indent=2, sort_keys=True) + "\n")
        second = sup.execute(resume=True)
        t_done = time.perf_counter()

        records = read_archive(sup.paths.archive)
        segments: list[list] = []
        for rec in records:
            if rec.kind == "job" and rec.payload.get("status") in ("started", "resumed"):
                segments.append([])
            if segments:
                segments[-1].append(rec)
        started = next(r for r in records
                       if r.kind == "job" and r.payload.get("status") == "started")
        ended = [r for r in records
                 if r.kind == "job" and r.payload.get("status") == "completed"]
        samples: list[float] = []
        for seg in segments:
            states = [r for r in seg if r.kind == "state"]
            for a, b in zip(states, states[1:]):
                if b.payload["blocksteps"] == a.payload["blocksteps"] + 1:
                    samples.append((b.wall_unix - a.wall_unix) * 1e3)
        last = [r for r in records if r.kind == "state"][-1].payload
        published, lost = _bus_totals(sup.paths.progress)
        final, _ = read_snapshot(sup.paths.final_snapshot)
        outcome = Outcome(
            index=k,
            setup_s=started.wall_unix - unix0,
            loop_s=(ended[-1].wall_unix if ended else time.time()) - started.wall_unix,
            wall_s=t_done - t0,
            blocksteps=int(last["blocksteps"]),
            particle_steps=int(last["particle_steps"]),
            samples_ms=samples,
            final=final,
            synced=final,
            records=published,
            lost_records=lost,
            statuses=(first, second),
        )
        shutil.rmtree(jobdir, ignore_errors=True)
        return outcome

    # -- checks ---------------------------------------------------------------

    def verify(self, outcomes: list[Outcome]) -> None:
        """Correctness checks of finished realisations (untimed)."""
        w = self.workload
        for o in outcomes:
            label = f"{w.name} realisation {o.index}"
            self.attempted += o.blocksteps + o.records
            self.failures.extend(
                f"{label}: bus record lost" for _ in range(o.lost_records))
            final = o.final
            self.check(bool(np.isfinite(final.pos).all()
                            and np.isfinite(final.vel).all()),
                       f"{label}: non-finite state")
            self.check(bool(np.all(final.t <= w.t_end)
                            and np.all(final.t + final.dt > w.t_end)),
                       f"{label}: particle times do not bracket t_end={w.t_end}")
            digest = state_digest(final, o.blocksteps)
            if w.kind == "service":
                self.check(o.statuses == ("interrupted", "completed"),
                           f"{label}: job statuses {o.statuses}")
                self.check(digest == self._reference[o.index][1],
                           f"{label}: final.npz differs from the serial run")
            if o.index not in self._first:
                self._first[o.index] = digest
                err = self._energy_error(o)
                self.energy_errors.append(err)
                self.check(err < ENERGY_TOLERANCE,
                           f"{label}: |dE/E| = {err:.3g} >= {ENERGY_TOLERANCE:g}")
            else:
                self.check(digest == self._first[o.index],
                           f"{label}: state or blockstep count not repeatable")
            o.final = o.synced = None

    def _energy_error(self, o: Outcome) -> float:
        diag = EnergyDiagnostics(self.eps2)
        diag.measure(plummer_model(self.workload.n, seed=self.seeds[o.index]), 0.0)
        return float(diag.relative_error(diag.measure(o.synced, self.workload.t_end)))


def _bus_totals(progress_log: Path) -> tuple[int, int]:
    """Records published, and records dropped or failed, over every bus
    the job's segments closed (their ``bus: {...}`` lines)."""
    published = lost = 0
    lines = [ln for ln in progress_log.read_text().splitlines()
             if ln.startswith("bus: ")]
    for line in lines:
        lanes = ast.literal_eval(line[len("bus: "):])
        archive = lanes["archive"]
        published += archive["delivered"] + archive["dropped"] + archive["errors"]
        lost += sum(lane["dropped"] + lane["errors"] for lane in lanes.values())
    if not lines:
        lost += 1
    return published, lost
