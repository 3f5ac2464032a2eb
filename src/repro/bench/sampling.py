"""Sampled-run estimation: price an expensive run from a cheap scout
pass plus a short measured prefix.

The paper's §5 workloads (1.8M-particle Kuiper belt over ~400 wall
hours, 2M-particle BH binary) are untouchable per-push — yet their
blockstep streams cycle through a handful of recurring regimes.  This
module is the LoopPoint recipe (functional fast-forward for basic-block
vectors, detailed simulation only for cluster representatives)
transplanted to blockstep streams:

1. **scout pass** — run the workload once on the cheap direct-summation
   backend with telemetry off, keeping only the per-blockstep block
   sizes.  The blockstep *schedule* is a property of the integrator,
   not of how forces are computed, so this functional pass yields the
   (near-)exact block-size sequence of the expensive run at a fraction
   of its cost — no frozen-timestep extrapolation, no projection error
   (the emulator's fixed-point forces can nudge a timestep across a
   quantisation boundary at some seeds; the residual mismatch is
   measured and reported as ``schedule_match``);
2. **probe windows** — replay the *target* backend (e.g. the GRAPE
   emulator datapath) over ``prefix_fraction`` of the scouted
   blocksteps, split into several short windows spread across the whole
   run and resumed from scout checkpoints
   (:meth:`~repro.core.individual.BlockTimestepIntegrator.from_state`),
   each under the :class:`repro.telemetry.SignatureRecorder`,
   clustering the signature stream into regimes online.  Windows —
   rather than one contiguous prefix — matter twice: they sample every
   phase of the workload's regime mix, and they average out the
   slow cost drift (governor ramps, cache warm-up) that makes the first
   quarter of a run systematically more expensive than the rest;
3. **price the remainder** — assign each unsimulated scouted blockstep
   to its nearest regime by *schedule features* alone (a scout knows
   sizes, not durations) and charge the regime's mean measured cost,
   with **seeded bootstrap error bars** over the per-regime cost
   samples.

Validation mode runs the target workload exhaustively as ground truth,
replays the estimator against the same window slices of that run, and
repeats the measurement, reporting the **median** relative error (a
single noisy window on a shared runner would otherwise dominate).  CI
pins median error ≤ 5% at ≤ 25% of blocksteps simulated.  Results ship as
``repro.phase_signature/1`` artifacts (kind ``sampled_run``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..core.individual import BlockTimestepIntegrator
from ..forces.direct import DirectSummation
from ..io.documents import (
    atomic_write,
    read_json,
    require_keys,
    require_schema,
)
from ..service.jobs import build_backend, build_system, resolve_eps2
from ..telemetry import (
    InMemorySink,
    SCHEDULE_FEATURES,
    SIGNATURE_SCHEMA,
    PhaseSignature,
    RegimeTracker,
    SignatureError,
    SignatureRecorder,
    Tracer,
    regime_trace_events,
    schedule_signature,
    validate_signature_summary,
    write_timeline,
)
from .env import environment_fingerprint

#: ``kind`` of a sampled-run estimate artifact (schema stays
#: :data:`repro.telemetry.SIGNATURE_SCHEMA`).
SAMPLE_KIND = "sampled_run"

DEFAULT_PREFIX_FRACTION = 0.25
DEFAULT_MIN_PREFIX = 32
#: Number of probe windows the blockstep budget is split into.
DEFAULT_PROBE_WINDOWS = 6
#: Probe blocksteps whose costs are excluded from regime pricing (the
#: first steps of a fresh process pay allocator/cache warm-up that the
#: steady run does not; they stay in the measured probe wall time).
DEFAULT_BURN_IN = 8
DEFAULT_BOOTSTRAP = 200
DEFAULT_BOOTSTRAP_SEED = 1899
DEFAULT_MAX_ERROR = 0.05
DEFAULT_VALIDATE_REPEATS = 3


@dataclass(frozen=True)
class RegimeEstimate:
    """One regime's contribution to the extrapolation."""

    regime: int
    n_observed: int
    n_projected: int
    mean_wall_us: float
    ci_low_us: float
    ci_high_us: float
    mean_block_size: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "regime": self.regime,
            "n_observed": self.n_observed,
            "n_projected": self.n_projected,
            "mean_wall_us": self.mean_wall_us,
            "ci_low_us": self.ci_low_us,
            "ci_high_us": self.ci_high_us,
            "mean_block_size": self.mean_block_size,
        }


@dataclass
class SampledEstimate:
    """A sampled-run extrapolation with bootstrap error bars.

    ``estimated_total_us`` covers what an exhaustive target-backend run
    would sum over its blockstep spans (startup force evaluation
    excluded on both sides, so validation compares apples to apples).
    """

    params: dict[str, Any]
    t_end: float
    scout_blocksteps: int
    scout_wall_s: float
    prefix_blocksteps: int
    prefix_wall_us: float
    projected_blocksteps: int
    schedule_match: float
    estimated_total_us: float
    ci_low_us: float
    ci_high_us: float
    regimes: list[RegimeEstimate]
    summary: dict[str, Any]
    windows: list[list[int]]
    n_bootstrap: int
    bootstrap_seed: int
    estimator_wall_s: float = 0.0
    validation: dict[str, Any] | None = None

    @property
    def simulated_fraction(self) -> float:
        """Share of the scouted blockstep schedule actually simulated
        on the target backend."""
        return (
            self.prefix_blocksteps / self.scout_blocksteps
            if self.scout_blocksteps
            else 0.0
        )

    def as_artifact(self) -> dict[str, Any]:
        art: dict[str, Any] = {
            "schema": SIGNATURE_SCHEMA,
            "kind": SAMPLE_KIND,
            "created_unix": time.time(),
            "environment": environment_fingerprint(),
            "params": dict(self.params),
            "t_end": self.t_end,
            "scout_blocksteps": self.scout_blocksteps,
            "scout_wall_s": self.scout_wall_s,
            "prefix_blocksteps": self.prefix_blocksteps,
            "prefix_wall_us": self.prefix_wall_us,
            "projected_blocksteps": self.projected_blocksteps,
            "windows": [list(w) for w in self.windows],
            "schedule_match": self.schedule_match,
            "simulated_fraction": self.simulated_fraction,
            "estimated_total_us": self.estimated_total_us,
            "ci_low_us": self.ci_low_us,
            "ci_high_us": self.ci_high_us,
            "n_bootstrap": self.n_bootstrap,
            "bootstrap_seed": self.bootstrap_seed,
            "estimator_wall_s": self.estimator_wall_s,
            "regimes": [r.as_dict() for r in self.regimes],
            "signatures": self.summary,
        }
        if self.validation is not None:
            art["validation"] = dict(self.validation)
        return validate_sample_artifact(art)


def validate_sample_artifact(obj: Any, source: str = "sample") -> dict[str, Any]:
    """Structural check of a sampled-run artifact; returns it."""
    require_schema(obj, SIGNATURE_SCHEMA, source, SignatureError,
                   "artifact root")
    if obj.get("kind") != SAMPLE_KIND:
        raise SignatureError(
            f"{source}: kind {obj.get('kind')!r} not supported "
            f"(need {SAMPLE_KIND!r})"
        )
    require_keys(obj, (
        "params",
        "scout_blocksteps",
        "prefix_blocksteps",
        "projected_blocksteps",
        "simulated_fraction",
        "estimated_total_us",
        "ci_low_us",
        "ci_high_us",
        "regimes",
        "signatures",
    ), source, SignatureError)
    if not (obj["ci_low_us"] <= obj["estimated_total_us"] <= obj["ci_high_us"]):
        raise SignatureError(
            f"{source}: estimate must sit inside its confidence interval"
        )
    regimes = obj["regimes"]
    if not isinstance(regimes, list) or not regimes:
        raise SignatureError(f"{source}: 'regimes' must be a non-empty list")
    for i, reg in enumerate(regimes):
        require_keys(reg, ("regime", "n_observed", "n_projected",
                           "mean_wall_us", "ci_low_us", "ci_high_us"),
                     source, SignatureError, f"regimes[{i}] ")
    validate_signature_summary(obj["signatures"], source=f"{source}.signatures")
    return obj


def write_sample_artifact(artifact: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one sampled-run artifact (atomic rename)."""
    validate_sample_artifact(artifact, source=str(path))
    return atomic_write(
        path, json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def read_sample_artifact(path: str | Path) -> dict[str, Any]:
    obj = read_json(path, SignatureError, "artifact")
    return validate_sample_artifact(obj, source=str(path))


# -- instrumented runs ------------------------------------------------------


@dataclass
class _InstrumentedRun:
    """An integrator wired to a signature recorder and regime tracker."""

    integrator: BlockTimestepIntegrator
    recorder: SignatureRecorder
    tracker: RegimeTracker
    sink: InMemorySink | None


def _build_run(
    params: dict[str, Any],
    k_max: int = 8,
    spawn_distance: float = 0.6,
    hold: int = 3,
    keep_events: bool = False,
) -> _InstrumentedRun:
    system = build_system(params)
    tracker = RegimeTracker(k_max=k_max, spawn_distance=spawn_distance, hold=hold)
    recorder = SignatureRecorder(callback=tracker.update)
    sink = InMemorySink() if keep_events else None
    sinks: list[Any] = [recorder] + ([sink] if sink is not None else [])
    tracer = Tracer(enabled=True, sinks=sinks)
    integrator = BlockTimestepIntegrator(
        system,
        eps2=resolve_eps2(params),
        eta=float(params.get("eta", 0.02)),
        backend=build_backend(params),
        tracer=tracer,
    )
    return _InstrumentedRun(integrator, recorder, tracker, sink)


def _step_until(
    integ: BlockTimestepIntegrator,
    t_end: float,
    max_blocksteps: int | None = None,
) -> int:
    """Step until ``t_end`` or the blockstep budget; returns steps taken."""
    steps = 0
    while True:
        t_next, _ = integ.scheduler.next_block()
        if t_next > t_end:
            break
        integ.step()
        steps += 1
        if max_blocksteps is not None and steps >= max_blocksteps:
            break
    return steps


def scout_schedule(params: dict[str, Any], t_end: float) -> tuple[list[int], float]:
    """The functional pass: the full blockstep schedule, cheaply.

    Runs the workload on the direct-summation float64 backend with
    telemetry off and returns ``(block sizes, wall seconds)``.  The
    schedule depends only on the corrected timesteps, so this matches
    the expensive backend's schedule except where fixed-point force
    differences cross a power-of-two quantisation boundary (measured
    downstream as ``schedule_match``).
    """
    t0 = time.perf_counter()
    system = build_system(params)
    integ = BlockTimestepIntegrator(
        system,
        eps2=resolve_eps2(params),
        eta=float(params.get("eta", 0.02)),
        backend=DirectSummation(resolve_eps2(params)),
        tracer=Tracer(enabled=False),
    )
    _step_until(integ, t_end)
    return [int(b) for b in integ.stats.block_sizes], time.perf_counter() - t0


# -- probe windows ----------------------------------------------------------


def probe_windows(
    total: int, budget: int, n_windows: int = DEFAULT_PROBE_WINDOWS
) -> list[tuple[int, int]]:
    """Split ``budget`` probed blocksteps into non-overlapping
    ``(start, length)`` windows spread evenly over ``total``.

    The first window is anchored at blockstep 0 (the startup-heavy
    region an exhaustive run also pays) and the last ends at the final
    scheduled blockstep, so slow cost drift over the run is sampled at
    both ends instead of extrapolated from one.
    """
    if total < 1:
        raise ValueError("schedule must have at least one blockstep")
    budget = max(1, min(budget, total))
    m = max(1, min(n_windows, budget))
    base = budget // m
    extra = budget - base * m
    lengths = [base + (1 if i < extra else 0) for i in range(m)]
    if m == 1:
        return [(0, lengths[0])]
    free = total - budget
    windows: list[tuple[int, int]] = []
    consumed = 0
    for i, length in enumerate(lengths):
        start = consumed + round(i * free / (m - 1))
        windows.append((start, length))
        consumed += length
    return windows


def _scout_checkpoints(
    params: dict[str, Any], t_end: float, starts: list[int]
) -> tuple[dict[int, tuple[Any, dict]], float]:
    """Second functional pass: capture ``(system, integrator state)``
    checkpoints at the given blockstep indices (telemetry off, direct
    backend — the schedule replays pass 1 deterministically)."""
    wanted = {int(s) for s in starts}
    t0 = time.perf_counter()
    system = build_system(params)
    integ = BlockTimestepIntegrator(
        system,
        eps2=resolve_eps2(params),
        eta=float(params.get("eta", 0.02)),
        backend=DirectSummation(resolve_eps2(params)),
        tracer=Tracer(enabled=False),
    )
    checkpoints: dict[int, tuple[Any, dict]] = {}
    steps = 0
    if steps in wanted:
        checkpoints[steps] = (integ.system.copy(), integ.state_dict())
    while len(checkpoints) < len(wanted):
        t_next, _ = integ.scheduler.next_block()
        if t_next > t_end:
            break
        integ.step()
        steps += 1
        if steps in wanted:
            checkpoints[steps] = (integ.system.copy(), integ.state_dict())
    return checkpoints, time.perf_counter() - t0


@dataclass
class _ProbeResult:
    """Concatenated window signatures plus their regime clustering."""

    signatures: list[PhaseSignature] = field(default_factory=list)
    tracker: RegimeTracker | None = None
    events: list[Any] = field(default_factory=list)


def _run_probe_windows(
    params: dict[str, Any],
    t_end: float,
    windows: list[tuple[int, int]],
    checkpoints: dict[int, tuple[Any, dict]],
    k_max: int,
    spawn_distance: float,
    hold: int,
    keep_events: bool,
) -> _ProbeResult:
    """Resume the *target* backend from each scout checkpoint and run
    that window's blocksteps under a signature recorder.

    One backend instance serves every window (each blockstep re-uploads
    the full j-side, so there is no stale state to carry over), and the
    signatures are re-numbered to their global blockstep indices before
    regime clustering.
    """
    backend = build_backend(params)
    tracker = RegimeTracker(k_max=k_max, spawn_distance=spawn_distance, hold=hold)
    out = _ProbeResult(tracker=tracker)
    for start, length in windows:
        if start not in checkpoints:
            continue  # scout ended before this window (schedule mismatch)
        system, state = checkpoints[start]
        recorder = SignatureRecorder()
        sink = InMemorySink() if keep_events else None
        sinks: list[Any] = [recorder] + ([sink] if sink is not None else [])
        integ = BlockTimestepIntegrator.from_state(
            system, state, backend=backend, tracer=Tracer(enabled=True, sinks=sinks)
        )
        _step_until(integ, t_end, max_blocksteps=length)
        for j, sig in enumerate(recorder.signatures):
            sig = replace(sig, blockstep=start + j)
            out.signatures.append(sig)
            tracker.update(sig)
        if sink is not None:
            out.events.extend(sink.events)
    return out


# -- pricing ----------------------------------------------------------------


def _price_schedule(
    probe_sigs: list[PhaseSignature],
    tracker: RegimeTracker,
    remainder_sizes: list[int],
    n: int,
    burn_in: int,
    n_bootstrap: int,
    bootstrap_seed: int,
) -> tuple[float, float, float, list[RegimeEstimate]]:
    """Charge each unsimulated blockstep its regime's mean measured
    cost; returns (point estimate of the *remainder*, ci_low, ci_high,
    per-regime table).  All values are microseconds.
    """
    if not probe_sigs:
        raise ValueError("no probe signatures to price from")
    km = tracker.kmeans
    pricing = probe_sigs[min(burn_in, len(probe_sigs) // 2):]

    # observed per-regime cost samples, assigned against the *final*
    # centroids (early signatures may have trained a centroid that
    # drifted away from them)
    costs: dict[int, list[float]] = {}
    block_sums: dict[int, float] = {}
    for sig in pricing:
        idx, _ = km.nearest(sig.vector())
        costs.setdefault(idx, []).append(sig.wall_us)
        block_sums[idx] = block_sums.get(idx, 0.0) + sig.block_size
    all_costs = np.array([s.wall_us for s in pricing], dtype=np.float64)

    # unsimulated blocksteps -> regimes by schedule features alone
    proj_counts: dict[int, int] = {}
    base = len(probe_sigs)
    for i, b in enumerate(remainder_sizes):
        v = schedule_signature(base + i, int(b), n).vector()
        idx, _ = km.nearest(v, features=SCHEDULE_FEATURES)
        proj_counts[idx] = proj_counts.get(idx, 0) + 1

    def _regime_costs(regime: int) -> np.ndarray:
        observed = costs.get(regime)
        if observed:
            return np.asarray(observed, dtype=np.float64)
        return all_costs  # no survivor after re-assignment: global prior

    point = sum(
        cnt * float(_regime_costs(r).mean()) for r, cnt in proj_counts.items()
    )

    # seeded bootstrap: resample each regime's cost sample, re-price
    rng = np.random.default_rng(bootstrap_seed)
    regime_ids = sorted(set(costs) | set(proj_counts))
    boot_totals = np.empty(n_bootstrap, dtype=np.float64)
    boot_means: dict[int, np.ndarray] = {
        r: np.empty(n_bootstrap, dtype=np.float64) for r in regime_ids
    }
    for b in range(n_bootstrap):
        total = 0.0
        for r in regime_ids:
            c = _regime_costs(r)
            mean = float(rng.choice(c, size=c.size, replace=True).mean())
            boot_means[r][b] = mean
            total += proj_counts.get(r, 0) * mean
        boot_totals[b] = total

    regimes = [
        RegimeEstimate(
            regime=r,
            n_observed=len(costs.get(r, ())),
            n_projected=proj_counts.get(r, 0),
            mean_wall_us=float(_regime_costs(r).mean()),
            ci_low_us=float(np.percentile(boot_means[r], 2.5)),
            ci_high_us=float(np.percentile(boot_means[r], 97.5)),
            mean_block_size=(
                block_sums.get(r, 0.0) / len(costs[r]) if costs.get(r) else 0.0
            ),
        )
        for r in regime_ids
    ]
    ci_low = min(float(np.percentile(boot_totals, 2.5)), point)
    ci_high = max(float(np.percentile(boot_totals, 97.5)), point)
    return float(point), ci_low, ci_high, regimes


def _schedule_match(probe_sigs: list[PhaseSignature],
                    scout_sizes: list[int]) -> float:
    """Fraction of probed blocksteps whose size the scout predicted
    (matched by global blockstep index)."""
    if not probe_sigs:
        return 0.0
    hits = sum(
        1
        for sig in probe_sigs
        if sig.blockstep < len(scout_sizes)
        and sig.block_size == scout_sizes[sig.blockstep]
    )
    return hits / len(probe_sigs)


# -- the estimator ----------------------------------------------------------


def sampled_estimate(
    params: dict[str, Any],
    t_end: float,
    prefix_fraction: float = DEFAULT_PREFIX_FRACTION,
    min_prefix: int = DEFAULT_MIN_PREFIX,
    burn_in: int = DEFAULT_BURN_IN,
    n_windows: int = DEFAULT_PROBE_WINDOWS,
    k_max: int = 8,
    spawn_distance: float = 0.6,
    hold: int = 3,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = DEFAULT_BOOTSTRAP_SEED,
    timeline: str | Path | None = None,
    _scout: tuple[list[int], float] | None = None,
) -> SampledEstimate:
    """Estimate the full-run blockstep wall time of ``params``'s
    workload, simulating only probe windows on its (expensive) backend.

    The probe budget is ``prefix_fraction`` of the scouted blockstep
    count, floored at ``min_prefix`` and split into ``n_windows``
    windows spread over the schedule; the estimator never sees ground
    truth.  ``timeline`` writes the probe's span film with the regime
    lane attached.
    """
    if not 0.0 < prefix_fraction <= 1.0:
        raise ValueError("prefix_fraction must be in (0, 1]")
    wall_t0 = time.perf_counter()
    scout_sizes, scout_wall_s = (
        _scout if _scout is not None else scout_schedule(params, t_end)
    )
    if not scout_sizes:
        raise ValueError(
            f"workload has no blocksteps before t_end={t_end} — nothing to sample"
        )
    budget = min(
        max(min_prefix, int(prefix_fraction * len(scout_sizes))),
        len(scout_sizes),
    )
    windows = probe_windows(len(scout_sizes), budget, n_windows)
    checkpoints, ckpt_wall_s = _scout_checkpoints(
        params, t_end, [start for start, _ in windows]
    )

    probe = _run_probe_windows(
        params,
        t_end,
        windows,
        checkpoints,
        k_max=k_max,
        spawn_distance=spawn_distance,
        hold=hold,
        keep_events=timeline is not None,
    )
    probe_sigs = probe.signatures
    if not probe_sigs:
        raise ValueError("probe pass produced no blocksteps")
    prefix_wall_us = float(sum(s.wall_us for s in probe_sigs))

    probed = {sig.blockstep for sig in probe_sigs}
    remainder = [
        size for i, size in enumerate(scout_sizes) if i not in probed
    ]
    remainder_us, ci_low_r, ci_high_r, regimes = _price_schedule(
        probe_sigs,
        probe.tracker,
        remainder,
        n=int(params["n"]),
        burn_in=burn_in,
        n_bootstrap=n_bootstrap,
        bootstrap_seed=bootstrap_seed,
    )

    estimate = SampledEstimate(
        params=dict(params),
        t_end=float(t_end),
        scout_blocksteps=len(scout_sizes),
        scout_wall_s=float(scout_wall_s + ckpt_wall_s),
        prefix_blocksteps=len(probe_sigs),
        prefix_wall_us=prefix_wall_us,
        projected_blocksteps=len(remainder),
        schedule_match=_schedule_match(probe_sigs, scout_sizes),
        estimated_total_us=prefix_wall_us + remainder_us,
        ci_low_us=prefix_wall_us + ci_low_r,
        ci_high_us=prefix_wall_us + ci_high_r,
        regimes=regimes,
        summary=probe.tracker.summary(),
        windows=[[int(s), int(ln)] for s, ln in windows],
        n_bootstrap=int(n_bootstrap),
        bootstrap_seed=int(bootstrap_seed),
        estimator_wall_s=time.perf_counter() - wall_t0,
    )

    if timeline is not None and probe.events:
        write_timeline(
            timeline,
            probe.events,
            metadata={"kind": SAMPLE_KIND, "params": dict(params),
                      "t_end": float(t_end)},
            extra_events=regime_trace_events(probe.tracker),
        )
    return estimate


def validate_sampling(
    params: dict[str, Any],
    t_end: float,
    prefix_fraction: float = DEFAULT_PREFIX_FRACTION,
    min_prefix: int = DEFAULT_MIN_PREFIX,
    burn_in: int = DEFAULT_BURN_IN,
    n_windows: int = DEFAULT_PROBE_WINDOWS,
    repeats: int = DEFAULT_VALIDATE_REPEATS,
    warmup: bool = True,
    k_max: int = 8,
    spawn_distance: float = 0.6,
    hold: int = 3,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = DEFAULT_BOOTSTRAP_SEED,
    timeline: str | Path | None = None,
) -> SampledEstimate:
    """Sampled-vs-exhaustive validation; attaches a ``validation``
    section to the returned estimate.

    Each repeat runs the target workload **exhaustively** and replays
    the estimator against the same window slices of that run: the
    estimator sees exactly what a standalone :func:`sampled_estimate`
    would have measured (scouted schedule, ``prefix_fraction`` of
    blocksteps in ``n_windows`` windows), but prediction and ground
    truth come from the same measurement window, so the reported error
    is the estimator's, not the machine's minute-to-minute drift.  The
    headline number is the **median** relative error over ``repeats``;
    individual errors are kept so a noisy outlier stays visible.
    """
    scout = scout_schedule(params, t_end)
    scout_sizes, scout_wall_s = scout
    if not scout_sizes:
        raise ValueError(
            f"workload has no blocksteps before t_end={t_end} — nothing to sample"
        )
    budget = min(
        max(min_prefix, int(prefix_fraction * len(scout_sizes))),
        len(scout_sizes),
    )
    windows = probe_windows(len(scout_sizes), budget, n_windows)

    if warmup:
        run = _build_run(params)
        _step_until(run.integrator, t_end)

    errors: list[float] = []
    totals: list[float] = []
    covers: list[bool] = []
    estimate: SampledEstimate | None = None
    measured_blocksteps = 0
    probe_blocksteps = 0
    for _ in range(max(repeats, 1)):
        wall_t0 = time.perf_counter()
        run = _build_run(
            params,
            k_max=k_max,
            spawn_distance=spawn_distance,
            hold=hold,
            keep_events=timeline is not None,
        )
        _step_until(run.integrator, t_end)
        sigs = run.recorder.signatures
        measured_us = float(sum(s.wall_us for s in sigs))
        measured_blocksteps = len(sigs)

        # replay the estimator against this run's own window slices
        probe_sigs = [
            sigs[i]
            for start, length in windows
            for i in range(start, min(start + length, len(sigs)))
        ]
        probe_blocksteps = len(probe_sigs)
        probe_tracker = RegimeTracker(
            k_max=k_max, spawn_distance=spawn_distance, hold=hold
        )
        for sig in probe_sigs:
            probe_tracker.update(sig)
        prefix_wall_us = float(sum(s.wall_us for s in probe_sigs))
        probed = {sig.blockstep for sig in probe_sigs}
        remainder = [
            scout_sizes[i] if i < len(scout_sizes) else sigs[i].block_size
            for i in range(len(sigs))
            if i not in probed
        ]
        remainder_us, ci_low_r, ci_high_r, regimes = _price_schedule(
            probe_sigs,
            probe_tracker,
            remainder,
            n=int(run.integrator.system.n),
            burn_in=burn_in,
            n_bootstrap=n_bootstrap,
            bootstrap_seed=bootstrap_seed,
        )
        estimated = prefix_wall_us + remainder_us
        ci_low = prefix_wall_us + ci_low_r
        ci_high = prefix_wall_us + ci_high_r
        errors.append(
            abs(estimated - measured_us) / measured_us
            if measured_us > 0
            else float("inf")
        )
        totals.append(measured_us)
        covers.append(ci_low <= measured_us <= ci_high)
        estimate = SampledEstimate(
            params=dict(params),
            t_end=float(t_end),
            scout_blocksteps=len(scout_sizes),
            scout_wall_s=float(scout_wall_s),
            prefix_blocksteps=len(probe_sigs),
            prefix_wall_us=prefix_wall_us,
            projected_blocksteps=len(remainder),
            schedule_match=_schedule_match(probe_sigs, scout_sizes),
            estimated_total_us=estimated,
            ci_low_us=ci_low,
            ci_high_us=ci_high,
            regimes=regimes,
            summary=probe_tracker.summary(),
            windows=[[int(s), int(ln)] for s, ln in windows],
            n_bootstrap=int(n_bootstrap),
            bootstrap_seed=int(bootstrap_seed),
            estimator_wall_s=time.perf_counter() - wall_t0,
        )
        if timeline is not None and run.sink is not None:
            write_timeline(
                timeline,
                run.sink.events,
                metadata={"kind": SAMPLE_KIND, "params": dict(params),
                          "t_end": float(t_end), "validation": True},
                extra_events=regime_trace_events(run.tracker),
            )
    assert estimate is not None
    estimate.validation = {
        "repeats": int(max(repeats, 1)),
        "errors": errors,
        "median_rel_error": float(np.median(errors)),
        "measured_total_us": float(np.median(totals)),
        "measured_blocksteps": measured_blocksteps,
        "simulated_fraction": (
            estimate.prefix_blocksteps / measured_blocksteps
            if measured_blocksteps
            else 0.0
        ),
        "ci_covers": int(sum(covers)),
    }
    return estimate


def render_estimate_text(estimate: SampledEstimate) -> str:
    """Human-readable estimate report for the CLI."""
    p = estimate.params
    lines = [
        f"sampled-run estimate ({p.get('model', 'plummer')} n={p.get('n')}, "
        f"backend {p.get('backend', 'direct')}, t_end={estimate.t_end:g})",
        f"  scout: {estimate.scout_blocksteps} blocksteps scheduled in "
        f"{estimate.scout_wall_s * 1e3:.0f} ms (direct pass); schedule "
        f"match over probe {estimate.schedule_match:.1%}",
        f"  probe: {estimate.prefix_blocksteps} blocksteps simulated in "
        f"{len(estimate.windows)} window(s) "
        f"({estimate.simulated_fraction:.1%} of schedule), "
        f"{estimate.prefix_wall_us / 1e3:.2f} ms measured",
        f"  estimate: {estimate.estimated_total_us / 1e3:.2f} ms "
        f"[{estimate.ci_low_us / 1e3:.2f}, {estimate.ci_high_us / 1e3:.2f}] "
        f"(95% bootstrap, B={estimate.n_bootstrap})",
        f"  regimes: {len(estimate.regimes)} "
        f"(dominant {estimate.summary.get('dominant_regime')} at "
        f"{estimate.summary.get('dominant_share', 0.0):.0%}); "
        f"lane {estimate.summary.get('lane', '')}",
    ]
    for reg in estimate.regimes:
        lines.append(
            f"    regime {reg.regime}: {reg.n_observed} observed, "
            f"{reg.n_projected} projected, "
            f"{reg.mean_wall_us:.1f} us/blockstep "
            f"[{reg.ci_low_us:.1f}, {reg.ci_high_us:.1f}], "
            f"mean block {reg.mean_block_size:.1f}"
        )
    if estimate.validation is not None:
        v = estimate.validation
        errs = ", ".join(f"{e:.2%}" for e in v["errors"])
        lines.append(
            f"  validation: measured {v['measured_total_us'] / 1e3:.2f} ms "
            f"over {v['measured_blocksteps']} blocksteps; median error "
            f"{v['median_rel_error']:.2%} over {v['repeats']} repeat(s) "
            f"[{errs}]; simulated {v['simulated_fraction']:.1%}; "
            f"CI covered {v['ci_covers']}/{v['repeats']}"
        )
    return "\n".join(lines)
