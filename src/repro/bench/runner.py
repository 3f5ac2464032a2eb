"""Execute registered benchmarks and assemble ``BENCH_*.json`` artifacts.

Each trial runs under its own enabled tracer (installed as the
process-wide default for the duration, so the instrumented integrators
and simulated networks report into it), is wall-clock timed, and is
rolled up through :class:`repro.telemetry.PhaseAggregator` into the
paper's phase taxonomy; each registered observatory then harvests its
artifact section from the trial.  Setup (model sampling, network
construction) runs before the clock starts, so trial scatter in the
artifact is timing noise, not workload noise — the workloads themselves
are seeded (see ``params['seed']`` in :mod:`repro.bench.suites`).
"""

from __future__ import annotations

import time
from typing import Any

from ..telemetry import PhaseAggregator, PHASES
from ..telemetry.observatory import OBSERVATORIES, Harvest
from .env import environment_fingerprint
from .artifact import SCHEMA, validate_artifact
from .registry import REGISTRY, Benchmark, BenchmarkRegistry
from .stats import percentile, trial_stats


def _run_trial(bench: Benchmark, params: dict[str, Any]) -> dict[str, Any]:
    """One timed trial: returns wall seconds, phase split, metrics,
    and the benchmark's derived values."""
    with bench.trial(params) as (ctx, state):
        t0 = time.perf_counter()
        derived = bench.fn(ctx, state)
        wall_s = time.perf_counter() - t0
    breakdown = PhaseAggregator().consume(ctx.sink.events).breakdown()
    out: dict[str, Any] = {
        "wall_s": wall_s,
        "derived": dict(derived or {}),
        "metrics": ctx.tracer.metrics.snapshot(),
        "n_events": breakdown.n_events,
        "wall_us": dict(breakdown.wall.totals),
    }
    if breakdown.virtual is not None:
        out["virtual_us"] = dict(breakdown.virtual.totals)
    harvest = Harvest(ctx=ctx, events=ctx.sink.events)
    for obs in OBSERVATORIES:
        section = obs.harvest(harvest)
        if section is not None:
            out[obs.name] = harvest.sections[obs.name] = section
    return out


def _median_across(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys: list[str] = []
    for d in dicts:
        for k in d:
            if k not in keys:
                keys.append(k)
    return {k: percentile([d.get(k, 0.0) for d in dicts], 50.0) for k in keys}


def _merge_derived(trials: list[dict[str, Any]]) -> dict[str, Any]:
    """Median for numeric derived values, last-trial value otherwise."""
    merged: dict[str, Any] = {}
    for trial in trials:
        for key, value in trial["derived"].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                merged[key] = value
            else:
                merged[key] = percentile(
                    [
                        t["derived"][key]
                        for t in trials
                        if isinstance(t["derived"].get(key), (int, float))
                    ],
                    50.0,
                )
    return merged


def run_benchmark(
    bench: Benchmark,
    params: dict[str, Any],
    repeats: int = 3,
    warmup: int = 1,
) -> dict[str, Any]:
    """Run ``bench`` ``repeats`` times (after ``warmup`` discarded
    trials) and return its artifact entry."""
    if repeats < 1:
        raise ValueError("need at least one measured trial")
    for _ in range(max(warmup, 0)):
        _run_trial(bench, params)
    trials = [_run_trial(bench, params) for _ in range(repeats)]

    wall_list = [t["wall_s"] for t in trials]
    wall_us = _median_across([t["wall_us"] for t in trials])
    total_us = sum(wall_us.values())
    entry: dict[str, Any] = {
        "name": bench.name,
        "title": bench.title,
        "paper_ref": bench.paper_ref,
        "params": dict(params),
        "repeats": repeats,
        "warmup": warmup,
        "trials": {"wall_s": wall_list},
        "stats": {"wall_s": trial_stats(wall_list).as_dict()},
        "phases": {
            "wall_us": wall_us,
            "wall_fraction": {
                p: (wall_us.get(p, 0.0) / total_us if total_us > 0 else 0.0)
                for p in PHASES
            },
            "n_events": int(percentile([t["n_events"] for t in trials], 50.0)),
        },
        "metrics": trials[-1]["metrics"],
        "derived": _merge_derived(trials),
    }
    virtual_trials = [t["virtual_us"] for t in trials if "virtual_us" in t]
    if virtual_trials:
        entry["phases"]["virtual_us"] = _median_across(virtual_trials)
    # observatory sections: comm, regimes and the flops waterfall are
    # deterministic on the seeded schedule and real-execution rank
    # telemetry varies like wall_s does, so the last trial stands in
    # for all of them
    for obs in OBSERVATORIES:
        if obs.name in trials[-1]:
            entry[obs.name] = trials[-1][obs.name]
    return entry


def run_suite(
    suite: str,
    repeats: int = 3,
    warmup: int = 1,
    label: str | None = None,
    names: list[str] | None = None,
    registry: BenchmarkRegistry | None = None,
    progress=None,
    seed: int | None = None,
    tag: str | None = None,
    notes: str | None = None,
    exec_backend: str | None = None,
) -> dict[str, Any]:
    """Run every benchmark in ``suite`` and return a validated artifact.

    ``names`` restricts the run to a subset of the suite; ``progress``
    is an optional callable receiving one line per benchmark.  ``seed``
    overrides the workload seed of every benchmark that takes one, and
    ``tag`` labels the artifact (both land in the artifact root, so
    history rows stay reproducible and searchable).  ``notes`` is
    free-text provenance ("dedicated box, governor pinned") persisted
    into the artifact and its history row.  ``exec_backend`` (an
    execution-backend spec like ``"process:4"``; see
    :func:`repro.parallel.resolve_backend`) overrides the backend of
    every benchmark that dispatches rank compute.
    """
    registry = registry if registry is not None else REGISTRY
    benchmarks = registry.select(suite)
    if names:
        wanted = set(names)
        unknown = wanted - {b.name for b in benchmarks}
        if unknown:
            raise KeyError(
                f"not in suite {suite!r}: {', '.join(sorted(unknown))}"
            )
        benchmarks = [b for b in benchmarks if b.name in wanted]
    if not benchmarks:
        raise KeyError(f"suite {suite!r} selects no benchmarks")

    entries = []
    for bench in benchmarks:
        params = bench.params_for(suite)
        if seed is not None and "seed" in params:
            params["seed"] = int(seed)
        if exec_backend is not None and "exec_backend" in params:
            params["exec_backend"] = str(exec_backend)
        entry = run_benchmark(bench, params, repeats=repeats, warmup=warmup)
        entries.append(entry)
        if progress is not None:
            med = entry["stats"]["wall_s"]["median"]
            progress(f"{bench.name}: median {med * 1e3:.1f} ms over {repeats} trials")

    artifact = {
        "schema": SCHEMA,
        "label": label if label is not None else suite,
        "suite": suite,
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "benchmarks": entries,
    }
    if seed is not None:
        artifact["seed"] = int(seed)
    if exec_backend is not None:
        artifact["exec_backend"] = str(exec_backend)
    if tag is not None:
        artifact["tag"] = str(tag)
    if notes is not None:
        artifact["notes"] = str(notes)
    return validate_artifact(artifact, source=f"suite {suite!r}")
