"""Per-layer tracing for the traced run.

:func:`traced` installs a timing wrapper around each layer's public
functions for the duration of one round and puts every original object
back afterwards.  A wrapper replaces the name where the caller looks it
up: a method on its class, or a function in the namespace of the module
that calls it (``repro.core.individual`` imports ``predict_hermite``,
so that is where the integrator finds it).  The program itself is not
edited and its own tracer stays off.

A span's *self time* is its duration minus the time covered by the
wrapped spans it called.  Spans nest strictly because the load is one
closed-loop caller on the ``inline`` execution backend.

:func:`layer_metrics` turns one recorder into the per-layer metrics.  A
metric whose layer the workload is expected to load, but whose spans
saw zero calls, is reported as missing (``None``), never as 0: a later
refactor that stops calling a wrapped function then shows up as a larger
``trace.unattributed_frac`` instead of passing for a speed-up.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Floating-point operations per pairwise interaction (paper, eq. 9).
FLOPS_PER_INTERACTION = 57
#: Computed bytes per j-particle read by one force call: x, v (6
#: float64) and m (1 float64).
BYTES_PER_J = 7 * 8
#: Computed bytes per i-particle of one force call: x, v read (6
#: float64); acc, jerk, pot written (7 float64).
BYTES_PER_I = 13 * 8


@dataclass
class SpanStats:
    """Calls, inclusive time and self time of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class SpanRecorder:
    """Collects spans, counters and the objects the wrappers saw."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        #: Time covered by spans opened with no wrapped span around them.
        self.root_s = 0.0
        self.counters: dict[str, float] = {}
        #: Objects seen by method wrappers, in first-seen order.
        self.instances: dict[str, dict[int, Any]] = {}
        self._local = threading.local()

    def stats(self, span: str) -> SpanStats:
        return self.spans.get(span, SpanStats())

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def keep(self, key: str, obj: Any) -> None:
        self.instances.setdefault(key, {})[id(obj)] = obj

    def seen(self, key: str) -> list[Any]:
        return list(self.instances.get(key, {}).values())

    def wrap(self, span: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` timed as ``span``; ``note(recorder, args, result, seconds)``
        runs after each completed call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                child_s = stack.pop()
                if stack:
                    stack[-1] += seconds
                else:
                    recorder.root_s += seconds
                st = recorder.spans.setdefault(span, SpanStats())
                st.calls += 1
                st.total_s += seconds
                st.self_s += seconds - child_s
            if note is not None:
                note(recorder, args, result, seconds)
            return result

        return wrapper


# -- per-call notes -----------------------------------------------------------


def _note_forces(rec: SpanRecorder, args, result, seconds) -> None:
    backend, xi = args[0], args[1]
    rec.add("forces.interactions", result.interactions)
    rec.add("forces.bytes", BYTES_PER_J * backend.n_j + BYTES_PER_I * len(xi))


def _note_hardware(rec: SpanRecorder, args, result, seconds) -> None:
    rec.keep("hardware", args[0])
    rec.add("hardware.interactions", result.interactions)


def _note_step(rec: SpanRecorder, args, result, seconds) -> None:
    rec.add("core.particle_steps", result[1])


def _note_barrier(rec: SpanRecorder, args, result, seconds) -> None:
    rec.keep("network", args[0])


def _note_checkpoint(rec: SpanRecorder, args, result, seconds) -> None:
    rec.spans["io.checkpoint_write"].durations.append(seconds)
    rec.add("io.checkpoint_bytes", result.stat().st_size)


def _note_publish(rec: SpanRecorder, args, result, seconds) -> None:
    rec.keep("bus", args[0])


#: (span, module the caller looks the name up in, attribute path, note).
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("forces.busy", "repro.forces.direct", "DirectSummation.forces_on", _note_forces),
    ("forces.set_j", "repro.forces.direct", "DirectSummation.set_j_particles", None),
    ("core.step", "repro.core.individual", "BlockTimestepIntegrator.step", _note_step),
    ("core.predict", "repro.core.individual", "predict_hermite", None),
    ("core.correct", "repro.core.individual", "hermite_correct", None),
    ("core.timestep", "repro.core.individual", "aarseth_dt", None),
    ("core.timestep", "repro.core.individual", "quantize_block_dt", None),
    ("core.schedule", "repro.core.scheduler", "BlockScheduler.next_block", None),
    ("core.schedule", "repro.core.scheduler", "BlockScheduler.update", None),
    ("hardware.busy", "repro.hardware.system", "Grape6Emulator.forces_on", _note_hardware),
    ("hardware.set_j", "repro.hardware.system", "Grape6Emulator.set_j_particles", None),
    ("parallel.forces", "repro.parallel.copy_algorithm", "CopyAlgorithm.forces_on", None),
    ("parallel.exchange", "repro.parallel.copy_algorithm", "CopyAlgorithm.exchange_updated", None),
    ("parallel.run_tasks", "repro.parallel.execution", "InlineBackend.run_tasks", None),
    ("parallel.send_recv", "repro.parallel.simcomm", "SimNetwork.send", None),
    ("parallel.send_recv", "repro.parallel.simcomm", "SimNetwork.recv", None),
    ("parallel.barrier", "repro.parallel.simcomm", "SimNetwork.barrier", _note_barrier),
    ("io.checkpoint_write", "repro.service.supervisor", "write_checkpoint", _note_checkpoint),
    ("io.resume_read", "repro.service.supervisor", "read_checkpoint", None),
    ("io.resume_read", "repro.service.supervisor", "restore_integrator", None),
    ("io.snapshot_write", "repro.service.supervisor", "write_snapshot", None),
    ("service.execute", "repro.service.supervisor", "Supervisor.execute", None),
    ("service.publish", "repro.service.bus", "SnapshotBus.publish", _note_publish),
    ("service.state_write", "repro.service.supervisor", "write_state", None),
)


def patch_sites() -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, current object)`` for every wrapped name.

    Raises ``KeyError`` when an attribute is no longer defined on its
    owner itself, so a moved function fails loudly instead of being
    wrapped somewhere it is never called.
    """
    sites = []
    for _, module, path, _ in PATCHES:
        owner: Any = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        sites.append((owner, attr, vars(owner)[attr]))
    return sites


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the wrappers for the body; restore the originals after."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for (span, _, _, note), (owner, attr, original) in zip(PATCHES, patch_sites()):
            setattr(owner, attr, recorder.wrap(span, original, note))
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# -- metrics ------------------------------------------------------------------

#: Time metrics: (name, layer, spans, inclusive).  Self time unless
#: ``inclusive``; each also reports ``<name>.calls``.
TIME_METRICS: tuple[tuple[str, str, tuple[str, ...], bool], ...] = (
    ("forces.busy_s", "forces", ("forces.busy",), False),
    ("forces.set_j_s", "forces", ("forces.set_j",), False),
    ("core.predict_s", "core", ("core.predict",), False),
    ("core.correct_s", "core", ("core.correct",), False),
    ("core.timestep_s", "core", ("core.timestep",), False),
    ("core.schedule_s", "core", ("core.schedule",), False),
    ("core.step_self_s", "core", ("core.step",), False),
    ("hardware.busy_s", "hardware", ("hardware.busy",), False),
    ("hardware.set_j_s", "hardware", ("hardware.set_j",), False),
    ("parallel.forces_s", "parallel", ("parallel.forces",), True),
    ("parallel.run_tasks_s", "parallel", ("parallel.run_tasks",), True),
    ("parallel.replay_self_s", "parallel", ("parallel.forces",), False),
    ("parallel.exchange_s", "parallel", ("parallel.exchange",), False),
    ("parallel.send_recv_s", "parallel", ("parallel.send_recv",), False),
    ("parallel.barrier_s", "parallel", ("parallel.barrier",), False),
    ("io.checkpoint_write_s", "io", ("io.checkpoint_write",), False),
    ("io.resume_read_s", "io", ("io.resume_read",), False),
    ("io.snapshot_write_s", "io", ("io.snapshot_write",), False),
    ("service.self_s", "service", ("service.execute", "service.publish"), False),
    ("service.state_write_s", "service", ("service.state_write",), False),
)

#: Derived metrics: (name, unit, layer, span whose calls they need).
DERIVED_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("forces.interactions_per_s", "1/s", "forces", "forces.busy"),
    ("forces.gflops_eq9", "Gflop/s", "forces", "forces.busy"),
    ("forces.bytes_computed", "B", "forces", "forces.busy"),
    ("forces.flops_per_byte", "flop/B", "forces", "forces.busy"),
    ("core.blocksteps", "count", "core", "core.step"),
    ("core.mean_block_size", "count", "core", "core.step"),
    ("hardware.interactions_per_s", "1/s", "hardware", "hardware.busy"),
    ("hardware.retry_ratio", "ratio", "hardware", "hardware.busy"),
    ("hardware.jmem_elided_ratio", "ratio", "hardware", "hardware.set_j"),
    ("hardware.cycles", "cycles", "hardware", "hardware.busy"),
    ("parallel.messages_per_step", "msg/step", "parallel", "parallel.barrier"),
    ("parallel.bytes_per_step", "B/step", "parallel", "parallel.barrier"),
    ("parallel.virtual_us_per_step", "us/step", "parallel", "parallel.barrier"),
    ("io.checkpoint_write_ms_p50", "ms", "io", "io.checkpoint_write"),
    ("io.checkpoint_bytes", "B", "io", "io.checkpoint_write"),
    ("service.bus_published", "count", "service", "service.publish"),
    ("service.bus_dropped", "count", "service", "service.publish"),
)

#: Metrics of the trace itself, computed by the runner.
TRACE_METRICS: tuple[tuple[str, str], ...] = (
    ("trace.overhead", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: Counts that must repeat exactly in every traced round of a run.
EXACT_COUNTS = (
    "core.blocksteps",
    "hardware.cycles",
    "parallel.messages_per_step",
    "parallel.virtual_us_per_step",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name, _, _, _ in TIME_METRICS:
        units[name] = "s"
        units[f"{name}.calls"] = "count"
    for name, unit, _, _ in DERIVED_METRICS:
        units[name] = unit
    units.update(TRACE_METRICS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derive(rec: SpanRecorder) -> dict[str, float]:
    busy = rec.stats("forces.busy").total_s
    interactions = rec.counters.get("forces.interactions", 0)
    flops = FLOPS_PER_INTERACTION * interactions
    blocksteps = rec.stats("core.step").calls
    emulators = rec.seen("hardware")
    networks = rec.seen("network")
    checkpoint = rec.stats("io.checkpoint_write")
    drops = sum(
        lane["dropped"] for bus in rec.seen("bus") for lane in bus.stats().values()
    )
    return {
        "forces.interactions_per_s": _ratio(interactions, busy),
        "forces.gflops_eq9": _ratio(flops, busy) / 1e9,
        "forces.bytes_computed": rec.counters.get("forces.bytes", 0),
        "forces.flops_per_byte": _ratio(flops, rec.counters.get("forces.bytes", 0)),
        "core.blocksteps": blocksteps,
        "core.mean_block_size": _ratio(
            rec.counters.get("core.particle_steps", 0), blocksteps),
        "hardware.interactions_per_s": _ratio(
            rec.counters.get("hardware.interactions", 0),
            rec.stats("hardware.busy").total_s),
        "hardware.retry_ratio": _ratio(
            sum(e.stats.exponent_retries for e in emulators),
            sum(e.stats.force_evaluations for e in emulators)),
        "hardware.jmem_elided_ratio": _ratio(
            sum(e.stats.jmem_loads_elided for e in emulators),
            sum(e.stats.jmem_loads for e in emulators)),
        "hardware.cycles": sum(e.total_cycles for e in emulators),
        "parallel.messages_per_step": _ratio(
            sum(n.stats.messages for n in networks), blocksteps),
        "parallel.bytes_per_step": _ratio(
            sum(n.stats.bytes for n in networks), blocksteps),
        "parallel.virtual_us_per_step": _ratio(
            sum(n.clock.elapsed for n in networks), blocksteps),
        "io.checkpoint_write_ms_p50": (
            statistics.median(checkpoint.durations) * 1e3
            if checkpoint.durations else 0.0),
        "io.checkpoint_bytes": _ratio(
            rec.counters.get("io.checkpoint_bytes", 0), checkpoint.calls),
        "service.bus_published": rec.stats("service.publish").calls,
        "service.bus_dropped": drops,
    }


def layer_metrics(
    rec: SpanRecorder, expected: tuple[str, ...], wall_s: float
) -> dict[str, float | None]:
    """Per-layer metrics of one traced round that took ``wall_s``.

    ``expected`` names the layers the workload loads; their metrics are
    ``None`` when the spans they need saw no call.  ``trace.overhead``
    is left to the caller, which owns the untraced rounds.
    """
    out: dict[str, float | None] = {}
    for name, layer, spans, inclusive in TIME_METRICS:
        calls = sum(rec.stats(s).calls for s in spans)
        seconds = sum(
            rec.stats(s).total_s if inclusive else rec.stats(s).self_s
            for s in spans
        )
        missing = layer in expected and calls == 0
        out[name] = None if missing else seconds
        out[f"{name}.calls"] = None if missing else calls
    derived = _derive(rec)
    for name, _, layer, needs in DERIVED_METRICS:
        missing = layer in expected and rec.stats(needs).calls == 0
        out[name] = None if missing else derived[name]
    out["trace.unattributed_frac"] = _ratio(wall_s - rec.root_s, wall_s)
    return out
