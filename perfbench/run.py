"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload plummer_direct_small --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` times untraced rounds and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, the cost of tracing and the time no layer accounts
for.  Both run every correctness check.  The report goes to stdout; its
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed; a tree without the program's sources exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics reported with ``--trace 0``, with their units.
END_TO_END = {
    "particle_steps_per_s": "1/s",
    "blockstep_ms_p50": "ms",
    "blockstep_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the benchmark modules against this tree's ``src/``.

    Raises ``ImportError`` when the tree does not hold the program.
    """
    src = ROOT / "src"
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")
    from perfbench import layers, workloads

    return layers, workloads


def _median_samples(runs) -> list[float]:
    """Blockstep times of one realisation, each the median over rounds."""
    if len({len(o.samples_ms) for o in runs}) > 1:  # a bus record was lost
        return [s for o in runs for s in o.samples_ms]
    return [statistics.median(col) for col in zip(*(o.samples_ms for o in runs))]


def end_to_end(rounds: list[list]) -> tuple[dict[str, float], int]:
    """End-to-end metrics of untraced rounds, and the blockstep sample count."""
    # every round integrates the same realisations, so each blockstep's
    # time and each realisation's loop time is a median over rounds: a
    # burst of machine noise moves one round, not the metric
    per_realisation = list(zip(*rounds))
    samples = [s for runs in per_realisation for s in _median_samples(runs)]
    steps = sum(runs[0].particle_steps for runs in per_realisation)
    loop_s = sum(statistics.median(o.loop_s for o in runs)
                 for runs in per_realisation)
    return {
        "particle_steps_per_s": steps / loop_s,
        "blockstep_ms_p50": statistics.median(samples),
        "blockstep_ms_p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(
            o.setup_s for outcomes in rounds for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(samples)


def run_workload(workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, list[str]]:
    """Measure ``workload`` for ``seconds``; returns (result, report lines)."""
    layers, workloads = import_program()
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workroot))
    bench = workloads.Bench(workload, seed, workdir)
    untraced: list[list] = []
    traced: list[dict] = []
    traced_walls: list[float] = []

    def measure(with_trace: bool) -> None:
        bench.check_tracer_off()
        if with_trace:
            recorder = layers.SpanRecorder()
            with layers.traced(recorder):
                outcomes = bench.round()
            wall = sum(o.wall_s for o in outcomes)
            traced.append(layers.layer_metrics(recorder, workload.layers, wall))
            traced_walls.append(wall)
        else:
            outcomes = bench.round()
            untraced.append(outcomes)
        bench.check_tracer_off()
        bench.verify(outcomes)

    errors = 0
    try:
        bench.prepare()
        deadline = time.perf_counter() + seconds
        last = 0.0
        # one round at least, and with tracing two pairs, so that the exact
        # counts of two traced rounds are compared; after that, start
        # another round (or pair) only if it should end by the deadline,
        # judged by the last one
        while (not untraced or (trace and len(traced) < 2)
               or time.perf_counter() + last <= deadline):
            begun = time.perf_counter()
            if not trace:
                measure(False)
            else:
                # alternate which side of a pair runs first, so drift over
                # the run biases neither
                first = len(traced) % 2 == 1
                measure(first)
                measure(not first)
            last = time.perf_counter() - begun
    except Exception:
        errors = 1
        bench.failures.append("exception:\n" + traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use: not empty
            workroot.rmdir()

    attempted = bench.attempted + errors
    metrics: dict[str, dict] = {}
    lines = [
        f"workload {workload.name}: seed {seed}, {workload.realisations} x "
        f"N={workload.n} to t_end={workload.t_end}, "
        f"{len(untraced)} untraced + {len(traced)} traced rounds"
    ]
    if untraced and not trace:
        values, n_samples = end_to_end(untraced)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"blockstep samples: {n_samples}")
    elif traced:
        metrics = _layer_report(traced, traced_walls, untraced, bench, layers)
    failed = len(bench.failures)
    for name, m in metrics.items():
        mark = "  MISSING" if m.get("missing") else ""
        lines.append(f"{name:40s} {m['value']!s:>24} {m['unit']}{mark}")
    lines.append(
        f"{'error_rate':40s} {failed / max(attempted, 1):>24} ratio "
        f"({failed} failed / {attempted} attempted)")
    if bench.energy_errors:
        lines.append(
            f"max |dE/E| at t_end: {max(bench.energy_errors):.3g} "
            f"(tolerance {workloads.ENERGY_TOLERANCE:g})")
    lines.extend(f"FAILED: {what}" for what in bench.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _layer_report(traced, traced_walls, untraced, bench, layers) -> dict[str, dict]:
    """Median per-layer metrics over the traced rounds, with checks that
    the exact counts repeat and match the untraced rounds."""
    metrics: dict[str, dict] = {}
    for name, unit in layers.metric_units().items():
        if name == "trace.overhead":
            untraced_walls = [sum(o.wall_s for o in outcomes) for outcomes in untraced]
            value = (statistics.median(traced_walls)
                     / statistics.median(untraced_walls) - 1.0)
        else:
            values = [m[name] for m in traced]
            if any(v is None for v in values):
                metrics[name] = {"value": None, "unit": unit, "missing": True}
                continue
            value = (values[0] if len(set(values)) == 1
                     else statistics.median(values))
            if name in layers.EXACT_COUNTS:
                bench.check(len(set(values)) == 1,
                            f"{name} differs between traced rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}
    blocksteps = metrics["core.blocksteps"]["value"]
    if blocksteps is not None:
        counted = {sum(o.blocksteps for o in outcomes) for outcomes in untraced}
        bench.check(counted == {blocksteps},
                    f"traced blockstep count {blocksteps} != untraced {counted}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _, workloads = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    result, lines = run_workload(workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
