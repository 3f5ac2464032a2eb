"""Render artifacts, comparisons and profiles as paper-style tables.

The text renderer targets terminals and CI logs; the markdown renderer
targets PR summaries (``$GITHUB_STEP_SUMMARY``).  The per-benchmark
phase table is the fig. 14 presentation: the time budget of one
particle-step split into the eq. 10 terms, both as absolute time and
as a share, with microseconds-per-step where the benchmark integrated
actual particles.
"""

from __future__ import annotations

from typing import Any

from ..io.tables import format_table, markdown_table
from ..telemetry import PAPER_PHASE_NAMES, PHASES
from ..telemetry.observatory import OBSERVATORIES
from .compare import ComparisonResult
from .profiling import ProfileAttribution


def _phase_rows(entry: dict[str, Any]) -> list[tuple]:
    """fig. 14-style rows: phase, time, share, optional virtual-clock
    columns (figs. 16/18 plot the virtual split) and us/step."""
    phases = entry["phases"]
    wall_us = phases["wall_us"]
    virtual_us = phases.get("virtual_us")
    total_us = sum(wall_us.values())
    v_total_us = sum(virtual_us.values()) if virtual_us else 0.0
    steps = entry.get("derived", {}).get("particle_steps")
    rows = []
    for phase in PHASES:
        us = wall_us.get(phase, 0.0)
        v_us = virtual_us.get(phase, 0.0) if virtual_us else 0.0
        if us <= 0.0 and v_us <= 0.0:
            continue
        row: list[object] = [
            PAPER_PHASE_NAMES.get(phase, phase),
            us / 1.0e3,
            f"{100.0 * us / total_us:.1f}%" if total_us > 0 else "-",
        ]
        if virtual_us is not None:
            row += [
                v_us / 1.0e3,
                f"{100.0 * v_us / v_total_us:.1f}%" if v_total_us > 0 else "-",
            ]
        if steps:
            row.append((v_us if virtual_us is not None else us) / steps)
        rows.append(tuple(row))
    if rows:
        total_row: list[object] = ["total", total_us / 1.0e3, "100.0%"]
        if virtual_us is not None:
            total_row += [v_total_us / 1.0e3, "100.0%"]
        if steps:
            total_row.append(
                (v_total_us if virtual_us is not None else total_us) / steps
            )
        rows.append(tuple(total_row))
    return rows


def _phase_headers(entry: dict[str, Any]) -> list[str]:
    headers = ["phase", "wall [ms]", "share"]
    if entry["phases"].get("virtual_us") is not None:
        headers += ["virtual [ms]", "virtual share"]
    if entry.get("derived", {}).get("particle_steps"):
        headers.append("us/step")
    return headers


def _fmt_derived(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _histogram_rows(entry: dict[str, Any]) -> list[tuple]:
    """Distribution metrics (block sizes, bytes/message) with tail
    percentiles; p99 tolerates pre-p99 artifacts via the p90 fallback."""
    rows = []
    for name, inst in sorted(entry.get("metrics", {}).items()):
        if not isinstance(inst, dict) or inst.get("type") != "histogram":
            continue
        rows.append(
            (
                name,
                inst.get("count", 0),
                f"{inst.get('mean', 0.0):.4g}",
                f"{inst.get('p50', 0.0):.4g}",
                f"{inst.get('p90', 0.0):.4g}",
                f"{inst.get('p99', inst.get('p90', 0.0)):.4g}",
                f"{inst.get('max', 0.0):.4g}",
            )
        )
    return rows


_HISTOGRAM_HEADERS = ("metric", "n", "mean", "p50", "p90", "p99", "max")


def _entry_tables(entry: dict[str, Any], table, name) -> list[str]:
    """One benchmark's phase, derived, histogram and observatory tables,
    rendered by ``table``; ``name`` formats the metric/key names."""
    lines = ["", table(_phase_headers(entry), _phase_rows(entry))]
    derived = entry.get("derived", {})
    if derived:
        lines += [
            "",
            table(
                ("derived", "value"),
                [(name(k), _fmt_derived(v)) for k, v in sorted(derived.items())],
            ),
        ]
    hist_rows = _histogram_rows(entry)
    if hist_rows:
        lines += [
            "",
            table(_HISTOGRAM_HEADERS, [(name(r[0]), *r[1:]) for r in hist_rows]),
        ]
    for obs in OBSERVATORIES:
        lines += obs.report(entry.get(obs.name), table)
    return lines


def render_artifact_text(artifact: dict[str, Any]) -> str:
    """Terminal report: one section per benchmark."""
    env = artifact["environment"]
    lines = [
        f"# BENCH artifact '{artifact['label']}' (suite {artifact['suite']}, "
        f"schema {artifact['schema']})",
        f"environment: python {env.get('python')} / numpy {env.get('numpy')} "
        f"on {env.get('platform')} ({env.get('cpu_count')} cpus)",
    ]
    if env.get("git_revision"):
        lines.append(f"revision: {env['git_revision']}")
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        lines += [
            "",
            f"## {entry['name']} — {entry.get('title', '')} [{entry['paper_ref']}]",
            f"params: {entry['params']}",
            f"wall: median {stats['median'] * 1e3:.2f} ms "
            f"(min {stats['min'] * 1e3:.2f}, IQR {stats['iqr'] * 1e3:.2f}, "
            f"n={stats['n']})",
            *_entry_tables(entry, format_table, str),
        ]
    return "\n".join(lines)


def render_artifact_markdown(artifact: dict[str, Any]) -> str:
    """PR-summary report with the fig. 14-style tables."""
    env = artifact["environment"]
    lines = [
        f"## Benchmark artifact `{artifact['label']}` "
        f"(suite `{artifact['suite']}`)",
        "",
        f"*python {env.get('python')}, numpy {env.get('numpy')}, "
        f"{env.get('cpu_count')} cpus, {env.get('platform')}*",
    ]
    summary_rows = []
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        summary_rows.append(
            (
                f"`{entry['name']}`",
                entry["paper_ref"],
                stats["median"] * 1e3,
                stats["iqr"] * 1e3,
                stats["n"],
            )
        )
    lines += [
        "",
        markdown_table(
            ["benchmark", "paper ref", "median [ms]", "IQR [ms]", "trials"],
            summary_rows,
        ),
    ]
    for entry in artifact["benchmarks"]:
        lines += [
            "",
            f"### `{entry['name']}` — time budget (fig. 14 style)",
            *_entry_tables(entry, markdown_table, lambda k: f"`{k}`"),
        ]
    return "\n".join(lines)


def render_compare_text(result: ComparisonResult) -> str:
    rows = []
    for v in result.verdicts:
        rows.append(
            (
                v.name,
                v.status,
                f"{v.ratio:.3f}" if v.ratio is not None else "-",
                f"{v.baseline_median_s * 1e3:.2f}" if v.baseline_median_s else "-",
                f"{v.current_median_s * 1e3:.2f}" if v.current_median_s else "-",
                f"{v.threshold * 100.0:.0f}%" if v.threshold is not None else "-",
                v.note,
            )
        )
    header = (
        f"# regression gate (threshold {result.rel_threshold * 100:.0f}%, "
        f"noise floor {result.iqr_factor:.3g} x IQR)"
    )
    drift_line = _drift_line(result)
    table = format_table(
        ("benchmark", "status", "ratio", "base [ms]", "cur [ms]", "thresh", "note"),
        rows,
    )
    if result.ok:
        tail = "verdict: OK"
    else:
        parts = []
        if result.regressed:
            parts.append(f"{len(result.regressed)} REGRESSED")
        if result.drifted:
            parts.append(f"{len(result.drifted)} DRIFT")
        tail = "verdict: FAILED (" + ", ".join(parts) + ")"
    return "\n".join([header, drift_line, "", table, "", tail])


def _drift_line(result: ComparisonResult) -> str:
    if result.drift_threshold is None:
        return "model-drift check: disabled"
    if not result.drift_checked:
        return (
            "model-drift check: skipped (environment fingerprints differ; "
            "the model/measured ratio re-anchors on a new machine)"
        )
    return (
        f"model-drift check: on "
        f"(|model/measured change| > {result.drift_threshold * 100:.0f}% fails)"
    )


def render_compare_markdown(result: ComparisonResult) -> str:
    icon = {"PASS": "✅", "IMPROVED": "🟢", "REGRESSED": "🔴",
            "NEW": "🆕", "MISSING": "⚠️", "DRIFT": "🟠"}
    rows = [
        (
            f"`{v.name}`",
            f"{icon.get(v.status, '')} {v.status}",
            f"{v.ratio:.3f}" if v.ratio is not None else "-",
            f"{v.threshold * 100.0:.0f}%" if v.threshold is not None else "-",
            v.note,
        )
        for v in result.verdicts
    ]
    head = "## Benchmark regression gate — " + ("OK" if result.ok else "FAILED")
    return "\n".join(
        [head, "", f"*{_drift_line(result)}*", "",
         markdown_table(["benchmark", "status", "ratio", "threshold", "note"], rows)]
    )


def render_profile_text(attr: ProfileAttribution) -> str:
    """Phase-attributed profile: the split, then the hotspots."""
    total = attr.total_s
    phase_rows = [
        (
            PAPER_PHASE_NAMES.get(p, p),
            attr.phase_self_s.get(p, 0.0),
            f"{100.0 * attr.phase_self_s.get(p, 0.0) / total:.1f}%" if total else "-",
        )
        for p in PHASES
        if attr.phase_self_s.get(p, 0.0) > 0.0
    ]
    lines = [
        f"# profile of '{attr.benchmark}' "
        f"({total:.3f} s self time, "
        f"{100.0 * attr.attributed_fraction:.1f}% attributed to paper phases)",
        "",
        format_table(("phase", "self [s]", "share"), phase_rows),
        "",
        "## hotspots (self time, descending)",
        "",
        format_table(
            ("function", "phase", "calls", "self [s]", "cum [s]"),
            [
                (
                    h.where,
                    PAPER_PHASE_NAMES.get(h.phase, h.phase),
                    h.calls,
                    h.self_s,
                    h.cum_s,
                )
                for h in attr.hotspots
            ],
        ),
    ]
    return "\n".join(lines)
