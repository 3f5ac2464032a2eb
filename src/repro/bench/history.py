"""Append-only bench history: the repo's own "33.4 -> 35.3" trajectory.

Section 6 of the paper is a *history*: the same sweep re-measured
across tuning iterations, presented as sustained speed per revision
(the 33.4 -> 35.3 Tflops arc).  One ``BENCH_*.json`` artifact is a
point; this module persists those points across commits into
``benchmarks/history.jsonl`` and renders the trajectory — per
benchmark, the median wall time over time, the delta against the
previous measurement, and whether the analytic perfmodel's
model-over-measured ratio drifted (a drift means the model or the code
changed character, not just speed).

Rows are keyed by environment fingerprint + git revision so
measurements from different machines never get compared as if they
were a code change: the trajectory renderers group by environment, and
the drift check in :mod:`repro.bench.compare` only fires when both
artifacts come from the same fingerprint.

The file is JSONL and append-only — ingesting the same artifact twice
is a no-op (idempotent CI), and unknown row schemas raise rather than
silently skewing the table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable

try:  # POSIX; on platforms without it ingest degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..io.documents import atomic_write
from ..io.tables import format_table, markdown_table
from ..telemetry.observatory import (
    DEFAULT_EFF_DROP_THRESHOLD,
    DEFAULT_SHIFT_THRESHOLD,
    DEFAULT_SKEW_JUMP_THRESHOLD,
    OBSERVATORIES,
    point_value,
)
from .artifact import validate_artifact
from .compare import DEFAULT_DRIFT_THRESHOLD  # the gate's model-drift flag

#: Bump on breaking row-layout changes.
HISTORY_SCHEMA = "repro.bench.history/1"

#: Where CI and the CLI keep the trajectory by default.
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history.jsonl"

#: Environment-fingerprint fields that define "the same machine".
_ENV_KEY_FIELDS = ("python", "implementation", "platform", "machine",
                   "cpu_count", "numpy")


class HistoryError(ValueError):
    """Raised for unreadable history files and unknown row schemas."""


def env_key(environment: dict[str, Any]) -> str:
    """Short stable hash of the fingerprint fields that identify a
    machine (excludes the git revision: same box, any commit)."""
    basis = json.dumps(
        {k: environment.get(k) for k in _ENV_KEY_FIELDS}, sort_keys=True
    )
    return hashlib.sha256(basis.encode()).hexdigest()[:12]


def artifact_row(artifact: dict[str, Any]) -> dict[str, Any]:
    """Distil one validated artifact into one history row."""
    validate_artifact(artifact, source="history ingest")
    env = artifact["environment"]
    benchmarks: dict[str, dict[str, Any]] = {}
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        bench: dict[str, Any] = {
            "median_s": float(stats["median"]),
            "iqr_s": float(stats.get("iqr", 0.0)),
            "n": int(stats.get("n", 0)),
        }
        ratio = entry.get("derived", {}).get("model_over_measured")
        if isinstance(ratio, (int, float)) and not isinstance(ratio, bool):
            bench["model_over_measured"] = float(ratio)
        for obs in OBSERVATORIES:
            bench.update(obs.distil(entry.get(obs.name)))
        benchmarks[entry["name"]] = bench
    row = {
        "schema": HISTORY_SCHEMA,
        "label": artifact["label"],
        "suite": artifact["suite"],
        "created_unix": artifact.get("created_unix"),
        "ingested_unix": time.time(),
        "git_revision": env.get("git_revision"),
        "env_key": env_key(env),
        "seed": artifact.get("seed"),
        "tag": artifact.get("tag"),
        "benchmarks": benchmarks,
    }
    notes = artifact.get("notes")
    if notes is not None:
        row["notes"] = str(notes)
    return row


def _row_key(row: dict[str, Any]) -> tuple:
    """Idempotence key: one (machine, commit, suite, label) is one row.

    Artifacts without a git revision (source tarballs) fall back to the
    artifact creation time so repeated ingests still dedupe."""
    return (
        row.get("env_key"),
        row.get("git_revision") or row.get("created_unix"),
        row.get("suite"),
        row.get("label"),
    )


def read_history(path: str | Path) -> list[dict[str, Any]]:
    """All rows, file order (which is ingest order).  Missing file is
    an empty history; malformed lines and foreign schemas raise."""
    path = Path(path)
    if not path.exists():
        return []
    rows: list[dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HistoryError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(row, dict) or row.get("schema") != HISTORY_SCHEMA:
            raise HistoryError(
                f"{path}:{lineno}: schema {row.get('schema')!r} not supported "
                f"(need {HISTORY_SCHEMA!r})"
            )
        rows.append(row)
    return rows


@contextmanager
def _history_lock(path: Path):
    """Advisory exclusive lock serialising read-check-append cycles.

    The lock lives in a sibling ``.lock`` file so readers of the
    history itself never contend; on platforms without ``fcntl`` the
    lock degrades to nothing (appends are still atomic, only the
    cross-process dedupe check races)."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _append_row(path: Path, row: dict[str, Any]) -> None:
    """One ``O_APPEND`` write per record: concurrent appenders may
    interleave *rows* but never *bytes within a row*, so the file stays
    line-parseable under any write race."""
    line = (json.dumps(row, sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def ingest_artifact(
    artifact: dict[str, Any],
    path: str | Path,
    force: bool = False,
    notes: str | None = None,
) -> tuple[dict[str, Any], bool]:
    """Append ``artifact``'s row to the history file.

    Returns ``(row, appended)``; ``appended`` is False when a row with
    the same (machine, commit, suite, label) key already exists and
    ``force`` is not set — re-running CI on the same commit must not
    duplicate points.  The read-check-append cycle holds an advisory
    file lock and the append is a single ``O_APPEND`` write, so
    concurrent writers (CI jobs, service consumers) neither interleave
    bytes nor double-ingest.  ``notes`` annotates the row (overriding
    any notes already in the artifact) — quiet-runner provenance such
    as "dedicated box, pinned governor".
    """
    row = artifact_row(artifact)
    if notes is not None:
        row["notes"] = str(notes)
    path = Path(path)
    with _history_lock(path):
        existing = read_history(path)
        if not force and any(_row_key(r) == _row_key(row) for r in existing):
            return row, False
        _append_row(path, row)
    return row, True


def prune_history(
    path: str | Path,
    drop_envs: Iterable[str] = (),
    keep_envs: Iterable[str] = (),
    keep_last: int | None = None,
    dry_run: bool = False,
) -> tuple[int, int]:
    """Drop retired rows from the history file (ROADMAP ask).

    ``drop_envs`` removes every row whose ``env_key`` is listed
    (retired machines); ``keep_envs`` instead removes every row whose
    ``env_key`` is *not* listed (keep-only form; mutually exclusive
    with ``drop_envs``).  ``keep_last`` then trims each
    (env, suite, label, benchmark-set) series to its newest N rows, so
    a long-lived machine's trajectory stays bounded.  The file is
    rewritten atomically; ``dry_run`` computes without writing.

    Returns ``(kept, dropped)`` row counts.
    """
    drop = set(drop_envs)
    keep = set(keep_envs)
    if drop and keep:
        raise HistoryError("pass either drop_envs or keep_envs, not both")
    if keep_last is not None and keep_last < 1:
        raise HistoryError("keep_last must be at least 1")
    rows = read_history(path)
    survivors = [
        r for r in rows
        if r.get("env_key") not in drop
        and (not keep or r.get("env_key") in keep)
    ]
    if keep_last is not None:
        # newest-N per (env, suite, label): file order is ingest order
        by_series: dict[tuple, list[int]] = {}
        for i, row in enumerate(survivors):
            series = (row.get("env_key"), row.get("suite"), row.get("label"))
            by_series.setdefault(series, []).append(i)
        wanted = {
            i for indices in by_series.values() for i in indices[-keep_last:]
        }
        survivors = [r for i, r in enumerate(survivors) if i in wanted]
    kept, dropped = len(survivors), len(rows) - len(survivors)
    if not dry_run and dropped:
        atomic_write(
            path,
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in survivors),
        )
    return kept, dropped


# -- trajectory -------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryPoint:
    """One benchmark's state in one history row, with deltas; the
    observatories' ``trend`` fill the rest, undeclared ones ``extra``."""

    benchmark: str
    suite: str
    env_key: str
    git_revision: str | None
    tag: str | None
    seed: Any
    median_s: float
    iqr_s: float
    delta: float | None           # (median / previous median) - 1
    model_over_measured: float | None
    model_drift: float | None     # (ratio / previous ratio) - 1
    regime_count: int | None = None
    dominant_share: float | None = None
    regime_shift: float | None = None   # TV distance vs previous mix
    fraction_of_peak: float | None = None
    bucket_fractions: dict[str, float] | None = None
    eff_drop: float | None = None       # previous frac - current frac
    skew_fraction: float | None = None  # total real skew / total span
    rank_utilisation: float | None = None
    skew_jump: float | None = None      # current fraction - previous
    extra: dict[str, Any] = field(default_factory=dict, init=False)

    def drifted(self, threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
        return self.model_drift is not None and abs(self.model_drift) > threshold

    def shifted(self, threshold: float = DEFAULT_SHIFT_THRESHOLD) -> bool:
        return self.regime_shift is not None and self.regime_shift > threshold

    def eff_dropped(self, threshold: float = DEFAULT_EFF_DROP_THRESHOLD) -> bool:
        return self.eff_drop is not None and self.eff_drop > threshold

    def skewed(self, threshold: float = DEFAULT_SKEW_JUMP_THRESHOLD) -> bool:
        return self.skew_jump is not None and self.skew_jump > threshold


def trajectory(
    rows: Iterable[dict[str, Any]],
    suite: str | None = None,
    env: str | None = None,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-benchmark point series (ingest order) with deltas.

    Deltas compare consecutive points of the *same* benchmark on the
    *same* environment fingerprint, so a machine change starts a fresh
    baseline instead of reading as a regression.
    """
    series: dict[str, list[TrajectoryPoint]] = {}
    last_median: dict[tuple[str, str], float] = {}
    last_ratio: dict[tuple[str, str], float] = {}
    # per observatory: the value its trend compares the next row against
    carried: dict[tuple[str, str, str], Any] = {}
    declared = {f.name for f in fields(TrajectoryPoint) if f.init}
    for row in rows:
        if suite is not None and row.get("suite") != suite:
            continue
        if env is not None and row.get("env_key") != env:
            continue
        for name, bench in sorted(row.get("benchmarks", {}).items()):
            key = (row.get("env_key", ""), name)
            median = float(bench["median_s"])
            prev = last_median.get(key)
            delta = (median / prev - 1.0) if prev and prev > 0 else None
            ratio = bench.get("model_over_measured")
            prev_ratio = last_ratio.get(key)
            drift = None
            if ratio is not None and prev_ratio:
                drift = ratio / prev_ratio - 1.0
            observed: dict[str, Any] = {}
            for obs in OBSERVATORIES:
                values, carry = obs.trend(bench, carried.get((obs.name, *key)))
                observed.update(values)
                if carry is not None:
                    carried[(obs.name, *key)] = carry
            point = TrajectoryPoint(
                benchmark=name,
                suite=row.get("suite", "?"),
                env_key=row.get("env_key", ""),
                git_revision=row.get("git_revision"),
                tag=row.get("tag"),
                seed=row.get("seed"),
                median_s=median,
                iqr_s=float(bench.get("iqr_s", 0.0)),
                delta=delta,
                model_over_measured=ratio,
                model_drift=drift,
                **{k: v for k, v in observed.items() if k in declared},
            )
            point.extra.update(
                (k, v) for k, v in observed.items() if k not in declared
            )
            series.setdefault(name, []).append(point)
            last_median[key] = median
            if ratio is not None:
                last_ratio[key] = ratio
    return series


def _sha(rev: str | None) -> str:
    return (rev or "-")[:10]


def _traj_rows(
    series: dict[str, list[TrajectoryPoint]],
    drift_threshold: float,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
) -> list[tuple]:
    # ``--shift-threshold`` overrides the SHIFT flag's registry default
    overrides = {"SHIFT": shift_threshold}
    flags = [obs.flag for obs in OBSERVATORIES if obs.flag is not None]
    columns = [col for obs in OBSERVATORIES for col in obs.columns]
    rows: list[tuple] = []
    for name in sorted(series):
        for i, pt in enumerate(series[name]):
            raised = ["DRIFT"] if pt.drifted(drift_threshold) else []
            raised += [
                f.name for f in flags if f.raised(pt, overrides.get(f.name))
            ]
            cells = []
            for _, attr, render in columns:
                value = point_value(pt, attr)
                cells.append("-" if value is None else render(value))
            rows.append(
                (
                    name if i == 0 else "",
                    i + 1,
                    _sha(pt.git_revision),
                    pt.tag or "-",
                    pt.median_s * 1.0e3,
                    f"{pt.delta * 100.0:+.1f}%" if pt.delta is not None else "-",
                    f"{pt.model_over_measured:.3g}"
                    if pt.model_over_measured is not None
                    else "-",
                    *cells,
                    " ".join(raised),
                )
            )
    return rows


def _block_rows(
    series: dict[str, list[TrajectoryPoint]], cells_of
) -> list[tuple]:
    """An observatory's extra block: numbered per benchmark over the
    points it has cells for."""
    rows: list[tuple] = []
    for name in sorted(series):
        cells = [(pt, c) for pt in series[name]
                 if (c := cells_of(pt)) is not None]
        for i, (pt, c) in enumerate(cells):
            rows.append(
                (name if i == 0 else "", i + 1, _sha(pt.git_revision), *c)
            )
    return rows


def render_history_table(
    rows: Iterable[dict[str, Any]],
    fmt: str = "text",
    suite: str | None = None,
    env: str | None = None,
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
) -> str:
    """The per-suite trajectory table (text or markdown).

    One block per suite present in the history; each benchmark's points
    appear in ingest order with the delta against its previous
    measurement on the same machine, the model-vs-measured DRIFT flag,
    and each observatory's columns and flag where artifacts carried its
    section — e.g. the regime count, dominant-regime share, and a SHIFT
    flag when the regime mix moved by more than ``shift_threshold``
    (total variation) since the previous ingest.  Observatories with an
    extra block (the efficiency buckets) follow the table.  The paper's
    Table 1 presentation for this repo's own tuning arc.
    """
    rows = list(rows)
    suites = [suite] if suite is not None else sorted(
        {r.get("suite", "?") for r in rows}
    )
    headers = ("benchmark", "#", "revision", "tag", "median [ms]", "delta",
               "model/meas",
               *(col[0] for obs in OBSERVATORIES for col in obs.columns),
               "flags")
    md = fmt == "markdown"
    table = markdown_table if md else format_table
    blocks: list[str] = []
    for s in suites:
        series = trajectory(rows, suite=s, env=env)
        if not series:
            continue
        table_rows = _traj_rows(series, drift_threshold, shift_threshold)
        n_points = sum(len(v) for v in series.values())
        parts = [f"### Trajectory — suite `{s}` ({n_points} points)" if md
                 else f"# trajectory — suite {s!r} ({n_points} points)",
                 "", table(headers, table_rows)]
        for obs in OBSERVATORIES:
            block_rows = _block_rows(series, obs.block_cells)
            if block_rows:
                title, block_headers = obs.block
                parts += ["", f"#### {title.capitalize()} — suite `{s}`" if md
                          else f"## {title} — suite {s!r}", "",
                          table(("benchmark", "#", "revision", *block_headers),
                                block_rows)]
        blocks.append("\n".join(parts))
    if not blocks:
        return "(history is empty)"
    return "\n\n".join(blocks)


_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int) -> str:
    if not values:
        return ""
    if len(values) > width:
        # keep the newest points; the old tail is the least interesting
        values = values[-width:]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def render_history_plot(
    rows: Iterable[dict[str, Any]],
    suite: str | None = None,
    env: str | None = None,
    benchmarks: list[str] | None = None,
    width: int = 48,
) -> str:
    """Terminal sparkline per benchmark: median wall time over ingests."""
    series = trajectory(rows, suite=suite, env=env)
    if benchmarks:
        series = {k: v for k, v in series.items() if k in set(benchmarks)}
    if not series:
        return "(history is empty)"
    out_rows = []
    for name in sorted(series):
        points = series[name]
        medians = [p.median_s * 1.0e3 for p in points]
        # regime columns only where artifacts carried phase signatures
        counts = [p.regime_count for p in points if p.regime_count is not None]
        shares = [
            p.dominant_share for p in points if p.dominant_share is not None
        ]
        out_rows.append(
            (
                name,
                len(medians),
                f"{min(medians):.2f}..{max(medians):.2f}",
                _sparkline(medians, width),
                str(counts[-1]) if counts else "-",
                _sparkline([s * 100.0 for s in shares], width)
                if shares else "-",
            )
        )
    return format_table(
        ("benchmark", "points", "median range [ms]", "trend (old -> new)",
         "regimes", "dom share (old -> new)"),
        out_rows,
    )
