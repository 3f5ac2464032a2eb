"""OpenMetrics text export: the observatory's scrape endpoint.

Long jobs under :mod:`repro.service` and bench runs both end in JSON
artifacts, but external monitoring (Prometheus, a dashboard, a shell
one-liner) wants the standard `OpenMetrics
<https://openmetrics.io>`_ text format.  This module renders gauge
families from the existing summary documents — no new measurement, a
pure projection — and ships a minimal parser so tests (and the
``service metrics`` CLI round-trip check) can verify the output is
actually scrapeable rather than merely printed.

The exposition subset used here: ``# TYPE name gauge`` per family,
``name{label="value"} 1.23`` sample lines, and the mandatory
``# EOF`` terminator.  Label values are escaped per the spec
(backslash, double-quote, newline); metric and label names are
sanitised to ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable

from ..io.documents import atomic_write, finite

#: One exported sample: (metric name, labels, value).
MetricSample = "tuple[str, dict[str, str], float]"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"'
)


class OpenMetricsError(ValueError):
    """Raised for unparseable OpenMetrics text."""


def metric_name(name: str) -> str:
    """Sanitise to a legal metric name."""
    name = _NAME_OK.sub("_", str(name))
    return name if name and not name[0].isdigit() else f"_{name}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _fmt_value(value: float) -> str:
    v = float(value)
    if not math.isfinite(v):
        return "NaN" if math.isnan(v) else ("+Inf" if v > 0 else "-Inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_openmetrics(
    samples: Iterable[tuple[str, dict[str, str], float]],
    help_text: dict[str, str] | None = None,
) -> str:
    """Render gauge samples as an OpenMetrics exposition.

    Samples sharing a metric name form one family (``# TYPE`` emitted
    once, first-seen order preserved — the spec requires families to be
    contiguous).  Ends with the mandatory ``# EOF``.
    """
    families: dict[str, list[str]] = {}
    order: list[str] = []
    for name, labels, value in samples:
        name = metric_name(name)
        if name not in families:
            families[name] = []
            order.append(name)
        label_str = ",".join(
            f'{_LABEL_OK.sub("_", str(k))}="{_escape(v)}"'
            for k, v in (labels or {}).items()
        )
        body = f"{{{label_str}}}" if label_str else ""
        families[name].append(f"{name}{body} {_fmt_value(value)}")
    lines: list[str] = []
    for name in order:
        doc = (help_text or {}).get(name)
        if doc:
            lines.append(f"# HELP {name} {doc}")
        lines.append(f"# TYPE {name} gauge")
        lines.extend(families[name])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(
    text: str,
) -> list[tuple[str, dict[str, str], float]]:
    """Parse an exposition back into (name, labels, value) samples.

    Validates the ``# EOF`` terminator and the sample-line grammar —
    the round-trip check that makes "emits parseable OpenMetrics" a
    tested property instead of a hope.
    """
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise OpenMetricsError("exposition must end with '# EOF'")
    out: list[tuple[str, dict[str, str], float]] = []
    for i, line in enumerate(lines[:-1]):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise OpenMetricsError(f"line {i + 1}: unparseable sample {line!r}")
        labels = {
            lm.group("key"): _unescape(lm.group("val"))
            for lm in _LABEL_RE.finditer(m.group("labels") or "")
        }
        try:
            value = float(m.group("value"))
        except ValueError as exc:
            raise OpenMetricsError(
                f"line {i + 1}: bad value {m.group('value')!r}"
            ) from exc
        out.append((m.group("name"), labels, value))
    return out


def write_openmetrics(path, samples, help_text=None):
    """Render and write one exposition atomically (a textfile scraper
    never reads a half-written file); returns the path."""
    return atomic_write(path, render_openmetrics(samples, help_text=help_text))


# -- projections -------------------------------------------------------------


def artifact_metrics(
    artifact: dict[str, Any],
) -> list[tuple[str, dict[str, str], float]]:
    """Gauges from a ``repro.bench/1`` artifact (the ``bench run
    --metrics`` projection): per benchmark the median wall, then each
    observatory section's projection."""
    # imported late: the registry pulls in repro.parallel, which needs
    # this package initialised
    from .observatory import OBSERVATORIES

    suite = str(artifact.get("suite", "?"))
    out: list[tuple[str, dict[str, str], float]] = []
    for entry in artifact.get("benchmarks") or []:
        if not isinstance(entry, dict):
            continue
        labels = {"suite": suite, "benchmark": str(entry.get("name", "?"))}
        stats = (entry.get("stats") or {}).get("wall_s") or {}
        out.append((
            "repro_bench_wall_seconds_median",
            labels,
            finite(stats.get("median")),
        ))
        for obs in OBSERVATORIES:
            out.extend(obs.metrics(entry.get(obs.name), labels))
    return out


def job_metrics(
    name: str, status: dict[str, Any]
) -> list[tuple[str, dict[str, str], float]]:
    """Gauges from one service job's ``state.json`` document: progress,
    then each observatory's projection of its ``state.json`` face."""
    from .observatory import OBSERVATORIES

    labels = {"job": str(name), "status": str(status.get("status", "?"))}
    checkpoints = status.get("checkpoints")
    out = [
        ("repro_job_t", labels, finite(status.get("t"))),
        ("repro_job_blocksteps", labels, finite(status.get("blocksteps"))),
        ("repro_job_wall_seconds", labels, finite(status.get("wall_s"))),
        (
            "repro_job_checkpoints",
            labels,
            # ``status()`` carries the checkpoint *names*; state.json
            # alone may carry a count — accept both faces
            float(len(checkpoints)) if isinstance(checkpoints, (list, tuple))
            else finite(checkpoints),
        ),
    ]
    for obs in OBSERVATORIES:
        out.extend(obs.job_metrics(status, labels))
    return out
