"""The ``BENCH_*.json`` artifact: schema, validation, read/write.

One artifact is one execution of one suite: an environment
fingerprint, and per benchmark the trial timings with order
statistics, the telemetry phase breakdown (the paper's
T_host/T_pipe/T_comm/T_barrier split of eq. 10), the metrics snapshot
(interactions/step, bytes/message, block sizes), and the
benchmark-defined derived values (speeds in the eq. 9 convention,
model-vs-measured ratios).  The schema is versioned so the regression
gate can refuse artifacts it does not understand instead of
mis-reading them.

Optional root keys thread reproducibility through to the history
store (:mod:`repro.bench.history`): ``seed`` (the ``--seed`` override
applied to every benchmark's workload), ``tag`` (a free-form label
such as ``post-vectorise``) and ``exec_backend`` (the
``--exec-backend`` override applied to every benchmark that dispatches
rank compute).  All are validated when present, and so is every
observatory section an entry carries, by its registered validator
(:data:`repro.telemetry.observatory.OBSERVATORIES`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..io.documents import atomic_write, read_json, require_keys
from ..telemetry.observatory import OBSERVATORIES

#: Bump on breaking layout changes; the comparator refuses mismatches.
SCHEMA = "repro.bench/1"

#: Keys every per-benchmark entry must carry.
_REQUIRED_BENCH_KEYS = ("name", "paper_ref", "params", "trials", "stats", "phases")
#: Keys the artifact root must carry.
_REQUIRED_ROOT_KEYS = ("schema", "label", "suite", "environment", "benchmarks")


class ArtifactError(ValueError):
    """Raised for schema violations and unreadable artifacts."""


def validate_artifact(obj: Any, source: str = "artifact") -> dict[str, Any]:
    """Check ``obj`` against the schema; returns it on success."""
    if not isinstance(obj, dict):
        raise ArtifactError(f"{source}: artifact root must be an object")
    require_keys(obj, _REQUIRED_ROOT_KEYS, source, ArtifactError)
    if obj["schema"] != SCHEMA:
        raise ArtifactError(
            f"{source}: schema {obj['schema']!r} not supported (need {SCHEMA!r})"
        )
    seed = obj.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ArtifactError(f"{source}: 'seed' must be an integer when present")
    for key in ("tag", "notes", "exec_backend"):
        value = obj.get(key)
        if value is not None and not isinstance(value, str):
            raise ArtifactError(
                f"{source}: {key!r} must be a string when present"
            )
    benchmarks = obj["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ArtifactError(f"{source}: 'benchmarks' must be a non-empty list")
    seen: set[str] = set()
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            raise ArtifactError(f"{source}: benchmarks[{i}] must be an object")
        require_keys(entry, _REQUIRED_BENCH_KEYS, source, ArtifactError,
                     f"benchmarks[{i}] ")
        name = entry["name"]
        if name in seen:
            raise ArtifactError(f"{source}: duplicate benchmark name {name!r}")
        seen.add(name)
        for key, inner, what in (("trials", "wall_s", "list"),
                                 ("stats", "wall_s", "summary"),
                                 ("phases", "wall_us", "split")):
            if not isinstance(entry[key], dict) or inner not in entry[key]:
                raise ArtifactError(
                    f"{source}: benchmarks[{i}] {key} must carry a "
                    f"{inner!r} {what}"
                )
        for obs in OBSERVATORIES:
            section = entry.get(obs.name)
            if section is None:
                continue
            try:
                obs.validate(section, f"{source}: benchmarks[{i}] {obs.name}")
            except ValueError as exc:
                raise ArtifactError(str(exc)) from exc
    return obj


def benchmark_entry(artifact: dict[str, Any], name: str) -> dict[str, Any] | None:
    """The named benchmark's entry, or None."""
    for entry in artifact["benchmarks"]:
        if entry["name"] == name:
            return entry
    return None


def write_artifact(artifact: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one artifact (atomic rename, trailing newline)."""
    validate_artifact(artifact, source=str(path))
    return atomic_write(
        path, json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def read_artifact(path: str | Path) -> dict[str, Any]:
    """Read and validate one artifact; raises :class:`ArtifactError`."""
    obj = read_json(path, ArtifactError, "artifact")
    return validate_artifact(obj, source=str(path))
