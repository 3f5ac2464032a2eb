"""Durable integrator checkpoints: ``repro.checkpoint/1``.

A checkpoint is everything a killed run needs to continue **bit
identically**: the full particle arrays (including the higher force
derivatives the corrector reconstructed), the integrator's accuracy
parameters and counters, the scheduler's pending block times, the RNG
stream of whatever sampled the model, and virtual/wall clock balances.
The paper's production runs lived or died by exactly this — week-long
1.8M/2M-particle integrations on shared hardware, with "file
operations part of the accounted wall time".

Format: NumPy ``.npz`` (one member per array) plus a JSON header
carried through :func:`repro.io.snapshot.encode_json_safe`, so numpy
scalars and ``numpy.random.Generator`` state survive losslessly.  The
header is schema-versioned (:data:`CHECKPOINT_SCHEMA`) and stamped
with provenance — environment fingerprint and git revision — so a
resume can tell (and record) when it crosses machines or commits.

Writes are atomic (temp file + rename): a checkpoint interrupted by
the very crash it guards against never shadows its intact predecessor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.individual import BlockTimestepIntegrator
from ..core.particles import ParticleSystem
from .documents import atomic_write, require_schema
from .snapshot import decode_json_safe, encode_json_safe

#: Bump on breaking layout changes; readers refuse mismatches.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Particle arrays serialised member-by-member into the container.
_SYSTEM_ARRAYS = (
    "mass", "pos", "vel", "acc", "jerk", "snap", "crackle", "pot", "t", "dt",
)


class CheckpointError(ValueError):
    """Raised for unreadable checkpoints and schema violations."""


def checkpoint_provenance() -> dict[str, Any]:
    """Environment fingerprint + git revision for the header.

    Imported lazily from :mod:`repro.bench.env` so ``repro.io`` keeps
    no import-time dependency on the bench package.
    """
    from ..bench.env import environment_fingerprint

    env = environment_fingerprint()
    return {"environment": env, "git_revision": env.get("git_revision")}


@dataclass
class Checkpoint:
    """One decoded checkpoint: header + rebuilt particle system."""

    meta: dict[str, Any]
    system: ParticleSystem
    integrator_state: dict[str, Any]
    rng: np.random.Generator | None = None
    clocks: dict[str, float] = field(default_factory=dict)

    @property
    def t(self) -> float:
        return float(self.integrator_state["t"])

    @property
    def blocksteps(self) -> int:
        return int(self.integrator_state["stats"]["blocksteps"])

    @property
    def provenance(self) -> dict[str, Any]:
        return self.meta.get("provenance", {})


def write_checkpoint(
    path: str | Path,
    integrator: BlockTimestepIntegrator,
    rng: np.random.Generator | None = None,
    clocks: dict[str, float] | None = None,
    metadata: dict[str, Any] | None = None,
) -> Path:
    """Serialise ``integrator`` (and optional RNG/clock state) atomically.

    ``clocks`` is a free-form mapping of clock balances (e.g.
    accumulated wall seconds across resume segments, a virtual-time
    reading); it rides along so budget accounting survives the restart.
    """
    state = integrator.state_dict()
    t_next = state.pop("scheduler_t_next")
    meta: dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "n": integrator.system.n,
        "integrator": state,
        "rng": None if rng is None else rng,
        "clocks": dict(clocks or {}),
        "provenance": checkpoint_provenance(),
        "metadata": dict(metadata or {}),
    }
    header = json.dumps(encode_json_safe(meta))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        name: getattr(integrator.system, name) for name in _SYSTEM_ARRAYS
    }
    return atomic_write(
        path,
        lambda fh: np.savez_compressed(
            fh,
            header=np.frombuffer(header.encode(), dtype=np.uint8),
            scheduler_t_next=t_next,
            **arrays,
        ),
    )


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint."""
    path = Path(path)
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    with data:
        try:
            meta = decode_json_safe(json.loads(bytes(data["header"]).decode()))
        except (KeyError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc
        require_schema(meta, CHECKPOINT_SCHEMA, str(path), CheckpointError,
                       "header")
        missing = [
            k for k in (*_SYSTEM_ARRAYS, "scheduler_t_next") if k not in data
        ]
        if missing:
            raise CheckpointError(f"{path}: missing arrays: {', '.join(missing)}")

        system = ParticleSystem(data["mass"], data["pos"], data["vel"])
        for name in ("acc", "jerk", "snap", "crackle", "pot", "dt"):
            getattr(system, name)[...] = data[name]
        system.t[...] = data["t"]
        if system.n != int(meta.get("n", system.n)):
            raise CheckpointError(
                f"{path}: header says n={meta.get('n')}, arrays carry {system.n}"
            )

        state = dict(meta["integrator"])
        state["scheduler_t_next"] = np.array(data["scheduler_t_next"])

    rng = meta.get("rng")
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise CheckpointError(f"{path}: malformed RNG state")
    return Checkpoint(
        meta=meta,
        system=system,
        integrator_state=state,
        rng=rng,
        clocks=dict(meta.get("clocks", {})),
    )


def restore_integrator(
    checkpoint: Checkpoint,
    backend=None,
    tracer=None,
    algorithm=None,
) -> BlockTimestepIntegrator:
    """Rebuild the block integrator a checkpoint captured.

    The returned integrator continues the interrupted run bit
    identically (property-pinned in
    ``tests/property/test_prop_checkpoint_resume.py``).  ``backend``
    must match the interrupted run's configuration — the checkpoint
    header's ``metadata`` is the natural place for callers to record
    it.  Passing ``algorithm`` (a parallel force backend) rebuilds a
    :class:`repro.parallel.ParallelBlockIntegrator` instead, so
    virtual-time parallel runs resume through the same path.
    """
    if algorithm is not None:
        from ..parallel.driver import ParallelBlockIntegrator

        return ParallelBlockIntegrator.from_state(
            checkpoint.system,
            checkpoint.integrator_state,
            tracer=tracer,
            algorithm=algorithm,
        )
    return BlockTimestepIntegrator.from_state(
        checkpoint.system,
        checkpoint.integrator_state,
        backend=backend,
        tracer=tracer,
    )
