"""Snapshot I/O, checkpoints, run logging and table formatting."""

from .documents import atomic_write
from .snapshot import (
    decode_json_safe,
    encode_json_safe,
    read_snapshot,
    rng_from_state,
    rng_state,
    write_snapshot,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    checkpoint_provenance,
    read_checkpoint,
    restore_integrator,
    write_checkpoint,
)
from .runlog import RunLogger, read_runlog, read_runlog_records
from .tables import format_table

__all__ = [
    "atomic_write",
    "write_snapshot",
    "read_snapshot",
    "encode_json_safe",
    "decode_json_safe",
    "rng_state",
    "rng_from_state",
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "checkpoint_provenance",
    "read_checkpoint",
    "restore_integrator",
    "write_checkpoint",
    "RunLogger",
    "read_runlog",
    "read_runlog_records",
    "format_table",
]
