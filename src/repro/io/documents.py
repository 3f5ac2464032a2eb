"""The repo's documents: one durable writer (every file rewritten in
place goes through :func:`atomic_write`), one JSON reader, and the
structural checks their validators share."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Callable, Iterable

# the mode a plain open() creates files with, which mkstemp's 0600 would
# narrow (a textfile scraper runs as another user); the umask can only
# be read by setting it, so it is read once, at import
_UMASK = os.umask(0)
os.umask(_UMASK)
_MODE = 0o666 & ~_UMASK


def atomic_write(
    path: str | Path, data: str | bytes | Callable[[IO[bytes]], object]
) -> Path:
    """Replace ``path`` with ``data``: text, bytes, or a callback that
    writes into the open binary temp file.

    The contents go to a uniquely named temp file in the target's
    directory (so concurrent writers of the same target never share
    one), are fsynced, and the temp file is renamed over the target.
    If writing raises, the target is untouched and the temp file is
    removed.  Returns the path.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _MODE)
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def read_json(path: str | Path, error: type[Exception], what: str) -> Any:
    """Parse the JSON file at ``path``; an unreadable or malformed file
    raises ``error`` naming ``what`` it should hold."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def finite(value: Any, default: float = 0.0) -> float:
    """``value`` as a finite float; ``default`` for NaN, infinities and
    anything that does not convert."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return default
    return v if math.isfinite(v) else default


def require_schema(
    obj: Any, schema: str, source: str, error: type[Exception], what: str
) -> dict[str, Any]:
    """``obj`` if it is an object tagged ``schema``; otherwise raise
    ``error`` naming ``source`` and ``what`` the object should be."""
    if not isinstance(obj, dict):
        raise error(f"{source}: {what} must be an object")
    if obj.get("schema") != schema:
        raise error(
            f"{source}: schema {obj.get('schema')!r} not supported "
            f"(need {schema!r})"
        )
    return obj


def require_keys(
    obj: dict[str, Any], keys: Iterable[str], source: str,
    error: type[Exception], prefix: str = "",
) -> None:
    """Raise ``error`` naming the first of ``keys`` missing from ``obj``."""
    for key in keys:
        if key not in obj:
            raise error(f"{source}: {prefix}missing required key {key!r}")


def require_finite(
    obj: dict[str, Any], keys: Iterable[str], source: str,
    error: type[Exception], prefix: str = "",
) -> None:
    """Raise ``error`` unless every ``obj[key]`` is a finite number."""
    for key in keys:
        val = obj.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            raise error(f"{source}: {prefix}{key!r} must be a finite number")
