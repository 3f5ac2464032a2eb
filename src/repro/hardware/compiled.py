"""The compiled batched tile: build, cache, load and verify.

The batched datapath's inner loop — pairwise contributions, pair-format
rounding, block-float quantisation and the carry-save reduction — is
ported to C in ``tile.c`` and loaded through :mod:`ctypes`.  Section
3.4's multiset argument licenses evaluating the tile in any order: the
lane sums are exact, so only the per-pair arithmetic has to match, and
``tile.c`` performs exactly numpy's per-pair operations.

The library is built on first use with the local ``cc`` into a cache
directory — ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else
``repro-<uid>`` under the temp dir; never the source tree.  The file name
hashes the source, the flags and the compiler's version, so an edit or
a compiler upgrade builds a new library; a digest written next to the
library guards against loading a truncated or damaged file, which is
rebuilt instead.  Builds go through a private temp directory and
:func:`repro.io.atomic_write`, so concurrent first builds in several
processes leave one valid library.

Before use, the loaded tile is checked bit for bit against the numpy
reference (:func:`repro.hardware.batched.batched_partial_lanes`) on
probe tiles.  No compiler, a failed build, a library that does not load
or a probe mismatch all fall back to the numpy tile, which gives the
same bits; :func:`load_tile` says which one is in use and why.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockfloat import FRAC_BITS, BlockFloatOverflow, NonFiniteForceError
from .pipeline import PipelineFormats

#: The C source, shipped as package data.
SOURCE = Path(__file__).with_name("tile.c")

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds;
#: no ``-ffast-math`` flavour may ever be added (bit-identity).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: ``g6_tile`` failure status codes (see ``tile.c``; 0 is success).
TILE_SATURATED, TILE_NONFINITE, TILE_OVERFLOW = 1, 2, 3

#: Contributions per pair: acc x/y/z, jerk x/y/z, pot.
NOUT = 7


def find_compiler() -> str | None:
    """Path of the local C compiler, or None."""
    return shutil.which("cc")


def cache_dir() -> Path | None:
    """First usable of ``$XDG_CACHE_HOME/repro``, ``~/.cache/repro``
    and ``<tempdir>/repro-<uid>``; None when none can be created.

    A directory is usable when this user owns it and nobody else can
    write it: a library loaded from it runs in this process.
    """
    if not hasattr(os, "getuid"):  # no POSIX ownership to check
        return None
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        candidates.append(Path(xdg) / "repro")
    home = Path("~").expanduser()
    if home != Path("~"):
        candidates.append(home / ".cache" / "repro")
    candidates.append(Path(tempfile.gettempdir()) / f"repro-{os.getuid()}")
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = path.stat()
        except OSError:
            continue
        if st.st_uid == os.getuid() and not st.st_mode & 0o022:
            return path
    return None


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def library_path(compiler: str, directory: Path) -> Path:
    """Cache file of the library: keyed on source, flags and compiler."""
    import subprocess

    version = subprocess.run(
        [compiler, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.blake2b(digest_size=12)
    for part in (SOURCE.read_bytes(), " ".join(CFLAGS).encode(), version):
        key.update(part)
        key.update(b"\0")
    return directory / f"tile-{key.hexdigest()}.so"


def _stamp(path: Path) -> Path:
    return path.with_name(path.name + ".b2")


def cached_library_valid(path: Path) -> bool:
    """The library exists and matches the digest recorded at build."""
    try:
        return _stamp(path).read_text().strip() == _digest(path.read_bytes())
    except OSError:
        return False


def build_library(compiler: str, path: Path) -> None:
    """Compile ``tile.c`` into ``path`` (atomically) and record its digest.

    Raises ``subprocess.CalledProcessError`` / ``OSError`` /
    ``subprocess.TimeoutExpired`` when the build fails.
    """
    import subprocess

    from ..io.documents import atomic_write

    with tempfile.TemporaryDirectory(prefix="repro-tile-") as tmp:
        out = Path(tmp) / "tile.so"
        subprocess.run(
            [compiler, *CFLAGS, "-o", str(out), str(SOURCE)],
            capture_output=True, check=True, timeout=300,
        )
        data = out.read_bytes()
    atomic_write(path, data)
    atomic_write(_stamp(path), _digest(data) + "\n")


class CompiledTile:
    """ctypes binding of ``g6_tile``."""

    def __init__(self, path: Path) -> None:
        import ctypes

        self.path = path
        self._lib = ctypes.CDLL(str(path))
        fn = self._lib.g6_tile
        ptr, i64, f64, cint = (
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int,
        )
        fn.argtypes = [
            i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            f64, f64, cint, cint, ptr, ptr, ptr,
        ]
        fn.restype = cint
        self._fn = fn

    def __call__(
        self,
        xi_q: np.ndarray,
        vi: np.ndarray,
        xj_q: np.ndarray,
        vj: np.ndarray,
        mj: np.ndarray,
        host_index_j: np.ndarray,
        exps: np.ndarray,
        eps2: float,
        formats: PipelineFormats,
        i_index: np.ndarray | None = None,
        convert: bool = True,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None, bool]:
        """Evaluate one tile.

        ``exps`` is the (n_i, 3) int64 stack of the acc/jerk/pot block
        exponents.  Returns ``(lanes, forces, overflow)``: the (n_i, 2,
        7) carry-save lanes (high lanes, then low lanes, of acc x/y/z,
        jerk x/y/z and pot), the converted ``(acc, jerk, pot)`` (None
        unless ``convert``; not meaningful when ``overflow``) and
        whether an accumulated total overflowed (checked only with
        ``convert``).
        Raises :class:`NonFiniteForceError` or
        :class:`BlockFloatOverflow` (saturation) like the numpy tile.
        """
        n_i, n_j = xi_q.shape[0], xj_q.shape[0]
        xi_q = _c(xi_q, np.int64, (n_i, 3))
        vi = _c(vi, np.float64, (n_i, 3))
        xj_q = _c(xj_q, np.int64, (n_j, 3))
        vj = _c(vj, np.float64, (n_j, 3))
        mj = _c(mj, np.float64, (n_j,))
        host_index_j = _c(host_index_j, np.int64, (n_j,))
        exps = _c(exps, np.int64, (n_i, 3))
        if i_index is not None:
            i_index = _c(i_index, np.int64, (n_i,))
        lanes = np.empty((n_i, 2, NOUT), dtype=np.int64)
        bad = np.empty(n_i, dtype=np.uint8)
        forces = np.empty(NOUT * n_i) if convert else None
        status = self._fn(
            n_i, n_j,
            xi_q.ctypes.data, vi.ctypes.data,
            xj_q.ctypes.data, vj.ctypes.data, mj.ctypes.data,
            None if i_index is None else i_index.ctypes.data,
            host_index_j.ctypes.data, exps.ctypes.data,
            float(eps2), formats.pos.resolution,
            formats.pair.mantissa_bits, FRAC_BITS,
            lanes.ctypes.data, bad.ctypes.data,
            None if forces is None else forces.ctypes.data,
        )
        if status == TILE_NONFINITE:
            raise NonFiniteForceError(np.flatnonzero(bad))
        if status == TILE_SATURATED:
            raise BlockFloatOverflow(BlockFloatOverflow.SATURATED)
        if forces is not None:
            forces = (
                forces[: 3 * n_i].reshape(n_i, 3),
                forces[3 * n_i : 6 * n_i].reshape(n_i, 3),
                forces[6 * n_i :],
            )
        return lanes, forces, status == TILE_OVERFLOW


def _c(a: np.ndarray, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """C-contiguous ``dtype`` array of exactly ``shape`` (checked before
    a pointer to it reaches C)."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"tile argument has shape {a.shape}, expected {shape}")
    return a


@dataclass(frozen=True)
class TileLoad:
    """Outcome of loading the compiled tile: the tile, or None and the
    reason the numpy tile is used instead."""

    tile: CompiledTile | None
    detail: str


@functools.cache
def load_tile() -> TileLoad:
    """Build (if needed), load and verify the compiled tile, once per
    process.  Never raises: every failure selects the numpy tile."""
    import subprocess

    compiler = find_compiler()
    if compiler is None:
        return TileLoad(None, "no C compiler (cc) found")
    directory = cache_dir()
    if directory is None:
        return TileLoad(None, "no writable cache directory")
    try:
        path = library_path(compiler, directory)
        if not cached_library_valid(path):
            build_library(compiler, path)
        tile = CompiledTile(path)
    except (OSError, subprocess.SubprocessError) as exc:
        return TileLoad(None, f"compiled tile unavailable: {exc}")
    mismatch = probe_mismatch(tile)
    if mismatch:
        return TileLoad(None, f"compiled tile differs from numpy ({mismatch})")
    return TileLoad(tile, str(path))


def probe_mismatch(tile: CompiledTile) -> str | None:
    """Compare the compiled tile with the numpy tile on seeded probe
    tiles (ordinary, unsoftened with coincident pairs, tiny masses);
    returns a description of the first difference, or None."""
    from .batched import batched_partial_lanes
    from .chip import BlockExponents

    formats = PipelineFormats.default()
    rng = np.random.default_rng(20031115)
    # (eps2, mass scale, block exponent): softened; unsoftened with a
    # coincident pair; subnormal masses and contributions under a
    # subnormal quantum (the division path)
    for case, (eps2, mass_scale, exponent) in enumerate(
        ((1.0 / 4096.0, 1.0, 12), (0.0, 1.0, 12), (1.0 / 4096.0, 1e-310, -980))
    ):
        n_i, n_j = 9, 40
        x = rng.normal(0.0, 1.0, (n_j, 3))
        x[5] = x[6]  # a coincident pair
        xj_q = formats.pos.quantize(x)
        vj = formats.word.round(rng.normal(0.0, 0.5, (n_j, 3)))
        mj = formats.word.round(rng.uniform(0.1, 1.0, n_j) * mass_scale / n_j)
        j_index = np.arange(n_j, dtype=np.int64)
        i_index = j_index[:n_i]
        exps = exponent + rng.integers(-2, 3, (n_i, 3))
        block = BlockExponents(exps[:, 0].copy(), exps[:, 1].copy(), exps[:, 2].copy())
        ref = batched_partial_lanes(
            xj_q[:n_i], vj[:n_i], xj_q, vj, mj, j_index, block, eps2, formats,
            i_index=i_index,
        )
        try:
            lanes, _, _ = tile(
                xj_q[:n_i], vj[:n_i], xj_q, vj, mj, j_index, exps, eps2, formats,
                i_index=i_index, convert=False,
            )
        except ArithmeticError as exc:  # the reference raised nothing
            return f"probe tile {case}: {exc}"
        want = (ref.acc_hi, ref.jerk_hi, ref.pot_hi, ref.acc_lo, ref.jerk_lo, ref.pot_lo)
        got = (lanes[:, 0, :3], lanes[:, 0, 3:6], lanes[:, 0, 6],
               lanes[:, 1, :3], lanes[:, 1, 3:6], lanes[:, 1, 6])
        if not all(np.array_equal(w, g) for w, g in zip(want, got)):
            return f"probe tile {case}"
    return None
