"""``repro.io.atomic_write``: durable replace-by-rename under faults.

Pins what the shared writer promises every rewritten document
(checkpoints, ``state.json``, artifacts, history, calibrations,
OpenMetrics textfiles): a failed write leaves the old target
byte-identical with no temp file behind, and concurrent writers of
one target never leave it torn.
"""

import os

import numpy as np
import pytest

from repro.io import atomic_write


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


class TestContents:
    def test_text_bytes_and_writer_callback(self, tmp_path):
        target = tmp_path / "doc"
        atomic_write(target, "text ✓\n")
        assert target.read_text() == "text ✓\n"
        atomic_write(target, b"\x00\x01bytes")
        assert target.read_bytes() == b"\x00\x01bytes"
        arrays = tmp_path / "arrays.npz"
        atomic_write(arrays, lambda fh: np.savez_compressed(fh, x=np.arange(5)))
        np.testing.assert_array_equal(np.load(arrays)["x"], np.arange(5))
        assert listing(tmp_path) == ["arrays.npz", "doc"]

    def test_returns_the_path(self, tmp_path):
        assert atomic_write(str(tmp_path / "a"), "x") == tmp_path / "a"

    def test_mode_matches_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        atomic = atomic_write(tmp_path / "atomic", "x")
        assert atomic.stat().st_mode == plain.stat().st_mode


class TestFaults:
    def test_raising_writer_leaves_old_target_and_no_temp(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b'{"status": "running"}\n')

        def broken(fh):
            fh.write(b'{"status": "comp')
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError, match="disk on fire"):
            atomic_write(target, broken)
        assert target.read_bytes() == b'{"status": "running"}\n'
        assert listing(tmp_path) == ["state.json"]

    def test_raising_writer_creates_nothing(self, tmp_path):
        def broken(fh):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            atomic_write(tmp_path / "new", broken)
        assert listing(tmp_path) == []

    def test_interleaved_writers_never_tear(self, tmp_path):
        """A second writer completes while the first is mid-write (what
        two processes sharing one fixed ``<name>.tmp`` would corrupt):
        the target is always one writer's whole contents."""
        target = tmp_path / "ckpt.npz"
        first = b"A" * 100_000
        second = b"B" * 70_000
        seen = []

        def slow_first(fh):
            fh.write(first[:50_000])
            atomic_write(target, second)
            seen.append(target.read_bytes())
            fh.write(first[50_000:])

        atomic_write(target, slow_first)
        assert seen == [second]
        assert target.read_bytes() == first
        assert listing(tmp_path) == ["ckpt.npz"]

    def test_missing_directory_raises_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write(tmp_path / "absent" / "doc", "x")
        assert listing(tmp_path) == []
        assert not os.path.exists(tmp_path / "absent")
