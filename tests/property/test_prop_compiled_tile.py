"""The compiled batched tile: bit-identity, error semantics, build/fallback.

``repro.hardware.compiled`` ports the batched tile to C.  Section 3.4's
multiset argument lets the tile run in any order, but every per-pair
operation must be numpy's, so the three datapaths must agree bit for
bit: compiled == numpy-batched == faithful.  The properties cover board
partitions, ``indices=None``, unsoftened coincident pairs, subnormal
contributions (tiny masses), exponent underflow (a zero quantum),
saturation and total-overflow retries, and non-finite input.

The build tests pin the loader's promises: no compiler means the numpy
tile with the same bits and no exception; concurrent first builds leave
one valid library; a damaged cached library is rebuilt, not loaded.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoardConfig
from repro.hardware import (
    BlockFloatOverflow,
    Grape6Emulator,
    NonFiniteForceError,
    batched,
    compiled,
)
from repro.hardware.chip import BlockExponents

SRC = Path(compiled.__file__).resolve().parents[2]

PARTITIONS = [
    dict(boards=1, board_config=BoardConfig(chips_per_module=1, modules=1)),
    dict(boards=1, board_config=None),
    dict(boards=4, board_config=None),
]

DATAPATHS = ("faithful", "numpy", "compiled")


@pytest.fixture(scope="module")
def tile():
    loaded = compiled.load_tile()
    if loaded.tile is None:
        pytest.skip(f"compiled tile unavailable: {loaded.detail}")
    return loaded.tile


@contextmanager
def numpy_tile():
    """Run the batched datapath on the numpy reference tile."""
    fallback = compiled.TileLoad(None, "numpy tile forced by the test")
    with mock.patch.object(batched, "load_tile", lambda: fallback):
        yield


def _emulator(path: str, eps2: float, partition: dict, **kwargs) -> Grape6Emulator:
    mode = "faithful" if path == "faithful" else "batched"
    return Grape6Emulator(eps2, emulation_mode=mode, **partition, **kwargs)


def _outcome(emu: Grape6Emulator, path: str, x, v, idx):
    """Everything a force call shows: bits and retries, or the error."""
    try:
        if path == "numpy":
            with numpy_tile():
                r = emu.forces_on(x, v, idx)
        else:
            r = emu.forces_on(x, v, idx)
    except NonFiniteForceError as exc:
        return ("nonfinite", tuple(exc.rows.tolist()), emu.stats.exponent_retries)
    except BlockFloatOverflow as exc:
        return ("overflow", str(exc), emu.stats.exponent_retries)
    return (
        "ok",
        r.acc.tobytes(),
        r.jerk.tobytes(),
        r.pot.tobytes(),
        r.acc.shape + r.jerk.shape + r.pot.shape,
        emu.stats.exponent_retries,
    )


def _system(n: int, seed: int, mass_scale: float, coincident: bool):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 3))
    v = rng.normal(0.0, 0.5, (n, 3))
    m = rng.uniform(0.1, 1.0, n) * mass_scale / n
    if coincident and n >= 2:
        x[1] = x[0]
    return x, v, m


class TestThreeWayBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 10_000),
        partition=st.sampled_from(range(len(PARTITIONS))),
        with_indices=st.booleans(),
        eps2=st.sampled_from([1.0 / 4096.0, 0.0]),
        mass_scale=st.sampled_from([1.0, 1e-310, 1e-37, 1e37]),
        guard=st.sampled_from([2, -20]),
    )
    def test_datapaths_agree(
        self, tile, n, seed, partition, with_indices, eps2, mass_scale, guard
    ):
        """compiled == numpy-batched == faithful, bits and retry counts.

        Tiny masses give subnormal contributions, and (with the
        exponent guess derived from them) quanta that underflow to zero;
        masses near 1e-37 and 1e37 put contributions on both edges of
        the float range the compiled rounding takes a shortcut in;
        a hostile guard forces saturation and total-overflow retries;
        eps2 = 0 with a coincident pair exercises the zero-distance cut.
        """
        x, v, m = _system(n, seed, mass_scale, coincident=eps2 == 0.0)
        idx = np.arange(n) if with_indices else None
        xi, vi = (x, v) if with_indices else (x[::2] + 0.125, v[::2])
        outcomes, cycles = {}, {}
        for path in DATAPATHS:
            emu = _emulator(path, eps2, PARTITIONS[partition], exponent_guard=guard)
            emu.set_j_particles(x, v, m)
            outcomes[path] = _outcome(emu, path, xi, vi, idx)
            cycles[path] = [chip.cycles for chip in emu._all_chips]
        assert outcomes["compiled"] == outcomes["numpy"]
        assert outcomes["compiled"] == outcomes["faithful"]
        # the batched paths charge identically (the faithful schedule
        # differs only on attempts aborted by saturation)
        assert cycles["compiled"] == cycles["numpy"]
        if outcomes["faithful"][-1] == 0:
            assert cycles["compiled"] == cycles["faithful"]

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 10_000),
        partition=st.sampled_from(range(len(PARTITIONS))),
        bad=st.lists(st.integers(0, 29), min_size=1, max_size=4),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        guard=st.sampled_from([2, -20]),
    )
    def test_nonfinite_velocity_named_on_first_attempt(
        self, tile, n, seed, partition, bad, value, guard
    ):
        """A NaN or infinite velocity raises NonFiniteForceError naming
        exactly the affected i-rows, on the first attempt (no retries),
        identically on all three datapaths — even when the exponents
        would also saturate."""
        x, v, m = _system(n, seed, 1.0, coincident=False)
        rows = sorted({b % n for b in bad})
        vi = v.copy()
        vi[rows, 1] = value
        for path in DATAPATHS:
            emu = _emulator(path, 1.0 / 4096.0, PARTITIONS[partition],
                            exponent_guard=guard)
            emu.set_j_particles(x, v, m)
            assert _outcome(emu, path, x, vi, np.arange(n)) == (
                "nonfinite", tuple(rows), 0
            ), path

    @pytest.mark.parametrize("path", DATAPATHS)
    def test_nonfinite_mass_fails_every_other_row(self, tile, path):
        """A NaN mass in the j-set reaches every i-row but its own,
        whose self-pair is cut before it can contribute."""
        x, v, m = _system(12, 5, 1.0, coincident=False)
        m[3] = np.nan
        emu = _emulator(path, 1.0 / 4096.0, PARTITIONS[1])
        emu.set_j_particles(x, v, m)
        assert _outcome(emu, path, x, v, np.arange(12)) == (
            "nonfinite", tuple(r for r in range(12) if r != 3), 0
        )

    def test_error_pickles(self):
        exc = NonFiniteForceError([2, 5])
        import pickle

        back = pickle.loads(pickle.dumps(exc))
        assert back.rows.tolist() == [2, 5] and str(back) == str(exc)
        assert not isinstance(exc, BlockFloatOverflow)


def _ring(n_j: int = 8):
    """i at the origin, j-particles at unit distance on the +x side, so
    every acc_x and pot contribution has the same sign and size."""
    ang = np.linspace(-0.3, 0.3, n_j)
    xj = np.stack([np.cos(ang), np.sin(ang), np.zeros(n_j)], axis=1)
    vj = np.zeros((n_j, 3))
    mj = np.full(n_j, 1.0 / n_j)
    return xj, vj, mj


class TestOverflowKinds:
    """Each acc_x and pot contribution is about 2^-3, and exponent e
    scales a contribution c to c * 2^(55 - e): about 2^61 at e = -9,
    which fits while the total of eight overflows, and 2^64 at e = -12,
    which saturates."""

    def _attempt(self, path, e):
        xj, vj, mj = _ring()
        emu = Grape6Emulator(0.0, boards=1)
        emu.set_j_particles(xj, vj, mj)
        fmt = emu.formats
        xi_q = fmt.pos.quantize(np.zeros((1, 3)))
        vi_w = np.zeros((1, 3))
        exps = BlockExponents(*(np.array([e], dtype=np.int64) for _ in range(3)))
        before = [chip.cycles for chip in emu._all_chips]
        ctx = numpy_tile() if path == "numpy" else mock.patch.object(
            batched, "load_tile", compiled.load_tile)
        with ctx, pytest.raises(BlockFloatOverflow) as info:
            emu._evaluate_once(xi_q, vi_w, exps, None, None)
        after = [chip.cycles for chip in emu._all_chips]
        return str(info.value), [b - a for a, b in zip(before, after)]

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    def test_saturation_charges_no_cycles(self, tile, path):
        message, charged = self._attempt(path, -12)
        assert message == BlockFloatOverflow.SATURATED
        assert not any(charged)

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    def test_total_overflow_charges_cycles(self, tile, path):
        message, charged = self._attempt(path, -9)
        assert message == BlockFloatOverflow.TOTAL
        assert sum(charged) == 8 * 8  # 8 j-particles, 8 VMP clocks each

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    def test_both_kinds_retry_to_the_same_bits(self, tile, path):
        xj, vj, mj = _ring()
        results = []
        for guard in (-20, -12, 2):
            emu = Grape6Emulator(0.0, boards=1, exponent_guard=guard)
            emu.set_j_particles(xj, vj, mj)
            results.append(_outcome(emu, path, np.zeros((1, 3)), np.zeros((1, 3)), None))
        retries = [r[-1] for r in results]
        assert retries[0] > 0 and retries[1] > 0
        # a retry changes the exponents, so compare against the
        # faithful path at the same guard rather than across guards
        for guard, got in zip((-20, -12, 2), results):
            emu = Grape6Emulator(0.0, boards=1, exponent_guard=guard,
                                 emulation_mode="faithful")
            emu.set_j_particles(xj, vj, mj)
            assert got == _outcome(emu, "faithful", np.zeros((1, 3)),
                                   np.zeros((1, 3)), None)


@pytest.fixture
def fresh_loader():
    """Forget the process's loaded tile before and after the test."""
    compiled.load_tile.cache_clear()
    yield
    compiled.load_tile.cache_clear()


class TestBuildAndFallback:
    def test_no_compiler_falls_back_to_same_bits(self, tile, fresh_loader, monkeypatch):
        x, v, m = _system(30, 9, 1.0, coincident=False)
        emu = Grape6Emulator(1.0 / 4096.0)
        emu.set_j_particles(x, v, m)
        want = _outcome(emu, "compiled", x, v, np.arange(30))

        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        compiled.load_tile.cache_clear()
        loaded = compiled.load_tile()
        assert loaded.tile is None and "no C compiler" in loaded.detail
        emu = Grape6Emulator(1.0 / 4096.0)
        emu.set_j_particles(x, v, m)
        assert _outcome(emu, "compiled", x, v, np.arange(30)) == want

    def test_probe_rejects_a_tile_that_differs(self, tile, fresh_loader, monkeypatch):
        """A port whose bits differ from numpy's (another einsum order,
        a fused multiply-add) or that fails where numpy does not is
        never used."""

        def off_by_one(*args, **kwargs):
            lanes, forces, overflow = tile(*args, **kwargs)
            lanes[-1, 1, 6] += 1
            return lanes, forces, overflow

        def saturating(*args, **kwargs):
            raise BlockFloatOverflow(BlockFloatOverflow.SATURATED)

        assert compiled.probe_mismatch(tile) is None
        assert compiled.probe_mismatch(off_by_one) == "probe tile 0"
        assert "saturates" in compiled.probe_mismatch(saturating)
        monkeypatch.setattr(compiled, "probe_mismatch", lambda t: "probe tile 0")
        loaded = compiled.load_tile()
        assert loaded.tile is None and "differs from numpy" in loaded.detail

    def test_concurrent_first_builds_leave_one_library(self, tile, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
        code = (
            "from repro.hardware.compiled import load_tile\n"
            "r = load_tile()\n"
            "assert r.tile is not None, r.detail\n"
            "print(r.detail)\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        paths = {out.strip() for out, _ in outs}
        assert len(paths) == 1
        files = sorted(f.name for f in (tmp_path / "repro").iterdir())
        lib = Path(paths.pop())
        assert files == [lib.name, lib.name + ".b2"]
        assert compiled.cached_library_valid(lib)

    def test_truncated_library_is_rebuilt(self, tile, tmp_path, fresh_loader, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cc = compiled.find_compiler()
        path = compiled.library_path(cc, compiled.cache_dir())
        # built but never loaded here, so truncating it cannot fault a
        # mapping of this process
        compiled.build_library(cc, path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert not compiled.cached_library_valid(path)

        loaded = compiled.load_tile()
        assert loaded.tile is not None and loaded.detail == str(path)
        assert path.stat().st_size == size
        assert compiled.cached_library_valid(path)

    def test_cache_dir_skips_a_directory_others_can_write(self, tmp_path, monkeypatch):
        """A library loaded from the cache runs in this process, so a
        cache others can write is passed over."""
        shared = tmp_path / "repro"
        shared.mkdir()
        shared.chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert compiled.cache_dir() not in (None, shared)
        shared.chmod(0o755)
        assert compiled.cache_dir() == shared

    def test_build_writes_nothing_in_the_source_tree(self, tile):
        tree = Path(compiled.__file__).parent
        assert sorted(p.name for p in tree.glob("*.so*")) == []
