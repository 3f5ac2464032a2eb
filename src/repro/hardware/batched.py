"""Vectorised (batched) emulator datapath.

The faithful datapath walks the machine the way the hardware does:
board -> module -> chip, each chip streaming its private j-memory past
the pipelines in passes of 48 i-particles, with the partial sums
carried up the FPGA adder tree as exact big integers.  That schedule
is what makes the emulator honest — and what makes it slow: the Python
interpreter pays per chip and per pass, and the object-dtype integer
arithmetic pays per element.

Section 3.4's block-floating-point design licenses a shortcut.  Every
pairwise contribution is quantised *independently* under the declared
block exponent, and every summation — pipeline, chip, module, board,
host — is exact integer addition.  The force is therefore a pure
function of the **multiset** of quantised pairwise contributions; how
they are partitioned over chips and in what order they are added
cannot change a single bit.  So we may gather all chip memories into
one contiguous j-array, evaluate the full (n_i, n_j) interaction tile
in one numpy pass, and reduce it with a two-lane int64 carry-save sum
(:func:`repro.hardware.fixedpoint.carry_save_sum`) — and the result is
bit-identical to the per-chip schedule, enforced by the emulation-mode
property tests.  The same argument frees the order of the pairs, so
:func:`batched_forces` runs a C port of the tile
(:mod:`repro.hardware.compiled`) when the local compiler could build
it; :func:`batched_partial_lanes` stays the numpy reference.

Cycle accounting is preserved: each chip is charged the cycles the
real schedule would have cost it (``ceil(n_i/48) * vmp_ways * n_j``
for its own memory size), and the per-contribution saturation check
and the total-overflow check raise the same
:class:`~repro.hardware.blockfloat.BlockFloatOverflow` the host retry
loop expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.predictor import predict_with_snap
from .blockfloat import BlockFloatAccumulator, BlockFloatOverflow, NonFiniteForceError
from .chip import BlockExponents, GrapeChip
from .compiled import load_tile
from .fixedpoint import carry_save_sum
from .pipeline import PipelineFormats, nonfinite_rows, pairwise_contributions

#: Target number of (i, j) pairs per evaluation tile.  The i-block is
#: chunked so that the float64 temporaries of one tile stay cache- and
#: RAM-friendly; chunk boundaries cannot change results (rows are
#: independent and the j-reduction is exact).
TILE_TARGET_PAIRS: int = 1 << 19


@dataclass
class GatheredJSet:
    """All chip memories of a machine as contiguous j-arrays.

    Built once per jmem load (not per force call) and cached by the
    emulator; ``version`` is the sum of the source memories' write
    generations, so any reload — including direct chip loads by the
    ``g6_*`` host library — invalidates the cache.

    ``chip_sizes`` records how many j-particles each chip holds, in
    machine order, for cycle accounting: the batched path charges each
    chip what the faithful schedule would have.
    """

    pos_q: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    host_index: np.ndarray
    acc: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    t0: np.ndarray
    chip_sizes: tuple[int, ...]
    version: int

    @property
    def n(self) -> int:
        return self.pos_q.shape[0]


def memory_version(chips: list[GrapeChip]) -> int:
    """Cache key: total write generation of the chip memories."""
    return sum(chip.memory.version for chip in chips)


def gather_chips(chips: list[GrapeChip]) -> GatheredJSet:
    """Concatenate the chip memories into one contiguous j-set.

    The concatenation order (machine order) is irrelevant to the
    result — the reduction is exact — but keeping it deterministic
    makes the gathered arrays reproducible for debugging.
    """
    version = memory_version(chips)
    mems = [chip.memory for chip in chips]
    return GatheredJSet(
        pos_q=np.concatenate([m.pos_q for m in mems], axis=0),
        vel=np.concatenate([m.vel for m in mems], axis=0),
        mass=np.concatenate([m.mass for m in mems], axis=0),
        host_index=np.concatenate([m.host_index for m in mems], axis=0),
        acc=np.concatenate([m.acc for m in mems], axis=0),
        jerk=np.concatenate([m.jerk for m in mems], axis=0),
        snap=np.concatenate([m.snap for m in mems], axis=0),
        t0=np.concatenate([m.t0 for m in mems], axis=0),
        chip_sizes=tuple(m.n for m in mems),
        version=version,
    )


def predict_gather(
    gather: GatheredJSet, formats: PipelineFormats, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predictor-pipeline pass over the gathered j-set.

    Identical per particle to
    :func:`repro.hardware.predictor_unit.predict_memory` on the owning
    chip's memory — the predictor polynomial, the re-quantisation onto
    the fixed-point grid and the word rounding are all elementwise —
    but evaluated for the whole machine in one vectorised call.
    """
    x0 = formats.pos.dequantize(gather.pos_q)
    xp, vp = predict_with_snap(
        t, gather.t0, x0, gather.vel, gather.acc, gather.jerk, gather.snap
    )
    return formats.pos.quantize(xp, saturate=True), formats.word.round(vp)


@dataclass
class CarrySavePartial:
    """Exact partial sums in two-lane int64 carry-save form.

    The value of each output element is ``hi * 2**32 + lo``; conversion
    (and the total-overflow check) happens in
    :meth:`~repro.hardware.blockfloat.BlockFloatAccumulator.to_float_lanes`.
    """

    acc_hi: np.ndarray
    acc_lo: np.ndarray
    jerk_hi: np.ndarray
    jerk_lo: np.ndarray
    pot_hi: np.ndarray
    pot_lo: np.ndarray


def batched_partial_lanes(
    xi_q: np.ndarray,
    vi: np.ndarray,
    xj_q: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    host_index_j: np.ndarray,
    exponents: BlockExponents,
    eps2: float,
    formats: PipelineFormats,
    i_index: np.ndarray | None = None,
) -> CarrySavePartial:
    """Evaluate the full interaction tile and reduce it exactly (numpy).

    The reference implementation of the tile: one call replaces the
    whole board/module/chip traversal — pairwise contributions and
    block-float quantisation run over (chunks of) the complete
    (n_i, n_j) tile, and the j-reduction is the int64 carry-save sum.
    :func:`batched_forces` runs the compiled port of this function when
    it is available, and the loader checks the port against it.

    Raises :class:`~repro.hardware.blockfloat.NonFiniteForceError`
    naming every i-row with a NaN or infinite contribution, else
    :class:`~repro.hardware.blockfloat.BlockFloatOverflow` on
    per-contribution saturation exactly where the faithful path would
    (the caller charges chip cycles on return, so an attempt aborted by
    saturation charges nothing — the faithful schedule would have
    charged whatever passes ran before the saturating one, an
    attempt-local difference that never affects results).  A non-finite
    contribution anywhere wins over saturation, so a failing tile is
    scanned to the end.
    """
    n_i = xi_q.shape[0]
    n_j = xj_q.shape[0]

    out = CarrySavePartial(
        acc_hi=np.empty((n_i, 3), dtype=np.int64),
        acc_lo=np.empty((n_i, 3), dtype=np.int64),
        jerk_hi=np.empty((n_i, 3), dtype=np.int64),
        jerk_lo=np.empty((n_i, 3), dtype=np.int64),
        pot_hi=np.empty(n_i, dtype=np.int64),
        pot_lo=np.empty(n_i, dtype=np.int64),
    )

    bad: list[np.ndarray] = []
    saturated = False
    chunk = max(1, TILE_TARGET_PAIRS // max(n_j, 1))
    for lo in range(0, n_i, chunk):
        hi = min(lo + chunk, n_i)
        block = slice(lo, hi)
        self_mask = (
            i_index[block, None] == host_index_j[None, :]
            if i_index is not None
            else None
        )
        acc_c, jerk_c, pot_c = pairwise_contributions(
            xi_q[block], vi[block], xj_q, vj, mj, eps2, formats, self_mask=self_mask
        )
        rows = nonfinite_rows(acc_c, jerk_c, pot_c)
        if rows.size:
            bad.append(rows + lo)
        if bad or saturated:
            continue  # the attempt fails: only scan for non-finite rows
        # Per-pair quantisation under the (n_i,)-shaped block exponents
        # (broadcast over the j and component axes) — elementwise
        # identical to the faithful per-chip quantisation, including
        # the saturation check.
        try:
            acc_q = BlockFloatAccumulator(exponents.acc[block, None, None]).quantize(acc_c)
            jerk_q = BlockFloatAccumulator(exponents.jerk[block, None, None]).quantize(jerk_c)
            pot_q = BlockFloatAccumulator(exponents.pot[block, None]).quantize(pot_c)
        except BlockFloatOverflow:
            saturated = True
            continue

        out.acc_hi[block], out.acc_lo[block] = carry_save_sum(acc_q, axis=1)
        out.jerk_hi[block], out.jerk_lo[block] = carry_save_sum(jerk_q, axis=1)
        out.pot_hi[block], out.pot_lo[block] = carry_save_sum(pot_q, axis=1)

    if bad:
        raise NonFiniteForceError(np.concatenate(bad))
    if saturated:
        raise BlockFloatOverflow(BlockFloatOverflow.SATURATED)
    return out


def batched_forces(
    xi_q: np.ndarray,
    vi: np.ndarray,
    xj_q: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    host_index_j: np.ndarray,
    exponents: BlockExponents,
    eps2: float,
    formats: PipelineFormats,
    i_index: np.ndarray | None = None,
    streamed: Callable[[], None] = lambda: None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One attempt of the batched datapath: acc, jerk and pot in float.

    Evaluates the tile — compiled (:mod:`repro.hardware.compiled`) when
    it loaded, else :func:`batched_partial_lanes`; both give the same
    bits — then calls ``streamed()`` (the pipelines have streamed the
    memories: the caller charges cycles), then range-checks the totals
    and converts them.  Raises like :func:`batched_partial_lanes` before
    ``streamed()``, and :class:`BlockFloatOverflow` for a total that
    overflows after it.
    """
    tile = load_tile().tile
    if tile is None:
        lanes = batched_partial_lanes(
            xi_q, vi, xj_q, vj, mj, host_index_j, exponents, eps2, formats,
            i_index=i_index,
        )
        streamed()
        acc = BlockFloatAccumulator(exponents.acc[:, None]).to_float_lanes(
            lanes.acc_hi, lanes.acc_lo
        )
        jerk = BlockFloatAccumulator(exponents.jerk[:, None]).to_float_lanes(
            lanes.jerk_hi, lanes.jerk_lo
        )
        pot = BlockFloatAccumulator(exponents.pot).to_float_lanes(
            lanes.pot_hi, lanes.pot_lo
        )
        return acc, jerk, pot
    exps = np.stack((exponents.acc, exponents.jerk, exponents.pot), axis=1)
    _, forces, overflow = tile(
        xi_q, vi, xj_q, vj, mj, host_index_j, exps, eps2, formats, i_index=i_index
    )
    streamed()
    if overflow:
        raise BlockFloatOverflow(BlockFloatOverflow.TOTAL)
    return forces
