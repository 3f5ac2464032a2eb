"""Force-calculation pipeline (paper, fig. 8).

One pipeline evaluates equations (1)-(3) for one (i, j) pair per clock:
coordinate subtraction in fixed point (exact), the nonlinear
r^2 -> r^-3 path and the multiplies in reduced-precision arithmetic.

Emulation fidelity: the real pipeline chains ~30 arithmetic units, each
with its own word length (the interaction path uses an unsigned
logarithmic format).  Rounding after every gate-level operator would
model word lengths we do not know and would be prohibitively slow; we
instead compute each pairwise term in float64 and round the *result* of
each of the three outputs (acc / jerk / pot contributions) to the
pipeline's relative precision (default 24-bit mantissa, the accuracy
class of the real log format).  The properties the paper's section 3.4
relies on are preserved exactly:

* dx from fixed-point memory is exact (no cancellation error),
* every pairwise contribution is a deterministic pure function of the
  pair, independent of which pipeline/chip computes it,
* contributions are then summed in block floating point with no
  further error (:mod:`repro.hardware.blockfloat`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import FixedPointFormat
from .floatformat import FloatFormat


@dataclass(frozen=True)
class PipelineFormats:
    """Arithmetic formats of the force pipeline."""

    pos: FixedPointFormat
    word: FloatFormat
    pair: FloatFormat

    @staticmethod
    def default() -> "PipelineFormats":
        return PipelineFormats(
            pos=FixedPointFormat(64, 40),
            word=FloatFormat(32),
            pair=FloatFormat(24),
        )


def pairwise_contributions(
    xi_q: np.ndarray,
    vi: np.ndarray,
    xj_q: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    eps2: float,
    formats: PipelineFormats,
    self_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair force, jerk and potential contributions.

    Parameters
    ----------
    xi_q, xj_q:
        Fixed-point positions (int64 grid integers) of targets/sources.
    vi, vj, mj:
        Velocities and masses already rounded to the word format.
    eps2:
        Softening squared.
    formats:
        Pipeline arithmetic formats.

    Returns
    -------
    (n_i, n_j, 3) acc and jerk contributions and (n_i, n_j) potential
    contributions, each rounded to the pair format.  Pairs flagged in
    ``self_mask`` (the particle itself, matched by host index) and
    grid-identical pairs contribute zero.
    """
    # Exact fixed-point subtraction, then conversion to float.  The
    # difference spans < 2^53 quanta for any pair within the supported
    # coordinate range, so the float64 value of dx is exact.
    dq = xj_q[None, :, :] - xi_q[:, None, :]
    dx = dq.astype(np.float64) * formats.pos.resolution
    dv = vj[None, :, :] - vi[:, None, :]

    r2 = np.einsum("ijk,ijk->ij", dx, dx) + eps2
    # Self-pairs (flagged by host index) contribute nothing; pairs at
    # exactly zero grid distance are also cut so that an unsoftened
    # configuration cannot divide by zero.
    self_pair = np.all(dq == 0, axis=2)
    if self_mask is not None:
        self_pair = self_pair | self_mask

    with np.errstate(divide="ignore"):
        rinv = 1.0 / np.sqrt(r2)
    rinv2 = rinv * rinv
    mrinv = mj[None, :] * rinv
    mrinv3 = mrinv * rinv2
    rv = np.einsum("ijk,ijk->ij", dx, dv)
    with np.errstate(invalid="ignore"):
        alpha = 3.0 * rv * rinv2

    mrinv = np.where(self_pair, 0.0, mrinv)
    mrinv3 = np.where(self_pair, 0.0, mrinv3)
    alpha = np.where(self_pair, 0.0, alpha)

    acc_c = mrinv3[:, :, None] * dx
    jerk_c = mrinv3[:, :, None] * dv - (mrinv3 * alpha)[:, :, None] * dx
    pot_c = -mrinv

    pair = formats.pair
    return pair.round(acc_c), pair.round(jerk_c), pair.round(pot_c)


def nonfinite_rows(
    acc_c: np.ndarray, jerk_c: np.ndarray, pot_c: np.ndarray
) -> np.ndarray:
    """Rows (i-particles) of a contribution tile holding a NaN or an
    infinity — checked before quantisation, where a NaN would otherwise
    cast to an arbitrary integer and be summed."""
    finite = (
        np.isfinite(acc_c).all(axis=(1, 2))
        & np.isfinite(jerk_c).all(axis=(1, 2))
        & np.isfinite(pot_c).all(axis=1)
    )
    return np.flatnonzero(~finite)
