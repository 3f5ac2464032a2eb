/*
 * Compiled batched force tile of the GRAPE-6 emulator.
 *
 * One call evaluates the whole (n_i, n_j) interaction tile: pairwise
 * contributions (repro.hardware.pipeline.pairwise_contributions),
 * rounding to the pair format, block-floating-point quantisation
 * (BlockFloatAccumulator.quantize) and the exact two-lane int64
 * carry-save reduction (fixedpoint.carry_save_sum), optionally followed
 * by the total-overflow check and float conversion
 * (BlockFloatAccumulator.to_float_lanes).
 *
 * The numpy implementation in repro.hardware.batched is the reference,
 * and this file reproduces it bit for bit:
 *
 *   - every floating-point operation is the one numpy performs, in the
 *     same order; the library is built with -ffp-contract=off so no
 *     multiply-add is fused;
 *   - the 3-term dot products follow numpy's einsum reduction of a
 *     length-3 axis on a 2-lane SIMD build, (p0 + p2) + p1;
 *   - rounding to the pair format goes through float where the 24-bit
 *     result is a normal float, uses IEEE bit masks (round to nearest
 *     even on the dropped bits) for other normal values and widths,
 *     and numpy's own frexp/rint/ldexp sequence for subnormal and
 *     non-finite values;
 *   - quantisation multiplies by the power-of-two reciprocal of the
 *     quantum where that reciprocal is representable (exact, so equal
 *     to the division) and divides otherwise; rint and the int64 cast
 *     are one cvtsd2si on x86-64.
 *
 * The loader checks the compiled tile against the numpy tile on probe
 * tiles before using it, so a platform whose numpy reduces in another
 * order falls back to numpy instead of diverging.
 *
 * Order of the j-reduction does not matter: the lane sums are exact
 * integer additions (fewer than 2^31 addends per lane).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

enum {
    TILE_OK = 0,
    TILE_SATURATED = 1, /* a contribution does not fit the register */
    TILE_NONFINITE = 2, /* a contribution is NaN or infinite */
    TILE_OVERFLOW = 3,  /* an accumulated total does not fit */
};

/* Contributions per pair: acc x/y/z, jerk x/y/z, pot. */
#define NOUT 7

/* |scaled| at or above this saturates (BlockFloatAccumulator.quantize). */
static const double SATURATION = 0x1p62;

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double double_of(uint64_t b)
{
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* FloatFormat.round: nearest-even to `mant` significant bits. */
static inline double round_mantissa(double x, int mant)
{
    if (mant >= 53)
        return x;
    uint64_t b = bits_of(x);
    uint64_t expo = (b >> 52) & 0x7FF;
    if (mant >= 2 && expo != 0 && expo != 0x7FF) {
        int drop = 53 - mant;
        uint64_t lsb = (b >> drop) & 1;
        uint64_t mask = ((uint64_t)1 << drop) - 1;
        b += (mask >> 1) + lsb;
        return double_of(b & ~mask);
    }
    if (!isfinite(x))
        return x;
    int e;
    double m = frexp(x, &e);
    return ldexp(rint(ldexp(m, mant)), e - mant);
}

/* np.ldexp(1.0, e) with the exponent clamped to the int range. */
static inline double pow2(int64_t e)
{
    if (e > 100000)
        e = 100000;
    if (e < -100000)
        e = -100000;
    return ldexp(1.0, (int)e);
}

/* Scale factor of one block exponent: quantisation multiplies by
 * `inv` when `use_inv` is set (exact reciprocal), else divides by q. */
typedef struct {
    double q;
    double inv;
    int use_inv;
} quantum_t;

static inline quantum_t quantum(int64_t e, int frac_bits)
{
    quantum_t r;
    int64_t k = e - frac_bits;
    r.q = pow2(k);
    r.use_inv = (k >= -1022 && k <= 1022);
    r.inv = r.use_inv ? pow2(-k) : 0.0;
    return r;
}

/* np.rint(x).astype(np.int64) for |x| < 2^62 or NaN (which numpy's
 * cast turns into INT64_MIN on x86-64). */
static inline int64_t rint_i64(double x)
{
#if defined(__SSE2__)
    /* cvtsd2si rounds in the current mode (nearest even) and converts
     * NaN to INT64_MIN: numpy's rint and cast in one instruction */
    return _mm_cvtsd_si64(_mm_set_sd(x));
#else
    if (isnan(x))
        return INT64_MIN;
    /* below 2^52, adding and subtracting 2^52 rounds to nearest even;
     * above it x is an integer */
    double ax = fabs(x);
    double r = ax < 0x1p52 ? (ax + 0x1p52) - 0x1p52 : ax;
    int64_t v = (int64_t)r;
    int64_t sign = (int64_t)bits_of(x) >> 63;
    return (v ^ sign) - sign;
#endif
}

/* True when |x| lies in [2^-125, 2^127): rounding x to 24 bits then
 * stays a normal float, so converting to float and back is exactly
 * FloatFormat(24).round (nearest even at the 24th bit). */
static inline int float_window(double x)
{
    uint64_t expo = (bits_of(x) >> 52) & 0x7FF;
    return expo - (1023 - 125) < 252;
}

/*
 * Arrays are C-contiguous: xi_q, vi (n_i, 3); xj_q, vj (n_j, 3); mj,
 * j_index (n_j); i_index (n_i) or NULL for no self-exclusion; exps
 * (n_i, 3) block exponents of acc, jerk, pot.
 *
 * Outputs: lanes (n_i, 2, 7) int64, the high then the low carry-save
 * lane of acc[3] jerk[3] pot; bad_rows (n_i) flags rows with a non-finite
 * contribution; forces (7 n_i) holding acc (n_i, 3), then jerk (n_i, 3),
 * then pot (n_i), or NULL to skip the range check and conversion.
 *
 * Returns a TILE_* status.  A non-finite contribution anywhere wins
 * over saturation, so the tile is scanned to the end for both; the
 * lanes and forces are only meaningful with TILE_OK (forces) or
 * TILE_OK / TILE_OVERFLOW (lanes).
 */
int g6_tile(int64_t n_i, int64_t n_j, const int64_t *xi_q, const double *vi,
            const int64_t *xj_q, const double *vj, const double *mj,
            const int64_t *i_index, const int64_t *j_index,
            const int64_t *exps, double eps2, double resolution,
            int mant, int frac_bits, int64_t *lanes, uint8_t *bad_rows,
            double *forces)
{
    int saturated = 0, nonfinite = 0;

    for (int64_t i = 0; i < n_i; ++i) {
        const int64_t *xq = xi_q + 3 * i;
        const double *v = vi + 3 * i;
        quantum_t qa = quantum(exps[3 * i + 0], frac_bits);
        quantum_t qj = quantum(exps[3 * i + 1], frac_bits);
        quantum_t qp = quantum(exps[3 * i + 2], frac_bits);
        const quantum_t *qs[NOUT] = {&qa, &qa, &qa, &qj, &qj, &qj, &qp};
        int64_t hi[NOUT] = {0}, lo[NOUT] = {0};
        bad_rows[i] = 0;

        for (int64_t j = 0; j < n_j; ++j) {
            const int64_t *yq = xj_q + 3 * j;
            const double *w = vj + 3 * j;
            int64_t dq[3];
            double dx[3], dv[3];
            for (int k = 0; k < 3; ++k) {
                /* int64 subtraction wrapping like numpy's */
                dq[k] = (int64_t)((uint64_t)yq[k] - (uint64_t)xq[k]);
                dx[k] = (double)dq[k] * resolution;
                dv[k] = w[k] - v[k];
            }
            double r2 = (dx[0] * dx[0] + dx[2] * dx[2]) + dx[1] * dx[1];
            r2 = r2 + eps2;
            int self_pair = (dq[0] == 0 && dq[1] == 0 && dq[2] == 0)
                || (i_index != NULL && i_index[i] == j_index[j]);

            double rinv = 1.0 / sqrt(r2);
            double rinv2 = rinv * rinv;
            double mrinv = mj[j] * rinv;
            double mrinv3 = mrinv * rinv2;
            double rv = (dx[0] * dv[0] + dx[2] * dv[2]) + dx[1] * dv[1];
            double alpha = 3.0 * rv * rinv2;
            if (self_pair) {
                mrinv = 0.0;
                mrinv3 = 0.0;
                alpha = 0.0;
            }
            double c[NOUT];
            for (int k = 0; k < 3; ++k) {
                c[k] = mrinv3 * dx[k];
                c[3 + k] = mrinv3 * dv[k] - (mrinv3 * alpha) * dx[k];
            }
            c[6] = -mrinv;

            /* round to the pair format: through float for the usual
             * 24 bits and magnitudes, bit by bit otherwise */
            int fast = mant == 24;
            for (int k = 0; k < NOUT; ++k)
                fast &= float_window(c[k]);
            if (fast) {
                for (int k = 0; k < NOUT; ++k)
                    c[k] = (double)(float)c[k];
            } else {
                int finite = 1;
                for (int k = 0; k < NOUT; ++k) {
                    c[k] = round_mantissa(c[k], mant);
                    finite &= isfinite(c[k]) != 0;
                }
                if (!finite) {
                    bad_rows[i] = 1;
                    nonfinite = 1;
                }
            }
            if (nonfinite || saturated)
                continue; /* the attempt fails: only scan for bad rows */

            int64_t qv[NOUT];
            int sat = 0;
            for (int k = 0; k < NOUT; ++k) {
                const quantum_t *q = qs[k];
                double s = q->use_inv ? c[k] * q->inv : c[k] / q->q;
                sat |= fabs(s) >= SATURATION;
                qv[k] = rint_i64(s);
            }
            if (sat) {
                saturated = 1;
                continue;
            }
            for (int k = 0; k < NOUT; ++k) {
                hi[k] += qv[k] >> 32; /* arithmetic shift */
                lo[k] += qv[k] & (int64_t)0xFFFFFFFF;
            }
        }

        memcpy(lanes + 2 * NOUT * i, hi, sizeof hi);
        memcpy(lanes + 2 * NOUT * i + NOUT, lo, sizeof lo);
    }

    if (nonfinite)
        return TILE_NONFINITE;
    if (saturated)
        return TILE_SATURATED;
    if (forces == NULL)
        return TILE_OK;

    /* to_float_lanes: carry-normalise, range-check, convert */
    int overflow = 0;
    for (int64_t i = 0; i < n_i; ++i) {
        const int64_t *hi = lanes + 2 * NOUT * i, *lo = hi + NOUT;
        double qa = pow2(exps[3 * i + 0] - frac_bits);
        double qj = pow2(exps[3 * i + 1] - frac_bits);
        double qp = pow2(exps[3 * i + 2] - frac_bits);
        const double qs[NOUT] = {qa, qa, qa, qj, qj, qj, qp};
        for (int k = 0; k < NOUT; ++k) {
            int64_t h_tot = hi[k] + (lo[k] >> 32);
            int64_t l_rem = lo[k] & (int64_t)0xFFFFFFFF;
            const int64_t half = (int64_t)1 << 31;
            if (h_tot >= half || h_tot < -half || (h_tot == -half && l_rem == 0)) {
                overflow = 1;
                continue;
            }
            int64_t total = h_tot * ((int64_t)1 << 32) + l_rem;
            /* acc (n_i, 3), then jerk (n_i, 3), then pot (n_i) */
            int64_t at = k < 3 ? 3 * i + k : k < 6 ? 3 * (n_i + i) + k - 3 : 6 * n_i + i;
            forces[at] = (double)total * qs[k];
        }
    }
    return overflow ? TILE_OVERFLOW : TILE_OK;
}
