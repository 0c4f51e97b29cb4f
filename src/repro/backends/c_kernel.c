/*
 * Fused batch-Hogwild! wave kernel (the paper's section 4 update, on the CPU).
 *
 * One call replays every wave of one worker's plan shard, straight from the
 * epoch's shuffled order and the int32/fp32 COO arrays: each group of
 * workers * f positions is staged, the shard's lanes only, into an f-wave
 * scratch, so no epoch-sized copy of the schedule or the samples is made
 * (section 5.1: each worker fetches f consecutive samples of the shuffled
 * array).  Per wave:
 *
 *   1. gather: each lane copies its p_u / q_v snapshot into scratch (fp16
 *      storage widens to fp32) and computes its error from the snapshot,
 *      before any lane writes -- the stale-read half of the race contract;
 *   2. scatter: lanes write back in lane order, so on a repeated row or
 *      column the last lane wins -- the lost-update half.
 *
 * That is the contract of repro.core.kernels.WaveWorkspace.wave_update, in
 * one pass over the features instead of one numpy pass per operation.  The
 * update arithmetic rounds after every operation in the reference's order
 * (build with -ffp-contract=off, so no fused multiply-adds); only the dot
 * product sums in a different fixed order (eight partial sums), which is
 * why the backend is held to a tolerance rather than bit identity.
 *
 * fp16 rows convert through F16C intrinsics: eight features per
 * _mm256_cvtph_ps / _mm256_cvtps_ph, and _cvtsh_ss / _cvtss_sh for the
 * k mod 8 tail.  gcc 12 does not vectorise an fp16 <-> fp32 cast loop in
 * plain C with F16C alone ("no vectype"), so a cast per feature compiled
 * to one scalar vcvtph2ps / vcvtps2ph each: 154-185 ns per update
 * over a netflix-syn epoch (k = 32, 64 lanes, 2-vCPU x86), against 24-40
 * ns through the intrinsics, the fp32 kernel's speed.  The 8-wide update
 * is separate multiplies and adds in the reference's order, and every
 * narrowing rounds by MXCSR (_MM_FROUND_CUR_DIRECTION, nearest even by
 * default) as the scalar cast did, so the stored bits are the same.
 *
 * cumf_serial is the other unit of work: one worker's samples updated
 * one after another, each reading what the previous one wrote -- plain
 * serial SGD, through the same one-lane arithmetic.
 *
 * The Python launcher checks every array's dtype and layout, and for
 * cumf_replay the id range, before it calls in; every entry checks the
 * indices it is handed (order entries, or ids) before its first write.
 */
#include <stdint.h>
#if defined(__F16C__)
#include <immintrin.h>
#define CUMF_FP16 1
#else
#define CUMF_FP16 0
#endif

typedef int64_t idx_t;
typedef uint16_t half_t; /* fp16 bits; only F16C builds read or write them */

#define LANES 8

int cumf_has_fp16(void) { return CUMF_FP16; }

/* Lane snapshots: the stored p_u and q_v rows, widened to fp32 scratch.
 * a and b are not restrict: with it, gcc turns the fp32 copy into two
 * memmove calls, which cost one-lane (serial) waves 5-7%. */
static inline void gather(float *a, float *b,
                          const char *pr, const char *qr, idx_t k, int half)
{
#if CUMF_FP16
    if (half) {
        const half_t *hp = (const half_t *)pr, *hq = (const half_t *)qr;
        idx_t j = 0;
        for (; j + 8 <= k; j += 8) {
            _mm256_storeu_ps(a + j, _mm256_cvtph_ps(
                _mm_loadu_si128((const __m128i *)(hp + j))));
            _mm256_storeu_ps(b + j, _mm256_cvtph_ps(
                _mm_loadu_si128((const __m128i *)(hq + j))));
        }
        for (; j < k; j++) {
            a[j] = _cvtsh_ss(hp[j]);
            b[j] = _cvtsh_ss(hq[j]);
        }
        return;
    }
#endif
    (void)half;
    const float *fp = (const float *)pr, *fq = (const float *)qr;
    for (idx_t j = 0; j < k; j++) {
        a[j] = fp[j];
        b[j] = fq[j];
    }
}

/* row <- x + lr * (e * y - lam * x), feature by feature, rounding to fp32
 * after every operation and then (fp16 storage) to the row's type. */
static inline void update_row(char *row, const float *restrict x,
                              const float *restrict y, idx_t k, int half,
                              float e, float lr, float lam)
{
#if CUMF_FP16
    if (half) {
        half_t *h = (half_t *)row;
        const __m256 ve = _mm256_set1_ps(e), vlr = _mm256_set1_ps(lr),
                     vlam = _mm256_set1_ps(lam);
        idx_t j = 0;
        for (; j + 8 <= k; j += 8) {
            const __m256 a = _mm256_loadu_ps(x + j);
            const __m256 g = _mm256_sub_ps(
                _mm256_mul_ps(ve, _mm256_loadu_ps(y + j)),
                _mm256_mul_ps(vlam, a));
            _mm_storeu_si128((__m128i *)(h + j), _mm256_cvtps_ph(
                _mm256_add_ps(a, _mm256_mul_ps(vlr, g)),
                _MM_FROUND_CUR_DIRECTION));
        }
        for (; j < k; j++)
            h[j] = _cvtss_sh(x[j] + lr * (e * y[j] - lam * x[j]),
                             _MM_FROUND_CUR_DIRECTION);
        return;
    }
#endif
    (void)half;
    float *restrict f = (float *)row;
    for (idx_t j = 0; j < k; j++)
        f[j] = x[j] + lr * (e * y[j] - lam * x[j]);
}

static inline float dot(const float *restrict a, const float *restrict b, idx_t k)
{
    float acc[LANES] = {0};
    idx_t j = 0;
    for (; j + LANES <= k; j += LANES)
        for (int l = 0; l < LANES; l++)
            acc[l] += a[j + l] * b[j + l];
    for (int l = 0; j < k; j++, l++)
        acc[l] += a[j] * b[j];
    return ((acc[0] + acc[4]) + (acc[2] + acc[6]))
         + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
}

/* One wave of w lanes; `half` is a literal at every call site, so each
 * storage type gets its own inlined copy with the branches folded away. */
static inline __attribute__((always_inline)) void
wave(char *p, char *q, int half, idx_t k,
     const idx_t *rows, const idx_t *cols, const float *vals, idx_t w,
     float *restrict pu, float *restrict qv, float *restrict err,
     float lr, float lam_p, float lam_q)
{
    const idx_t row_bytes = k * (half ? 2 : 4);
    for (idx_t i = 0; i < w; i++) {
        float *restrict a = pu + i * k;
        float *restrict b = qv + i * k;
        gather(a, b, p + rows[i] * row_bytes, q + cols[i] * row_bytes, k, half);
        err[i] = vals[i] - dot(a, b, k);
    }
    for (idx_t i = 0; i < w; i++) {
        const float *a = pu + i * k;
        const float *b = qv + i * k;
        update_row(p + rows[i] * row_bytes, a, b, k, half, err[i], lr, lam_p);
        update_row(q + cols[i] * row_bytes, b, a, k, half, err[i], lr, lam_q);
    }
}

/* Largest |residual| of a wave's w lanes; a NaN sticks, as in numpy's max. */
static float peak(const float *err, idx_t w)
{
    float m = 0.0f;
    for (idx_t i = 0; i < w; i++) {
        const float a = err[i] < 0.0f ? -err[i] : err[i];
        if (a > m || a != a)
            m = a;
    }
    return m;
}

/* Live lanes of a shard of lanes [lo, lo + width) in wave t of a group
 * holding rem samples: the lanes l with l * f + t < rem, a prefix. */
static inline idx_t live_lanes(idx_t rem, idx_t span, idx_t f, idx_t t,
                               idx_t lo, idx_t width)
{
    if (rem >= span)
        return width;
    const idx_t w = (rem - t + f - 1) / f - lo;
    return w < 0 ? 0 : w > width ? width : w;
}

/* Every wave of one plan shard, staged straight from the shuffled order.
 * Group g's lane l holds the sample positions g*workers*f + l*f + [0, f)
 * of `order` (positions from nnz on are padding), and wave t of the group
 * runs sample t of every lane.  The shard owns lanes [lo, hi), which are
 * the group's positions [g*workers*f + lo*f, g*workers*f + hi*f).  Per
 * group, those lanes are copied wave-major into the f x (hi - lo) staging
 * scratch, ids widened to idx_t, and then wave() runs over each wave's
 * live lanes.  Copying wave by wave writes the scratch in order and keeps
 * the lanes' order entries in L1; copying lane by lane was 5-13% slower
 * per epoch (netflix-syn, 64 lanes, f = 256, 2-vCPU x86).
 * A numeric sanitizer's sample: when `peaks` is not null, each plan wave
 * i (g_wave, the group's first, plus t) with live lanes and i % stride == 0
 * stores its peak() in peaks[i / stride]; a plain replay passes null.
 * Checks every order entry of the shard against the n_data samples first
 * and returns -1, having written nothing, when one is out of range;
 * otherwise returns the updates made. */
idx_t cumf_replay(void *p, void *q, int half, idx_t k,
                  const int32_t *rows, const int32_t *cols, const float *vals,
                  idx_t n_data, const idx_t *order, idx_t nnz,
                  idx_t workers, idx_t f, idx_t lo, idx_t hi,
                  idx_t *srows, idx_t *scols, float *svals,
                  float *pu, float *qv, float *err,
                  float *peaks, idx_t stride,
                  float lr, float lam_p, float lam_q)
{
    const idx_t span = workers * f, width = hi - lo;
    for (idx_t g = 0; g < nnz; g += span)
        for (idx_t i = g + lo * f; i < g + hi * f && i < nnz; i++)
            if ((uint64_t)order[i] >= (uint64_t)n_data)
                return -1;
    idx_t updates = 0;
    for (idx_t g = 0, g_wave = 0; g < nnz; g += span, g_wave += f) {
        const idx_t rem = nnz - g;
        idx_t waves = 0;
        for (; waves < f; waves++) {
            const idx_t w = live_lanes(rem, span, f, waves, lo, width);
            if (w == 0)
                break; /* and so is every later wave of the group */
            const idx_t *first = order + g + lo * f + waves;
            const idx_t off = waves * width;
            for (idx_t j = 0; j < w; j++) {
                const idx_t s = first[j * f];
                srows[off + j] = rows[s];
                scols[off + j] = cols[s];
                svals[off + j] = vals[s];
            }
        }
        for (idx_t t = 0; t < waves; t++) {
            const idx_t w = live_lanes(rem, span, f, t, lo, width);
            const idx_t off = t * width;
            if (half)
                wave(p, q, 1, k, srows + off, scols + off, svals + off, w,
                     pu, qv, err, lr, lam_p, lam_q);
            else
                wave(p, q, 0, k, srows + off, scols + off, svals + off, w,
                     pu, qv, err, lr, lam_p, lam_q);
            if (peaks && (g_wave + t) % stride == 0)
                peaks[(g_wave + t) / stride] = peak(err, w);
            updates += w;
        }
    }
    return updates;
}

/* Serial SGD over `count` samples, in order: each update reads the factors
 * the previous one wrote (a one-lane wave per sample).  Checks every id
 * against the m x n model first and returns -1, having written nothing,
 * when one is out of range. */
int cumf_serial(void *p, void *q, int half, idx_t k, idx_t m, idx_t n,
                const idx_t *rows, const idx_t *cols, const float *vals,
                idx_t count, float *pu, float *qv, float *err,
                float lr, float lam_p, float lam_q)
{
    for (idx_t i = 0; i < count; i++)
        if ((uint64_t)rows[i] >= (uint64_t)m || (uint64_t)cols[i] >= (uint64_t)n)
            return -1;
    if (half)
        for (idx_t i = 0; i < count; i++)
            wave(p, q, 1, k, rows + i, cols + i, vals + i, 1,
                 pu, qv, err, lr, lam_p, lam_q);
    else
        for (idx_t i = 0; i < count; i++)
            wave(p, q, 0, k, rows + i, cols + i, vals + i, 1,
                 pu, qv, err, lr, lam_p, lam_q);
    return 0;
}
