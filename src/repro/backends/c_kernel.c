/*
 * Fused batch-Hogwild! wave kernel (the paper's section 4 update, on the CPU).
 *
 * One call replays every wave of one worker's plan shard.  Per wave:
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
 * cumf_serial is the other unit of work: one worker's samples updated
 * one after another, each reading what the previous one wrote -- plain
 * serial SGD, through the same one-lane arithmetic.
 *
 * The Python launcher checks every array's dtype and layout, and for
 * cumf_replay the id range, before it calls in.
 */
#include <stdint.h>

typedef int64_t idx_t;

#define LANES 8

#if defined(__F16C__)
#define CUMF_FP16 1
typedef _Float16 half_t;
#else
#define CUMF_FP16 0
typedef uint16_t half_t; /* storage only: fp16 models stay on numpy */
#endif

int cumf_has_fp16(void) { return CUMF_FP16; }

static inline float load(const void *row, idx_t j, int half)
{
#if CUMF_FP16
    if (half)
        return (float)((const half_t *)row)[j];
#endif
    (void)half;
    return ((const float *)row)[j];
}

static inline void store(void *row, idx_t j, float x, int half)
{
#if CUMF_FP16
    if (half) {
        ((half_t *)row)[j] = (half_t)x;
        return;
    }
#endif
    (void)half;
    ((float *)row)[j] = x;
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
        const char *pr = p + rows[i] * row_bytes;
        const char *qr = q + cols[i] * row_bytes;
        float *restrict a = pu + i * k;
        float *restrict b = qv + i * k;
        for (idx_t j = 0; j < k; j++) {
            a[j] = load(pr, j, half);
            b[j] = load(qr, j, half);
        }
        err[i] = vals[i] - dot(a, b, k);
    }
    for (idx_t i = 0; i < w; i++) {
        char *pr = p + rows[i] * row_bytes;
        char *qr = q + cols[i] * row_bytes;
        const float *a = pu + i * k;
        const float *b = qv + i * k;
        const float e = err[i];
        for (idx_t j = 0; j < k; j++) {
            store(pr, j, a[j] + lr * (e * b[j] - lam_p * a[j]), half);
            store(qr, j, b[j] + lr * (e * a[j] - lam_q * b[j]), half);
        }
    }
}

/* One wave: the per-wave kernel observed executors call.  Its id arrays
 * change every call, so it checks them against the m x n model itself and
 * returns -1, having written nothing, when one is out of range. */
int cumf_wave(void *p, void *q, int half, idx_t k, idx_t m, idx_t n,
              const idx_t *rows, const idx_t *cols, const float *vals,
              idx_t w, float *pu, float *qv, float *err,
              float lr, float lam_p, float lam_q)
{
    for (idx_t i = 0; i < w; i++)
        if ((uint64_t)rows[i] >= (uint64_t)m || (uint64_t)cols[i] >= (uint64_t)n)
            return -1;
    if (half)
        wave(p, q, 1, k, rows, cols, vals, w, pu, qv, err, lr, lam_p, lam_q);
    else
        wave(p, q, 0, k, rows, cols, vals, w, pu, qv, err, lr, lam_p, lam_q);
    return 0;
}

/* Every wave of a bound plan shard: wave t holds lanes [0, lengths[t]) of
 * row t of the (n_waves, width) id/value matrices, whose rows lie `ld`
 * elements apart.  Returns the updates made. */
idx_t cumf_replay(void *p, void *q, int half, idx_t k,
                  const idx_t *rows, const idx_t *cols, const float *vals,
                  idx_t ld, idx_t width, const idx_t *lengths, idx_t n_waves,
                  float *pu, float *qv, float *err,
                  float lr, float lam_p, float lam_q)
{
    idx_t updates = 0;
    for (idx_t t = 0; t < n_waves; t++) {
        idx_t w = lengths[t] < width ? lengths[t] : width;
        if (w <= 0)
            continue;
        const idx_t off = t * ld;
        if (half)
            wave(p, q, 1, k, rows + off, cols + off, vals + off, w,
                 pu, qv, err, lr, lam_p, lam_q);
        else
            wave(p, q, 0, k, rows + off, cols + off, vals + off, w,
                 pu, qv, err, lr, lam_p, lam_q);
        updates += w;
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
