/*
 * QSGD's per-entry passes (quant/qsgd.py, SparCML §6), for float32 and
 * float64 vectors. Everything whose bits depend on numpy stays in numpy:
 * the bucket norms, the finite/overflow check, the float64 noise draw and
 * the bit packing below 8 bits. What is left here is IEEE basic arithmetic
 * in numpy's order, so a code or a decoded value is the numpy path's, bit
 * for bit — provided nothing fuses or reorders it (built with
 * -ffp-contract=off and without -ffast-math).
 *
 * qsgd_codes: code[i] = level | sign << sign_shift, where level is
 *   floor(|x[i]| / safe[b] * levels + noise[i])   (noise given), or
 *   nearbyint(|x[i]| / safe[b] * levels)           (noise NULL),
 *   clipped to [0, levels]. The argument of floor is never negative, so
 *   clipping it at levels and truncating is floor-then-clip, and the
 *   truncating conversion needs no libm call.
 * qsgd_decode: out[i] = (T)(table[code[i]] * scale[b]), one rounding of a
 *   float64 product into the output type, as numpy's multiply into out.
 *
 * b = i / bucket throughout; the caller passes ceil(n / bucket) per-bucket
 * values (safe divisors, scales), a table of 256 entries or one per code,
 * and buffers of n entries.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define DEFINE_QSGD(SUFFIX, T)                                              \
    void qsgd_codes_##SUFFIX(const void *x_, size_t n, size_t bucket,       \
                             const void *safe_, double levels,              \
                             const void *noise_, unsigned int sign_shift,   \
                             void *codes_)                                  \
    {                                                                       \
        const T *x = x_;                                                    \
        const double *safe = safe_, *noise = noise_;                        \
        uint8_t *codes = codes_;                                            \
        for (size_t lo = 0, b = 0; lo < n; lo += bucket, b++) {             \
            size_t hi = n - lo < bucket ? n : lo + bucket;                  \
            double s = safe[b];                                             \
            if (noise) {                                                    \
                for (size_t i = lo; i < hi; i++) {                          \
                    double r = fabs((double)x[i]) / s * levels + noise[i];  \
                    r = r < levels ? r : levels;                            \
                    codes[i] = (uint8_t)((unsigned int)r                    \
                                         | (x[i] < 0) << sign_shift);       \
                }                                                           \
            } else {                                                        \
                for (size_t i = lo; i < hi; i++) {                          \
                    double r = nearbyint(fabs((double)x[i]) / s * levels);  \
                    r = r < levels ? r : levels;                            \
                    codes[i] = (uint8_t)((unsigned int)r                    \
                                         | (x[i] < 0) << sign_shift);       \
                }                                                           \
            }                                                               \
        }                                                                   \
    }                                                                       \
                                                                            \
    void qsgd_decode_##SUFFIX(const void *codes_, size_t n, size_t bucket,  \
                              const void *table_, const void *scales_,      \
                              void *out_)                                   \
    {                                                                       \
        const uint8_t *codes = codes_;                                      \
        const double *table = table_, *scales = scales_;                    \
        T *out = out_;                                                      \
        for (size_t lo = 0, b = 0; lo < n; lo += bucket, b++) {             \
            size_t hi = n - lo < bucket ? n : lo + bucket;                  \
            double s = scales[b];                                           \
            for (size_t i = lo; i < hi; i++)                                \
                out[i] = (T)(table[codes[i]] * s);                          \
        }                                                                   \
    }

DEFINE_QSGD(f32, float)
DEFINE_QSGD(f64, double)
