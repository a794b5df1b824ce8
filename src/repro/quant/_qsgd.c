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
 *
 * Two bodies of each pass, one result. qsgd_codes_*_simd and
 * qsgd_decode_*_simd run an AVX-512 body where the CPU has avx512f and
 * avx512vl (checked once, when the library loads; target attributes keep
 * the compile line free of -march).
 *
 * The codes body: eight entries a step, widened to float64, the sign bit
 * cleared, then vdivpd by the bucket's divisor, vmulpd by levels, vaddpd
 * of the noise, vminpd against levels -- separate IEEE operations in the
 * scalar order, no FMA (the compile line has -ffp-contract=off) -- and a
 * truncating convert with the sign bit ORed in. vminpd(r, levels) is
 * r < levels ? r : levels, the scalar clip. A bucket's last n % 8
 * entries and round-to-nearest (noise NULL) take the scalar body.
 *
 * The decode body: sixteen codes a step, widened to int32, two vgatherdpd
 * of table[code] (a code unpacked at `bits` bits is below 2^bits, the
 * table's length, so every gather stays inside it whatever a peer sent),
 * vmulpd by the bucket's scale and, for float32, one vcvtpd2ps, which
 * rounds to nearest-even as the scalar (float) cast does. A bucket's last
 * n % 16 entries take the scalar body. Both bodies use ordinary stores:
 * the caller reads the result next.
 *
 * Every other CPU runs the scalar bodies only.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* the stochastic code of one entry */
static inline uint8_t code_of(double x, double s, double levels, double noise,
                              unsigned int sign_shift)
{
    double r = fabs(x) / s * levels + noise;
    r = r < levels ? r : levels;
    return (uint8_t)((unsigned int)r | (x < 0) << sign_shift);
}

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
                for (size_t i = lo; i < hi; i++)                            \
                    codes[i] = code_of(x[i], s, levels, noise[i],           \
                                       sign_shift);                         \
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

static int simd_ok; /* set once, when the library loads */

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SIMD __attribute__((target("avx512f,avx512vl")))

__attribute__((constructor)) static void detect_simd(void)
{
    __builtin_cpu_init();
    simd_ok = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl");
}

/* eight entries at p, widened to float64 */
SIMD static inline __m512d load8_f32(const float *p) { return _mm512_cvtps_pd(_mm256_loadu_ps(p)); }
SIMD static inline __m512d load8_f64(const double *p) { return _mm512_loadu_pd(p); }

/* eight float64 values stored at p, each rounded once into T */
SIMD static inline void store8_f32(float *p, __m512d v) { _mm256_storeu_ps(p, _mm512_cvtpd_ps(v)); }
SIMD static inline void store8_f64(double *p, __m512d v) { _mm512_storeu_pd(p, v); }

#define DEFINE_QSGD_SIMD(SUFFIX, T)                                         \
    SIMD static void codes_avx512_##SUFFIX(const void *x_, size_t n, size_t bucket, \
                                           const void *safe_, double levels, \
                                           const void *noise_,              \
                                           unsigned int sign_shift, void *codes_) \
    {                                                                       \
        const T *x = x_;                                                    \
        const double *safe = safe_, *noise = noise_;                        \
        uint8_t *codes = codes_;                                            \
        const __m512d top = _mm512_set1_pd(levels), zero = _mm512_setzero_pd(); \
        const __m256i sign = _mm256_set1_epi32(1 << sign_shift);            \
        for (size_t lo = 0, b = 0; lo < n; lo += bucket, b++) {             \
            size_t hi = n - lo < bucket ? n : lo + bucket, i = lo;          \
            const __m512d s = _mm512_set1_pd(safe[b]);                      \
            for (; i + 8 <= hi; i += 8) {                                   \
                __m512d v = load8_##SUFFIX(x + i);                          \
                __m512d r = _mm512_div_pd(_mm512_abs_pd(v), s);             \
                r = _mm512_add_pd(_mm512_mul_pd(r, top), _mm512_loadu_pd(noise + i)); \
                __m256i c = _mm512_cvttpd_epi32(_mm512_min_pd(r, top));     \
                c = _mm256_mask_or_epi32(c, _mm512_cmp_pd_mask(v, zero, _CMP_LT_OQ), \
                                         c, sign);                          \
                _mm_storel_epi64((__m128i *)(codes + i), _mm256_cvtepi32_epi8(c)); \
            }                                                               \
            for (; i < hi; i++)                                             \
                codes[i] = code_of(x[i], safe[b], levels, noise[i], sign_shift); \
        }                                                                   \
    }                                                                       \
                                                                            \
    SIMD static void decode_avx512_##SUFFIX(const void *codes_, size_t n,   \
                                            size_t bucket, const void *table_, \
                                            const void *scales_, void *out_) \
    {                                                                       \
        const uint8_t *codes = codes_;                                      \
        const double *table = table_, *scales = scales_;                    \
        T *out = out_;                                                      \
        for (size_t lo = 0, b = 0; lo < n; lo += bucket, b++) {             \
            size_t hi = n - lo < bucket ? n : lo + bucket, i = lo;          \
            const double sb = scales[b];                                    \
            const __m512d s = _mm512_set1_pd(sb);                           \
            for (; i + 16 <= hi; i += 16) {                                 \
                __m512i c = _mm512_cvtepu8_epi32(                           \
                    _mm_loadu_si128((const __m128i *)(codes + i)));         \
                __m512d v0 = _mm512_i32gather_pd(_mm512_castsi512_si256(c), table, 8); \
                __m512d v1 = _mm512_i32gather_pd(_mm512_extracti64x4_epi64(c, 1), table, 8); \
                store8_##SUFFIX(out + i, _mm512_mul_pd(v0, s));             \
                store8_##SUFFIX(out + i + 8, _mm512_mul_pd(v1, s));         \
            }                                                               \
            for (; i < hi; i++)                                             \
                out[i] = (T)(table[codes[i]] * sb);                         \
        }                                                                   \
    }

DEFINE_QSGD_SIMD(f32, float)
DEFINE_QSGD_SIMD(f64, double)
#define AVX512_CODES(SUFFIX) codes_avx512_##SUFFIX
#define AVX512_DECODE(SUFFIX) decode_avx512_##SUFFIX
#else /* never taken: simd_ok stays 0 */
#define AVX512_CODES(SUFFIX) qsgd_codes_##SUFFIX
#define AVX512_DECODE(SUFFIX) qsgd_decode_##SUFFIX
#endif

#define DEFINE_QSGD_DISPATCH(SUFFIX)                                        \
    void qsgd_codes_##SUFFIX##_simd(const void *x, size_t n, size_t bucket, \
                                    const void *safe, double levels,        \
                                    const void *noise, unsigned int sign_shift, \
                                    void *codes)                            \
    {                                                                       \
        (simd_ok && noise ? AVX512_CODES(SUFFIX) : qsgd_codes_##SUFFIX)(    \
            x, n, bucket, safe, levels, noise, sign_shift, codes);          \
    }                                                                       \
                                                                            \
    void qsgd_decode_##SUFFIX##_simd(const void *codes, size_t n, size_t bucket, \
                                     const void *table, const void *scales, \
                                     void *out)                             \
    {                                                                       \
        (simd_ok ? AVX512_DECODE(SUFFIX) : qsgd_decode_##SUFFIX)(           \
            codes, n, bucket, table, scales, out);                          \
    }

DEFINE_QSGD_DISPATCH(f32)
DEFINE_QSGD_DISPATCH(f64)

/* 1 where qsgd_codes_*_simd (stochastic codes) and qsgd_decode_*_simd run
   the AVX-512 bodies */
int qsgd_simd(void)
{
    return simd_ok;
}
