/*
 * The two §5.1 ("Efficient Summation") passes of streams/summation.py
 * that touch every pair: the sparse + sparse merge, one linear pass over
 * two sorted runs of (uint32 index, value) pairs, and SUM's dense +=
 * sparse scatter (scatter_add_*, at the end of this file).
 *
 * The merge knows nothing of the reduction: a value is an opaque word of
 * 2, 4 or 8 bytes, compared as an unsigned integer. It writes the sorted
 * union of the indices; where an index occurs in both runs it writes the
 * operand with the lower bits into that slot and records the slot's
 * position and the higher-bits operand in two side buffers, so the caller
 * combines the pairs with numpy's own ufunc. No floating-point arithmetic
 * happens in the merge, which is what keeps its result bit-identical to
 * the numpy path for every operation, dtype and special value.
 *
 * Contract (summation.py checks it before calling):
 *   io, vo       capacity na + nb;
 *   dup, hi      capacity min(na, nb);
 *   returns d, the number of shared slots; the union holds na + nb - d.
 * Every write lands at a position that na, nb and min(na, nb) cap, so
 * unsorted or corrupt input yields a wrong union, never an out-of-bounds
 * access.
 *
 * Two bodies, one result. The scalar body (DEFINE_MERGE, every width) has
 * no data-dependent branch: which run advances is computed, not branched
 * on, so the cost does not depend on how the runs interleave (a branchy
 * loop is 1.3-1.6x slower on random supports); d <= min(i, j) inside its
 * loop. merge_pairs_w4_simd runs an AVX-512 body for 4-byte values where
 * the CPU has avx512f, avx512vl and bmi2 (checked once, when the library
 * loads; target attributes keep the compile line free of -march) and the
 * runs hold SIMD_MIN pairs or more; elsewhere it is the scalar body.
 *
 * The AVX-512 body packs each pair into one uint64 key, index << 32 |
 * value bits: the runs are sorted with unique indices, so sorting by key
 * puts the two operands of a shared index side by side, lower bits first.
 * It merges in blocks of eight. Each step loads the next eight pairs of
 * the run whose next index is smaller (past a run's end, all-ones keys,
 * which sort last), and a 16-key bitonic network sorts them with the
 * eight keys carried from the step before; the low eight are emitted. An
 * emitted block is collapsed once the next block's first key is known:
 * register compresses build its union, its shared slots and their
 * higher-bits operands, and full-width stores write them while every
 * buffer has eight slots of room, masked stores after. The collapse never
 * counts a key in two pairs, nor more than min(na, nb) pairs, whatever
 * the input.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define DEFINE_MERGE(NAME, WORD)                                            \
    size_t NAME(const void *ia_, const void *va_, size_t na,                \
                const void *ib_, const void *vb_, size_t nb,                \
                void *io_, void *vo_, void *dup_, void *hi_)                \
    {                                                                       \
        const uint32_t *ia = ia_, *ib = ib_;                                \
        const WORD *va = va_, *vb = vb_;                                    \
        uint32_t *io = io_;                                                 \
        WORD *vo = vo_, *hi = hi_;                                          \
        ptrdiff_t *dup = dup_;                                              \
        size_t i = 0, j = 0, k = 0, d = 0;                                  \
        while (i < na && j < nb) {                                          \
            uint32_t x = ia[i], y = ib[j];                                  \
            WORD u = va[i], v = vb[j];                                      \
            size_t take_a = x <= y, take_b = y <= x;                        \
            WORD lo = u < v ? u : v;                                        \
            WORD first = take_a ? u : v;                                    \
            WORD shared = (WORD)0 - (WORD)(take_a & take_b);                \
            io[k] = take_a ? x : y;                                         \
            /* a mask, not a nested ?: -- gcc -O2 branches on that one */   \
            vo[k] = (lo & shared) | (first & ~shared);                      \
            dup[d] = (ptrdiff_t)k;                                          \
            hi[d] = u < v ? v : u;                                          \
            d += take_a & take_b;                                           \
            i += take_a;                                                    \
            j += take_b;                                                    \
            k++;                                                            \
        }                                                                   \
        memcpy(io + k, ia + i, (na - i) * sizeof *io);                      \
        memcpy(vo + k, va + i, (na - i) * sizeof *vo);                      \
        k += na - i;                                                        \
        memcpy(io + k, ib + j, (nb - j) * sizeof *io);                      \
        memcpy(vo + k, vb + j, (nb - j) * sizeof *vo);                      \
        return d;                                                           \
    }

DEFINE_MERGE(merge_pairs_w2, uint16_t)
DEFINE_MERGE(merge_pairs_w4, uint32_t)
DEFINE_MERGE(merge_pairs_w8, uint64_t)

/* below this many pairs in all the two bodies differ by < 0.1 us; the
 * AVX-512 body needs both runs non-empty and more than eight pairs */
#define SIMD_MIN 32

static int simd_ok; /* set once, when the library loads */

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HAVE_SIMD 1
#define SIMD __attribute__((target("avx512f,avx512vl,bmi2,popcnt"), always_inline))

__attribute__((constructor)) static void detect_simd(void)
{
    __builtin_cpu_init();
    simd_ok = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")
              && __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt");
}

/* where the emitted blocks go, and how far they have got */
struct sink {
    uint32_t *io, *vo, *hi;
    ptrdiff_t *dup;
    size_t k, d, n, most;
    unsigned carry; /* lane 7 of the last block opened a pair */
};

/* the keys of the pairs at ip / vp, up to eight; a lane past rem is ~0 */
SIMD static inline __m512i load8(const uint32_t *ip, const uint32_t *vp, size_t rem)
{
    const __m512i zip = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1, 16, 0);
    __m256i idx, val;
    if (rem >= 8) {
        idx = _mm256_loadu_si256((const __m256i *)ip);
        val = _mm256_loadu_si256((const __m256i *)vp);
    } else {
        __mmask8 m = _bzhi_u32(0xff, (unsigned)rem);
        idx = _mm256_mask_loadu_epi32(_mm256_set1_epi32(-1), m, ip);
        val = _mm256_mask_loadu_epi32(_mm256_set1_epi32(-1), m, vp);
    }
    return _mm512_permutex2var_epi32(_mm512_castsi256_si512(val), zip, _mm512_castsi256_si512(idx));
}

/* the low n of the eight dwords of v at p; all eight where the buffer has room */
SIMD static inline void put8(uint32_t *p, int full, unsigned n, __m256i v)
{
    if (full) /* lanes past n are overwritten by the next block or cut off */
        _mm256_storeu_si256((__m256i *)p, v);
    else
        _mm256_mask_storeu_epi32(p, _bzhi_u32(0xff, n), v);
}

/* sort a bitonic sequence of eight keys: half-cleaners at distance 4, 2, 1;
 * flip = 0 sorts ascending, flip = 0xff descending */
SIMD static inline __m512i clean8(__m512i v, __mmask8 flip)
{
    __m512i s = _mm512_shuffle_i64x2(v, v, _MM_SHUFFLE(1, 0, 3, 2));
    v = _mm512_mask_max_epu64(_mm512_min_epu64(v, s), 0xf0 ^ flip, v, s);
    s = _mm512_permutex_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
    v = _mm512_mask_max_epu64(_mm512_min_epu64(v, s), 0xcc ^ flip, v, s);
    s = _mm512_shuffle_epi32(v, _MM_PERM_BADC);
    return _mm512_mask_max_epu64(_mm512_min_epu64(v, s), 0xaa ^ flip, v, s);
}

/* the next eight pairs of the run whose next index is smaller; in the tail an
 * exhausted run reads its last index plus 2^32, so no load strays */
SIMD static inline __m512i take8(const uint32_t *ia, const uint32_t *va, size_t na, size_t *i,
                                 const uint32_t *ib, const uint32_t *vb, size_t nb, size_t *j,
                                 int tail)
{
    uint64_t x = tail ? ia[*i < na ? *i : na - 1] + ((uint64_t)(*i >= na) << 32) : ia[*i];
    uint64_t y = tail ? ib[*j < nb ? *j : nb - 1] + ((uint64_t)(*j >= nb) << 32) : ib[*j];
    int a = x <= y;
    size_t at = a ? *i : *j, rem = tail ? (a ? na - *i : nb - *j) : 8;
    const uint32_t *ip = (a ? ia : ib) + at, *vp = (a ? va : vb) + at;
    *i += a ? 8 : 0;
    *j += a ? 0 : 8;
    return load8(ip, vp, rem);
}

/* the sixteen keys of the ascending block *lo and the descending *hi: the low
 * eight ascending in *lo, the high eight descending in *hi (a bitonic pair
 * needs no reversal) */
SIMD static inline void merge16(__m512i *lo, __m512i *hi)
{
    __m512i l = _mm512_min_epu64(*lo, *hi);
    *hi = clean8(_mm512_max_epu64(*lo, *hi), 0xff);
    *lo = clean8(l, 0);
}

/* write block p, whose successor's first key is next's lane 0. Outside the
 * tail every lane of both is real and every buffer has eight slots of room;
 * in it, keys past the na + nb real ones are padding, and the pairs are
 * capped at min(na, nb) */
SIMD static inline void collapse(struct sink *o, __m512i p, __m512i next, int tail)
{
    const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i unzip = _mm512_set_epi32(15, 13, 11, 9, 7, 5, 3, 1, 14, 12, 10, 8, 6, 4, 2, 0);
    size_t dh = o->d - o->carry, left = o->n - o->k - dh; /* keys not yet emitted */
    unsigned real = tail && left < 9 ? (unsigned)left : 9; /* lane 8: next's lane 0 */
    /* the odd dwords are the indices */
    unsigned eq = _pext_u32(_mm512_cmpeq_epi32_mask(p, _mm512_alignr_epi64(next, p, 1)), 0xaaaa)
                  & _bzhi_u32(0xff, real - (real > 0));
    /* a pair opens on no lane that closes one, and at most min(na, nb) open */
    unsigned pair = eq & ~(eq << 1 | o->carry);
    size_t room = o->most - o->d;
    if (tail)
        pair = _pdep_u32(_bzhi_u32(0xff, room < 8 ? (unsigned)room : 8), pair);
    unsigned drop = (pair << 1 | o->carry) & 0xff, keep = _bzhi_u32(~drop & 0xff, real);
    unsigned nk = _mm_popcnt_u32(keep), np = _mm_popcnt_u32(pair), nd = _mm_popcnt_u32(drop);
    /* union: keys compressed, then values in the low half, indices in the high */
    __m512i u = _mm512_permutexvar_epi32(unzip, _mm512_maskz_compress_epi64(keep, p));
    put8(o->vo + o->k, !tail, nk, _mm512_castsi512_si256(u));
    put8(o->io + o->k, !tail, nk, _mm512_extracti64x4_epi64(u, 1));
    /* a pair's slot is its first key's rank among the kept lanes */
    __m512i pos = _mm512_maskz_compress_epi64(_pext_u32(pair, keep),
                                              _mm512_add_epi64(_mm512_set1_epi64((long long)o->k), iota));
    if (tail)
        _mm512_mask_storeu_epi64(o->dup + o->d, _bzhi_u32(0xff, np), pos);
    else
        _mm512_storeu_si512(o->dup + o->d, pos);
    __m512i h = _mm512_maskz_compress_epi32(_pdep_u32(drop, 0x5555), p);
    put8(o->hi + dh, !tail, nd, _mm512_castsi512_si256(h));
    o->k += nk;
    o->d += np;
    o->carry = pair >> 7;
}

__attribute__((target("avx512f,avx512vl,bmi2,popcnt")))
static size_t merge_w4_avx512(const uint32_t *ia, const uint32_t *va, size_t na,
                              const uint32_t *ib, const uint32_t *vb, size_t nb,
                              uint32_t *io, uint32_t *vo, ptrdiff_t *dup, uint32_t *hi)
{
    const __m512i rev = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    struct sink o = {io, vo, hi, dup, 0, 0, na + nb, na < nb ? na : nb, 0};
    size_t i = 0, j = 0;
    /* na + nb > 8 pairs fill at least two blocks; the carried keys descend */
    __m512i carry = _mm512_permutexvar_epi64(rev, take8(ia, va, na, &i, ib, vb, nb, &j, 1));
    __m512i pending = take8(ia, va, na, &i, ib, vb, nb, &j, 1), lo;
    merge16(&pending, &carry);
#define STEP(tail)                                              \
    lo = take8(ia, va, na, &i, ib, vb, nb, &j, tail);           \
    merge16(&lo, &carry);                                       \
    collapse(&o, pending, lo, tail);                            \
    pending = lo
    while (i + 8 <= na && j + 8 <= nb && o.d + 8 <= o.most) {
        STEP(0);
    }
    while (i < na || j < nb) {
        STEP(1);
    }
#undef STEP
    carry = _mm512_permutexvar_epi64(rev, carry);
    collapse(&o, pending, carry, 1);
    collapse(&o, carry, carry, 1);
    return o.d;
}

#endif

size_t merge_pairs_w4_simd(const void *ia, const void *va, size_t na,
                           const void *ib, const void *vb, size_t nb,
                           void *io, void *vo, void *dup, void *hi)
{
#ifdef HAVE_SIMD
    if (simd_ok && na && nb && na + nb >= SIMD_MIN)
        return merge_w4_avx512(ia, va, na, ib, vb, nb, io, vo, dup, hi);
#endif
    return merge_pairs_w4(ia, va, na, ib, vb, nb, io, vo, dup, hi);
}

/* 1 where merge_pairs_w4_simd runs the AVX-512 body on large runs */
int merge_simd(void)
{
    return simd_ok;
}

/*
 * SUM's dense += sparse: dense[idx[i]] += val[i] for i = 0 .. m-1, in that
 * order, one IEEE add per pair with the dense entry as the first operand
 * -- np.add.at's loop, so the bits are its bits: signed zeros, infinities,
 * overflow to inf and, on x86, which NaN's payload survives (an SSE add
 * keeps its first operand's). The only exception to "the op stays in
 * numpy": SUM has no ordering question for C to get wrong, and ufunc.at
 * spends ~2 ns a pair on dispatch around its one add.
 *
 * Contract (summation.py checks it before calling): every idx[i] is
 * below the dense vector's length. Returns the floating-point exceptions
 * the adds raised, 1 for invalid and 2 for overflow (the only two an add
 * of two floats can raise besides inexact), so the caller reports them
 * as numpy's add would.
 */
#include <fenv.h>

#if defined(__x86_64__)
#include <emmintrin.h>
#define ADD_INTO_f32(d, v) _mm_store_ss(d, _mm_add_ss(_mm_load_ss(d), _mm_load_ss(v)))
#define ADD_INTO_f64(d, v) _mm_store_sd(d, _mm_add_sd(_mm_load_sd(d), _mm_load_sd(v)))
#else
#define ADD_INTO_f32(d, v) (*(d) = *(d) + *(v))
#define ADD_INTO_f64(d, v) (*(d) = *(d) + *(v))
#endif

#define DEFINE_SCATTER(SUFFIX, T)                                           \
    int scatter_add_##SUFFIX(void *dense_, const void *idx_,                \
                             const void *val_, size_t m)                    \
    {                                                                       \
        T *dense = dense_;                                                  \
        const uint32_t *idx = idx_;                                         \
        const T *val = val_;                                                \
        feclearexcept(FE_INVALID | FE_OVERFLOW);                            \
        for (size_t i = 0; i < m; i++)                                      \
            ADD_INTO_##SUFFIX(dense + idx[i], val + i);                     \
        int raised = fetestexcept(FE_INVALID | FE_OVERFLOW);                \
        return (raised & FE_INVALID ? 1 : 0) | (raised & FE_OVERFLOW ? 2 : 0); \
    }

DEFINE_SCATTER(f32, float)
DEFINE_SCATTER(f64, double)
