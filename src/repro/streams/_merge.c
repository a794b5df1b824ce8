/*
 * The sparse + sparse merge of streams/summation.py (SparCML §5.1,
 * "Efficient Summation"), as one linear pass over two sorted runs of
 * (uint32 index, value) pairs.
 *
 * The kernel knows nothing of the reduction: a value is an opaque word of
 * 2, 4 or 8 bytes, compared as an unsigned integer. It writes the sorted
 * union of the indices; where an index occurs in both runs it writes the
 * operand with the lower bits into that slot and records the slot's
 * position and the higher-bits operand in two side buffers, so the caller
 * combines the pairs with numpy's own ufunc. No floating-point arithmetic
 * happens here, which is what keeps the result bit-identical to the numpy
 * path for every operation, dtype and special value.
 *
 * Contract (summation.py checks it before calling):
 *   io, vo       capacity na + nb;
 *   dup, hi      capacity min(na, nb);
 *   returns d, the number of shared slots; the union holds na + nb - d.
 * Only na and nb bound the loops and every write is unconditional at a
 * position those bounds cap (d <= min(i, j) inside the loop), so unsorted
 * or corrupt input yields a wrong union, never an out-of-bounds access.
 * The loop body has no data-dependent branch: which run advances is
 * computed, not branched on, so the cost does not depend on how the two
 * runs interleave (a branchy loop is 1.3-1.6x slower on random supports).
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
