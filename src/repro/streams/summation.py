"""Efficient summation of sparse streams (§5.1, "Efficient Summation").

The paper distinguishes four cases when summing two vectors ``u1 + u2``:

1. both sparse, overlapping indices — merge index sets, summing duplicates;
   switch to dense first when the ``|H1| + |H2| > delta`` upper bound fires;
2. one sparse, one dense — scatter-add the sparse one into the dense one;
3. both dense — vectorised dense addition in place, no new allocation;
4. disjoint index ranges (the dimension-partitioned case) — plain
   concatenation, no arithmetic needed.

:func:`add_streams_` is that decision tree. Cases 1 and 4 are the same
step — put sorted runs of (index, value) pairs in index order. Case 1,
two runs, is a compiled merge (``_merge.c``, one pass that touches each
pair once: a branchless scalar loop, or an AVX-512 merge network where
the CPU has one) behind :func:`merge_sparse_pairs`; the kernel
treats a value as opaque bits and leaves the arithmetic of the overlap to
numpy, so the result is the numpy path's, bit for bit. The numpy path is
:func:`_sorted_runs` — one stable sort of a packed ``uint64`` key that
carries the value inside it — plus a collapse of the duplicate pairs: the
reference the tests hold the kernel to, and the fallback wherever the
kernel could not be built (no ``cffi``, no C compiler). Case 4 stays on
:func:`_sorted_runs`, whose timsort takes in-order partitions in one pass.
Case 2 is ``op.ufunc.at``, except under SUM: there ``_merge.c`` also
holds the scatter, ``np.add.at``'s own loop of one IEEE add per pair
without its per-pair dispatch (:func:`_scatter_into`) — the one place a
kernel does a reduction's arithmetic, since SUM's add leaves C nothing
to order differently from numpy.
All kernels operate on :class:`~repro.streams.stream.SparseStream` and keep
its invariants (sorted unique ``uint32`` indices, values in the stream's
dtype).
"""

from __future__ import annotations

import sys
import threading
from functools import partial
from typing import Sequence

import numpy as np

from .._native import NATIVE
from ..config import INDEX_DTYPE
from .ops import SUM, ReduceOp
from .stream import SparseStream

__all__ = [
    "add_streams",
    "add_streams_",
    "concat_disjoint",
    "merge_implementation",
    "merge_sparse_pairs",
    "reduce_streams",
    "reduction_work_bytes",
]


# A native uint64 viewed as a row of narrower unsigned words: which column
# holds its low-order end, which its high-order end.
_LOW, _HIGH = (0, -1) if sys.byteorder == "little" else (-1, 0)


def _sorted_runs(
    idx_runs: Sequence[np.ndarray], val_runs: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``(idx, val)`` of several sorted runs of one value dtype.

    Equal indices end up adjacent. Values of at most four bytes ride inside
    the sort key — index in the high 32 bits of a ``uint64``, the value's raw
    bits (zero-extended) in the low 32 — so the stable timsort that merges
    the runs moves them along with the indices: no permutation array, no
    gather, and equal indices come out ordered by value bits. The returned
    arrays are then *strided views into the key buffer*; callers compress or
    copy them before handing them out. Eight-byte values do not fit the key
    and take ``argsort`` + gather, which leaves equal indices in run order.
    """
    vdt = val_runs[0].dtype
    if vdt.itemsize > 4:
        idx = np.concatenate(idx_runs)
        order = np.argsort(idx, kind="stable")
        return idx[order], np.concatenate(val_runs)[order]
    n = sum(run.size for run in idx_runs)
    # a two-byte value leaves key bytes unwritten: those keys start from zero
    key = (np.empty if vdt.itemsize == 4 else np.zeros)(n, dtype=np.uint64)
    idx = key.view(INDEX_DTYPE).reshape(n, -1)[:, _HIGH]
    bits = key.view(f"u{vdt.itemsize}").reshape(n, -1)[:, _LOW]
    np.concatenate(idx_runs, out=idx)
    np.concatenate([v.view(bits.dtype) for v in val_runs], out=bits)
    # two (or P) pre-sorted runs: timsort finds them and does linear merges,
    # faster here than the default quicksort of the same keys
    key.sort(kind="stable")
    return idx, bits.view(vdt)


def _c_kernel(simd: bool):
    """``(buffer -> char[] cdata, {value dtype: merge function}, name,
    {value dtype: SUM scatter})`` of ``_merge.c``.

    The conversion is ``ffi.from_buffer`` without its Python-level
    wrapper: cffi's own backend function, bound to ``char[]`` once.
    With ``simd``, float32 merges go through ``merge_pairs_w4_simd``: the
    AVX-512 body from ``SIMD_MIN`` pairs up, the scalar one below. The
    scatter has one body.
    """
    ffi, lib = NATIVE
    table = {
        np.dtype(dt): getattr(lib, f"merge_pairs_w{np.dtype(dt).itemsize}")
        for dt in (np.float16, np.float32, np.float64)
    }
    if simd:
        table[np.dtype(np.float32)] = lib.merge_pairs_w4_simd
    scatter = {np.dtype(np.float32): lib.scatter_add_f32, np.dtype(np.float64): lib.scatter_add_f64}
    from _cffi_backend import from_buffer  # loaded with cffi: NATIVE is not None

    return partial(from_buffer, ffi.typeof("char[]")), table, "c-avx512" if simd else "c", scatter


#: the compiled merge (built at import by :mod:`repro._native`; its AVX-512
#: body wherever the CPU has one), or None: the numpy path then does every merge
_KERNEL = NATIVE and _c_kernel(simd=bool(NATIVE[1].merge_simd()))


#: each thread's kernel scratch, ``(array, pointer)``, kept from merge to merge
_SCRATCH = threading.local()


def merge_implementation() -> str:
    """Which merge :func:`merge_sparse_pairs` runs: ``"c-avx512"`` (the
    compiled kernel with its AVX-512 body), ``"c"`` (the scalar body only)
    or ``"numpy"``."""
    return "numpy" if _KERNEL is None else _KERNEL[2]


def merge_sparse_pairs(
    idx_a: np.ndarray,
    val_a: np.ndarray,
    idx_b: np.ndarray,
    val_b: np.ndarray,
    op: ReduceOp = SUM,
    *,
    copy: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted-unique (index, value) pair lists, combining overlaps.

    The sparse+sparse kernel of §5.1: returns the sorted union of the
    ``uint32`` indices and, per index, the one value present or ``op`` of
    the two. Each shared index's pair is combined lower value bits first
    (``op.ufunc(lo, hi)``), so the result does not depend on which operand
    was ``a``: ``merge(a, b)`` and ``merge(b, a)`` are bitwise equal, also
    where the ufunc is not (``maximum(+0.0, -0.0)``).

    Two implementations, one result. Where the compiled kernel loaded
    (``_merge.c``: ``uint32`` indices, float16/32/64 values) one linear
    pass writes the union with the lower-bits operand in every shared slot
    and hands back the shared positions and the higher-bits operands;
    the combine is then the same numpy expression as on the numpy path.
    That pass has two bodies behind one call: a branchless scalar loop,
    and, for float32 on a CPU with AVX-512 (:func:`merge_implementation`
    says ``"c-avx512"``) and 32 pairs or more in all, a merge network
    over ``index << 32 | value bits`` keys, eight pairs a step.
    The op stays in numpy because C arithmetic is not numpy's: a C
    ``max`` does not order ``±0.0`` or NaN as ``np.maximum`` does, and a
    custom :class:`~repro.streams.ops.ReduceOp` has only a ufunc. The
    numpy path — everywhere else, and the reference the tests compare the
    kernel to — is one timsort merge of the two runs
    (:func:`_sorted_runs`) and a collapse of the duplicates as *pairs*
    (inputs are sorted-unique, so an index occurs at most twice). Both
    are linear in ``n_a + n_b``.

    The outputs are fresh, C-contiguous arrays that own their data, except
    on the empty-side path below. Raises ``TypeError`` when the value
    dtypes differ.

    Parameters
    ----------
    copy:
        Governs the empty-side fast path only: with ``copy=True`` (the
        default) the non-empty side comes back as fresh arrays; with
        ``copy=False`` it comes back as-is — zero-copy, but the result then
        aliases the caller's input, so only owners may pass False.
    """
    if val_a.dtype != val_b.dtype:
        raise TypeError(f"value dtype mismatch: {val_a.dtype} vs {val_b.dtype}")
    if idx_a.size == 0:
        return (idx_b.copy(), val_b.copy()) if copy else (idx_b, val_b)
    if idx_b.size == 0:
        return (idx_a.copy(), val_a.copy()) if copy else (idx_a, val_a)
    na, nb = idx_a.size, idx_b.size
    if val_a.size != na or val_b.size != nb:  # the kernel reads na and nb values
        raise ValueError(f"{na} + {nb} indices but {val_a.size} + {val_b.size} values")
    merge = _KERNEL and _KERNEL[1].get(val_a.dtype)
    if merge is None or idx_a.dtype != INDEX_DTYPE or idx_b.dtype != INDEX_DTYPE:
        return _merge_by_sort(idx_a, val_a, idx_b, val_b, op)
    buf = _KERNEL[0]
    n, most = na + nb, min(na, nb)
    idx, val = np.empty(n, INDEX_DTYPE), np.empty(n, val_a.dtype)
    # the kernel's scratch in one block: the shared positions, then (no
    # value is wider than a position) the higher-bits operands. Each thread
    # keeps the largest its merges needed so far, read back before a merge
    # returns: one allocation and one buffer conversion fewer per merge
    held = getattr(_SCRATCH, "held", None)
    if held is None or len(held[0]) < 2 * most:
        scratch = np.empty(2 * most, np.intp)
        held = _SCRATCH.held = scratch, buf(scratch)
    scratch, spare = held
    try:
        shared = merge(
            buf(idx_a), buf(val_a), na, buf(idx_b), buf(val_b), nb,
            buf(idx), buf(val), spare, spare + most * scratch.itemsize,
        )
    except ValueError:  # a strided input: the kernel reads contiguous runs only
        return _merge_by_sort(idx_a, val_a, idx_b, val_b, op)
    if shared:
        dup = scratch[:shared]
        val[dup] = op.ufunc(val[dup], scratch[most:].view(val.dtype)[:shared])
        # shrink in place: a slice would not own its data
        idx.resize(n - shared, refcheck=False)
        val.resize(n - shared, refcheck=False)
    return idx, val


def _merge_by_sort(
    idx_a: np.ndarray, val_a: np.ndarray, idx_b: np.ndarray, val_b: np.ndarray, op: ReduceOp
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy path of :func:`merge_sparse_pairs`, for two non-empty runs."""
    idx, val = _sorted_runs((idx_a, idx_b), (val_a, val_b))
    dup = np.flatnonzero(idx[1:] == idx[:-1])
    if dup.size == 0:  # disjoint supports: nothing to combine, just leave the key buffer
        return np.ascontiguousarray(idx), np.ascontiguousarray(val)
    twin = dup + 1
    lo, hi = val[dup], val[twin]
    if val.itemsize == 8:
        # the argsort route left each pair in run order, not value-bit order
        swap = lo.view(np.uint64) > hi.view(np.uint64)
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    val[dup] = op.ufunc(lo, hi)
    keep = np.ones(idx.size, dtype=bool)
    keep[twin] = False
    # compress by position: a boolean mask with many scattered holes (top-k
    # gradients overlap by 30-75 %) copies 3-5x slower than an integer take
    first = np.flatnonzero(keep)
    return idx[first], val[first]


def _scatter_into(dense: np.ndarray, sparse: SparseStream, op: ReduceOp) -> None:
    """§5.1 case 2: ``dense[i] = op(dense[i], v)`` for every stored pair of ``sparse``.

    One unbuffered pass: a stream's indices are unique, so ``ufunc.at``
    applies the same ufunc to the same operand pair as a gather, ``op``
    and scatter would, without widening the indices or two temporaries.

    SUM into a writable, aligned float32 or float64 vector runs
    ``_merge.c``'s scatter instead, once every index is known to be in
    range: ``np.add.at``'s loop — one IEEE add per pair, in its order,
    the dense entry first — without its ~2 ns of dispatch per pair, so
    the bits are ``np.add.at``'s, and an invalid or overflowing add is
    reported as numpy's add reports it, under the caller's
    ``np.errstate``. Every other case stays on ``ufunc.at``: MAX, MIN,
    PROD and custom ops, float16, a strided target, an out-of-range index
    (``ufunc.at`` raises ``IndexError`` before it writes anything) and a
    build without the kernel. A read-only target raises ``ValueError``
    before anything is written, whatever the op and the path: ``ufunc.at``
    ignores the writeable flag.
    """
    if not dense.flags.writeable:
        raise ValueError("assignment destination is read-only")
    idx, val = sparse.indices, sparse.values
    scatter = op is SUM and _KERNEL and _KERNEL[3].get(dense.dtype)
    if (
        scatter and dense.flags.behaved and idx.dtype == INDEX_DTYPE
        and val.dtype == dense.dtype and val.size == idx.size
        and idx.size and idx.max() < dense.size
    ):
        buf = _KERNEL[0]
        try:
            raised = scatter(buf(dense), buf(idx), buf(val), idx.size)
        except ValueError:  # a strided array: the kernel reads contiguous ones only
            pass
        else:
            if raised:
                _report_fp_errors(raised, dense.dtype)
            return
    op.ufunc.at(dense, idx, val)


def _report_fp_errors(raised: int, dtype: np.dtype) -> None:
    """Signal what the compiled scatter's adds raised (1: invalid, 2:
    overflow) the way ``np.add`` does — a warning, an error or nothing, as
    ``np.errstate`` says — by repeating one add that raises the same."""
    if raised & 2:  # numpy reports overflow before invalid
        top = np.full(1, np.finfo(dtype).max, dtype)
        np.add(top, top)
    if raised & 1:
        inf = np.full(1, np.inf, dtype)
        np.add(inf, -inf)


def add_streams(a: SparseStream, b: SparseStream, op: ReduceOp = SUM) -> SparseStream:
    """Pure reduction ``a op b`` returning a new stream; inputs unchanged."""
    out = a.copy()
    return add_streams_(out, b, op)


def add_streams_(
    acc: SparseStream,
    other: SparseStream,
    op: ReduceOp = SUM,
    *,
    own_other: bool = False,
) -> SparseStream:
    """In-place sum ``acc += other`` with automatic representation switching.

    Follows the decision tree of §5.1:

    * dense += dense: vectorised add into ``acc``'s buffer;
    * dense += sparse: scatter-add;
    * sparse += dense: densify ``acc`` then scatter-add the old sparse part
      (equivalently: copy dense and add — we scatter into a copy);
    * sparse += sparse: if ``|H1| + |H2| > delta`` densify first (the paper's
      cheap upper-bound test), otherwise merge the pair lists.

    Parameters
    ----------
    own_other:
        Declare that ``other`` is owned by this reduction (e.g. a freshly
        received, decoded message nobody else holds). When ``acc`` is
        empty, the merge then *adopts* ``other``'s arrays instead of
        copying them. Leave False when ``other`` must stay independent —
        aliasing would let later in-place updates of ``acc`` corrupt it.
    """
    if acc.dimension != other.dimension:
        raise ValueError(f"dimension mismatch: {acc.dimension} vs {other.dimension}")
    if acc.value_dtype != other.value_dtype:
        raise TypeError(f"value dtype mismatch: {acc.value_dtype} vs {other.value_dtype}")
    # summed values are full precision again, whatever travelled on the wire
    acc.value_wire_bytes = None

    if acc._dense is not None and other._dense is not None:  # noqa: SLF001
        op.combine(acc.dense_payload, other.dense_payload, out=acc.dense_payload)
        return acc

    if acc._dense is not None:  # noqa: SLF001
        _scatter_into(acc.dense_payload, other, op)
        return acc

    if other._dense is not None:  # noqa: SLF001
        # keep the dense operand's layout: build dense result from it
        dense = other.dense_payload.copy()
        _scatter_into(dense, acc, op)
        acc._dense = dense  # noqa: SLF001 - intentional internal switch
        acc._indices = None  # noqa: SLF001
        acc._values = None  # noqa: SLF001
        return acc

    # sparse (op)= sparse: §5.1's switch test |H1| + |H2| > delta (the
    # exact union size is never computed: "This is costly, and thus we only
    # upper bound this result by |H1| + |H2|"), on a delta computed once for
    # both tests (both sides' pairs read directly: every small merge's path)
    delta, idx, val = acc.delta, acc._indices, acc._values  # noqa: SLF001
    if len(idx) + len(other._indices) > delta:  # noqa: SLF001
        acc.densify(fill=op.neutral)
        _scatter_into(acc.dense_payload, other, op)
        return acc

    idx, val = merge_sparse_pairs(
        idx, val, other._indices, other._values, op, copy=not own_other  # noqa: SLF001
    )
    acc.set_pairs(idx, val)
    # the merge may still have overshot delta (exact union known only now)
    if len(idx) > delta:
        acc.densify(fill=op.neutral)
    return acc


def concat_disjoint(streams: Sequence[SparseStream], dimension: int) -> SparseStream:
    """Sum streams whose index sets are disjoint (§5.1 case 4).

    Used by the split/allgather algorithms where the dimension has been
    partitioned by rank: the "sum" is a concatenation, put in index order
    by the same run merge as :func:`merge_sparse_pairs` (already-ordered
    partitions are one pass). Raises ``ValueError`` for a dense input or
    overlapping index sets, ``TypeError`` for mixed value dtypes.
    """
    for pos, s in enumerate(streams):
        if s.is_dense:
            raise ValueError(f"concat_disjoint expects sparse streams; stream {pos} is dense")
        if s.value_dtype != streams[0].value_dtype:
            raise TypeError(
                f"value dtype mismatch: stream 0 is {streams[0].value_dtype}, "
                f"stream {pos} is {s.value_dtype}"
            )
    vdt = streams[0].value_dtype if streams else np.float32
    parts = [s for s in streams if s.nnz > 0]
    if not parts:
        return SparseStream.zeros(dimension, value_dtype=vdt)
    idx, val = _sorted_runs([s.indices for s in parts], [s.values for s in parts])
    if idx.size > 1 and np.any(idx[1:] == idx[:-1]):
        raise ValueError("concat_disjoint called with overlapping index sets")
    return SparseStream(
        dimension, indices=np.ascontiguousarray(idx), values=np.ascontiguousarray(val),
        value_dtype=vdt, copy=False,
    )


def reduce_streams(streams: Sequence[SparseStream], op: ReduceOp = SUM) -> SparseStream:
    """Left-fold reduction of a list of streams (reference reduction)."""
    if not streams:
        raise ValueError("reduce_streams needs at least one stream")
    acc = streams[0].copy()
    for s in streams[1:]:
        add_streams_(acc, s, op)
    return acc


def reduction_work_bytes(a: SparseStream, b: SparseStream) -> int:
    """Estimate of bytes touched when summing ``a + b``.

    Used by the replay model to charge local-reduction compute time. Sparse
    merges touch every stored pair of both operands; dense adds touch the
    full dense block; mixed cases touch the sparse side plus scatter targets.
    """
    isize = a.value_dtype.itemsize
    pair = isize + 4
    if a.is_dense and b.is_dense:
        return a.dimension * isize * 2
    if a.is_dense != b.is_dense:
        sp = b if a.is_dense else a
        return sp.nnz * pair * 2
    return (a.nnz + b.nnz) * pair * 2
