"""Tests for stream summation kernels: all four cases of §5.1.

Every test here runs three times: on the compiled merge with its AVX-512
body, on its scalar body alone, and on the numpy path (the kernel handle
monkeypatched), which both compiled bodies must match bit for bit. SUM's
dense += sparse scatter runs compiled on the first two passes and on
``np.add.at`` on the third.
"""

import os
import subprocess
import warnings
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    MAX,
    MIN,
    PROD,
    SUM,
    ReduceOp,
    SparseStream,
    add_streams,
    add_streams_,
    concat_disjoint,
    merge_sparse_pairs,
    reduce_streams,
    reduction_work_bytes,
    summation,
)
from repro.streams import stream as stream_mod

from conftest import compiler_and_cffi, cpu_has_flags


@pytest.fixture(scope="module", autouse=True, params=["simd", "c", "numpy"])
def merge_path(request):
    """Which merge :func:`merge_sparse_pairs` runs on for this module pass."""
    if request.param == "numpy":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(summation, "_KERNEL", None)
            yield request.param
        return
    if summation._KERNEL is None:
        # CI must not test the numpy path twice without saying so
        assert not compiler_and_cffi(), "cc and cffi are present but the compiled merge did not load"
        pytest.skip("no C compiler or no cffi: the numpy path is the only one")
    if request.param == "simd":
        if summation.merge_implementation() != "c-avx512":
            assert not (compiler_and_cffi() and cpu_has_flags("avx512f", "avx512vl", "bmi2")), (
                "cc, cffi and avx512f/avx512vl/bmi2 are present but the AVX-512 merge did not load"
            )
            pytest.skip("the CPU lacks avx512f, avx512vl or bmi2: the scalar merge is the only C body")
        yield request.param
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(summation, "_KERNEL", summation._c_kernel(simd=False))
        yield request.param


def _stream(dim, idx, val, dtype=np.float32):
    return SparseStream(dim, indices=idx, values=val, value_dtype=dtype)


class TestMergeSparsePairs:
    def test_disjoint(self):
        idx, val = merge_sparse_pairs(
            np.array([1, 3], np.uint32), np.array([1.0, 2.0], np.float32),
            np.array([2, 4], np.uint32), np.array([3.0, 4.0], np.float32),
        )
        assert list(idx) == [1, 2, 3, 4]
        assert list(val) == [1.0, 3.0, 2.0, 4.0]

    def test_full_overlap(self):
        idx, val = merge_sparse_pairs(
            np.array([1, 2], np.uint32), np.array([1.0, 2.0], np.float32),
            np.array([1, 2], np.uint32), np.array([10.0, 20.0], np.float32),
        )
        assert list(idx) == [1, 2]
        assert list(val) == [11.0, 22.0]

    def test_empty_left(self):
        idx, val = merge_sparse_pairs(
            np.empty(0, np.uint32), np.empty(0, np.float32),
            np.array([5], np.uint32), np.array([1.0], np.float32),
        )
        assert list(idx) == [5]

    def test_empty_right(self):
        idx, val = merge_sparse_pairs(
            np.array([5], np.uint32), np.array([1.0], np.float32),
            np.empty(0, np.uint32), np.empty(0, np.float32),
        )
        assert list(idx) == [5]

    def test_result_is_copy(self):
        a_idx = np.array([5], np.uint32)
        a_val = np.array([1.0], np.float32)
        idx, val = merge_sparse_pairs(a_idx, a_val, np.empty(0, np.uint32), np.empty(0, np.float32))
        idx[0] = 0
        assert a_idx[0] == 5


class TestAddStreams:
    def test_sparse_plus_sparse(self):
        a = _stream(100, [1, 5], [1.0, 2.0])
        b = _stream(100, [5, 9], [3.0, 4.0])
        out = add_streams(a, b)
        expected = a.to_dense() + b.to_dense()
        assert np.allclose(out.to_dense(), expected)
        assert not out.is_dense

    def test_add_does_not_mutate_inputs(self):
        a = _stream(100, [1], [1.0])
        b = _stream(100, [1], [2.0])
        add_streams(a, b)
        assert a.values[0] == 1.0
        assert b.values[0] == 2.0

    def test_dense_plus_dense_in_place(self):
        a = SparseStream(10, dense=np.ones(10, dtype=np.float32))
        b = SparseStream(10, dense=np.full(10, 2.0, dtype=np.float32))
        buf = a.dense_payload
        add_streams_(a, b)
        assert a.dense_payload is buf  # §5.1: "do not allocate a new stream"
        assert np.allclose(a.to_dense(), 3.0)

    def test_dense_plus_sparse(self):
        a = SparseStream(10, dense=np.ones(10, dtype=np.float32))
        b = _stream(10, [0, 9], [5.0, -1.0])
        add_streams_(a, b)
        assert a.is_dense
        assert a.to_dense()[0] == pytest.approx(6.0)
        assert a.to_dense()[9] == pytest.approx(0.0)

    def test_sparse_plus_dense_switches_to_dense(self):
        a = _stream(10, [2], [1.0])
        b = SparseStream(10, dense=np.ones(10, dtype=np.float32))
        add_streams_(a, b)
        assert a.is_dense
        assert a.to_dense()[2] == pytest.approx(2.0)

    def test_delta_switch_on_upper_bound(self):
        # dim 16 -> delta = 8 for float32; two 5-nnz streams: 5+5 > 8
        a = SparseStream(16, indices=np.arange(5), values=np.ones(5))
        b = SparseStream(16, indices=np.arange(5, 10), values=np.ones(5))
        ref = a.to_dense() + b.to_dense()
        add_streams_(a, b)
        assert a.is_dense  # the |H1|+|H2| upper-bound test fired
        assert np.allclose(a.to_dense(), ref)

    def test_no_switch_below_delta(self):
        a = SparseStream(100, indices=[1], values=[1.0])
        b = SparseStream(100, indices=[2], values=[1.0])
        add_streams_(a, b)
        assert not a.is_dense

    def test_delta_is_read_at_every_sum(self, monkeypatch):
        """``benchmarks/test_ablations.py`` turns the switch off by
        patching ``stream.delta_threshold`` after sums already ran: no
        earlier sum may leave its ``delta`` behind."""
        def pair():
            return (
                SparseStream(16, indices=np.arange(5), values=np.ones(5)),
                SparseStream(16, indices=np.arange(5, 10), values=np.ones(5)),
            )

        assert add_streams_(*pair()).is_dense
        monkeypatch.setattr(stream_mod, "delta_threshold", lambda dim, isize, c=4: 1 << 62)
        assert not add_streams_(*pair()).is_dense
        monkeypatch.undo()
        assert add_streams_(*pair()).is_dense

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            add_streams_(SparseStream.zeros(5), SparseStream.zeros(6))

    def test_dtype_mismatch_rejected(self):
        a = SparseStream.zeros(5, value_dtype=np.float32)
        b = SparseStream.zeros(5, value_dtype=np.float64)
        with pytest.raises(TypeError):
            add_streams_(a, b)

    def test_wire_annotation_cleared_after_sum(self):
        a = _stream(1000, [1], [1.0])
        a.value_wire_bytes = 0.5
        add_streams_(a, _stream(1000, [2], [1.0]))
        assert a.value_wire_bytes is None


class TestConcatDisjoint:
    def test_concatenates_ordered(self):
        parts = [
            _stream(100, [10, 11], [1.0, 2.0]),
            _stream(100, [50], [3.0]),
            _stream(100, [0], [4.0]),
        ]
        out = concat_disjoint(parts, 100)
        assert list(out.indices) == [0, 10, 11, 50]

    def test_empty_parts_ok(self):
        out = concat_disjoint([SparseStream.zeros(10), _stream(10, [3], [1.0])], 10)
        assert out.nnz == 1

    def test_all_empty(self):
        out = concat_disjoint([SparseStream.zeros(10)], 10)
        assert out.nnz == 0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_overlap_detected(self, dtype):
        parts = [_stream(10, [3, 4], [1.0, 2.0], dtype), _stream(10, [4], [2.0], dtype)]
        with pytest.raises(ValueError, match="overlapping"):
            concat_disjoint(parts, 10)


class TestReduceStreams:
    def test_matches_dense_reference(self, rng):
        streams = [SparseStream.random_uniform(500, nnz=40, rng=rng) for _ in range(6)]
        ref = np.sum([s.to_dense() for s in streams], axis=0)
        out = reduce_streams(streams)
        assert np.allclose(out.to_dense(), ref, atol=1e-5)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            reduce_streams([])

    def test_single_stream_copies(self, rng):
        s = SparseStream.random_uniform(100, nnz=10, rng=rng)
        out = reduce_streams([s])
        out.values[0] = 123.0
        assert s.values[0] != 123.0


class TestReductionWorkBytes:
    def test_positive_for_nonempty(self, rng):
        a = SparseStream.random_uniform(100, nnz=10, rng=rng)
        b = SparseStream.random_uniform(100, nnz=10, rng=rng)
        assert reduction_work_bytes(a, b) > 0

    def test_dense_case_scales_with_dimension(self):
        a = SparseStream(1000, dense=np.zeros(1000, dtype=np.float32))
        b = SparseStream(1000, dense=np.zeros(1000, dtype=np.float32))
        assert reduction_work_bytes(a, b) == 1000 * 4 * 2

    def test_mixed_case_scales_with_sparse_side(self, rng):
        dense = SparseStream(10_000, dense=np.zeros(10_000, dtype=np.float32))
        sparse = SparseStream.random_uniform(10_000, nnz=5, rng=rng)
        assert reduction_work_bytes(dense, sparse) < reduction_work_bytes(dense, dense)


# ----------------------------------------------------------------------
# property-based: summation must agree with dense arithmetic in every
# representation combination, and be commutative/associative.
# ----------------------------------------------------------------------
@st.composite
def stream_pair(draw):
    dim = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(0, 2**31))
    gen = np.random.default_rng(seed)
    nnz_a = int(gen.integers(0, dim + 1))
    nnz_b = int(gen.integers(0, dim + 1))
    a = SparseStream.random_uniform(dim, nnz=nnz_a, rng=gen)
    b = SparseStream.random_uniform(dim, nnz=nnz_b, rng=gen)
    if draw(st.booleans()):
        a.densify()
    if draw(st.booleans()):
        b.densify()
    return a, b


@settings(max_examples=60, deadline=None)
@given(pair=stream_pair())
def test_property_add_matches_dense(pair):
    a, b = pair
    expected = a.to_dense().astype(np.float64) + b.to_dense().astype(np.float64)
    out = add_streams(a, b)
    assert np.allclose(out.to_dense(), expected, atol=1e-4)


@settings(max_examples=40, deadline=None)
@given(pair=stream_pair())
def test_property_add_commutative(pair):
    a, b = pair
    ab = add_streams(a, b).to_dense()
    ba = add_streams(b, a).to_dense()
    assert np.allclose(ab, ba, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=80),
    seed=st.integers(0, 2**31),
)
def test_property_reduce_order_invariant(dim, seed):
    gen = np.random.default_rng(seed)
    streams = [
        SparseStream.random_uniform(dim, nnz=int(gen.integers(0, dim + 1)), rng=gen)
        for _ in range(4)
    ]
    fwd = reduce_streams(streams).to_dense()
    rev = reduce_streams(streams[::-1]).to_dense()
    assert np.allclose(fwd, rev, atol=1e-4)


# ----------------------------------------------------------------------
# allocation-lean kernel additions (ISSUE 2): copy flag
# ----------------------------------------------------------------------
class TestMergeCopyFlag:
    def test_empty_side_copies_by_default(self):
        idx_b = np.array([2, 7], np.uint32)
        val_b = np.array([1.0, 2.0], np.float32)
        empty_i = np.empty(0, np.uint32)
        empty_v = np.empty(0, np.float32)
        idx, val = merge_sparse_pairs(empty_i, empty_v, idx_b, val_b)
        assert idx is not idx_b and val is not val_b
        val[0] = 99.0
        assert val_b[0] == 1.0  # caller's array untouched

    def test_copy_false_returns_inputs_verbatim(self):
        idx_b = np.array([2, 7], np.uint32)
        val_b = np.array([1.0, 2.0], np.float32)
        empty_i = np.empty(0, np.uint32)
        empty_v = np.empty(0, np.float32)
        idx, val = merge_sparse_pairs(empty_i, empty_v, idx_b, val_b, copy=False)
        assert idx is idx_b and val is val_b
        idx2, val2 = merge_sparse_pairs(idx_b, val_b, empty_i, empty_v, copy=False)
        assert idx2 is idx_b and val2 is val_b

    def test_copy_flag_irrelevant_when_both_nonempty(self):
        idx_a = np.array([1], np.uint32)
        val_a = np.array([1.0], np.float32)
        idx_b = np.array([2], np.uint32)
        val_b = np.array([2.0], np.float32)
        idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b, copy=False)
        assert idx is not idx_a and idx is not idx_b  # merged output is fresh

    def test_add_streams_inplace_adopts_owned_incoming(self):
        acc = SparseStream.zeros(100)
        incoming = _stream(100, [3, 5], [1.0, 2.0])
        out = add_streams_(acc, incoming, own_other=True)
        assert out is acc
        assert np.array_equal(acc.indices, incoming.indices)
        assert acc.indices is incoming.indices  # adopted, not copied

    def test_add_streams_default_does_not_alias(self):
        acc = SparseStream.zeros(100)
        incoming = _stream(100, [3, 5], [1.0, 2.0])
        add_streams_(acc, incoming)
        assert acc.indices is not incoming.indices
        acc.iscale(10.0)
        assert incoming.values[0] == 1.0  # pure input survives acc mutation


class TestSetPairs:
    def test_set_pairs_adopts_in_place(self):
        s = _stream(50, [1, 2], [1.0, 2.0])
        idx = np.array([5, 9], np.uint32)
        val = np.array([7.0, 8.0], np.float32)
        out = s.set_pairs(idx, val)
        assert out is s and not s.is_dense
        assert s.indices is idx and s.values is val
        assert s.nnz == 2

    def test_set_pairs_clears_dense_representation(self):
        s = SparseStream(8, dense=np.ones(8, np.float32))
        s.set_pairs(np.array([0], np.uint32), np.array([4.0], np.float32))
        assert not s.is_dense
        assert s.to_dense()[0] == 4.0 and s.to_dense()[1] == 0.0


# ----------------------------------------------------------------------
# packed-key kernel (ISSUE 16): bit-for-bit against a per-index loop
# ----------------------------------------------------------------------
DTYPES = [np.float16, np.float32, np.float64]
# a custom op: nothing about it is known to the kernel, which never combines
HYPOT = ReduceOp("hypot", np.hypot, 0.0)
OPS = [SUM, MAX, MIN, PROD, HYPOT]
DIM = 1 << 12


def _bits(x):
    return x.view(f"u{x.dtype.itemsize}")


def _special_values(dtype, n, gen):
    """Random values salted with signed zeros, infinities, subnormals, extremes."""
    info = np.finfo(dtype)
    pool = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal, -info.smallest_subnormal,
            info.smallest_normal / 2, info.max, info.min, 1.0, -1.0]
    val = gen.standard_normal(n).astype(dtype)
    salt = gen.random(n) < 0.5
    val[salt] = gen.choice(np.array(pool, dtype=dtype), size=int(salt.sum()))
    return val


def _oracle_merge(idx_a, val_a, idx_b, val_b, op):
    """One index at a time: the value present, or ``op`` of the two, lower bits first."""
    a = dict(zip(idx_a.tolist(), val_a))
    b = dict(zip(idx_b.tolist(), val_b))
    union = sorted(a.keys() | b.keys())
    out = np.empty(len(union), dtype=val_a.dtype)
    for pos, i in enumerate(union):
        if i in a and i in b:
            lo, hi = sorted((a[i], b[i]), key=lambda v: int(_bits(v)))
            out[pos] = op.ufunc(np.array([lo]), np.array([hi]))[0]
        else:
            out[pos] = a[i] if i in a else b[i]
    return np.array(union, dtype=np.uint32), out


def _supports(case, gen):
    pick = lambda n: np.sort(gen.choice(DIM, n, replace=False)).astype(np.uint32)
    if case == "disjoint":
        both = gen.permutation(DIM)[:300].astype(np.uint32)
        return np.sort(both[:170]), np.sort(both[170:])
    if case == "partial":
        return pick(200), pick(260)
    if case == "identical":
        same = pick(150)
        return same, same.copy()
    if case == "left_empty":
        return pick(0), pick(40)
    if case == "right_empty":
        return pick(40), pick(0)
    if case == "single":
        return np.array([7], np.uint32), np.array([7], np.uint32)
    assert case == "edges"
    return np.array([0, 5, DIM - 1], np.uint32), np.array([0, DIM - 1], np.uint32)


def _assert_fresh(out, dtype, *not_aliasing):
    assert out.dtype == dtype and out.ndim == 1
    assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
    assert not any(np.shares_memory(out, arr) for arr in not_aliasing)


CASES = ["disjoint", "partial", "identical", "left_empty", "right_empty", "single", "edges"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("op", OPS, ids=str)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_merge_matches_per_index_oracle_bit_for_bit(dtype, op, case):
    gen = np.random.default_rng(CASES.index(case))
    idx_a, idx_b = _supports(case, gen)
    val_a = _special_values(dtype, idx_a.size, gen)
    val_b = _special_values(dtype, idx_b.size, gen)
    keep = [arr.copy() for arr in (idx_a, val_a, idx_b, val_b)]
    with np.errstate(all="ignore"):  # inf - inf, 0 * inf: NaN on purpose
        want_idx, want_val = _oracle_merge(idx_a, val_a, idx_b, val_b, op)
        idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b, op)
        idx_r, val_r = merge_sparse_pairs(idx_b, val_b, idx_a, val_a, op)
    assert np.array_equal(idx, want_idx)
    assert val.tobytes() == want_val.tobytes()
    # operand order never shows, not even in the sign of a zero
    assert np.array_equal(idx_r, idx) and val_r.tobytes() == val.tobytes()
    _assert_fresh(idx, np.uint32, idx_a, idx_b)
    _assert_fresh(val, dtype, val_a, val_b)
    for before, after in zip(keep, (idx_a, val_a, idx_b, val_b)):
        assert before.tobytes() == after.tobytes()  # inputs untouched


@pytest.mark.parametrize("op", [SUM, MAX, MIN, PROD], ids=str)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_dense_plus_sparse_matches_gather_op_scatter_bit_for_bit(dtype, op):
    """§5.1's dense += sparse is one ``ufunc.at`` pass: the bits of the
    gather, ``op`` and scatter it replaced, signed zeros and NaN included."""
    gen = np.random.default_rng(31)
    dense = _special_values(dtype, DIM, gen)
    dense[gen.random(DIM) < 0.05] = np.nan
    idx = np.sort(gen.choice(DIM, 700, replace=False)).astype(np.uint32)
    val = _special_values(dtype, idx.size, gen)
    val[gen.random(idx.size) < 0.05] = np.nan
    want = dense.copy()
    at = idx.astype(np.intp)
    with np.errstate(all="ignore"):  # inf - inf, 0 * inf: NaN on purpose
        want[at] = op.ufunc(want[at], val)
        acc = SparseStream(DIM, dense=dense, value_dtype=dtype)
        add_streams_(acc, _stream(DIM, idx, val, dtype), op)
    assert acc.dense_payload.tobytes() == want.tobytes()


def _nan(dtype, payload, negative=False):
    """A quiet NaN of ``dtype`` carrying ``payload`` in its low mantissa bits."""
    width = np.dtype(dtype).itemsize * 8
    bits = np.array([-1], f"i{width // 8}").view(f"u{width // 8}") >> np.uint8(1)
    info = np.finfo(dtype)
    quiet = (bits >> np.uint8(info.nmant)) << np.uint8(info.nmant)  # exponent all ones
    quiet |= np.array([1 << (info.nmant - 1) | payload], quiet.dtype)
    if negative:
        quiet |= np.array([1 << (width - 1)], quiet.dtype)
    return quiet.view(dtype)[0]


def _scatter_case(dtype, gen):
    """A dense vector and a stream salted with what an add can disagree on:
    signed zeros, infinities of both signs, subnormals, NaNs with payloads
    on either side (and on both sides of one add), and sums past the
    largest finite value."""
    dense = _special_values(dtype, DIM, gen)
    idx = np.sort(gen.choice(DIM, 900, replace=False)).astype(np.uint32)
    val = _special_values(dtype, idx.size, gen)
    top = np.finfo(dtype).max
    dense[idx[:20]], val[20:40] = _nan(dtype, 5), _nan(dtype, 9, negative=True)
    dense[idx[40:60]], val[40:60] = _nan(dtype, 3, negative=True), _nan(dtype, 6)
    dense[idx[60:80]], val[60:80] = top, top  # overflow to +inf
    dense[idx[80:100]], val[80:100] = -0.0, -0.0
    return dense, idx, val


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_sum_scatter_is_np_add_at_bit_for_bit(dtype):
    """§5.1 case 2 under SUM: the bits and the floating-point warnings of
    ``np.add.at`` on every value an IEEE add treats specially."""
    dense, idx, val = _scatter_case(dtype, np.random.default_rng(37))
    want = dense.copy()
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        np.add.at(want, idx, val)
    acc = SparseStream(DIM, dense=dense, value_dtype=dtype)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        add_streams_(acc, _stream(DIM, idx, val, dtype))
    assert acc.dense_payload.tobytes() == want.tobytes()
    assert [str(w.message) for w in got] == [str(w.message) for w in expected]
    assert len(expected) == 2  # overflow and invalid (inf - inf) both occurred


def test_sum_scatter_honours_np_errstate():
    dense, idx, val = _scatter_case(np.float32, np.random.default_rng(38))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        summation._scatter_into(dense, _stream(DIM, idx, val), SUM)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        summation._scatter_into(dense, _stream(DIM, idx, val), SUM)


def _record_scatters(monkeypatch) -> list:
    """Stand a recorder in for each compiled scatter; returns the calls list."""
    calls = []

    def recorded(scatter):
        def record(*args):
            calls.append(args)
            return scatter(*args)
        return record

    if summation._KERNEL is not None:
        buf, merges, name, scatters = summation._KERNEL
        recorders = {dt: recorded(scatter) for dt, scatter in scatters.items()}
        monkeypatch.setattr(summation, "_KERNEL", (buf, merges, name, recorders))
    return calls


@pytest.mark.parametrize("op", [SUM, MAX, MIN, PROD, HYPOT], ids=str)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_only_sum_on_float32_or_float64_takes_the_compiled_scatter(dtype, op, merge_path, monkeypatch):
    """Every other op (a custom one too) and float16 stay on ``ufunc.at``."""
    calls = _record_scatters(monkeypatch)
    gen = np.random.default_rng(39)
    dense = np.abs(gen.standard_normal(DIM)).astype(dtype) + 1
    idx = np.sort(gen.choice(DIM, 300, replace=False)).astype(np.uint32)
    val = np.abs(gen.standard_normal(idx.size)).astype(dtype) + 1
    want = dense.copy()
    op.ufunc.at(want, idx, val)
    summation._scatter_into(dense, _stream(DIM, idx, val, dtype), op)
    assert dense.tobytes() == want.tobytes()
    assert len(calls) == (merge_path != "numpy" and op is SUM and dtype != np.float16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
def test_scatter_out_of_range_index_raises_and_writes_nothing(dtype):
    gen = np.random.default_rng(40)
    dense = gen.standard_normal(100).astype(dtype)
    before = dense.tobytes()
    for bad in ([3, 50, 100], [100, 3, 50], [7, 4_000_000_000]):  # last, first, far
        stream = SparseStream(1 << 32, indices=np.array(bad, np.uint32),
                              values=np.ones(len(bad), dtype), value_dtype=dtype, copy=False)
        with pytest.raises(IndexError, match="out of bounds"):
            summation._scatter_into(dense, stream, SUM)
        assert dense.tobytes() == before


def _outcome(scatter, target):
    """What ``scatter(target)`` leaves: the target's bytes, or the error it raised."""
    try:
        scatter(target)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return target.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
def test_scatter_into_read_only_or_strided_target_is_ufunc_at(dtype, monkeypatch):
    calls = _record_scatters(monkeypatch)
    idx = np.array([1, 4, 9], np.uint32)
    stream = _stream(20, idx, np.random.default_rng(41).standard_normal(3).astype(dtype), dtype)

    def read_only():
        target = np.zeros(20, dtype)
        target.flags.writeable = False
        return target

    for make in (read_only, lambda: np.zeros(40, dtype)[::2]):
        want = _outcome(lambda target: np.add.at(target, idx, stream.values), make())
        assert _outcome(lambda target: summation._scatter_into(target, stream, SUM), make()) == want
    assert calls == []


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("op", [MAX, MIN], ids=str)
def test_signed_zero_pair_combines_the_same_way_from_both_sides(dtype, op):
    # np.maximum(+0.0, -0.0) and np.maximum(-0.0, +0.0) differ in the sign
    # bit; ordering each pair by value bits keeps that out of the result
    i = np.array([3], np.uint32)
    pos, neg = np.array([0.0], dtype), np.array([-0.0], dtype)
    _, ab = merge_sparse_pairs(i, pos, i, neg, op)
    _, ba = merge_sparse_pairs(i, neg, i, pos, op)
    assert ab.tobytes() == ba.tobytes() == op.ufunc(pos, neg).tobytes()


def test_merge_rejects_mixed_value_dtypes():
    i = np.array([1], np.uint32)
    none = np.empty(0, np.uint32)
    with pytest.raises(TypeError, match="float32 vs float64"):
        merge_sparse_pairs(i, np.ones(1, np.float32), i, np.ones(1, np.float64))
    with pytest.raises(TypeError, match="float16 vs float32"):  # also on the empty-side path
        merge_sparse_pairs(none, np.empty(0, np.float16), i, np.ones(1, np.float32))


def test_merge_rejects_values_that_do_not_match_the_indices():
    i, ii = np.array([1], np.uint32), np.array([1, 2], np.uint32)
    with pytest.raises(ValueError, match="1 \\+ 2 indices but 1 \\+ 1 values"):
        merge_sparse_pairs(i, np.ones(1, np.float32), ii, np.ones(1, np.float32))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    dim=st.integers(1, 400),
    dtype=st.sampled_from(DTYPES),
    op=st.sampled_from(OPS),
)
def test_property_merge_matches_oracle_and_commutes_bitwise(seed, dim, dtype, op):
    gen = np.random.default_rng(seed)
    idx_a = np.sort(gen.choice(dim, int(gen.integers(0, dim + 1)), replace=False)).astype(np.uint32)
    idx_b = np.sort(gen.choice(dim, int(gen.integers(0, dim + 1)), replace=False)).astype(np.uint32)
    val_a = _special_values(dtype, idx_a.size, gen)
    val_b = _special_values(dtype, idx_b.size, gen)
    with np.errstate(all="ignore"):
        want_idx, want_val = _oracle_merge(idx_a, val_a, idx_b, val_b, op)
        idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b, op)
        idx_r, val_r = merge_sparse_pairs(idx_b, val_b, idx_a, val_a, op)
    assert idx.tobytes() == want_idx.tobytes() == idx_r.tobytes()
    assert val.tobytes() == want_val.tobytes() == val_r.tobytes()


@pytest.mark.parametrize("op", OPS, ids=str)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_merge_equals_the_numpy_path_bitwise_at_scale(dtype, op):
    """Past the oracle's sizes: 40 000 + 60 000 pairs, 20 000 shared,
    against the numpy path called directly (the kernel shrinks outputs of
    this size with ``resize``, which may move them)."""
    gen = np.random.default_rng(DTYPES.index(dtype))
    pool = gen.permutation(1 << 20).astype(np.uint32)
    idx_a, idx_b = np.sort(pool[:40_000]), np.sort(pool[20_000:80_000])
    val_a = _special_values(dtype, idx_a.size, gen)
    val_b = _special_values(dtype, idx_b.size, gen)
    with np.errstate(all="ignore"):
        idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b, op)
        want_idx, want_val = summation._merge_by_sort(idx_a, val_a, idx_b, val_b, op)
    assert idx.size == 80_000
    assert idx.tobytes() == want_idx.tobytes() and val.tobytes() == want_val.tobytes()
    _assert_fresh(idx, np.uint32, idx_a, idx_b)
    _assert_fresh(val, dtype, val_a, val_b)


# ----------------------------------------------------------------------
# the AVX-512 body's edges: blocks of eight, a size threshold, a tail
# (float32 is the one dtype it takes; the others run these on the scalar body)
# ----------------------------------------------------------------------
def _assert_merges_like_numpy(idx_a, val_a, idx_b, val_b, op=SUM):
    with np.errstate(all="ignore"):
        if idx_a.size and idx_b.size:
            want_idx, want_val = summation._merge_by_sort(idx_a, val_a, idx_b, val_b, op)
        else:  # the numpy path takes two non-empty runs
            want_idx, want_val = np.concatenate([idx_a, idx_b]), np.concatenate([val_a, val_b])
        idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b, op)
        idx_r, val_r = merge_sparse_pairs(idx_b, val_b, idx_a, val_a, op)
    assert idx.tobytes() == want_idx.tobytes() == idx_r.tobytes()
    assert val.tobytes() == want_val.tobytes() == val_r.tobytes()


# every length up to 40, and around multiples of eight and the 32-pair threshold
LENGTHS = sorted(set(range(41)) | {47, 48, 49, 63, 64, 65, 127, 128, 129})


def test_every_length_around_blocks_and_threshold():
    gen = np.random.default_rng(8)
    for na in LENGTHS:
        for nb in LENGTHS:
            dim = max(na, nb) * 2 + 1  # dense supports: about half of each run shared
            idx_a = np.sort(gen.choice(dim, na, replace=False)).astype(np.uint32)
            idx_b = np.sort(gen.choice(dim, nb, replace=False)).astype(np.uint32)
            _assert_merges_like_numpy(
                idx_a, _special_values(np.float32, na, gen), idx_b, _special_values(np.float32, nb, gen)
            )


@pytest.mark.parametrize(
    "na, nb", [(1, 1000), (7, 500), (20, 5000), (64, 64), (500, 9), (4096, 33)]
)
def test_one_run_exhausted_early(na, nb):
    """All of ``a`` before ``b`` (and the reverse): the tail carries most
    pairs; then the same with the last of ``a`` shared with the first of ``b``."""
    gen = np.random.default_rng(na * nb)
    val_a, val_b = _special_values(np.float32, na, gen), _special_values(np.float32, nb, gen)
    low, high = np.arange(na, dtype=np.uint32), np.arange(na, na + nb, dtype=np.uint32)
    _assert_merges_like_numpy(low, val_a, high, val_b)
    _assert_merges_like_numpy(high - np.uint32(na), val_b, low + np.uint32(nb), val_a)
    _assert_merges_like_numpy(low, val_a, high - np.uint32(1), val_b)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("na, nb", [(37, 20), (20, 37), (64, 64), (40, 1)])
def test_all_ones_keys_at_the_top_of_the_index_range(na, nb, shared):
    """Index 2^32 - 1 with value bits 0xFFFFFFFF (a NaN) packs into the
    all-ones key the AVX-512 body pads a short block with: the real key
    must still count, and pair, exactly once."""
    top = np.uint32(0xFFFFFFFF)
    gen = np.random.default_rng(na + nb)
    idx_a = np.append(np.sort(gen.choice(1 << 20, na - 1, replace=False)).astype(np.uint32), top)
    idx_b = np.sort(gen.choice(1 << 20, nb, replace=False)).astype(np.uint32)
    if shared:
        idx_b[-1] = top
    val_a, val_b = _special_values(np.float32, na, gen), _special_values(np.float32, nb, gen)
    val_a.view(np.uint32)[-1] = val_b.view(np.uint32)[-1] = 0xFFFFFFFF
    for op in (SUM, MAX):
        _assert_merges_like_numpy(idx_a, val_a, idx_b, val_b, op)


@pytest.mark.parametrize("n", [8, 31, 32, 33, 300, 4099])
@pytest.mark.parametrize("op", [SUM, MAX, MIN], ids=str)
def test_identical_supports_and_equal_value_bits(n, op):
    """Every index shared and every pair's two keys equal, then every
    index shared with about half the pairs' bits equal."""
    gen = np.random.default_rng(n)
    idx = np.sort(gen.choice(1 << 20, n, replace=False)).astype(np.uint32)
    val = _special_values(np.float32, n, gen)
    _assert_merges_like_numpy(idx, val, idx.copy(), val.copy(), op)
    other = np.where(gen.random(n) < 0.5, val, _special_values(np.float32, n, gen))
    _assert_merges_like_numpy(idx, val, idx.copy(), other, op)


@pytest.mark.parametrize("op", [SUM, MAX, MIN], ids=str)
def test_signed_zeros_and_nans(op):
    """±0.0 and NaNs of both signs and several payloads, 300 + 260 pairs
    over 400 indices, from both sides. The reference is the numpy path,
    not the per-index oracle: which payload a NaN + NaN keeps depends on
    numpy's loop (one element or a vector), and the merge runs the vector."""
    gen = np.random.default_rng(17)
    pool = np.array([0.0, -0.0, np.nan, -np.nan, 1.0, -1.0], np.float32)
    payloads = np.array([0x7FC00001, 0xFFC00002, 0x7F800003], np.uint32).view(np.float32)
    pool = np.concatenate([pool, payloads])
    idx_a = np.sort(gen.choice(400, 300, replace=False)).astype(np.uint32)
    idx_b = np.sort(gen.choice(400, 260, replace=False)).astype(np.uint32)
    _assert_merges_like_numpy(idx_a, gen.choice(pool, 300), idx_b, gen.choice(pool, 260), op)


def test_corrupt_input_stays_in_bounds_in_every_c_body(tmp_path):
    """Unsorted runs, and sorted runs with repeated indices, fed straight to
    each C body in a child process: it survives, writes nothing past any
    output's capacity and counts at most ``min(na, nb)`` shared slots, also
    where the runs hold more adjacent equal indices than that."""
    if summation.NATIVE is None:
        pytest.skip("no C compiler or no cffi: no C body to feed")
    program = """
import numpy as np
from repro._native import NATIVE
ffi, lib = NATIVE
gen = np.random.default_rng(11)
PAD, capped = 16, 0
for name, word in [("w2", np.uint16), ("w4", np.uint32), ("w4_simd", np.uint32), ("w8", np.uint64)]:
    merge = getattr(lib, "merge_pairs_" + name)
    for na, nb in [(1, 1), (1, 50), (50, 1), (20, 20), (40, 40), (9, 500), (500, 9), (300, 200)]:
        for kind in ("unsorted", "repeats"):
            ia, ib = gen.integers(0, 64, na).astype(np.uint32), gen.integers(0, 64, nb).astype(np.uint32)
            if kind == "repeats":
                ia.sort(), ib.sort()
            va, vb = gen.integers(0, 4, na).astype(word), gen.integers(0, 4, nb).astype(word)
            n, most = na + nb, min(na, nb)
            io, vo = np.full(n + PAD, 0xA5A5A5A5, np.uint32), np.full(n + PAD, 0xA5, word)
            dup, hi = np.full(most + PAD, -7, np.intp), np.full(most + PAD, 0xA5, word)
            buf = ffi.from_buffer
            d = merge(buf(ia), buf(va), na, buf(ib), buf(vb), nb, buf(io), buf(vo), buf(dup), buf(hi))
            assert d <= most, (name, na, nb, kind, d)
            assert (io[n:] == 0xA5A5A5A5).all() and (vo[n:] == 0xA5).all(), (name, na, nb, kind)
            assert (dup[most:] == -7).all() and (hi[most:] == 0xA5).all(), (name, na, nb, kind)
            assert ((0 <= dup[:d]) & (dup[:d] < n - d)).all(), (name, na, nb, kind)
            both = np.sort(np.concatenate([ia, ib]))
            capped += int(np.count_nonzero(both[1:] == both[:-1]) > most)
print("in bounds", capped)
"""
    src = Path(summation.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, timeout=120,
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), "TMPDIR": str(tmp_path)},
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    verdict, capped = done.stdout.split()[-3:-1], int(done.stdout.split()[-1])
    assert verdict == ["in", "bounds"] and capped > 0  # the cap was exercised


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_unsorted_input_is_wrong_but_never_out_of_bounds(dtype):
    """The kernel trusts sortedness for the result, not for memory safety."""
    gen = np.random.default_rng(5)
    for na, nb in [(1, 1), (1, 50), (50, 1), (300, 200), (200, 300)]:
        idx_a = gen.integers(0, 64, na).astype(np.uint32)  # unsorted, repeats
        idx_b = gen.integers(0, 64, nb).astype(np.uint32)
        val_a, val_b = _special_values(dtype, na, gen), _special_values(dtype, nb, gen)
        with np.errstate(all="ignore"):
            idx, val = merge_sparse_pairs(idx_a, val_a, idx_b, val_b)
        assert idx.size == val.size <= na + nb


def test_merge_runs_on_numpy_where_no_compiler_is_found(tmp_path):
    """A process with an empty ``PATH`` finds no ``cc``: neither compiled
    seam loads, the numpy paths are active from import on, and the merge
    and QSGD's quantize and dequantize run correctly on them."""
    program = (
        "import numpy as np\n"
        "from repro.quant import QSGDQuantizer, qsgd\n"
        "from repro.streams import SUM, merge_sparse_pairs, summation\n"
        "assert summation._KERNEL is None and qsgd._KERNEL is None\n"
        "i, v = merge_sparse_pairs(np.array([1, 3], np.uint32), np.array([1.0, 2.0], np.float32),\n"
        "                          np.array([3, 4], np.uint32), np.array([5.0, 6.0], np.float32), SUM)\n"
        "assert i.tolist() == [1, 3, 4] and v.tolist() == [1.0, 7.0, 6.0]\n"
        "q = QSGDQuantizer(bits=8, bucket_size=2, seed=0, stochastic=False)\n"
        "block = q.quantize(np.array([3.0, -4.0, 0.0], np.float32))\n"
        "assert block.packed.tolist() == [76, 128 | 102, 0] and block.scales.tolist() == [5.0, 0.0]\n"
        "want = np.array([76 / 127 * 5.0, -102 / 127 * 5.0, 0.0]).astype(np.float32)\n"
        "assert q.dequantize(block).tobytes() == want.tobytes()\n"
        "print('numpy path ok')\n"
    )
    src = Path(summation.__file__).resolve().parents[2]
    env = {"PATH": "", "PYTHONPATH": str(src), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "numpy path ok"


class TestConcatDisjointKernel:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("layout", ["interleaved", "ordered", "reversed"])
    def test_matches_sorted_union(self, dtype, layout, rng):
        if layout == "interleaved":  # residue classes: every run spans the whole range
            supports = [np.arange(r, DIM, 5, dtype=np.uint32)[:: r + 1] for r in range(5)]
        else:  # the dimension-partitioned case, in and out of rank order
            cuts = [0, 900, 901, 2500, DIM]
            supports = [
                np.sort(rng.choice(np.arange(lo, hi), min(hi - lo, 300), replace=False)).astype(np.uint32)
                for lo, hi in zip(cuts, cuts[1:])
            ]
            if layout == "reversed":
                supports.reverse()
        parts = [
            SparseStream(DIM, indices=i, values=_special_values(dtype, i.size, rng),
                         value_dtype=dtype, copy=False)
            for i in supports
        ]
        parts.insert(2, SparseStream.zeros(DIM, value_dtype=dtype))
        out = concat_disjoint(parts, DIM)
        all_idx = np.concatenate([p.indices for p in parts])
        all_val = np.concatenate([p.values for p in parts])
        order = np.argsort(all_idx)
        assert np.array_equal(out.indices, all_idx[order])
        assert out.values.tobytes() == all_val[order].tobytes()
        assert out.value_dtype == dtype and not out.is_dense
        _assert_fresh(out.indices, np.uint32, *(p.indices for p in parts))
        _assert_fresh(out.values, dtype, *(p.values for p in parts))

    def test_mixed_value_dtypes_rejected(self):
        parts = [_stream(10, [1], [1.0], np.float32), _stream(10, [2], [2.0], np.float64)]
        with pytest.raises(TypeError, match="stream 1 is float64"):
            concat_disjoint(parts, 10)

    def test_dense_stream_rejected_by_position(self):
        parts = [_stream(10, [1], [1.0]), SparseStream(10, dense=np.ones(10, np.float32))]
        with pytest.raises(ValueError, match="stream 1 is dense"):
            concat_disjoint(parts, 10)
