"""Tests for stream summation kernels: all four cases of §5.1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    SparseStream,
    add_streams,
    add_streams_,
    concat_disjoint,
    merge_sparse_pairs,
    reduce_streams,
    reduction_work_bytes,
)


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

    def test_overlap_detected(self):
        with pytest.raises(ValueError, match="overlapping"):
            concat_disjoint([_stream(10, [3], [1.0]), _stream(10, [3], [2.0])], 10)


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
