"""Tests for SparseStream: construction, representation, byte accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import STREAM_HEADER_BYTES
from repro.streams import SparseStream


class TestConstruction:
    def test_empty_stream(self):
        s = SparseStream.zeros(100)
        assert s.nnz == 0
        assert not s.is_dense
        assert s.density == 0.0
        assert np.array_equal(s.to_dense(), np.zeros(100, dtype=np.float32))

    def test_from_pairs(self):
        s = SparseStream(10, indices=[3, 7], values=[1.5, -2.0])
        dense = s.to_dense()
        assert dense[3] == pytest.approx(1.5)
        assert dense[7] == pytest.approx(-2.0)
        assert np.count_nonzero(dense) == 2

    def test_pairs_are_sorted_on_construction(self):
        s = SparseStream(10, indices=[7, 3, 5], values=[1.0, 2.0, 3.0])
        assert list(s.indices) == [3, 5, 7]
        assert list(s.values) == [2.0, 3.0, 1.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseStream(10, indices=[3, 3], values=[1.0, 2.0])

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(IndexError):
            SparseStream(10, indices=[10], values=[1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SparseStream(10, indices=[1, 2], values=[1.0])

    def test_indices_without_values_rejected(self):
        with pytest.raises(ValueError):
            SparseStream(10, indices=[1, 2])

    def test_dense_and_pairs_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SparseStream(3, dense=np.zeros(3), indices=[0], values=[1.0])

    def test_dense_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SparseStream(5, dense=np.zeros(4))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            SparseStream(-1)

    def test_from_dense_extracts_nonzeros(self):
        arr = np.array([0, 1.0, 0, -2.0, 0], dtype=np.float32)
        s = SparseStream.from_dense(arr)
        assert not s.is_dense
        assert list(s.indices) == [1, 3]
        assert np.array_equal(s.to_dense(), arr)

    def test_from_dense_keep_dense(self):
        arr = np.ones(5, dtype=np.float32)
        s = SparseStream.from_dense(arr, keep_dense=True)
        assert s.is_dense
        assert np.array_equal(s.to_dense(), arr)

    def test_from_dense_zero_tol(self):
        arr = np.array([1e-9, 0.5, -1e-9], dtype=np.float32)
        s = SparseStream.from_dense(arr, zero_tol=1e-6)
        assert s.nnz == 1
        assert s.indices[0] == 1

    def test_from_dense_integer_input_uses_default_dtype(self):
        s = SparseStream.from_dense(np.array([0, 1, 2]))
        assert s.value_dtype == np.dtype(np.float32)

    def test_random_uniform_properties(self, rng):
        s = SparseStream.random_uniform(1000, nnz=50, rng=rng)
        assert s.nnz == 50
        assert len(np.unique(s.indices)) == 50
        assert np.all(np.diff(s.indices.astype(np.int64)) > 0)

    def test_random_uniform_bad_nnz(self, rng):
        with pytest.raises(ValueError):
            SparseStream.random_uniform(10, nnz=11, rng=rng)


class TestRepresentation:
    def test_densify_roundtrip(self, rng):
        s = SparseStream.random_uniform(200, nnz=20, rng=rng)
        ref = s.to_dense()
        s.densify()
        assert s.is_dense
        assert np.array_equal(s.to_dense(), ref)
        s.sparsify()
        assert not s.is_dense
        assert np.array_equal(s.to_dense(), ref)

    def test_sparsify_drops_explicit_zeros(self):
        s = SparseStream(4, dense=np.array([0.0, 1.0, 0.0, 2.0], dtype=np.float32))
        s.sparsify()
        assert s.nnz == 2

    def test_dense_stream_nnz_counts_all_slots(self):
        s = SparseStream(8, dense=np.zeros(8, dtype=np.float32))
        assert s.nnz == 8
        assert s.stored_nonzeros == 0

    def test_dense_has_no_index_accessors(self):
        s = SparseStream(4, dense=np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            _ = s.indices
        with pytest.raises(ValueError):
            _ = s.values

    def test_sparse_has_no_dense_payload(self):
        s = SparseStream.zeros(4)
        with pytest.raises(ValueError):
            _ = s.dense_payload


class TestByteAccounting:
    def test_sparse_bytes(self):
        s = SparseStream(1000, indices=[1, 2, 3], values=[1.0, 2.0, 3.0])
        assert s.nbytes_payload == STREAM_HEADER_BYTES + 3 * (4 + 4)

    def test_dense_bytes(self):
        s = SparseStream(1000, dense=np.zeros(1000, dtype=np.float32))
        assert s.nbytes_payload == STREAM_HEADER_BYTES + 4000

    def test_float64_sparse_bytes(self):
        s = SparseStream(100, indices=[0], values=[1.0], value_dtype=np.float64)
        assert s.nbytes_payload == STREAM_HEADER_BYTES + (4 + 8)

    def test_delta_crossover(self):
        # at exactly delta nonzeros, sparse <= dense
        n = 1000
        s_sparse = SparseStream(n, indices=np.arange(500), values=np.ones(500))
        s_dense = SparseStream(n, dense=np.zeros(n, dtype=np.float32))
        assert s_sparse.nbytes_payload <= s_dense.nbytes_payload

    def test_value_wire_bytes_shrinks_payload(self):
        s = SparseStream(1 << 16, indices=np.arange(1024), values=np.ones(1024))
        full = s.nbytes_payload
        s.value_wire_bytes = 0.5  # 4-bit values
        assert s.nbytes_payload < full
        assert s.nbytes_payload == STREAM_HEADER_BYTES + int(np.ceil(1024 * 4.5))

    def test_comm_nbytes_protocol(self):
        s = SparseStream.zeros(10)
        assert s.comm_nbytes() == s.nbytes_payload


class TestOperations:
    def test_copy_is_deep(self, rng):
        s = SparseStream.random_uniform(100, nnz=10, rng=rng)
        c = s.copy()
        c.values[0] = 999.0
        assert s.values[0] != 999.0

    def test_copy_preserves_wire_annotation(self, rng):
        s = SparseStream.random_uniform(100, nnz=10, rng=rng)
        s.value_wire_bytes = 1.0
        assert s.copy().value_wire_bytes == 1.0

    def test_iscale(self):
        s = SparseStream(5, indices=[1], values=[2.0])
        s.iscale(3.0)
        assert s.values[0] == pytest.approx(6.0)

    def test_iscale_dense(self):
        s = SparseStream(3, dense=np.ones(3, dtype=np.float32))
        s.iscale(0.5)
        assert np.allclose(s.to_dense(), 0.5)

    def test_equality_across_representations(self, rng):
        s = SparseStream.random_uniform(50, nnz=5, rng=rng)
        d = s.copy().densify()
        assert s == d

    def test_len_is_dimension(self):
        assert len(SparseStream.zeros(42)) == 42

    def test_allclose(self, rng):
        s = SparseStream.random_uniform(50, nnz=5, rng=rng)
        assert s.allclose(s.to_dense())
        assert not s.allclose(s.to_dense() + 1.0)


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_property_dense_roundtrip(dim, data):
    """from_dense(to_dense(s)) preserves the vector for any sparse stream."""
    nnz = data.draw(st.integers(min_value=0, max_value=dim))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    s = SparseStream.random_uniform(dim, nnz=nnz, rng=gen)
    rebuilt = SparseStream.from_dense(s.to_dense())
    assert np.array_equal(rebuilt.to_dense(), s.to_dense())


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=1, max_value=200), seed=st.integers(0, 2**31))
def test_property_bytes_consistent_with_representation(dim, seed):
    """Sparse payload is never larger than delta implies; dense is fixed."""
    gen = np.random.default_rng(seed)
    nnz = int(gen.integers(0, dim + 1))
    s = SparseStream.random_uniform(dim, nnz=nnz, rng=gen)
    sparse_bytes = s.nbytes_payload
    dense_bytes = s.copy().densify().nbytes_payload
    if nnz <= s.delta:
        assert sparse_bytes <= dense_bytes
