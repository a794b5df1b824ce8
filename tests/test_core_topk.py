"""Tests for TopK selection and the error-feedback residual (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import INDEX_DTYPE
from repro.core import (
    ErrorFeedback,
    quantize_stream_values,
    topk_bucket_indices,
    topk_global_indices,
    topk_stream,
)
from repro.quant import QSGDQuantizer
from repro.streams import SparseStream

from conftest import reference_bucket_indices


class TestGlobalTopK:
    def test_selects_largest_magnitudes(self):
        v = np.array([1.0, -5.0, 0.5, 3.0, -0.1])
        idx = topk_global_indices(v, 2)
        assert set(idx.tolist()) == {1, 3}

    def test_indices_sorted(self, rng):
        v = rng.standard_normal(100)
        idx = topk_global_indices(v, 17)
        assert np.all(np.diff(idx.astype(np.int64)) > 0)

    def test_k_zero(self):
        assert topk_global_indices(np.ones(5), 0).size == 0

    def test_k_full(self):
        assert topk_global_indices(np.ones(5), 5).size == 5

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            topk_global_indices(np.ones(5), 6)

    @pytest.mark.parametrize("k", [1, 3, 4, 7])
    def test_never_the_index_of_a_zero(self, k):
        """At most k, all of the non-zeros when there are fewer, ``k == n``
        included; ``-0.0`` is a zero and NaN is not."""
        v = np.array([0.0, 2.0, -0.0, -3.0, 0.0, np.nan, 0.5], dtype=np.float32)
        idx = topk_global_indices(v, k)
        assert idx.dtype == INDEX_DTYPE
        assert idx.tolist() == {1: [5], 3: [1, 3, 5], 4: [1, 3, 5, 6], 7: [1, 3, 5, 6]}[k]

    def test_matches_the_whole_vector_partition_without_zeros(self, rng):
        v = rng.standard_normal(300).astype(np.float32)
        want = np.sort(np.argpartition(np.abs(v), 300 - 40)[300 - 40:])
        assert np.array_equal(topk_global_indices(v, 40), want)

    def test_magnitude_threshold_property(self, rng):
        v = rng.standard_normal(200)
        idx = topk_global_indices(v, 20)
        selected_min = np.abs(v[idx.astype(np.int64)]).min()
        mask = np.ones(200, dtype=bool)
        mask[idx.astype(np.int64)] = False
        unselected_max = np.abs(v[mask]).max()
        assert selected_min >= unselected_max - 1e-12


class TestBucketTopK:
    def test_per_bucket_count(self, rng):
        v = rng.standard_normal(512 * 4)
        idx = topk_bucket_indices(v, 8, 512)
        assert idx.size == 8 * 4
        buckets = idx.astype(np.int64) // 512
        assert np.all(np.bincount(buckets, minlength=4) == 8)

    def test_partial_last_bucket(self, rng):
        v = rng.standard_normal(100)  # one bucket of 64 + tail of 36
        idx = topk_bucket_indices(v, 4, 64)
        assert idx.size == 8
        assert np.sum(idx >= 64) == 4

    def test_tail_shorter_than_k(self, rng):
        v = rng.standard_normal(66)
        idx = topk_bucket_indices(v, 4, 64)
        assert idx.size == 4 + 2

    def test_k_larger_than_bucket_selects_all(self, rng):
        v = rng.standard_normal(32)
        idx = topk_bucket_indices(v, 100, 16)
        assert idx.size == 32

    def test_selects_bucket_maxima(self):
        v = np.zeros(8)
        v[1], v[6] = 5.0, -7.0
        idx = topk_bucket_indices(v, 1, 4)
        assert set(idx.tolist()) == {1, 6}

    def test_empty_vector(self):
        assert topk_bucket_indices(np.empty(0), 4, 16).size == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            topk_bucket_indices(np.ones(4), 1, 0)
        with pytest.raises(ValueError):
            topk_bucket_indices(np.ones(4), -1, 2)


@st.composite
def accumulators(draw):
    """``(vector, k, bucket_size, tie_free)``: float32 vectors made of runs
    — all zero, all non-zero, or a mix of exact zeros, ``-0.0`` and
    non-zeros — with a ragged tail, ``k`` up to past the bucket size, and
    either distinct magnitudes or a handful of repeated ones."""
    bucket_size = draw(st.sampled_from([1, 4, 16, 64]))
    n = draw(st.integers(1, 6 * bucket_size + bucket_size // 2))
    k = draw(st.integers(1, bucket_size + 2))
    tie_free = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2**31)))
    if tie_free:
        magnitudes = gen.permutation(n) + 1.0
    else:
        magnitudes = gen.integers(1, 4, n).astype(np.float64)
    vec = (magnitudes * gen.choice([-1.0, 1.0], n)).astype(np.float32)
    run = max(1, n // draw(st.integers(1, 6)))
    for start in range(0, n, run):
        kind = draw(st.sampled_from(["dense", "zero", "mixed", "mixed"]))
        if kind == "zero":
            vec[start: start + run] = 0.0
        elif kind == "mixed":
            hole = gen.random(min(run, n - start)) < draw(st.sampled_from([0.3, 0.9, 0.99]))
            vec[start: start + run][hole] = gen.choice([0.0, -0.0], int(hole.sum()))
    return vec, k, bucket_size, tie_free


class TestBucketTopKFollowsTheNonZeros:
    @settings(max_examples=300, deadline=None)
    @given(accumulators())
    def test_contract_against_the_reference(self, case):
        vec, k, bucket_size, tie_free = case
        idx = topk_bucket_indices(vec, k, bucket_size)
        wide = idx.astype(np.int64)
        assert idx.dtype == INDEX_DTYPE
        assert np.all(np.diff(wide) > 0)  # sorted and unique
        assert np.all(vec[wide] != 0)  # never an exact zero, -0.0 included
        n_buckets = -(-vec.size // bucket_size)
        nonzeros = np.bincount(np.flatnonzero(vec != 0) // bucket_size, minlength=n_buckets)
        picked = np.bincount(wide // bucket_size, minlength=n_buckets)
        assert np.array_equal(picked, np.minimum(k, nonzeros))
        reference = reference_bucket_indices(vec, k, bucket_size)
        if np.all(vec != 0):
            assert np.array_equal(idx, reference)  # index for index, ties included
        elif tie_free:
            assert np.array_equal(idx, reference[vec[reference.astype(np.int64)] != 0])
        else:
            # among ties any choice is a top-k: the magnitudes must agree
            for b in np.flatnonzero(picked):
                mine = np.abs(vec[wide[wide // bucket_size == b]])
                bucket = np.abs(vec[b * bucket_size: (b + 1) * bucket_size])
                assert np.array_equal(np.sort(mine), np.sort(bucket)[bucket.size - mine.size:])

    def test_nan_is_a_non_zero(self):
        v = np.zeros(16, dtype=np.float32)
        v[[1, 2, 3]] = [1.0, np.nan, 2.0]
        assert topk_bucket_indices(v, 4, 8).tolist() == [1, 2, 3]  # kept, not partitioned
        assert topk_bucket_indices(v, 2, 8).tolist() == [2, 3]  # NaN sorts as the largest

    def test_sparse_accumulator_ships_its_non_zeros(self, rng):
        """The benchmark's shape: 89 non-zeros of 40 399, k = 32 of 512."""
        v = np.zeros(40_399, dtype=np.float32)
        where = np.sort(rng.choice(v.size, 89, replace=False))
        v[where] = rng.standard_normal(89)
        assert np.array_equal(topk_bucket_indices(v, 32, 512), where)
        assert reference_bucket_indices(v, 32, 512).size == 78 * 32 + 32


class TestTopKStream:
    def test_global_mode(self, rng):
        v = rng.standard_normal(64).astype(np.float32)
        s = topk_stream(v, 5)
        assert s.nnz == 5
        dense = s.to_dense()
        assert np.allclose(dense[dense != 0], v[s.indices.astype(np.int64)])

    def test_bucket_mode(self, rng):
        v = rng.standard_normal(128).astype(np.float32)
        s = topk_stream(v, 2, bucket_size=32)
        assert s.nnz == 8


class TestErrorFeedback:
    def test_invariant_sent_plus_residual(self, rng):
        """dense(sent) + residual == accumulator, exactly."""
        ef = ErrorFeedback(100, k=5, value_dtype=np.float64)
        for _ in range(5):
            g = rng.standard_normal(100)
            acc_expected = ef.residual + g
            sent = ef.select(g)
            assert np.allclose(sent.to_dense() + ef.residual, acc_expected, atol=1e-12)

    def test_residual_zero_at_selected(self, rng):
        ef = ErrorFeedback(50, k=10)
        sent = ef.select(rng.standard_normal(50).astype(np.float32))
        assert np.all(ef.residual[sent.indices.astype(np.int64)] == 0.0)

    def test_unselected_mass_carries_over(self):
        ef = ErrorFeedback(4, k=1, value_dtype=np.float64)
        ef.select(np.array([1.0, 0.5, 0.0, 0.0]))
        # index 0 sent, 0.5 retained; next tiny gradient: retained wins
        sent2 = ef.select(np.array([0.0, 0.0, 0.1, 0.0]))
        assert sent2.indices[0] == 1
        assert sent2.values[0] == pytest.approx(0.5)

    def test_bucket_mode(self, rng):
        ef = ErrorFeedback(128, k=2, bucket_size=32)
        sent = ef.select(rng.standard_normal(128).astype(np.float32))
        assert sent.nnz == 8

    @settings(max_examples=100, deadline=None)
    @given(accumulators(), st.integers(1, 4))
    def test_invariant_is_bitwise_and_no_zero_ships(self, case, steps):
        """``dense(sent) + residual == acc`` bit for bit, on accumulators
        that are mostly zeros, and what ships holds no explicit zero."""
        vec, k, bucket_size, _ = case
        ef = ErrorFeedback(vec.size, k=k, bucket_size=bucket_size)
        gen = np.random.default_rng(vec.size)
        for _ in range(steps):
            g = vec * gen.integers(0, 3, vec.size).astype(np.float32)
            acc = ef.residual + g
            sent = ef.select(g)
            assert sent.nnz == sent.stored_nonzeros
            assert sent.value_dtype == np.float32
            total = sent.to_dense() + ef.residual
            # + 0.0: an unselected -0.0 has always read back as 0.0 + -0.0
            assert np.array_equal(total.view(np.uint32), (acc + 0.0).view(np.uint32))

    def test_global_mode_ships_no_zero(self):
        ef = ErrorFeedback(6, k=4, value_dtype=np.float64)
        sent = ef.select(np.array([0.0, 3.0, 0.0, -1.0, 0.0, 0.0]))
        assert sent.indices.tolist() == [1, 3]
        assert not ef.residual.any()

    def test_reset(self, rng):
        ef = ErrorFeedback(20, k=2)
        ef.select(rng.standard_normal(20).astype(np.float32))
        ef.reset()
        assert ef.residual_norm == 0.0

    def test_shape_mismatch(self):
        ef = ErrorFeedback(10, k=1)
        with pytest.raises(ValueError):
            ef.select(np.zeros(11, dtype=np.float32))

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=200),
        steps=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 2**31),
    )
    def test_property_no_gradient_mass_lost(self, dim, steps, seed):
        """Over any run: sum(sent) + residual == sum(gradients) exactly.

        This is the lossless-accounting property that makes TopK SGD
        convergent (Appendix C tracks exactly this quantity).
        """
        gen = np.random.default_rng(seed)
        k = int(gen.integers(1, dim + 1))
        ef = ErrorFeedback(dim, k=k, value_dtype=np.float64)
        total_grad = np.zeros(dim)
        total_sent = np.zeros(dim)
        for _ in range(steps):
            g = gen.standard_normal(dim)
            total_grad += g
            total_sent += ef.select(g).to_dense()
        assert np.allclose(total_sent + ef.residual, total_grad, atol=1e-9)


@st.composite
def sparse_gradient_runs(draw):
    """``(dimension, bucket_size, steps)``: a run of calls on one
    :class:`ErrorFeedback`, each step ``(kind, k, gradient)``. ``kind`` is
    how the call passes the gradient — its pairs or its dense form — and
    ``k`` changes between calls, as DGC's warm-up does. Gradients run from
    empty to full, windows from under to over ``k`` with a ragged last
    window, values hold stored ``0.0`` and ``-0.0`` and repeated
    magnitudes."""
    bucket_size = draw(st.sampled_from([None, 1, 4, 16, 64]))
    width = bucket_size or 64
    n = draw(st.integers(1, 5 * width + width // 2))
    gen = np.random.default_rng(draw(st.integers(0, 2**31)))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["pairs", "pairs", "dense"]))
        k = draw(st.integers(0, n if bucket_size is None else bucket_size + 2))
        nnz = draw(st.sampled_from([0, 1, max(1, n // 20), n // 3, n]))
        idx = np.sort(gen.choice(n, size=min(nnz, n), replace=False))
        values = gen.integers(-3, 4, idx.size).astype(np.float64)  # ties and zeros
        values[gen.random(idx.size) < 0.1] = -0.0
        if draw(st.booleans()):
            values += gen.standard_normal(idx.size)
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        steps.append((kind, k, SparseStream(n, indices=idx, values=values, value_dtype=dtype)))
    return n, bucket_size, steps


class TestStreamInputSelectsAsDense:
    @settings(max_examples=300, deadline=None)
    @given(sparse_gradient_runs())
    def test_bit_equal_to_the_dense_path(self, run):
        """After every call, a state fed streams (interleaved with dense
        calls) returns the stream and holds the residual, bit for bit,
        that a state fed every gradient's ``to_dense()`` does."""
        n, bucket_size, steps = run
        mine = ErrorFeedback(n, 0, bucket_size)
        dense = ErrorFeedback(n, 0, bucket_size)
        for kind, k, grad in steps:
            mine.k = dense.k = k
            sent = mine.select(grad if kind == "pairs" else grad.to_dense())
            want = dense.select(grad.to_dense())
            assert not sent.is_dense and sent.value_dtype == want.value_dtype
            assert np.array_equal(sent.indices, want.indices)
            assert sent.indices.dtype == want.indices.dtype
            assert np.array_equal(sent.values.view(np.uint32), want.values.view(np.uint32))
            assert np.array_equal(mine.residual.view(np.uint32), dense.residual.view(np.uint32))

    def test_the_workload_shape_reads_only_the_support(self, rng):
        """89 pairs of a 40 399-entry bucket, k = 32 of 512: the residual
        is never scanned — a non-zero written behind the state's back, off
        its tracked support, is not selected."""
        ef = ErrorFeedback(40_399, 32, 512)
        ef.select(SparseStream(40_399, indices=[7], values=[1.0], value_dtype=np.float32))
        ef.residual[9] = 5.0  # behind the state's back: not on the support
        grad = SparseStream.random_uniform(40_399, 89, rng, value_dtype=np.float32)
        sent = ef.select(grad)
        assert 9 not in sent.indices
        assert np.array_equal(sent.indices, grad.indices[grad.values != 0])

    def test_dimension_mismatch(self):
        ef = ErrorFeedback(10, k=1)
        with pytest.raises(ValueError):
            ef.select(SparseStream.zeros(11, value_dtype=np.float32))


class TestQuantizeStreamValues:
    def test_values_quantized_support_unchanged(self, rng):
        s = SparseStream.random_uniform(1000, nnz=64, rng=rng)
        q = QSGDQuantizer(bits=8, bucket_size=64, seed=0)
        out = quantize_stream_values(s, q)
        assert np.array_equal(out.indices, s.indices)
        err = np.abs(out.values.astype(np.float64) - s.values)
        norm = np.linalg.norm(s.values)
        assert np.all(err <= norm / 127 + 1e-6)

    def test_wire_bytes_annotation(self, rng):
        s = SparseStream.random_uniform(1 << 16, nnz=512, rng=rng)
        q = QSGDQuantizer(bits=4, bucket_size=512, seed=0)
        out = quantize_stream_values(s, q)
        assert out.value_wire_bytes is not None
        assert out.nbytes_payload < s.nbytes_payload

    def test_empty_stream(self):
        q = QSGDQuantizer(bits=4, seed=0)
        out = quantize_stream_values(SparseStream.zeros(100), q)
        assert out.nnz == 0
        assert out.value_wire_bytes == 0.5

    def test_dense_rejected(self):
        q = QSGDQuantizer(bits=4, seed=0)
        with pytest.raises(ValueError):
            quantize_stream_values(
                SparseStream(4, dense=np.zeros(4, dtype=np.float32)), q
            )
