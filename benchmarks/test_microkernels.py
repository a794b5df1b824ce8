"""Micro-kernel wall-clock benchmarks (pytest-benchmark, multiple rounds).

These time the actual Python/NumPy kernels (not replayed models): stream
summation in all representation combinations, QSGD encode/decode, TopK
selection and bit packing. They are the library's §5.1 "Efficient
Summation" cost story and guard against performance regressions.
"""

from __future__ import annotations

import common  # noqa: F401, E402  (path bootstrap: keep before repro imports)

import numpy as np
import pytest

from repro.core import topk_bucket_indices, topk_global_indices
from repro.quant import QSGDQuantizer, pack_integers, unpack_integers
from repro.streams import SparseStream, add_streams, merge_sparse_pairs

N = 1 << 20
NNZ = 10_000


@pytest.fixture(scope="module")
def sparse_pair():
    gen = np.random.default_rng(1)
    a = SparseStream.random_uniform(N, NNZ, gen)
    b = SparseStream.random_uniform(N, NNZ, gen)
    return a, b


@pytest.fixture(scope="module")
def dense_vec():
    return np.random.default_rng(2).standard_normal(N).astype(np.float32)


def test_kernel_sparse_sparse_sum(benchmark, sparse_pair):
    a, b = sparse_pair
    out = benchmark(add_streams, a, b)
    assert out.nnz <= 2 * NNZ


def test_kernel_merge_pairs(benchmark, sparse_pair):
    a, b = sparse_pair
    idx, val = benchmark(merge_sparse_pairs, a.indices, a.values, b.indices, b.values)
    assert idx.size <= 2 * NNZ


def _benchmark_shape(name: str):
    """The (idx, val) operand pairs of the repo benchmark's large merges."""
    gen = np.random.default_rng(3)

    def pairs(nnz: int):
        stream = SparseStream.random_uniform(N, nnz, gen)
        return stream.indices, stream.values

    if name == "merge_bound_round1":  # ssar_rec_dbl, P=4, d=5 %: 52 429 + 52 429
        return pairs(52_429), pairs(52_429)
    if name == "merge_bound_round2":  # the two round-1 unions: ~102 k + ~102 k
        return (
            merge_sparse_pairs(*pairs(52_429), *pairs(52_429)),
            merge_sparse_pairs(*pairs(52_429), *pairs(52_429)),
        )
    if name == "dense_quant_split":  # last fold of the split phase: 160 k + 65 k
        return pairs(160_000), pairs(65_536)
    assert name == "async_train_bucket"  # top-k of like gradients: 2 528 + 2 528, 57 % shared
    pool = gen.permutation(40_399).astype(np.uint32)
    support_a, support_b = np.sort(pool[:2_528]), np.sort(pool[1_078:3_606])
    values = gen.standard_normal(2_528).astype(np.float32)
    return (support_a, values), (support_b, values)


@pytest.mark.parametrize(
    "shape",
    ["merge_bound_round1", "merge_bound_round2", "dense_quant_split", "async_train_bucket"],
)
def test_kernel_merge_pairs_benchmark_shapes(benchmark, shape):
    (idx_a, val_a), (idx_b, val_b) = _benchmark_shape(shape)
    idx, val = benchmark(merge_sparse_pairs, idx_a, val_a, idx_b, val_b)
    assert max(idx_a.size, idx_b.size) <= idx.size <= idx_a.size + idx_b.size
    assert val.dtype == np.float32 and np.all(idx[1:] > idx[:-1])


def test_kernel_dense_dense_sum(benchmark, dense_vec):
    a = SparseStream(N, dense=dense_vec)
    b = SparseStream(N, dense=dense_vec)
    out = benchmark(add_streams, a, b)
    assert out.is_dense


def test_kernel_sparse_into_dense(benchmark, sparse_pair, dense_vec):
    a, _ = sparse_pair
    d = SparseStream(N, dense=dense_vec)
    out = benchmark(add_streams, d, a)
    assert out.is_dense


def test_kernel_qsgd_quantize(benchmark, dense_vec):
    q = QSGDQuantizer(bits=4, bucket_size=1024, seed=0)
    block = benchmark(q.quantize, dense_vec)
    assert block.length == N


def test_kernel_qsgd_dequantize(benchmark, dense_vec):
    q = QSGDQuantizer(bits=4, bucket_size=1024, seed=0)
    block = q.quantize(dense_vec)
    out = benchmark(q.dequantize, block)
    assert out.shape == (N,)


def test_kernel_topk_global(benchmark, dense_vec):
    idx = benchmark(topk_global_indices, dense_vec, NNZ)
    assert idx.size == NNZ


def test_kernel_topk_bucket(benchmark, dense_vec):
    idx = benchmark(topk_bucket_indices, dense_vec, 4, 512)
    assert idx.size == (N // 512) * 4


def test_kernel_pack_unpack(benchmark):
    codes = np.random.default_rng(3).integers(0, 16, size=N, dtype=np.uint8)

    def roundtrip():
        return unpack_integers(pack_integers(codes, 4), 4, N)

    out = benchmark(roundtrip)
    assert np.array_equal(out, codes)


def test_kernel_stream_to_dense(benchmark, sparse_pair):
    a, _ = sparse_pair
    out = benchmark(a.to_dense)
    assert out.shape == (N,)
