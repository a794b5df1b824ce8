"""Micro-kernel wall-clock benchmarks (pytest-benchmark, multiple rounds).

These time the actual Python/NumPy kernels (not replayed models): stream
summation in all representation combinations, QSGD encode/decode, TopK
selection and bit packing. They are the library's §5.1 "Efficient
Summation" cost story and guard against performance regressions.
"""

from __future__ import annotations

import common  # noqa: F401, E402  (path bootstrap: keep before repro imports)

import pickle

import numpy as np
import pytest

from repro.core import ErrorFeedback, topk_bucket_indices, topk_global_indices
from repro.quant import QSGDQuantizer, pack_integers, qsgd, unpack_integers
from repro.runtime import Trace
from repro.runtime.wire import decode_message, encode_message
from repro.streams import SparseStream, add_streams, add_streams_, merge_sparse_pairs, summation

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


@pytest.fixture(params=["simd", "c", "numpy"])
def merge_path(request, monkeypatch):
    """Time :func:`merge_sparse_pairs` on the compiled merge with its AVX-512
    body, on its scalar body alone, then on numpy."""
    if request.param == "numpy":
        monkeypatch.setattr(summation, "_KERNEL", None)
    elif summation._KERNEL is None:
        pytest.skip("the compiled merge did not load (no cc or no cffi)")
    elif request.param == "c":
        monkeypatch.setattr(summation, "_KERNEL", summation._c_kernel(simd=False))
    elif summation.merge_implementation() != "c-avx512":
        pytest.skip("the CPU lacks avx512f, avx512vl or bmi2: no AVX-512 merge")
    return request.param


def test_kernel_merge_pairs(benchmark, sparse_pair, merge_path):
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
    if name == "latency_bound":  # ssar_rec_dbl, 128 nnz per rank: 128 + 128
        return pairs(128), pairs(128)
    pool = gen.permutation(40_399).astype(np.uint32)
    if name == "async_train_bucket":
        # one fused bucket's intra-host reduce: the non-zeros of two ranks'
        # gradients, 89 + 89 pairs of 40 399, a fifth shared (hot features);
        # the leaders then merge the two ~158-pair unions. Priced by numpy
        # call count, like latency_bound's 128 + 128
        nnz, shared = 89, 20
    else:
        # the second axis of the kernel (PR 16): with this many scattered
        # twins a boolean-mask compress is 3-5x slower than the integer
        # take. 2 528 + 2 528 pairs, 57 % shared — what async_train merged
        # while every rank's top-k padded its bucket with tied zeros
        assert name == "overlap_57_percent"
        nnz, shared = 2_528, 1_450
    support_a, support_b = np.sort(pool[:nnz]), np.sort(pool[nnz - shared: 2 * nnz - shared])
    values = gen.standard_normal(nnz).astype(np.float32)
    return (support_a, values), (support_b, values)


@pytest.mark.parametrize(
    "shape",
    [
        "merge_bound_round1",
        "merge_bound_round2",
        "latency_bound",
        "async_train_bucket",
        "overlap_57_percent",
    ],
)
def test_kernel_merge_pairs_benchmark_shapes(benchmark, shape, merge_path):
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


# the repo benchmark's dense_quant workload: P=4, 262 144 nnz per rank over
# N, so an owner folds 4 slices of ~65 536 pairs into its 262 144 partition,
# which comes out 68 % full and goes through QSGD at 8 bit / 512
PARTITION = N // 4


def test_kernel_dsar_dense_fold(benchmark):
    """The owner side of DSAR's split phase: dense += sparse, four times."""
    gen = np.random.default_rng(4)
    pieces = [SparseStream.random_uniform(PARTITION, 65_536, gen) for _ in range(4)]

    def fold():
        acc = SparseStream(PARTITION, dense=np.zeros(PARTITION, dtype=np.float32), copy=False)
        for piece in pieces:
            add_streams_(acc, piece)
        return acc

    out = benchmark(fold)
    assert out.is_dense and 0.6 < out.stored_nonzeros / PARTITION < 0.75


@pytest.fixture(scope="module")
def partition():
    gen = np.random.default_rng(5)
    block = gen.standard_normal(PARTITION).astype(np.float32)
    block[gen.random(PARTITION) >= 0.68] = 0.0
    return block


@pytest.fixture(params=["c", "numpy"])
def qsgd_path(request, monkeypatch):
    """Time QSGD on the compiled per-entry passes, then on numpy.

    An isolated loop re-faults the numpy path's 2 MB temporaries on every
    call, which a rank in the workload mostly does not: compare paths here,
    judge them on ``bench/run.py --workload dense_quant``.
    """
    if request.param == "numpy":
        monkeypatch.setattr(qsgd, "_KERNEL", None)
    elif qsgd._KERNEL is None:
        pytest.skip("the compiled QSGD passes did not load (no cc or no cffi)")
    return request.param


def test_kernel_qsgd_quantize(benchmark, partition, qsgd_path):
    q = QSGDQuantizer(bits=8, bucket_size=512, seed=0)
    block = benchmark(q.quantize, partition)
    assert block.length == PARTITION and block.packed.nbytes == PARTITION


def test_kernel_qsgd_dequantize(benchmark, partition, qsgd_path):
    q = QSGDQuantizer(bits=8, bucket_size=512, seed=0)
    block = q.quantize(partition)
    out = benchmark(q.dequantize, block)
    assert out.shape == (PARTITION,) and out.dtype == np.float32


def test_kernel_qsgd_decode_four_blocks_into_one_vector(benchmark, partition, qsgd_path):
    """What every rank does after DSAR's quantized allgather."""
    q = QSGDQuantizer(bits=8, bucket_size=512, seed=0)
    blocks = [q.quantize(partition) for _ in range(4)]
    result = np.empty(N, dtype=np.float32)

    def decode():
        for owner, block in enumerate(blocks):
            q.dequantize(block, out=result[owner * PARTITION: (owner + 1) * PARTITION])
        return result

    out = benchmark(decode)
    assert np.array_equal(out[-PARTITION:], q.dequantize(blocks[-1]))


def _mostly_zeros(size: int, nonzeros: int) -> np.ndarray:
    return SparseStream.random_uniform(size, nonzeros, np.random.default_rng(6)).to_dense()


def test_kernel_topk_global(benchmark, dense_vec):
    idx = benchmark(topk_global_indices, dense_vec, NNZ)
    assert idx.size == NNZ


def test_kernel_topk_global_mostly_zeros(benchmark):
    """async_train's whole gradient: 1 800 non-zeros of 323 196. A
    partition of the full vector is all ties (10.5 ms before selection
    followed the non-zeros)."""
    idx = benchmark(topk_global_indices, _mostly_zeros(323_196, 1_800), NNZ)
    assert idx.size == 1_800


def test_kernel_topk_bucket(benchmark, dense_vec):
    idx = benchmark(topk_bucket_indices, dense_vec, 4, 512)
    assert idx.size == (N // 512) * 4


# async_train's fused bucket: 40 399 float32, k = 32 of every 512
@pytest.mark.parametrize(
    "nonzeros, selected",
    [
        (40_399, 78 * 32 + 32),  # no zero anywhere: one 2-D partition, as for a DNN gradient
        (89, 89),  # what the workload selects from: no bucket reaches k, nothing is partitioned
        (4_040, None),  # tie-heavy: most buckets hold more than k, and 90 % tied zeros
    ],
    ids=["dense", "async_train_accumulator", "tie_heavy_10_percent"],
)
def test_kernel_topk_bucket_fused_bucket(benchmark, nonzeros, selected):
    vec = _mostly_zeros(40_399, nonzeros)
    idx = benchmark(topk_bucket_indices, vec, 32, 512)
    assert np.all(vec[idx] != 0)
    assert selected is None or idx.size == selected


def test_kernel_error_feedback_select_stream(benchmark):
    """The same bucket as the driver hands it over: ``ErrorFeedback.select``
    on an 89-pair stream adds the pairs where they fall and selects among
    the residual's tracked support, never scanning the 40 399 entries.
    Every pair ships, so each round starts from an empty residual."""
    grad = SparseStream.random_uniform(40_399, 89, np.random.default_rng(6), value_dtype=np.float32)
    feedback = ErrorFeedback(40_399, 32, 512)
    sent = benchmark(feedback.select, grad)
    assert np.array_equal(sent.indices, grad.indices)
    assert not feedback.residual.any()


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


def test_kernel_wire_frame_1k(benchmark):
    """One ~1 KB frame out and back in: the per-message codec cost of a
    small sparse allreduce (128 float32 pairs, as ``latency_bound`` sends)."""
    ref = SparseStream.random_uniform(N, 128, np.random.default_rng(5), value_dtype=np.float32)

    def roundtrip():
        return decode_message(encode_message(5, 3, ref.nbytes_payload, ref))

    tag, seq, nbytes, epoch, context, out = benchmark(roundtrip)
    assert (tag, seq, epoch, context) == (5, 3, 0, b"")
    assert np.array_equal(out.indices, ref.indices) and np.array_equal(out.values, ref.values)


def _latency_bound_trace(rank: int, steps: int) -> Trace:
    """One rank process's trace after ``steps`` latency_bound steps
    (ssar_rec_dbl at P = 4, 128 pairs): a mark, then two rounds of send,
    receive and reduce — 7 events and 2 fresh channels a step."""
    trace = Trace(4)
    for step in range(steps):
        trace.record_mark(rank, "ssar_rec_dbl")
        for rnd, (peer, nbytes) in enumerate(((rank ^ 1, 1032), (rank ^ 2, 2056))):
            tag = 65537 + 64 * step + rnd
            trace.record_send(rank, peer, tag, trace.next_seq(rank, peer, tag), nbytes)
            trace.record_recv(rank, peer, tag, 0, nbytes)
            trace.record_compute(rank, 4 * nbytes, "reduce")
    return trace


def test_kernel_trace_ship(benchmark):
    """A latency_bound round's traces going home: 4 ranks record 30 000
    steps each, export, pickle round trip (the result pipe), merge into a
    fresh trace, and one read of every event (the bench's end-of-loop count)."""
    steps = 30_000

    def ship():
        traces = [_latency_bound_trace(rank, steps) for rank in range(4)]
        shipped = {r: pickle.loads(pickle.dumps(t.export(r))) for r, t in enumerate(traces)}
        trace = Trace(4)
        trace.merge_run(shipped)
        return sum(1 for rank in range(4) for _ in trace.events(rank))

    assert benchmark.pedantic(ship, rounds=3) == 4 * 7 * steps


@pytest.fixture(scope="module")
def fused_step_world():
    """Rank 0 of a 2x2 thread world and one step's eight selected buckets
    (``async_train``'s shape: 323 196 float32 entries, top-32 of every 512).
    No other rank runs, so no row may send: the cached plans are priced
    here from each bucket's own nnz, as their first run's agreement
    round would price them."""
    from repro.collectives.api import cached_plan
    from repro.core import GradientFuser
    from repro.runtime import ThreadWorld, normalize_topology

    comm = ThreadWorld(4, topology=normalize_topology("2x2", 4)).comm(0)
    size = 323_196 // 8
    fuser = GradientFuser([(f"layer{i}", size + (4 if i == 7 else 0)) for i in range(8)], 0)
    grad = np.random.default_rng(6).standard_normal(fuser.total_size).astype(np.float32)
    feedback = fuser.make_error_feedback(32)
    sent = [ef.select(grad[b.start: b.stop]) for b, ef in zip(fuser.buckets, feedback)]
    for stream in sent:
        cached_plan(comm, stream, "ssar_hier", chunks="auto")._price(
            float(stream.nnz), "initial selection"
        )
    return comm, sent


@pytest.mark.parametrize("planned", [True, False], ids=["planned", "unplanned"])
def test_kernel_fused_step_plan(benchmark, fused_step_world, planned):
    """The calling-thread half of one 8-bucket fused step (``ssar_hier``,
    ``chunks="auto"``) that plans change: each bucket's plan resolved and
    bound to its schedule — the cached plan, holding its resolution while
    no new result arrived (planned), or a plan made afresh and priced from
    the bucket's nnz, as every call was before plans (unplanned).
    Selection is the same either way."""
    from repro.collectives.api import AllreducePlan, cached_plan

    comm, sent = fused_step_world

    def half():
        for stream in sent:
            if planned:
                plan = cached_plan(comm, stream, "ssar_hier", chunks="auto")
            else:
                plan = AllreducePlan(
                    comm, stream.dimension, stream.value_dtype, "ssar_hier", chunks="auto"
                )
                plan._price(float(stream.nnz), "initial selection")
            plan._bind(stream, None)

    benchmark(half)


@pytest.mark.parametrize("form", ["plan", "i_collective"])
def test_kernel_launch_wait(benchmark, form):
    """One launch and join of a 128-pair allreduce on a one-rank thread
    world (the collective itself is a copy): ``plan.start(stream).wait()``
    beside the callable form of ``i_collective``, which takes a fresh
    context per launch."""
    from repro.collectives import ssar_recursive_double
    from repro.collectives.api import allreduce_plan
    from repro.runtime import ThreadWorld, i_collective

    comm = ThreadWorld(1).comm(0)
    stream = SparseStream.random_uniform(N, 128, np.random.default_rng(7))
    plan = allreduce_plan(comm, N, np.float32, "ssar_rec_dbl")
    if form == "plan":
        out = benchmark(lambda: plan.start(stream).wait())
    else:
        out = benchmark(lambda: i_collective(comm, ssar_recursive_double, stream).wait())
    assert out.nnz == 128
