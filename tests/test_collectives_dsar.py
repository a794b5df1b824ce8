"""Tests for DSAR_Split_allgather and its quantized dense stage (§5.3.3, §6)."""

import hashlib

import numpy as np
import pytest

from repro.collectives import dsar_split_allgather, ssar_split_allgather
from repro.quant import QSGDQuantizer
from repro.runtime import run_ranks
from repro.streams import MAX, MIN, SUM, SparseStream

from conftest import make_rank_stream, reference_sum


def run_dsar(nranks, dim, nnz, quantizer_factory=None, seed=7000):
    def prog(comm):
        q = quantizer_factory(comm.rank) if quantizer_factory else None
        return dsar_split_allgather(comm, make_rank_stream(dim, nnz, comm.rank, seed), quantizer=q)

    return run_ranks(prog, nranks), reference_sum(dim, nnz, nranks, seed)


class TestDSAR:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_correct_and_dense(self, nranks):
        out, ref = run_dsar(nranks, 2048, 64)
        for r in range(nranks):
            assert out[r].is_dense  # the defining representation switch
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)

    @pytest.mark.parametrize("nranks", [3, 5, 6])
    def test_non_power_of_two(self, nranks):
        out, ref = run_dsar(nranks, 1024, 32)
        for r in range(nranks):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)

    def test_high_fill_in(self):
        """The DSAR regime: K > delta — result must still be exact."""
        out, ref = run_dsar(8, 512, 128)  # E[K] ~ 0.87 * 512 > delta=256
        assert np.allclose(out[0].to_dense(), ref, atol=1e-4)

    def test_empty(self):
        out, _ = run_dsar(4, 256, 0)
        assert out[0].is_dense
        assert out[0].stored_nonzeros == 0

    def test_results_identical_across_ranks(self):
        out, _ = run_dsar(4, 1024, 100)
        base = out[0].to_dense()
        for r in range(1, 4):
            assert np.array_equal(out[r].to_dense(), base)


def in_domain_streams(nranks, op, negative_zeros=False, dim=2048, nnz=700):
    """Heavily overlapping per-rank streams with ``op(neutral, x) == x``
    (MAX's neutral 0 is one only for non-negative data, MIN's for non-positive)."""
    streams = []
    for rank in range(nranks):
        s = make_rank_stream(dim, nnz, rank)
        values = {SUM: s.values, MAX: np.abs(s.values), MIN: -np.abs(s.values)}[op].copy()
        if negative_zeros:
            values[rank::5] = -0.0
        streams.append(SparseStream(dim, indices=s.indices, values=values))
    return streams


class TestDenseFoldMatchesTheSparseFold:
    """The owner scatters each piece into a dense block instead of merging
    pair lists and densifying the union: same pieces, same order, same
    float association, so the same bits as SSAR's split phase."""

    @staticmethod
    def both(streams, op):
        dsar = run_ranks(lambda c: dsar_split_allgather(c, streams[c.rank], op=op), len(streams))
        ssar = run_ranks(lambda c: ssar_split_allgather(c, streams[c.rank], op=op), len(streams))
        assert all(out.is_dense for out in dsar)
        return dsar[0].to_dense(), ssar[0].to_dense(fill=op.neutral)

    @pytest.mark.parametrize("op", [SUM, MIN, MAX], ids=lambda op: op.name)
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_bitwise_without_negative_zeros(self, nranks, op):
        got, want = self.both(in_domain_streams(nranks, op), op)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("op", [SUM, MIN, MAX], ids=lambda op: op.name)
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_numerically_with_negative_zeros(self, nranks, op):
        got, want = self.both(in_domain_streams(nranks, op, negative_zeros=True), op)
        assert np.array_equal(got, want)  # -0.0 == +0.0 here, everything else exact

    def test_lone_negative_zero_comes_out_positive(self):
        """The one permitted bit difference: the fold starts from the
        neutral element, and ``0.0 + -0.0`` is ``+0.0`` under SUM."""
        streams = [
            SparseStream(8, indices=[1, 5], values=[-0.0, 2.0]),
            SparseStream(8, indices=[1, 6], values=[-0.0, -3.0]),
        ]
        got, want = self.both(streams, SUM)
        assert np.array_equal(got, want)
        assert np.signbit(want[1]) and not np.signbit(got[1])
        assert np.array_equal(np.signbit(got[[5, 6]]), np.signbit(want[[5, 6]]))


class TestQuantizedDSAR:
    def test_same_seed_same_bits_as_recorded(self):
        """Digest recorded from the implementation that merged the
        partition sparse, densified it afterwards and ran the per-entry
        QSGD formula: neither the dense fold nor the bucket-shaped kernels
        may move a bit of a seeded quantized run."""
        def prog(comm):
            stream = SparseStream.random_uniform(4096, 1500, np.random.default_rng(7000 + comm.rank))
            q = QSGDQuantizer(bits=4, bucket_size=128, seed=100 + comm.rank)
            return dsar_split_allgather(comm, stream, quantizer=q)

        out = run_ranks(prog, 4)
        digests = {hashlib.sha256(o.to_dense().tobytes()).hexdigest() for o in out}
        assert digests == {"ba247f6e4363e3a7c88a1679e5eaa7a14911ea72f0ef91f608450c1f17697f0e"}

    def test_single_rank_quantizes_its_partition(self):
        """P=1 is not a bypass: the lone rank owns the single partition and
        must quantize it exactly once, so the result follows the same
        distribution as every P>1 run (each partition quantized once by
        its owner)."""
        dim, nnz = 1024, 200
        out, ref = run_dsar(
            1, dim, nnz, quantizer_factory=lambda r: QSGDQuantizer(bits=4, bucket_size=128, seed=5)
        )
        assert out[0].is_dense
        # bit-for-bit what the owner-rank quantization pipeline produces
        q = QSGDQuantizer(bits=4, bucket_size=128, seed=5)
        expect = q.dequantize(q.quantize(ref.astype(np.float32))).astype(np.float32)
        assert np.array_equal(out[0].to_dense(), expect)
        # and genuinely quantized: 4-bit codes cannot reproduce the input
        assert not np.array_equal(out[0].to_dense(), ref)

    def test_single_rank_without_quantizer_still_exact(self):
        out, ref = run_dsar(1, 512, 64)
        assert out[0].is_dense
        assert np.array_equal(out[0].to_dense(), ref)

    def test_quantized_result_close_to_exact(self):
        """8-bit quantization of the dense stage: small relative error."""
        dim, nnz, P = 4096, 256, 4
        out, ref = run_dsar(
            P, dim, nnz, quantizer_factory=lambda r: QSGDQuantizer(bits=8, bucket_size=256, seed=7)
        )
        err = np.linalg.norm(out[0].to_dense() - ref) / max(np.linalg.norm(ref), 1e-12)
        assert err < 0.05

    def test_quantized_results_identical_across_ranks(self):
        """Each partition is quantized once by its owner, so all ranks
        dequantize the same codes and agree bit-for-bit."""
        out, _ = run_dsar(
            4, 2048, 128,
            quantizer_factory=lambda r: QSGDQuantizer(bits=4, bucket_size=128, seed=100 + r),
        )
        base = out[0].to_dense()
        for r in range(1, 4):
            assert np.array_equal(out[r].to_dense(), base)

    def test_quantized_moves_fewer_bytes(self):
        dim, nnz, P = 1 << 15, 512, 4
        out_fp, _ = run_dsar(P, dim, nnz)
        out_q, _ = run_dsar(
            P, dim, nnz, quantizer_factory=lambda r: QSGDQuantizer(bits=4, bucket_size=512, seed=1)
        )
        # allgather phase dominated by dense payload: ~8x shrink at 4 bits
        ratio = out_fp.trace.total_bytes_sent / out_q.trace.total_bytes_sent
        assert ratio > 3.0

    def test_error_scales_with_bits(self):
        """Relative error decreases with bits and respects the QSGD variance
        bound E||Q(v)-v||^2 <= min(d/s^2, sqrt(d)/s) ||v||^2 (App. C)."""
        from repro.quant import quantization_variance_bound

        errs = {}
        for bits in (2, 4, 8):
            out, ref = run_dsar(
                4, 2048, 128,
                quantizer_factory=lambda r, b=bits: QSGDQuantizer(bits=b, bucket_size=128, seed=3),
            )
            errs[bits] = float(
                np.linalg.norm(out[0].to_dense() - ref) / max(np.linalg.norm(ref), 1e-12)
            )
        assert errs[8] < errs[4] < errs[2]
        for bits, err in errs.items():
            # bound on E||Q(v)-v||^2 / ||v||^2 is the variance factor - 1
            bound = np.sqrt(quantization_variance_bound(bits, 128) - 1.0)
            assert err < 3.0 * bound + 0.05, f"{bits}-bit error {err} above bound {bound}"

    def test_unbiased_over_seeds(self):
        """Averaging quantized DSAR results over seeds approaches the truth."""
        dim, nnz, P, trials = 512, 64, 4, 30
        ref = reference_sum(dim, nnz, P)
        acc = np.zeros(dim)
        for t in range(trials):
            out, _ = run_dsar(
                P, dim, nnz,
                quantizer_factory=lambda r, t=t: QSGDQuantizer(bits=2, bucket_size=64, seed=1000 + t),
            )
            acc += out[0].to_dense()
        mean_err = np.linalg.norm(acc / trials - ref) / max(np.linalg.norm(ref), 1e-12)
        single = run_dsar(
            P, dim, nnz, quantizer_factory=lambda r: QSGDQuantizer(bits=2, bucket_size=64, seed=1000)
        )[0]
        single_err = np.linalg.norm(single[0].to_dense() - ref) / max(np.linalg.norm(ref), 1e-12)
        assert mean_err < single_err  # averaging reduces the zero-mean noise
