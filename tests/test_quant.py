"""Tests for QSGD quantization and bit packing (§6).

Every test here runs three times: on the compiled per-entry passes with
the AVX-512 codes and decode bodies, on the scalar bodies alone, and on the numpy path
(the kernel handle monkeypatched away), which both compiled bodies must
match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    QSGDQuantizer,
    pack_integers,
    packed_nbytes,
    qsgd,
    quantization_variance_bound,
    unpack_integers,
)

from conftest import compiler_and_cffi, cpu_has_flags


@pytest.fixture(scope="module", autouse=True, params=["simd", "c", "numpy"])
def qsgd_path(request):
    """Which per-entry passes :class:`QSGDQuantizer` runs on for this module pass."""
    if request.param == "numpy":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsgd, "_KERNEL", None)
            yield request.param
        return
    if qsgd._KERNEL is None:
        # CI must not test the numpy path twice without saying so
        assert not compiler_and_cffi(), "cc and cffi are present but the compiled QSGD passes did not load"
        pytest.skip("no C compiler or no cffi: the numpy path is the only one")
    if request.param == "simd":
        if qsgd.qsgd_implementation() != "c-avx512":
            assert not (compiler_and_cffi() and cpu_has_flags("avx512f", "avx512vl")), (
                "cc, cffi, avx512f and avx512vl are present but the AVX-512 QSGD bodies did not load"
            )
            pytest.skip("the CPU lacks avx512f or avx512vl: the scalar bodies are the only C bodies")
        yield request.param
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsgd, "_KERNEL", qsgd._c_kernel(simd=False))
        yield request.param


class TestPacking:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_roundtrip(self, bits, rng):
        codes = rng.integers(0, 1 << bits, size=77).astype(np.uint8)
        packed = pack_integers(codes, bits)
        assert np.array_equal(unpack_integers(packed, bits, 77), codes)

    @pytest.mark.parametrize("bits,count,expected", [(8, 10, 10), (4, 10, 5), (2, 10, 3), (1, 10, 2)])
    def test_packed_nbytes(self, bits, count, expected):
        assert packed_nbytes(count, bits) == expected

    def test_empty(self):
        assert pack_integers(np.empty(0, np.uint8), 4).size == 0
        assert unpack_integers(np.empty(0, np.uint8), 4, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            pack_integers(np.array([16], np.uint8), 4)

    @pytest.mark.parametrize("codes,bits", [([300, 1], 8), ([257, 1], 2), ([256], 1)])
    def test_overflow_checked_before_the_narrowing_cast(self, codes, bits):
        """300 must not pass as 300 % 256 = 44, nor 257 as a 1."""
        with pytest.raises(ValueError, match=f"code {codes[0]} does not fit in {bits} bits"):
            pack_integers(np.array(codes), bits)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_negative_rejected(self, bits):
        with pytest.raises(ValueError, match="code -1 does not fit"):
            pack_integers(np.array([0, -1]), bits)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_wide_dtype_in_range_packs_like_uint8(self, bits):
        codes = np.arange(1 << bits, dtype=np.int64)
        assert np.array_equal(pack_integers(codes, bits), pack_integers(codes.astype(np.uint8), bits))

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            pack_integers(np.array([1], np.uint8), 3)

    def test_count_larger_than_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_integers(np.zeros(1, np.uint8), 4, 3)

    def test_compression_factor(self):
        assert packed_nbytes(1024, 4) == 512
        assert packed_nbytes(1024, 2) == 256

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**31),
        n=st.integers(0, 300),
    )
    def test_property_roundtrip(self, bits, seed, n):
        gen = np.random.default_rng(seed)
        codes = gen.integers(0, 1 << bits, size=n).astype(np.uint8)
        assert np.array_equal(unpack_integers(pack_integers(codes, bits), bits, n), codes)


def reference_quantize(vector, bits, bucket, rng, stochastic=True):
    """The straightforward per-entry formula (what the kernels must equal bit for bit)."""
    work = np.asarray(vector).astype(np.float64)
    n, levels = work.size, (1 << (bits - 1)) - 1
    starts = np.arange(0, n, bucket)
    lengths = np.diff(np.append(starts, n))
    norms = np.sqrt(np.add.reduceat(work * work, starts)) if n else np.empty(0)
    per_entry_norm = np.repeat(norms, lengths)
    safe = np.where(per_entry_norm > 0, per_entry_norm, 1.0)
    ratio = np.abs(work) / safe * levels
    level = np.floor(ratio + rng.random(n)) if stochastic else np.rint(ratio)
    level = np.clip(level, 0, levels).astype(np.uint8)
    codes = ((work < 0).astype(np.uint8) << np.uint8(bits - 1)) | level
    return codes, norms.astype(np.float32)


def reference_dequantize(codes, scales, bits, bucket, value_dtype):
    n, s = codes.size, (1 << (bits - 1)) - 1
    level = (codes & np.uint8(s)).astype(np.float64)
    sign = np.where(codes >> np.uint8(bits - 1) == 1, -1.0, 1.0)
    lengths = np.diff(np.append(np.arange(0, n, bucket), n))
    out = sign * level / s * np.repeat(scales.astype(np.float64), lengths)
    return out.astype(value_dtype)


def bits_of(array):
    return array.view(f"u{array.dtype.itemsize}")


BUCKET = 16


class TestBitIdentityWithTheReferenceFormula:
    """Seeded outputs are part of the contract: same bytes on the wire,
    same bits after decode, whatever shape the kernels take."""

    @staticmethod
    def check(vector, bits, stochastic, seed=11):
        q = QSGDQuantizer(bits=bits, bucket_size=BUCKET, seed=seed, stochastic=stochastic)
        block = q.quantize(vector)
        codes, scales = reference_quantize(
            vector, bits, BUCKET, np.random.default_rng(seed), stochastic
        )
        assert block.packed.dtype == np.uint8 and block.scales.dtype == np.float32
        assert np.array_equal(block.packed, pack_integers(codes, bits))
        assert np.array_equal(bits_of(block.scales), bits_of(scales))
        assert np.array_equal(unpack_integers(block.packed, bits, vector.size), codes)
        decoded = q.dequantize(block)
        assert decoded.dtype == vector.dtype
        want = reference_dequantize(codes, scales, bits, BUCKET, vector.dtype)
        assert np.array_equal(bits_of(decoded), bits_of(want))

    @pytest.mark.parametrize("stochastic", [True, False])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, BUCKET - 1, BUCKET, BUCKET + 1, 5 * BUCKET + 3])
    def test_lengths_around_the_bucket(self, n, bits, dtype, stochastic):
        vector = np.random.default_rng(n).standard_normal(n).astype(dtype)
        self.check(vector, bits, stochastic)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_all_zero_buckets_and_signed_zeros(self, bits, rng):
        vector = rng.standard_normal(4 * BUCKET + 5).astype(np.float32)
        vector[BUCKET: 2 * BUCKET] = 0.0  # a full bucket of norm 0
        vector[4 * BUCKET:] = -0.0  # the ragged tail, all negative zeros
        vector[3] = -0.0
        self.check(vector, bits, stochastic=True)

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        stochastic=st.booleans(),
        seed=st.integers(0, 2**31),
        n=st.one_of(
            st.sampled_from([0, 1, BUCKET - 1, BUCKET, BUCKET + 1]), st.integers(0, 200)
        ),
        density=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_property(self, bits, dtype, stochastic, seed, n, density):
        gen = np.random.default_rng(seed)
        vector = (gen.standard_normal(n) * gen.exponential(1.0)).astype(dtype)
        vector[gen.random(n) >= density] = 0.0
        self.check(vector, bits, stochastic, seed=seed)

    def test_consecutive_calls_consume_the_generator_alike(self, rng):
        """One float64 draw of n per call: the second block matches too."""
        q = QSGDQuantizer(bits=4, bucket_size=BUCKET, seed=3)
        gen = np.random.default_rng(3)
        for n in (37, 64):
            vector = rng.standard_normal(n).astype(np.float32)
            codes, _ = reference_quantize(vector, 4, BUCKET, gen)
            assert np.array_equal(q.quantize(vector).packed, pack_integers(codes, 4))


class TestDequantizeOut:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_writes_the_bits_of_the_returning_form(self, bits, dtype, rng):
        q = QSGDQuantizer(bits=bits, bucket_size=BUCKET, seed=0)
        block = q.quantize(rng.standard_normal(3 * BUCKET + 7).astype(dtype))
        out = np.empty(block.length, dtype=dtype)
        assert q.dequantize(block, out=out) is out
        assert np.array_equal(bits_of(out), bits_of(q.dequantize(block)))

    def test_into_a_slice_of_a_larger_array(self, rng):
        q = QSGDQuantizer(bits=8, bucket_size=BUCKET, seed=0)
        block = q.quantize(rng.standard_normal(2 * BUCKET + 1).astype(np.float32))
        result = np.full(block.length + 10, 7.0, dtype=np.float32)
        q.dequantize(block, out=result[4: 4 + block.length])
        assert np.array_equal(result[4: 4 + block.length], q.dequantize(block))
        assert np.all(result[:4] == 7.0) and np.all(result[4 + block.length:] == 7.0)

    def test_empty_block_is_a_no_op(self):
        """Chunked dsar_hier produces zero-length partitions."""
        q = QSGDQuantizer(bits=4, seed=0)
        block = q.quantize(np.empty(0, dtype=np.float32))
        result = np.full(6, 7.0, dtype=np.float32)
        out = q.dequantize(block, out=result[3:3])
        assert out.size == 0 and np.all(result == 7.0)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(31, dtype=np.float32),  # wrong length
            np.empty(32, dtype=np.float64),  # not the block's dtype
            np.empty((32, 1), dtype=np.float32),  # not 1-D
            np.empty(64, dtype=np.float32)[::2],  # strided: no bucket view of it
        ],
    )
    def test_unusable_out_rejected(self, out):
        q = QSGDQuantizer(bits=4, bucket_size=BUCKET, seed=0)
        block = q.quantize(np.ones(32, dtype=np.float32))
        with pytest.raises(ValueError, match="out must be"):
            q.dequantize(block, out=out)

    @pytest.mark.parametrize("scales", [1, 3], ids=["too-few", "too-many"])
    def test_block_whose_scales_do_not_fit_its_length_rejected(self, scales):
        """A block off the wire is checked before any entry is decoded."""
        q = QSGDQuantizer(bits=8, bucket_size=BUCKET, seed=0)
        block = q.quantize(np.ones(2 * BUCKET, dtype=np.float32))
        bad = qsgd.QuantizedBlock(
            block.length, 8, BUCKET, block.packed, np.ones(scales, np.float32), block.value_dtype
        )
        with pytest.raises(ValueError, match=r"need 2 scales, got shape \(%d,\)" % scales):
            q.dequantize(bad)


def _unaligned(array):
    """A contiguous copy of ``array`` that starts one byte off its alignment."""
    raw = np.empty(array.nbytes + 1, dtype=np.uint8)[1:]
    out = raw.view(array.dtype)
    out[...] = array
    assert not out.flags.aligned
    return out


def _scale_vector(n, dtype, gen):
    """Entries over many binades, a third of them zeros, some negative zeros.

    Narrower for float16, whose decoded values would overflow where a
    bucket of 262 144 entries has a norm past 65 504.
    """
    spread = 4.0 if dtype == np.float16 else 8.0
    vector = gen.standard_normal(n) * np.exp(gen.uniform(-spread, spread, n))
    vector[gen.random(n) < 0.3] = 0.0
    vector[gen.random(n) < 0.05] = -0.0
    return vector.astype(dtype)


class TestBothPathsAgree:
    """The compiled passes against the numpy path called directly, past the
    reference formula's sizes: packed codes, scales, decoded values and the
    generator's state afterwards, bit for bit."""

    LENGTHS = [0, 1, 2, 7, 64, 511, 512, 513, 1000, 1001, 4097, 65_537, 262_143, 262_144]
    BUCKETS = [1, 7, 512, 1000, None]  # None: one bucket larger than the vector

    @staticmethod
    def run(vector, bits, bucket, stochastic, seed):
        q = QSGDQuantizer(bits=bits, bucket_size=bucket, seed=seed, stochastic=stochastic)
        block = q.quantize(vector)
        decoded = q.dequantize(block)
        return block.packed.tobytes(), block.scales.tobytes(), decoded.tobytes(), q._rng.bit_generator.state

    @pytest.mark.parametrize("stochastic", [True, False], ids=["stochastic", "nearest"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_bitwise_at_scale(self, bits, dtype, stochastic, qsgd_path, monkeypatch):
        if qsgd_path == "numpy":
            pytest.skip("compares a compiled body with the numpy path: runs on the c passes")
        gen = np.random.default_rng(bits)
        for n in self.LENGTHS:
            vector = _scale_vector(n, dtype, gen)
            for bucket in self.BUCKETS:
                bucket = bucket or n + 1
                seed = n * 1009 + bucket
                got = self.run(vector, bits, bucket, stochastic, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(qsgd, "_KERNEL", None)
                    want = self.run(vector, bits, bucket, stochastic, seed)
                assert got == want, (n, bucket)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    def test_unaligned_input_and_output(self, dtype, rng):
        """A buffer the C passes may not read or write takes the numpy path."""
        vector = _scale_vector(5 * BUCKET + 3, dtype, rng)
        q = QSGDQuantizer(bits=8, bucket_size=BUCKET, seed=4)
        block = QSGDQuantizer(bits=8, bucket_size=BUCKET, seed=4).quantize(vector)
        assert q.quantize(_unaligned(vector)).packed.tobytes() == block.packed.tobytes()
        out = _unaligned(np.zeros(block.length, dtype))
        assert q.dequantize(block, out=out) is out
        assert out.tobytes() == q.dequantize(block).tobytes()


def _hard_buckets(bucket, dtype, gen):
    """Buckets of ``bucket`` entries whose codes an eight-wide body could
    get wrong: random entries with signed zeros, an all-zero bucket (safe
    divisor 1), an all-negative-zero bucket, a bucket whose one non-zero
    is its norm (ratio exactly 1: r = levels + noise, clipped), and a
    bucket of four entries of equal magnitude (ratio exactly 1/2: a
    half-integer r, the tie of round-to-nearest) with zeros after."""
    spread = gen.standard_normal(bucket) * np.exp(gen.uniform(-6, 6, bucket))
    spread[gen.random(bucket) < 0.3] = 0.0
    spread[gen.random(bucket) < 0.1] = -0.0
    single = np.zeros(bucket)
    single[bucket // 2] = -3.0
    quad = np.zeros(bucket)
    quad[:4] = [1.5, -1.5, 1.5, -1.5][: bucket]
    parts = [spread, np.zeros(bucket), np.full(bucket, -0.0), single, quad]
    return np.concatenate(parts).astype(dtype)


class TestEveryCodesBodyAgrees:
    """The fixture's codes body against the numpy path, bit for bit, where
    eight entries a step and a scalar loop could part: lengths below eight
    and ragged tails (n % 8 != 0, buckets of n % 8 != 0), zero-norm
    buckets, negative zeros, entries exactly on a level or half a level."""

    @staticmethod
    def encode(vector, bits, bucket, stochastic):
        q = QSGDQuantizer(bits=bits, bucket_size=bucket, seed=len(vector), stochastic=stochastic)
        return q.quantize(vector).packed.tobytes(), q._rng.bit_generator.state

    @pytest.mark.parametrize("stochastic", [True, False], ids=["stochastic", "nearest"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_against_numpy(self, bits, dtype, stochastic, monkeypatch):
        gen = np.random.default_rng(bits)
        for bucket in (1, 3, 4, 7, 8, 12, 16, 21, 64, 512):
            full = _hard_buckets(bucket, dtype, gen)
            for n in sorted({1, 2, 5, 7, 8, 9, 15, 17, bucket + 3, full.size - 1, full.size}):
                vector = full[:n]
                got = self.encode(vector, bits, bucket, stochastic)
                with monkeypatch.context() as patch:
                    patch.setattr(qsgd, "_KERNEL", None)
                    want = self.encode(vector, bits, bucket, stochastic)
                assert got == want, (bucket, n)

    def test_level_boundaries_land_where_the_formula_says(self):
        """Ratio 1 clips at ``levels``; ratio 1/2 rounds half to even."""
        q = QSGDQuantizer(bits=4, bucket_size=8, seed=0, stochastic=False)
        vector = np.array([0, 0, 0, -2.0, 0, 0, 0, 0] + [1.5, -1.5, 1.5, -1.5, 0, 0, 0, 0], np.float32)
        codes = unpack_integers(q.quantize(vector).packed, 4, 16)
        assert codes.tolist() == [0, 0, 0, 8 | 7, 0, 0, 0, 0] + [4, 8 | 4, 4, 8 | 4, 0, 0, 0, 0]
        stochastic = QSGDQuantizer(bits=4, bucket_size=8, seed=0)
        assert unpack_integers(stochastic.quantize(vector).packed, 4, 16)[3] == 8 | 7

    def test_the_seam_names_the_body_it_runs(self, qsgd_path):
        assert qsgd.qsgd_implementation() == {"simd": "c-avx512", "c": "c", "numpy": "numpy"}[qsgd_path]


def _decode_into_a_slice(codes, scales, bits, bucket, dtype, offset=3):
    """Decode ``codes`` into a slice ``offset`` entries into a larger
    array (so its start is not 64-byte aligned) and check that the
    entries around it are untouched."""
    n = codes.size
    block = qsgd.QuantizedBlock(n, bits, bucket, pack_integers(codes, bits), scales, np.dtype(dtype))
    result = np.full(n + offset + 16, 7.0, dtype=dtype)
    out = result[offset: offset + n]
    assert out.ctypes.data % 64 and out.flags.behaved
    assert QSGDQuantizer(bits=bits, bucket_size=bucket).dequantize(block, out=out) is out
    assert np.all(result[:offset] == 7.0) and np.all(result[offset + n:] == 7.0)
    return out.tobytes()


def _scales(count, gen):
    """Bucket scales of many binades, with 0, subnormals and float32's
    largest value among them."""
    scales = np.abs(gen.standard_normal(count) * np.exp(gen.uniform(-20, 20, count)))
    specials = [0.0, 1e-45, 3e-39, float(np.finfo(np.float32).max)]
    scales[gen.integers(0, count, len(specials))] = specials
    return scales.astype(np.float32)


class TestEveryDecodeBodyAgrees:
    """The fixture's decode body against the scalar body, the numpy path and
    the reference formula, bit for bit, where sixteen entries a step and a
    scalar loop could part: lengths around 16 and 512, buckets that end
    inside a 16-entry step, every code of every width, zero, subnormal and
    float32-max scales, and outputs that start off a 64-byte line."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_against_the_scalar_body_and_numpy(self, bits, dtype, monkeypatch):
        others = [None, qsgd._c_kernel(simd=False)] if qsgd.NATIVE else [None]
        gen = np.random.default_rng(bits)
        for n in (1, 15, 16, 17, 511, 512, 513):
            codes = gen.integers(0, 1 << bits, n).astype(np.uint8)
            for bucket in (1, 5, 17, 500):
                scales = _scales(-(-n // bucket), gen)
                got = _decode_into_a_slice(codes, scales, bits, bucket, dtype)
                want = reference_dequantize(codes, scales, bits, bucket, dtype)
                assert got == want.tobytes(), (n, bucket)
                for other in others:
                    with monkeypatch.context() as patch:
                        patch.setattr(qsgd, "_KERNEL", other)
                        assert got == _decode_into_a_slice(codes, scales, bits, bucket, dtype), (n, bucket)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("scale", [1.0, 0.0, 1e-45, float(np.finfo(np.float32).max)])
    def test_every_eight_bit_code(self, scale, dtype):
        """Code 128 (sign bit, level 0) decodes to -0.0; 255 to -scale."""
        codes = np.arange(256, dtype=np.uint8)
        scales = np.full(2, scale, dtype=np.float32)
        out = np.frombuffer(_decode_into_a_slice(codes, scales, 8, 128, dtype), dtype=dtype)
        want = reference_dequantize(codes, scales, 8, 128, dtype)
        assert out.tobytes() == want.tobytes()
        assert out[128] == 0.0 and np.signbit(out[128]) and not np.signbit(out[0])
        assert out[127] == np.float32(scale) and out[255] == -np.float32(scale)


class TestQSGD:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_roundtrip_error_bounded(self, bits, rng):
        """Per-entry error <= bucket_norm / levels."""
        q = QSGDQuantizer(bits=bits, bucket_size=64, seed=0)
        v = rng.standard_normal(256).astype(np.float32)
        out = q.roundtrip(v)
        levels = (1 << (bits - 1)) - 1
        starts = np.arange(0, 256, 64)
        norms = np.sqrt(np.add.reduceat((v.astype(np.float64)) ** 2, starts))
        bound = np.repeat(norms, 64) / levels
        assert np.all(np.abs(out - v) <= bound * (1 + 1e-5))

    def test_zero_vector(self):
        q = QSGDQuantizer(bits=4, bucket_size=16, seed=0)
        out = q.roundtrip(np.zeros(40, dtype=np.float32))
        assert np.array_equal(out, np.zeros(40, dtype=np.float32))

    def test_empty_vector(self):
        q = QSGDQuantizer(bits=4, seed=0)
        block = q.quantize(np.empty(0, dtype=np.float32))
        assert block.length == 0
        assert q.dequantize(block).size == 0

    def test_sign_preserved(self, rng):
        q = QSGDQuantizer(bits=8, bucket_size=32, seed=1)
        v = rng.standard_normal(128).astype(np.float32)
        out = q.roundtrip(v)
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(v[nz]))

    def test_unbiasedness(self):
        """E[Q(v)] ~= v: average many independent quantizations."""
        v = np.array([0.3, -0.7, 0.05, 0.9, -0.2], dtype=np.float32)
        trials = 3000
        acc = np.zeros(5, dtype=np.float64)
        q = QSGDQuantizer(bits=2, bucket_size=5, seed=99)
        for _ in range(trials):
            acc += q.roundtrip(v)
        mean = acc / trials
        norm = float(np.linalg.norm(v))
        # standard error of the level estimate is <= norm/sqrt(trials)
        assert np.all(np.abs(mean - v) < 4 * norm / np.sqrt(trials))

    def test_deterministic_mode_round_to_nearest(self):
        q = QSGDQuantizer(bits=8, bucket_size=4, seed=0, stochastic=False)
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)  # norm = 1
        out = q.roundtrip(v)
        assert out[0] == pytest.approx(1.0, abs=1e-6)

    def test_last_partial_bucket(self, rng):
        q = QSGDQuantizer(bits=4, bucket_size=64, seed=0)
        v = rng.standard_normal(100).astype(np.float32)  # 64 + 36
        block = q.quantize(v)
        assert block.scales.shape == (2,)
        assert q.dequantize(block).shape == (100,)

    def test_wire_bytes_smaller_than_dense(self):
        q = QSGDQuantizer(bits=4, bucket_size=512, seed=0)
        v = np.ones(4096, dtype=np.float32)
        block = q.quantize(v)
        assert block.nbytes_payload < v.nbytes // 4  # >4x compression

    def test_seeded_reproducibility(self, rng):
        v = rng.standard_normal(64).astype(np.float32)
        out1 = QSGDQuantizer(bits=4, bucket_size=16, seed=5).roundtrip(v)
        out2 = QSGDQuantizer(bits=4, bucket_size=16, seed=5).roundtrip(v)
        assert np.array_equal(out1, out2)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QSGDQuantizer(bits=3)

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            QSGDQuantizer(bits=4, bucket_size=0)

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError):
            QSGDQuantizer(bits=4).quantize(np.zeros((2, 2), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_non_finite_entry_names_its_bucket(self, bad, dtype, recwarn):
        """Not a platform-defined float -> uint8 cast and a bucket of NaN."""
        v = np.ones(40, dtype=dtype)
        v[37] = bad  # the ragged third bucket
        v[20] = bad  # first offender: the second bucket
        with pytest.raises(ValueError, match=r"bucket 1 \(entries 16 to 31\)"):
            QSGDQuantizer(bits=8, bucket_size=16, seed=0).quantize(v)
        assert not recwarn.list

    def test_overflowing_square_sum_rejected(self, recwarn):
        """Every entry finite, the float64 norm is not."""
        v = np.ones(40, dtype=np.float64)
        v[33] = 1e200
        with pytest.raises(ValueError, match=r"bucket 2 \(entries 32 to 39\).*inf"):
            QSGDQuantizer(bits=4, bucket_size=16, seed=0).quantize(v)
        assert not recwarn.list

    def test_norm_beyond_the_float32_scale_rejected(self):
        v = np.full(16, 3e38, dtype=np.float64)  # norm 1.2e39 > float32 max
        with pytest.raises(ValueError, match="bucket 0"):
            QSGDQuantizer(bits=4, bucket_size=16, seed=0).quantize(v)

    def test_rejected_input_draws_no_noise(self, rng):
        """A refused call leaves the generator where it was."""
        q = QSGDQuantizer(bits=4, bucket_size=16, seed=9)
        with pytest.raises(ValueError):
            q.quantize(np.array([np.nan], dtype=np.float32))
        v = rng.standard_normal(50).astype(np.float32)
        fresh = QSGDQuantizer(bits=4, bucket_size=16, seed=9)
        assert np.array_equal(q.quantize(v).packed, fresh.quantize(v).packed)

    @settings(max_examples=30, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        bucket=st.sampled_from([8, 64, 512]),
        seed=st.integers(0, 2**31),
        n=st.integers(1, 600),
    )
    def test_property_error_within_qsgd_bound(self, bits, bucket, seed, n):
        gen = np.random.default_rng(seed)
        v = (gen.standard_normal(n) * gen.exponential(1.0)).astype(np.float32)
        q = QSGDQuantizer(bits=bits, bucket_size=bucket, seed=seed)
        out = q.roundtrip(v)
        levels = (1 << (bits - 1)) - 1
        starts = np.arange(0, n, bucket)
        norms = np.sqrt(np.add.reduceat(v.astype(np.float64) ** 2, starts))
        lengths = np.diff(np.append(starts, n))
        bound = np.repeat(norms, lengths) / levels
        assert np.all(np.abs(out.astype(np.float64) - v) <= bound + 1e-6)


class TestVarianceBound:
    def test_matches_qsgd_paper_form(self):
        # s=7 (4 bits), d=512: 1 + min(512/49, sqrt(512)/7)
        expected = 1 + min(512 / 49, np.sqrt(512) / 7)
        assert quantization_variance_bound(4, 512) == pytest.approx(expected)

    def test_more_bits_less_variance(self):
        assert quantization_variance_bound(8, 512) < quantization_variance_bound(4, 512)
        assert quantization_variance_bound(4, 512) < quantization_variance_bound(2, 512)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantization_variance_bound(1, 512)
