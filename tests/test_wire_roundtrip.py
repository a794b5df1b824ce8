"""Wire fidelity across every backend (ISSUE 2, satellite).

The §5.1 wire format must round-trip every stream variant the library
produces — float16 values, quantized streams annotated with fractional
``value_wire_bytes``, and pickle-fallback containers that *hold* streams —
identically whether the transport is in-process queues (``thread``),
pipes (``process``), shared-memory rings (``shmem``) or a TCP mesh
(``socket``). Codec-level
round-trips (including the zero-copy decode) are asserted directly on
:mod:`repro.runtime.wire`; transport-level fidelity by echoing payloads
between two real ranks per backend.
"""

import numpy as np
import pytest

from repro.quant import QSGDQuantizer
from repro.runtime import run_ranks
from repro.runtime.context import pack_context, parse_context
from repro.runtime.wire import (
    _FRAME,
    _KIND_STREAM,
    _STREAM_HEADER,
    FLAG_SPARSE,
    decode_message,
    decode_payload,
    encode_frame_parts,
    encode_message,
    encode_payload,
    encode_payload_parts,
)
from repro.streams import SparseStream

BACKENDS = ["thread", "process", "shmem", "socket"]


def _f16_stream():
    return SparseStream(
        4096, indices=[0, 17, 400, 4095], values=[0.5, -2.0, 7.25, 1.0],
        value_dtype=np.float16,
    )


def _quantized_stream():
    s = SparseStream(2048, indices=[5, 99, 1200], values=[1.5, -3.25, 0.125])
    s.value_wire_bytes = 1.25  # Algorithm 1: low-precision values on the wire
    return s


def _container_payload():
    """A pickle-fallback container holding streams (no stream fast path)."""
    return {
        "streams": [_f16_stream(), _quantized_stream()],
        "dense": SparseStream(32, dense=np.arange(32, dtype=np.float64),
                              value_dtype=np.float64),
        "meta": ("epoch", 3, 0.125),
    }


def _assert_stream_equal(out: SparseStream, ref: SparseStream):
    assert isinstance(out, SparseStream)
    assert out.dimension == ref.dimension
    assert out.value_dtype == ref.value_dtype
    assert out.is_dense == ref.is_dense
    assert out.value_wire_bytes == ref.value_wire_bytes
    assert np.array_equal(out.to_dense(), ref.to_dense())
    if not ref.is_dense:
        assert out.indices.dtype == ref.indices.dtype
        assert np.array_equal(out.indices, ref.indices)
        assert np.array_equal(out.values, ref.values)


class TestCodecRoundTrip:
    def test_float16_stream(self):
        ref = _f16_stream()
        _assert_stream_equal(decode_payload(encode_payload(ref)), ref)

    def test_quantized_annotation_fractional_bytes(self):
        ref = _quantized_stream()
        out = decode_payload(encode_payload(ref))
        _assert_stream_equal(out, ref)
        assert out.value_wire_bytes == 1.25
        # the annotation feeds byte accounting: it must be bit-exact
        assert out.nbytes_payload == ref.nbytes_payload

    def test_container_with_streams_pickle_fallback(self):
        ref = _container_payload()
        out = decode_payload(encode_payload(ref))
        _assert_stream_equal(out["streams"][0], ref["streams"][0])
        _assert_stream_equal(out["streams"][1], ref["streams"][1])
        _assert_stream_equal(out["dense"], ref["dense"])
        assert out["meta"] == ref["meta"]

    def test_vectored_parts_match_blob_encoding(self):
        """encode_payload_parts is byte-for-byte the flat encoding."""
        for ref in (_f16_stream(), _quantized_stream(), _container_payload()):
            total, parts = encode_payload_parts(ref)
            flat = b"".join(bytes(p) for p in parts)
            assert len(flat) == total
            assert flat == bytes(encode_payload(ref))

    def test_frame_parts_match_encode_message(self):
        ref = _quantized_stream()
        total, parts = encode_frame_parts(9, 4, ref.nbytes_payload, ref)
        flat = b"".join(bytes(p) for p in parts)
        assert flat == bytes(encode_message(9, 4, ref.nbytes_payload, ref))
        assert len(flat) == total

    def test_zero_copy_decode_returns_views(self):
        ref = _f16_stream()
        blob = bytearray(encode_message(3, 0, ref.nbytes_payload, ref))
        tag, seq, nbytes, epoch, context, out = decode_message(blob, copy=False)
        _assert_stream_equal(out, ref)
        # views alias the frame buffer: flipping a byte in the blob must
        # show through (this is what the shmem in-place path relies on)
        frame = np.frombuffer(blob, dtype=np.uint8)
        assert np.shares_memory(out.indices, frame) and np.shares_memory(out.values, frame)
        before = out.values.copy()
        blob[-1] ^= 0xFF
        assert not np.array_equal(out.values, before)

    def test_copy_decode_owns_memory(self):
        ref = _f16_stream()
        blob = bytearray(encode_message(3, 0, ref.nbytes_payload, ref))
        *_, out = decode_message(blob, copy=True)
        frame = np.frombuffer(blob, dtype=np.uint8)
        assert not np.shares_memory(out.indices, frame) and not np.shares_memory(out.values, frame)
        blob[:] = b"\x00" * len(blob)
        _assert_stream_equal(out, ref)  # untouched by clobbering the frame
        out.values[0] = 9.0  # and writable
        out.indices[0] = 1

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_empty_stream_every_dtype(self, dtype):
        ref = SparseStream.zeros(123, value_dtype=dtype)
        _assert_stream_equal(decode_payload(encode_payload(ref)), ref)


#: ``encode_message(9, 4, 24, s, epoch=2)`` of ``s`` = indices [5, 99, 1200],
#: float32 values [1.5, -3.25, 0.125] in dimension 2048, value_wire_bytes 1.25,
#: written out field by field so the one-struct head cannot drift. A message
#: of the backend communicator: its context is empty.
GOLDEN_FRAME = bytes.fromhex(
    "0900000000000000" "0400000000000000" "1800000000000000" "0200000000000000"  # tag seq nbytes epoch
    "0000"  # context length: 0 bytes
    "01"  # kind: stream
    "0000000000000000" "0008000000000000" "0300000000000000"  # flag (sparse), dimension, count
    "66" "000000000000f43f"  # dtype code b"f", value_wire_bytes 1.25
    "05000000" "63000000" "b0040000"  # uint32 indices
    "0000c03f" "000050c0" "0000003e"  # float32 values
)

#: the same message sent on the three-element context ``e1.2.0`` (the first
#: child of the third child of epoch 1's world): the packed path follows
#: the fixed head, one int64 per slot.
GOLDEN_FRAME_CONTEXT = bytes.fromhex(
    "0900000000000000" "0400000000000000" "1800000000000000" "0200000000000000"  # tag seq nbytes epoch
    "1800"  # context length: 24 bytes
    "01"  # kind: stream
    "0000000000000000" "0008000000000000" "0300000000000000"  # flag (sparse), dimension, count
    "66" "000000000000f43f"  # dtype code b"f", value_wire_bytes 1.25
    "feffffffffffffff" "0200000000000000" "0000000000000000"  # context: e1, 2, 0
    "05000000" "63000000" "b0040000"  # uint32 indices
    "0000c03f" "000050c0" "0000003e"  # float32 values
)


class TestOneCopyDecode:
    """A copying decode puts a sparse frame's arrays in one fresh buffer:
    each array writable, aligned for its dtype — float64 values after an
    odd count of ``uint32`` indices start four bytes off in the frame —
    and sharing nothing with the frame or with the other array."""

    @pytest.mark.parametrize("count", [1, 2, 3, 127, 128])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_arrays_are_fresh_aligned_and_writable(self, dtype, count):
        ref = SparseStream.random_uniform(
            1 << 16, count, np.random.default_rng(count), value_dtype=dtype
        )
        blob = bytearray(encode_message(3, 0, ref.nbytes_payload, ref, context=pack_context((1, 2))))
        *_, out = decode_message(blob)
        frame = np.frombuffer(blob, dtype=np.uint8)
        for arr in (out.indices, out.values):
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
            assert not np.shares_memory(arr, frame)
        assert not np.shares_memory(out.indices, out.values)
        assert out.values.ctypes.data % np.dtype(dtype).itemsize == 0
        blob[:] = b"\xff" * len(blob)  # overwriting the source leaves them as decoded
        _assert_stream_equal(out, ref)
        values = out.values
        values *= 2  # and each can be written without touching the other
        out.indices[0] = 0
        assert np.array_equal(out.values, ref.values * 2)
        assert np.array_equal(out.indices[1:], ref.indices[1:])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_a_dense_frame_decodes_to_a_fresh_array(self, dtype):
        ref = SparseStream(33, dense=np.arange(33.0), value_dtype=dtype)
        blob = bytearray(encode_message(3, 0, ref.nbytes_payload, ref))
        *_, out = decode_message(blob)
        assert out.dense_payload.flags.writeable and out.dense_payload.flags.aligned
        assert not np.shares_memory(out.dense_payload, np.frombuffer(blob, dtype=np.uint8))
        blob[:] = b"\xff" * len(blob)
        _assert_stream_equal(out, ref)


def _golden_stream() -> SparseStream:
    s = SparseStream(2048, indices=[5, 99, 1200], values=[1.5, -3.25, 0.125],
                     value_dtype=np.float32)
    s.value_wire_bytes = 1.25
    return s


class TestSparseFrameLayout:
    """A sparse stream's frame head is packed and unpacked as one struct;
    the bytes are the frame header, the kind byte and the §5.1 stream
    header back to back, followed by the packed context."""

    def test_golden_frame(self):
        ref = _golden_stream()
        assert bytes(encode_message(9, 4, ref.nbytes_payload, ref, epoch=2)) == GOLDEN_FRAME
        tag, seq, nbytes, epoch, context, out = decode_message(GOLDEN_FRAME)
        assert (tag, seq, nbytes, epoch, context) == (9, 4, 24, 2, b"")
        _assert_stream_equal(out, ref)

    def test_golden_frame_with_a_three_element_context(self):
        ref = _golden_stream()
        key = pack_context(parse_context("e1.2.0"))
        frame = encode_message(9, 4, ref.nbytes_payload, ref, epoch=2, context=key)
        assert bytes(frame) == GOLDEN_FRAME_CONTEXT
        tag, seq, nbytes, epoch, context, out = decode_message(GOLDEN_FRAME_CONTEXT)
        assert (tag, seq, nbytes, epoch, context) == (9, 4, 24, 2, key)
        _assert_stream_equal(out, ref)

    def test_pickled_payload_carries_its_context(self):
        key = pack_context((3, 0))
        blob = encode_message(-7, 1, 8, {"k": (1, 2.5)}, epoch=1, context=key)
        assert bytes(blob[_FRAME.size + 1:][:len(key)]) == key  # right after the head
        assert decode_message(blob) == (-7, 1, 8, 1, key, {"k": (1, 2.5)})

    @pytest.mark.parametrize("frame", [GOLDEN_FRAME, GOLDEN_FRAME_CONTEXT], ids=["stream", "context"])
    def test_context_overrunning_the_frame_is_refused(self, frame):
        blob = bytearray(frame)
        blob[32:34] = (len(frame)).to_bytes(2, "little")
        with pytest.raises(ValueError, match="overruns"):
            decode_message(blob)
        pickled = bytearray(encode_message(1, 0, 8, "x", context=pack_context((5,))))
        pickled[32:34] = (len(pickled)).to_bytes(2, "little")
        with pytest.raises(ValueError, match="overruns"):
            decode_message(pickled)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("nnz", [0, 1, 37])
    @pytest.mark.parametrize("wire", [None, 0.5])
    def test_fused_head_is_the_three_headers(self, dtype, nnz, wire):
        ref = SparseStream.random_uniform(5000, nnz, np.random.default_rng(nnz), value_dtype=dtype)
        if nnz:
            ref.values[0] = np.nan  # a NaN value travels as its bits
        ref.value_wire_bytes = wire
        expected = (
            _FRAME.pack(-7, 11, 123, 3, 0)
            + bytes([_KIND_STREAM])
            + _STREAM_HEADER.pack(
                FLAG_SPARSE, 5000, nnz, np.dtype(dtype).char.encode(),
                float("nan") if wire is None else wire,
            )
            + ref.indices.tobytes()
            + ref.values.tobytes()
        )
        assert bytes(encode_message(-7, 11, 123, ref, epoch=3)) == expected
        total, parts = encode_frame_parts(-7, 11, 123, ref, 3)
        assert total == len(expected) and b"".join(bytes(p) for p in parts) == expected
        *_, out = decode_message(expected)
        assert out.value_wire_bytes == wire and out.value_dtype == np.dtype(dtype)
        assert out.indices.tobytes() == ref.indices.tobytes()
        assert out.values.tobytes() == ref.values.tobytes()

    def test_count_overrunning_the_frame_is_refused(self):
        blob = bytearray(GOLDEN_FRAME)
        blob[51] = 4  # count 3 -> 4: one pair more than the frame holds
        with pytest.raises(ValueError, match="cannot hold 4 entries"):
            decode_message(blob)
        with pytest.raises(ValueError, match="cannot hold 3 entries"):
            decode_message(GOLDEN_FRAME[:-1])

    def test_unknown_dtype_code_is_refused(self):
        blob = bytearray(GOLDEN_FRAME)
        blob[59] = ord("q")
        with pytest.raises(ValueError, match="dtype code"):
            decode_message(blob)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTransportRoundTrip:
    """The same payloads, echoed between two real ranks per backend."""

    @staticmethod
    def _echo(make_payload):
        def prog(comm):
            if comm.rank == 0:
                comm.send(make_payload(), 1, tag=11)
                return comm.recv(1, tag=12)  # echoed back
            got = comm.recv(0, tag=11)
            comm.send(got, 0, tag=12)
            return None

        return prog

    def test_float16_stream(self, backend):
        out = run_ranks(self._echo(_f16_stream), 2, backend=backend)
        _assert_stream_equal(out[0], _f16_stream())

    def test_quantized_stream_annotation(self, backend):
        out = run_ranks(self._echo(_quantized_stream), 2, backend=backend)
        ref = _quantized_stream()
        _assert_stream_equal(out[0], ref)
        assert out[0].value_wire_bytes == 1.25
        assert out[0].nbytes_payload == ref.nbytes_payload

    def test_container_holding_streams(self, backend):
        out = run_ranks(self._echo(_container_payload), 2, backend=backend)
        ref = _container_payload()
        _assert_stream_equal(out[0]["streams"][0], ref["streams"][0])
        _assert_stream_equal(out[0]["streams"][1], ref["streams"][1])
        _assert_stream_equal(out[0]["dense"], ref["dense"])
        assert out[0]["meta"] == ref["meta"]

    def test_quantized_block_payload(self, backend):
        """QSGD blocks travel by pickle fallback and dequantize identically."""
        q = QSGDQuantizer(bits=4, bucket_size=64, seed=3)
        vec = np.linspace(-1.0, 1.0, 256, dtype=np.float32)
        block = q.quantize(vec)

        def prog(comm):
            if comm.rank == 0:
                comm.send(block, 1, tag=1)
                return None
            return q.dequantize(comm.recv(0, tag=1))

        out = run_ranks(prog, 2, backend=backend)
        assert np.array_equal(out[1], q.dequantize(block))

    def test_a_received_stream_scales_in_place(self, backend):
        """What a receive returns is the receiver's to write: a float64
        stream of an odd count (values four bytes off in the frame)
        scales in place."""
        ref = SparseStream(4096, indices=[1, 50, 900], values=[0.5, -2.0, 3.0], value_dtype=np.float64)

        def prog(comm):
            if comm.rank == 0:
                comm.send(ref, 1, tag=3)
                return None
            got = comm.recv(0, tag=3)
            return got.values.flags.aligned, got.iscale(4.0)

        aligned, out = run_ranks(prog, 2, backend=backend)[1]
        assert aligned
        assert np.array_equal(out.values, ref.values * 4.0) and np.array_equal(out.indices, ref.indices)

    def test_byte_accounting_identical(self, backend):
        """Trace byte counts are payload properties, not transport ones."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(_quantized_stream(), 1, tag=2)
            else:
                comm.recv(0, tag=2)

        out = run_ranks(prog, 2, backend=backend)
        sends = [e for e in out.trace.events(0) if e.op == "send"]
        assert sends[0].nbytes == _quantized_stream().nbytes_payload
