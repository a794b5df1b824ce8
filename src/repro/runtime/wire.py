"""Wire format of the process-family backends: serialized message framing.

Every message the process-family backends (pipe, pipe + shared slab, TCP)
move between rank processes is one byte frame::

    <frame header: tag, seq, nbytes, epoch>  <payload>

The payload encoding has a fast path for the library's own
:class:`~repro.streams.SparseStream`, laid out the way §5.1 of the paper
describes the buffer: the *first word* is the sparse/dense flag, followed
by the dimension, dtype and the raw index/value buffers. Everything else
(scalars, arrays, tuples, quantized blocks, containers that happen to hold
streams) falls back to pickle — the transport is "pickle over pipe" with a
binary stream format where it matters for fidelity.

Allocation discipline
---------------------
The encoder is *vectored*: :func:`encode_frame_parts` returns the frame as
a list of buffer segments — a small header plus direct (zero-copy) views
of the stream's index/value arrays.  A destination that can take them
(the shmem backend's slab) is written part by part with no intermediate
blob; the byte-stream channels (pipe, TCP) join them into one
preallocated ``bytearray``, so every payload byte is copied exactly once
on the way out.

The decoder reads arrays with ``np.frombuffer(view, offset=...)``: with
``copy=True`` (the default) each array is materialised with a single copy
out of the source buffer, giving the receiver MPI's independent-buffer
guarantee; with ``copy=False`` the arrays are *views* into the caller's
buffer — valid only as long as that buffer is, and writable only if it is.
"""

from __future__ import annotations

import math
import pickle
import struct
from typing import Any

import numpy as np

from ..streams import SparseStream

__all__ = [
    "encode_message",
    "decode_message",
    "encode_payload",
    "decode_payload",
    "encode_payload_parts",
    "encode_frame_parts",
    "gather_parts",
    "FRAME_HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "check_frame_size",
    "FLAG_SPARSE",
    "FLAG_DENSE",
]

#: frame header: tag (q), seq (q), accounted wire bytes (q), world epoch (q).
#: The epoch is the elastic world version (see :mod:`~repro.runtime.elastic`):
#: a frame stamped with an epoch older than the receiver's current world is
#: from a membership that no longer exists and must not be delivered.
_FRAME = struct.Struct("<qqqq")

#: size of the frame header in bytes (transports size their buffers with it).
FRAME_HEADER_SIZE = _FRAME.size

#: largest frame any transport carries. A reader sizes its buffer from a
#: length word alone, so the word must be checkable against something: no
#: message of this library comes near 1 GiB, and a garbage word (observed:
#: 3.2 GB allocated, ``MemoryError``) almost surely exceeds it. Writers
#: refuse such a frame, readers treat the word as corruption.
MAX_FRAME_BYTES = 1 << 30


def check_frame_size(total: int, what: str) -> int:
    """``total`` if a ``what`` transport may carry a frame that long."""
    if total > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {total} bytes exceeds the {MAX_FRAME_BYTES}-byte {what} limit"
        )
    return total


#: payload kind discriminator (one byte).
_KIND_PICKLE = 0
_KIND_STREAM = 1

#: §5.1 header word values: the first word of a stream buffer.
FLAG_SPARSE = 0
FLAG_DENSE = 1

#: stream header: flag word (Q), dimension (Q), nnz/payload length (Q),
#: value dtype char (c), value_wire_bytes annotation (d; NaN = unset).
_STREAM_HEADER = struct.Struct("<QQQcd")

_DTYPE_CODES = {
    np.dtype(np.float16): b"e",
    np.dtype(np.float32): b"f",
    np.dtype(np.float64): b"d",
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def _array_buffer(arr: np.ndarray):
    """A zero-copy byte view of ``arr``'s buffer (copies only if needed)."""
    if arr.flags.c_contiguous:
        return memoryview(arr).cast("B")
    return arr.tobytes()  # non-contiguous: no byte view exists


# ----------------------------------------------------------------------
# vectored encode
# ----------------------------------------------------------------------
def encode_payload_parts(obj: Any) -> tuple[int, list]:
    """Serialize one payload as ``(total_bytes, [buffer, ...])``.

    Stream payloads come back as a small header plus direct views of the
    index/value arrays — nothing is copied here. Everything else is one
    pickle blob. Transports copy each part exactly once, into the pipe
    blob or straight into the shared-memory slab.
    """
    if isinstance(obj, SparseStream):
        wire = float("nan") if obj.value_wire_bytes is None else float(obj.value_wire_bytes)
        dtype_code = _DTYPE_CODES[obj.value_dtype]
        if obj.is_dense:
            payload = obj.dense_payload
            header = bytes([_KIND_STREAM]) + _STREAM_HEADER.pack(
                FLAG_DENSE, obj.dimension, payload.size, dtype_code, wire
            )
            parts = [header, _array_buffer(payload)]
        else:
            header = bytes([_KIND_STREAM]) + _STREAM_HEADER.pack(
                FLAG_SPARSE, obj.dimension, obj.nnz, dtype_code, wire
            )
            parts = [header, _array_buffer(obj.indices), _array_buffer(obj.values)]
    else:
        parts = [
            bytes([_KIND_PICKLE]),
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        ]
    return sum(len(p) for p in parts), parts


def encode_frame_parts(
    tag: int, seq: int, nbytes: int, obj: Any, epoch: int = 0
) -> tuple[int, list]:
    """One framed message as ``(total_bytes, [buffer, ...])`` (vectored)."""
    payload_len, parts = encode_payload_parts(obj)
    return FRAME_HEADER_SIZE + payload_len, [_FRAME.pack(tag, seq, nbytes, epoch), *parts]


def encode_payload(obj: Any) -> bytes:
    """Serialize one payload (stream fast path, pickle fallback)."""
    total, parts = encode_payload_parts(obj)
    return b"".join(bytes(p) if isinstance(p, memoryview) else p for p in parts)


def encode_message(
    tag: int, seq: int, nbytes: int, obj: Any, epoch: int = 0, head: int = 0
) -> bytearray:
    """Frame one point-to-point message for a byte-stream transport.

    Gathers the vectored parts into a single preallocated ``bytearray``,
    so each payload byte is copied exactly once — no ``tobytes()``
    staging, no ``+`` chains. The first ``head`` bytes are left blank
    for the transport's own prefix (its length word).
    """
    total, parts = encode_frame_parts(tag, seq, nbytes, obj, epoch)
    out = bytearray(head + total)
    gather_parts(parts, out, head)
    return out


def gather_parts(parts: list, into: Any, pos: int = 0) -> None:
    """Copy ``parts`` back to back into the buffer ``into`` from ``pos``:
    the one copy of every payload byte on the way out."""
    for part in parts:
        n = len(part)
        into[pos:pos + n] = part
        pos += n


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def decode_payload(blob: bytes | bytearray | memoryview, copy: bool = True) -> Any:
    """Inverse of :func:`encode_payload`.

    With ``copy=True`` decoded arrays are fresh writable buffers; with
    ``copy=False`` stream payloads are zero-copy views into ``blob``
    (read-only when ``blob`` is) — the shared-memory fast path.
    """
    view = memoryview(blob)
    kind = view[0]
    if kind == _KIND_STREAM:
        return _decode_stream(view, copy)
    if kind == _KIND_PICKLE:
        return pickle.loads(view[1:])
    raise ValueError(f"corrupt payload: unknown kind byte {kind}")


def decode_message(
    blob: bytes | bytearray | memoryview, copy: bool = True
) -> tuple[int, int, int, int, Any]:
    """Returns ``(tag, seq, nbytes, epoch, payload)``."""
    tag, seq, nbytes, epoch = _FRAME.unpack_from(blob)
    return (
        tag,
        seq,
        nbytes,
        epoch,
        decode_payload(memoryview(blob)[FRAME_HEADER_SIZE:], copy),
    )


# ----------------------------------------------------------------------
# SparseStream <-> bytes (§5.1 buffer layout)
# ----------------------------------------------------------------------
def _read_array(
    view: memoryview, offset: int, dtype: np.dtype, count: int, copy: bool
) -> np.ndarray:
    """One array out of ``view`` — a single copy, or a zero-copy view."""
    arr = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    return arr.copy() if copy else arr


def _decode_stream(view: memoryview, copy: bool = True) -> SparseStream:
    # view[0] is the kind byte; the §5.1 stream header starts right after
    flag, dimension, count, dtype_code, wire = _STREAM_HEADER.unpack_from(view, 1)
    value_dtype = _CODE_DTYPES[bytes(dtype_code)]
    body = 1 + _STREAM_HEADER.size
    if flag == FLAG_DENSE:
        dense = _read_array(view, body, value_dtype, count, copy)
        out = SparseStream(dimension, dense=dense, value_dtype=value_dtype, copy=False)
    elif flag == FLAG_SPARSE:
        from ..config import INDEX_DTYPE

        indices = _read_array(view, body, INDEX_DTYPE, count, copy)
        values = _read_array(
            view, body + count * INDEX_DTYPE.itemsize, value_dtype, count, copy
        )
        out = SparseStream(
            dimension, indices=indices, values=values, value_dtype=value_dtype, copy=False
        )
    else:
        raise ValueError(f"corrupt stream payload: header flag word {flag}")
    out.value_wire_bytes = None if math.isnan(wire) else wire
    return out
