"""Wire format of the process-family backends: serialized message framing.

Every message the process-family backends (pipe, pipe + shared slab, TCP)
move between rank processes is one byte frame::

    <frame header: tag, seq, nbytes, epoch, context length>
    <kind byte> [<§5.1 stream header>]   (the fixed head ends here)
    <context>                            (packed, on every frame)
    <payload body>

The context is the sending communicator's
(:mod:`~repro.runtime.context`), packed once when that communicator was
made: zero bytes for the backend communicator's own traffic, eight per
slot below it. It is deliberately not interned per channel — two bytes of
length on backend-level traffic cost less than per-channel tables that a
rejoin would have to reset.

The payload encoding has a fast path for the library's own
:class:`~repro.streams.SparseStream`, laid out the way §5.1 of the paper
describes the buffer: the *first word* is the sparse/dense flag, followed
by the dimension, dtype and the raw index/value buffers. Everything else
(scalars, arrays, tuples, quantized blocks, containers that happen to hold
streams) falls back to pickle — the transport is "pickle over pipe" with a
binary stream format where it matters for fidelity.

Allocation discipline
---------------------
A frame is built from parts — its head, its packed context and direct
(zero-copy) views of the stream's index/value arrays. A stream's head
(frame header, kind byte, stream header) is one ``struct`` call each way,
and on a byte-stream channel that call packs the frame's length word too:
the per-message cost of a small frame is mostly this bookkeeping, not its
bytes. A destination that can take the parts (the shmem backend's slab,
through :func:`encode_frame_parts`) is written part by part with no
intermediate blob; the byte-stream channels (pipe, TCP) get them joined
once (:func:`encode_message`). Either way every payload byte is copied
exactly once on the way out, and every frame size takes the same path.

The decoder reads arrays with ``np.frombuffer(view, offset=...)``: with
``copy=True`` (the default) a stream's arrays are copied out of the source
buffer in one copy, into one fresh buffer they alone view — the
receiver's MPI independent-buffer guarantee — begun early enough that the
values land aligned for their dtype (four bytes early for float64 values
after an odd count of ``uint32`` indices); with ``copy=False`` the
arrays are *views* into the caller's buffer — valid only as long as that
buffer is, and writable only if it is.
"""

from __future__ import annotations

import math
import pickle
import struct
from typing import Any

import numpy as np

from ..config import INDEX_DTYPE
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

#: frame header: tag (q), seq (q), accounted wire bytes (q), world epoch (q),
#: byte length of the packed context that follows the head (H). The epoch
#: is the elastic world version (see :mod:`~repro.runtime.elastic`): a frame
#: stamped with an epoch older than the receiver's current world is from a
#: membership that no longer exists and must not be delivered.
_FRAME = struct.Struct("<qqqqH")

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

#: a stream frame's whole head in one struct — frame header, kind byte,
#: §5.1 stream header — byte for byte what the three pack to, back to back.
_STREAM_FRAME = struct.Struct("<qqqqHBQQQcd")

#: any other frame's head: the frame header and the kind byte.
_PICKLE_FRAME = struct.Struct("<qqqqHB")

#: the length word in front of every frame on a byte-stream channel (pipe,
#: TCP) and of every rendezvous control frame: one little-endian u64, the
#: frame's length without it.
_LEN = struct.Struct("<Q")

#: each head behind the length word, so that one call packs both.
_PREFIXED = {head: struct.Struct("<Q" + head.format[1:]) for head in (_STREAM_FRAME, _PICKLE_FRAME)}


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def _frame_parts(
    tag: int, seq: int, nbytes: int, obj: Any, epoch: int, context: bytes, prefixed: bool
) -> tuple[int, list]:
    """One frame as ``(total_bytes, [head, context, *body])``.

    The head is one ``struct`` call, behind the frame's length word when
    ``prefixed`` (``total`` leaves the word out). A stream's body is its
    index/value arrays as they are — contiguous, so any buffer consumer
    takes them; nothing is copied here — anything else's one pickle blob.
    """
    if isinstance(obj, SparseStream):
        dense = obj._dense  # the codec reads the representation directly
        if dense is None:
            idx, val = np.ascontiguousarray(obj._indices), np.ascontiguousarray(obj._values)
            flag, body, size = FLAG_SPARSE, [idx, val], idx.nbytes + val.nbytes
        else:
            val = np.ascontiguousarray(dense)
            flag, body, size = FLAG_DENSE, [val], val.nbytes
        wire = math.nan if obj.value_wire_bytes is None else float(obj.value_wire_bytes)
        head, fields = _STREAM_FRAME, (
            tag, seq, nbytes, epoch, len(context), _KIND_STREAM, flag, obj.dimension,
            len(val), _DTYPE_CODES[obj.value_dtype], wire,
        )
    else:
        body = [pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)]
        head, fields = _PICKLE_FRAME, (tag, seq, nbytes, epoch, len(context), _KIND_PICKLE)
        size = len(body[0])
    total = head.size + len(context) + size
    if prefixed:  # a reader sizes its buffer by the word, so it must be one readers accept
        head, fields = _PREFIXED[head], (check_frame_size(total, "stream"), *fields)
    return total, [head.pack(*fields), context, *body]


def encode_frame_parts(
    tag: int, seq: int, nbytes: int, obj: Any, epoch: int = 0, context: bytes = b""
) -> tuple[int, list]:
    """One framed message as ``(total_bytes, [byte buffer, ...])`` (vectored).

    A stream is its head — frame header, kind byte and §5.1 stream header,
    packed as one :data:`_STREAM_FRAME` — the packed ``context``, and
    byte views of its index/value arrays; nothing is copied here.
    Anything else is the frame header and kind byte, the context and one
    pickle blob. A transport that places the parts itself (the shmem
    slab) copies each exactly once.
    """
    total, parts = _frame_parts(tag, seq, nbytes, obj, epoch, context, False)
    return total, [memoryview(part).cast("B") for part in parts]


def encode_payload_parts(obj: Any) -> tuple[int, list]:
    """One payload as ``(total_bytes, [buffer, ...])``: the parts of
    :func:`encode_frame_parts` without the frame header."""
    total, parts = encode_frame_parts(0, 0, 0, obj)
    parts[0] = parts[0][FRAME_HEADER_SIZE:]
    return total - FRAME_HEADER_SIZE, parts


def encode_payload(obj: Any) -> bytes:
    """Serialize one payload (stream fast path, pickle fallback)."""
    return encode_message(0, 0, 0, obj)[FRAME_HEADER_SIZE:]


def encode_message(
    tag: int, seq: int, nbytes: int, obj: Any, epoch: int = 0, context: bytes = b"",
    prefixed: bool = False,
) -> bytes:
    """Frame one point-to-point message for a byte-stream transport.

    The head is packed once and the parts are joined once, so each
    payload byte is copied exactly once, into the one buffer that is
    returned. ``context`` is the sending communicator's packed context
    (empty: the backend's own); ``prefixed`` puts the frame's length word
    (:data:`_LEN`) in front, packed by the head's call — and refuses a
    frame past :data:`MAX_FRAME_BYTES`, as a reader of the word would.
    """
    return b"".join(_frame_parts(tag, seq, nbytes, obj, epoch, context, prefixed)[1])


def gather_parts(parts: list, into: Any, pos: int = 0) -> None:
    """Copy the byte ``parts`` back to back into the buffer ``into`` from
    ``pos``: the one copy of every payload byte on the way out."""
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
        # the §5.1 stream header starts right after the kind byte
        head = _STREAM_HEADER.unpack_from(view, 1)
        return _decode_stream(view, 1 + _STREAM_HEADER.size, *head, copy)
    if kind == _KIND_PICKLE:
        return pickle.loads(view[1:])
    raise ValueError(f"corrupt payload: unknown kind byte {kind}")


def decode_message(
    blob: bytes | bytearray | memoryview, copy: bool = True
) -> tuple[int, int, int, int, bytes, Any]:
    """Returns ``(tag, seq, nbytes, epoch, context, payload)``, ``context``
    packed (the key the receiver queues the message under).

    A stream's head is unpacked once (:data:`_STREAM_FRAME`). A context
    length that overruns the frame is a :class:`ValueError`.
    """
    view = memoryview(blob)
    if len(view) >= _STREAM_FRAME.size and view[FRAME_HEADER_SIZE] == _KIND_STREAM:
        tag, seq, nbytes, epoch, size, _, *head = _STREAM_FRAME.unpack_from(view)
        body = _STREAM_FRAME.size + size
        context = _read_context(view, body - size, body) if size else b""
        return tag, seq, nbytes, epoch, context, _decode_stream(view, body, *head, copy)
    tag, seq, nbytes, epoch, size = _FRAME.unpack_from(view)
    body = FRAME_HEADER_SIZE + 1 + size
    context = _read_context(view, body - size, body) if size else b""
    if view[FRAME_HEADER_SIZE] != _KIND_PICKLE:
        raise ValueError(f"corrupt payload: unknown kind byte {view[FRAME_HEADER_SIZE]}")
    return tag, seq, nbytes, epoch, context, pickle.loads(view[body:])


def _read_context(view: memoryview, start: int, end: int) -> bytes:
    """The packed context at ``view[start:end]``, checked against the frame."""
    if end > len(view):
        raise ValueError(
            f"corrupt frame: a {end - start}-byte context overruns its {len(view)}-byte frame"
        )
    return bytes(view[start:end])


# ----------------------------------------------------------------------
# SparseStream <-> bytes (§5.1 buffer layout)
# ----------------------------------------------------------------------
def _decode_stream(
    view: memoryview, body: int, flag: int, dimension: int, count: int,
    code: bytes, wire: float, copy: bool,
) -> SparseStream:
    """The stream whose §5.1 header is already unpacked and whose arrays
    start at ``body``: they must fill ``view`` exactly. A sparse stream is
    built without re-validation (the header fixed its dtypes and lengths)."""
    value_dtype = _CODE_DTYPES.get(code)
    if value_dtype is None:
        raise ValueError(f"corrupt stream payload: value dtype code {code!r}")
    split = body + count * INDEX_DTYPE.itemsize if flag == FLAG_SPARSE else body
    if len(view) != split + count * value_dtype.itemsize:
        raise ValueError(f"corrupt stream payload: {len(view)} bytes cannot hold {count} entries")
    if copy:
        # one copy of the arrays into a fresh buffer (16-byte aligned), begun
        # ``shift`` bytes early so that the values land aligned too
        shift = (split - body) % value_dtype.itemsize
        view, body, split = bytearray(view[body - shift:]), shift, split - body + shift
    values = np.frombuffer(view, value_dtype, count, split)
    if flag == FLAG_SPARSE:
        indices = np.frombuffer(view, INDEX_DTYPE, count, body)
        out = SparseStream._trusted(dimension, indices, values, value_dtype)
    elif flag == FLAG_DENSE:
        out = SparseStream(dimension, dense=values, value_dtype=value_dtype, copy=False)
    else:
        raise ValueError(f"corrupt stream payload: header flag word {flag}")
    out.value_wire_bytes = None if math.isnan(wire) else wire
    return out
