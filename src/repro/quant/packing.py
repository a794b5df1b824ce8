"""Bit packing for low-precision payloads.

QSGD payloads are small unsigned integers (sign bit + magnitude levels) that
must be packed densely to realise the bandwidth savings: at 4 bits per entry,
two entries share one byte. We support the widths the paper ships (2, 4 and
8 bits per entry) plus 1-bit for sign-only schemes; all of these divide 8,
which keeps the packing a pure reshape/shift — fully vectorised.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_integers", "unpack_integers", "packed_nbytes", "SUPPORTED_BITS"]

SUPPORTED_BITS = (1, 2, 4, 8)


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes needed to pack ``count`` integers of ``bits`` bits each."""
    _check_bits(bits)
    per_byte = 8 // bits
    return (count + per_byte - 1) // per_byte


def pack_integers(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack an array of integers in ``[0, 2**bits)`` into a uint8 buffer.

    The layout is little-endian within the byte: element ``i`` of a byte
    occupies bits ``[i*bits, (i+1)*bits)``. Trailing slots of the final byte
    are zero. At 8 bits a code is a byte and nothing is packed: a contiguous
    uint8 input comes back as it is, not as a copy.

    Raises ``ValueError`` for a code outside the range, checked on the
    caller's dtype (300 must not pass as ``300 % 256``).
    """
    _check_bits(bits)
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError(f"expected 1-D code array, got shape {codes.shape}")
    # a uint8 at 8 bits cannot be out of range: nothing to scan
    if codes.size and not (bits == 8 and codes.dtype == np.uint8):
        for extreme in (codes.min(), codes.max()):
            if not 0 <= extreme < (1 << bits):
                raise ValueError(f"code {extreme} does not fit in {bits} bits")
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if bits == 8:
        return codes
    per_byte = 8 // bits
    padded_len = packed_nbytes(codes.size, bits) * per_byte
    if padded_len != codes.size:
        padded = np.zeros(padded_len, dtype=np.uint8)
        padded[: codes.size] = codes
        codes = padded
    lanes = codes.reshape(-1, per_byte)
    out = np.zeros(lanes.shape[0], dtype=np.uint8)
    for lane in range(per_byte):
        out |= lanes[:, lane] << np.uint8(lane * bits)
    return out


def unpack_integers(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_integers`; returns ``count`` uint8 codes.

    At 8 bits the result is a view of ``packed``, not a copy.
    """
    _check_bits(bits)
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    per_byte = 8 // bits
    if packed.size * per_byte < count:
        raise ValueError(
            f"packed buffer of {packed.size} bytes holds at most "
            f"{packed.size * per_byte} codes, asked for {count}"
        )
    if bits == 8:
        return packed[:count]
    mask = np.uint8((1 << bits) - 1)
    lanes = np.empty((packed.shape[0], per_byte), dtype=np.uint8)
    for lane in range(per_byte):
        lanes[:, lane] = (packed >> np.uint8(lane * bits)) & mask
    return lanes.reshape(-1)[:count].copy()


def _check_bits(bits: int) -> None:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
