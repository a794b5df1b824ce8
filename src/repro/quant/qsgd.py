"""QSGD stochastic quantization (paper §6, following Alistarh et al. [4]).

Each dense vector is split into buckets of ``B`` consecutive entries (the
paper uses B on the order of 1024); every bucket is quantized independently:
the bucket's l2 norm becomes a full-precision scaling factor and each entry
is stochastically rounded to one of ``s = 2**(bits-1) - 1`` magnitude levels
plus a sign bit. The rounding is *unbiased* — ``E[Q(v)] = v`` — which is the
property Theorem 4.1's convergence proof relies on.

The packed result is a :class:`QuantizedBlock`: a uint8 code buffer (sign and
magnitude packed at ``bits`` per entry) plus one float32 scale per bucket.

Both kernels are bucket shaped: per-bucket quantities (the norm on the way
in, the scale on the way out) are broadcast over a ``(buckets, B)`` view of
the full buckets plus the ragged tail, never repeated per entry, and every
per-entry step runs in place in one scratch buffer. Decoding is a gather
from a per-``bits`` table of ``sign * level / s`` (at most 256 float64
entries, built at import) followed by one scale-and-cast pass that can
write straight into a caller's buffer (``dequantize(block, out=...)``).

Two things look slower than they need to be and are kept on purpose, so
that a seeded quantizer keeps producing the same bytes: the bucket norms
come from ``np.add.reduceat`` (a 2-D ``np.add.reduce(axis=1)`` over the same
buckets sums pairwise in another order and is *not* bit-equal to it), and
the rounding noise is one float64 ``rng.random(n)`` draw per call (a
float32 or per-bucket draw would consume the generator differently).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_QSGD_BUCKET, STREAM_HEADER_BYTES
from .packing import pack_integers, packed_nbytes, unpack_integers

__all__ = ["QuantizedBlock", "QSGDQuantizer", "quantization_variance_bound"]

#: largest bucket norm a float32 scale can carry
_MAX_SCALE = float(np.finfo(np.float32).max)


def _decode_table(bits: int) -> np.ndarray:
    """``sign * level / s`` for every code of ``bits`` bits, as float64."""
    s = (1 << (bits - 1)) - 1
    codes = np.arange(1 << bits)
    sign = np.where(codes >> (bits - 1), -1.0, 1.0)
    return sign * (codes & s) / s


_DECODE = {bits: _decode_table(bits) for bits in (2, 4, 8)}


@dataclass(frozen=True)
class QuantizedBlock:
    """Wire format of one quantized dense vector.

    Attributes
    ----------
    length:
        Number of encoded scalar entries.
    bits:
        Bits per entry (sign + magnitude).
    bucket_size:
        Entries per independently-scaled bucket.
    packed:
        uint8 buffer of packed codes.
    scales:
        float32 per-bucket scaling factors (the bucket l2 norms).
    value_dtype:
        dtype the decoder should produce.
    """

    length: int
    bits: int
    bucket_size: int
    packed: np.ndarray
    scales: np.ndarray
    value_dtype: np.dtype

    @property
    def nbytes_payload(self) -> int:
        """Wire bytes: header + packed codes + full-precision scales."""
        return STREAM_HEADER_BYTES + int(self.packed.nbytes) + int(self.scales.nbytes)

    def comm_nbytes(self) -> int:
        """Protocol hook used by the runtime to charge wire bytes."""
        return self.nbytes_payload


class QSGDQuantizer:
    """Bucketed stochastic quantizer with ``bits`` ∈ {2, 4, 8}.

    Parameters
    ----------
    bits:
        Total bits per entry; one bit is the sign, the rest encode the
        magnitude level, so ``s = 2**(bits-1) - 1`` levels.
    bucket_size:
        Bucket length ``B``; each bucket gets its own float32 scale.
    seed:
        Seed of the private generator used for stochastic rounding.
    stochastic:
        When False, round to the nearest level instead (biased; used only
        for diagnostics/tests).
    """

    def __init__(
        self,
        bits: int = 4,
        bucket_size: int = DEFAULT_QSGD_BUCKET,
        seed: int | None = None,
        stochastic: bool = True,
    ) -> None:
        if bits not in (2, 4, 8):
            raise ValueError(f"bits must be 2, 4 or 8, got {bits}")
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        self.bits = bits
        self.bucket_size = bucket_size
        self.levels = (1 << (bits - 1)) - 1
        self.stochastic = stochastic
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def quantize(self, vector: np.ndarray) -> QuantizedBlock:
        """Encode a dense 1-D array into a :class:`QuantizedBlock`.

        Raises ``ValueError`` for an input the codes cannot represent: a NaN
        or infinite entry, or a bucket whose l2 norm overflows its float32
        scale. Both show in the bucket norms, so the check costs one
        comparison per bucket, not a pass over the entries.
        """
        vec = np.ascontiguousarray(vector)
        if vec.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {vec.shape}")
        n = vec.shape[0]
        B = self.bucket_size
        if n == 0:
            return QuantizedBlock(
                0, self.bits, B,
                np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.float32),
                np.dtype(vec.dtype),
            )
        work = vec.astype(np.float64, copy=False)  # read only from here on
        with np.errstate(over="ignore"):  # an overflowing bucket is reported below
            scratch = work * work
            norms = np.sqrt(np.add.reduceat(scratch, np.arange(0, n, B)))
        representable = norms <= _MAX_SCALE  # False for NaN and inf alike
        if not representable.all():
            bucket = int(np.argmin(representable))
            raise ValueError(
                f"cannot quantize bucket {bucket} (entries {bucket * B} to "
                f"{min(n, (bucket + 1) * B) - 1}): its l2 norm is {norms[bucket]}"
            )
        safe = np.where(norms > 0, norms, 1.0)
        np.abs(work, out=scratch)
        body, tail = _buckets(scratch, B)
        body /= safe[: body.shape[0], None]
        tail /= safe[-1]
        scratch *= self.levels
        if self.stochastic:
            scratch += self._rng.random(n)
            np.floor(scratch, out=scratch)
        else:
            np.rint(scratch, out=scratch)
        np.clip(scratch, 0, self.levels, out=scratch)
        codes = scratch.astype(np.uint8)
        codes |= (work < 0).view(np.uint8) << np.uint8(self.bits - 1)
        return QuantizedBlock(
            length=n,
            bits=self.bits,
            bucket_size=B,
            packed=pack_integers(codes, self.bits),
            scales=norms.astype(np.float32),
            value_dtype=np.dtype(vec.dtype),
        )

    def dequantize(self, block: QuantizedBlock, out: np.ndarray | None = None) -> np.ndarray:
        """Decode a :class:`QuantizedBlock` back into a dense array.

        Parameters
        ----------
        out:
            Where to write the decoded values, in the numpy sense: a
            C-contiguous 1-D array of ``block.length`` entries of
            ``block.value_dtype`` (typically a slice of a larger result
            vector). It receives the same bits the returning form produces
            and is returned; an empty block writes nothing.
        """
        n = block.length
        if out is None:
            out = np.empty(n, dtype=block.value_dtype)
        elif out.shape != (n,) or out.dtype != block.value_dtype or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a contiguous ({n},) array of {block.value_dtype}, "
                f"got shape {out.shape}, dtype {out.dtype}"
            )
        if n == 0:
            return out
        values = _DECODE[block.bits].take(unpack_integers(block.packed, block.bits, n))
        scales = block.scales.astype(np.float64)
        # float64 product, rounded once into ``out``'s dtype by the ufunc
        body, tail = _buckets(values, block.bucket_size)
        out_body, out_tail = _buckets(out, block.bucket_size)
        np.multiply(body, scales[: body.shape[0], None], out=out_body)
        np.multiply(tail, scales[-1], out=out_tail)
        return out

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        """Convenience: ``dequantize(quantize(v))``."""
        return self.dequantize(self.quantize(vector))

    def compression_ratio(self, n: int, value_itemsize: int = 4) -> float:
        """Dense bytes divided by quantized bytes for an n-entry vector."""
        if n == 0:
            return 1.0
        buckets = (n + self.bucket_size - 1) // self.bucket_size
        qbytes = packed_nbytes(n, self.bits) + buckets * 4
        return n * value_itemsize / qbytes


def quantization_variance_bound(bits: int, bucket_size: int) -> float:
    """Upper bound on the relative second-moment blow-up of QSGD.

    From [4]: for s levels and d-dimensional buckets the quantized vector
    satisfies ``E||Q(v)||^2 <= (1 + min(d/s^2, sqrt(d)/s)) ||v||^2``. The
    convergence proof (Appendix C) folds this factor into the gradient
    second-moment constant M.
    """
    s = (1 << (bits - 1)) - 1
    if s <= 0:
        raise ValueError(f"bits={bits} gives no magnitude levels")
    d = float(bucket_size)
    return 1.0 + min(d / (s * s), np.sqrt(d) / s)


def _buckets(array: np.ndarray, bucket: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a contiguous 1-D array: its full buckets as ``(buckets, B)``, its ragged tail.

    Either may be empty; an operation on an empty view is a no-op, so
    callers broadcast per-bucket values over both without branching.
    """
    full = array.shape[0] // bucket * bucket
    return array[:full].reshape(-1, bucket), array[full:]
