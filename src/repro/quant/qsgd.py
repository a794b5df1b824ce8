"""QSGD stochastic quantization (paper §6, following Alistarh et al. [4]).

Each dense vector is split into buckets of ``B`` consecutive entries (the
paper uses B on the order of 1024); every bucket is quantized independently:
the bucket's l2 norm becomes a full-precision scaling factor and each entry
is stochastically rounded to one of ``s = 2**(bits-1) - 1`` magnitude levels
plus a sign bit. The rounding is *unbiased* — ``E[Q(v)] = v`` — which is the
property Theorem 4.1's convergence proof relies on.

The packed result is a :class:`QuantizedBlock`: a uint8 code buffer (sign and
magnitude packed at ``bits`` per entry) plus one float32 scale per bucket.

Every step whose bits depend on numpy stays in numpy, so that a seeded
quantizer keeps producing the same bytes: the bucket norms come from
``np.add.reduceat`` over ``np.square(vec, dtype=float64)`` (a 2-D
``np.add.reduce(axis=1)`` over the same buckets sums in another order and
is *not* bit-equal to it), a NaN, infinite or overflowing bucket is refused
before any noise is drawn, the rounding noise is one float64
``rng.random(n)`` draw per call (a float32 or per-bucket draw would
consume the generator differently), and codes narrower than 8 bits are
packed by :mod:`.packing`.

What is left is per-entry work, in one compiled pass each way for float32
and float64 vectors (``_qsgd.c``, built at import by :mod:`repro._native`):
the codes ``floor(|x| / norm * s + noise)`` with their sign bits, and the
decode ``table[code] * scale`` rounded once into the output's dtype —
written straight into a caller's buffer (``dequantize(block, out=...)``).
Decoding reads a per-``bits`` table of ``sign * level / s`` (at most 256
float64 entries, built at import). Both passes have two bodies, chosen
once at load (:func:`qsgd_implementation`): an AVX-512 one where the CPU
has avx512f and avx512vl — eight stochastic codes a step, sixteen
decoded entries a step (two gathers from the table) — and the scalar one
for every other CPU, a bucket's last ``n % 8`` codes or ``n % 16``
decoded entries, and round-to-nearest codes. The C does only IEEE basic operations in numpy's order
and is built without contraction or fast-math, so every body equals the
numpy path bit for bit. The numpy path — float16, an
unaligned buffer, a read-only ``out``, or no compiler — is
the reference the tests hold the kernels to and the fallback: bucket
shaped, per-bucket values broadcast over a ``(buckets, B)`` view of the
full buckets plus the ragged tail, every step in place in one scratch
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import NATIVE
from ..config import DEFAULT_QSGD_BUCKET, STREAM_HEADER_BYTES
from .packing import pack_integers, unpack_integers

__all__ = ["QuantizedBlock", "QSGDQuantizer", "qsgd_implementation", "quantization_variance_bound"]

#: largest bucket norm a float32 scale can carry
_MAX_SCALE = float(np.finfo(np.float32).max)


def _decode_table(bits: int) -> np.ndarray:
    """``sign * level / s`` for every code of ``bits`` bits, as float64."""
    s = (1 << (bits - 1)) - 1
    codes = np.arange(1 << bits)
    sign = np.where(codes >> (bits - 1), -1.0, 1.0)
    return sign * (codes & s) / s


_DECODE = {bits: _decode_table(bits) for bits in (2, 4, 8)}


def _c_kernel(simd: bool):
    """``(ffi, {value dtype: codes pass}, {value dtype: decode pass}, name)``
    of ``_qsgd.c``, for the value dtypes it has passes for (float32, float64).

    With ``simd``, the codes go through ``qsgd_codes_*_simd`` (the AVX-512
    body for stochastic codes, the scalar one for round-to-nearest) and the
    decode through ``qsgd_decode_*_simd`` (the AVX-512 body).
    """
    ffi, lib = NATIVE
    suffixes = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
    body = "_simd" if simd else ""
    codes = {dt: getattr(lib, f"qsgd_codes_{t}{body}") for dt, t in suffixes.items()}
    decode = {dt: getattr(lib, f"qsgd_decode_{t}{body}") for dt, t in suffixes.items()}
    return ffi, codes, decode, "c-avx512" if simd else "c"


#: ``_qsgd.c``'s passes (built at import by :mod:`repro._native`; the AVX-512
#: bodies wherever the CPU has them), or None: the numpy path then does
#: every entry. A name of this module's own, so that a test can switch this
#: seam to numpy and leave the merge alone
_KERNEL = NATIVE and _c_kernel(simd=bool(NATIVE[1].qsgd_simd()))


def qsgd_implementation() -> str:
    """Which body :meth:`QSGDQuantizer.quantize`'s codes pass and
    :meth:`QSGDQuantizer.dequantize`'s decode both run: ``"c-avx512"`` (the
    compiled passes with the AVX-512 bodies), ``"c"`` (the scalar bodies
    only) or ``"numpy"``."""
    return "numpy" if _KERNEL is None else _KERNEL[3]


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
        with np.errstate(over="ignore"):  # an overflowing bucket is reported below
            scratch = np.square(vec, dtype=np.float64)
            norms = np.sqrt(np.add.reduceat(scratch, np.arange(0, n, B)))
        representable = norms <= _MAX_SCALE  # False for NaN and inf alike
        if not representable.all():
            bucket = int(np.argmin(representable))
            raise ValueError(
                f"cannot quantize bucket {bucket} (entries {bucket * B} to "
                f"{min(n, (bucket + 1) * B) - 1}): its l2 norm is {norms[bucket]}"
            )
        safe = np.where(norms > 0, norms, 1.0)
        noise = self._rng.random(n) if self.stochastic else None
        encode = _KERNEL and vec.flags.aligned and _KERNEL[1].get(vec.dtype)
        if encode:
            ffi = _KERNEL[0]
            codes = np.empty(n, dtype=np.uint8)
            encode(
                ffi.from_buffer(vec), n, B, ffi.from_buffer(safe), self.levels,
                ffi.NULL if noise is None else ffi.from_buffer(noise), self.bits - 1,
                ffi.from_buffer(codes),
            )
        else:  # the numpy path, in place in the squares' buffer
            np.abs(vec, out=scratch)
            body, tail = _buckets(scratch, B)
            body /= safe[: body.shape[0], None]
            tail /= safe[-1]
            scratch *= self.levels
            if noise is None:
                np.rint(scratch, out=scratch)
            else:
                scratch += noise
                np.floor(scratch, out=scratch)
            np.clip(scratch, 0, self.levels, out=scratch)
            codes = scratch.astype(np.uint8)
            codes |= (vec < 0).view(np.uint8) << np.uint8(self.bits - 1)
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
        B = block.bucket_size
        if block.scales.shape != (-(-n // B),):
            raise ValueError(f"{n} entries in buckets of {B} need {-(-n // B)} scales, "
                             f"got shape {block.scales.shape}")
        codes = unpack_integers(block.packed, block.bits, n)
        scales = block.scales.astype(np.float64)
        decode = _KERNEL and out.flags.behaved and _KERNEL[2].get(out.dtype)
        if decode:
            ffi = _KERNEL[0]
            decode(
                ffi.from_buffer(codes), n, B, ffi.from_buffer(_DECODE[block.bits]),
                ffi.from_buffer(scales), ffi.from_buffer(out),
            )
            return out
        values = _DECODE[block.bits].take(codes)
        # float64 product, rounded once into ``out``'s dtype by the ufunc
        body, tail = _buckets(values, B)
        out_body, out_tail = _buckets(out, B)
        np.multiply(body, scales[: body.shape[0], None], out=out_body)
        np.multiply(tail, scales[-1], out=out_tail)
        return out

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        """Convenience: ``dequantize(quantize(v))``."""
        return self.dequantize(self.quantize(vector))


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
