"""Sparse streams: the data representation at the heart of SparCML (§5.1).

A :class:`SparseStream` stores a length-``N`` vector either

* **sparse** — as parallel arrays of sorted unique ``uint32`` indices and
  their values, or
* **dense** — as a contiguous value array of length ``N``.

Every stream carries the sparse/dense flag that the paper stores in the first
word of the buffer; representation switching happens automatically when the
estimated fill-in exceeds the threshold ``delta = N*isize/(c+isize)``.

The class is deliberately *value-semantics friendly*: arithmetic helpers
return new streams (or mutate ``self`` explicitly via the ``i``-prefixed
methods) and never alias caller-provided arrays unless ``copy=False`` is
requested.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..config import (
    INDEX_BYTES,
    INDEX_DTYPE,
    STREAM_HEADER_BYTES,
    DEFAULT_VALUE_DTYPE,
    delta_threshold,
    validate_value_dtype,
)

__all__ = ["SparseStream"]


class SparseStream:
    """A vector of dimension ``N`` stored sparse or dense with a flag header.

    Parameters
    ----------
    dimension:
        Universe size ``N``.
    indices, values:
        Sparse payload. ``indices`` must be convertible to sorted unique
        ``uint32``; ``values`` must have the same length.
    dense:
        Dense payload (mutually exclusive with ``indices``/``values``).
    value_dtype:
        Value representation; one of float16/float32/float64.
    copy:
        If False, trusts and aliases the provided arrays (they must already
        be of the correct dtype, and indices sorted unique).
    """

    __slots__ = ("dimension", "value_dtype", "_indices", "_values", "_dense", "value_wire_bytes")

    def __init__(
        self,
        dimension: int,
        *,
        indices: np.ndarray | Iterable[int] | None = None,
        values: np.ndarray | Iterable[float] | None = None,
        dense: np.ndarray | None = None,
        value_dtype: np.dtype | type = DEFAULT_VALUE_DTYPE,
        copy: bool = True,
    ) -> None:
        if dimension < 0:
            raise ValueError(f"dimension must be non-negative, got {dimension}")
        self.dimension = int(dimension)
        self.value_dtype = validate_value_dtype(value_dtype)
        #: effective wire bytes per value when the values travel quantized
        #: (Algorithm 1 sends Q(TopK(acc)): low-precision values with full
        #: uint32 indices). None means full-precision values on the wire.
        self.value_wire_bytes: float | None = None

        if dense is not None:
            if indices is not None or values is not None:
                raise ValueError("provide either dense or (indices, values), not both")
            arr = np.asarray(dense, dtype=self.value_dtype)
            if arr.ndim != 1 or arr.shape[0] != self.dimension:
                raise ValueError(
                    f"dense payload must be 1-D of length {self.dimension}, got shape {arr.shape}"
                )
            self._dense = np.array(arr, copy=True) if copy else arr
            self._indices = None
            self._values = None
            return

        if (indices is None) != (values is None):
            raise ValueError("indices and values must be provided together")
        if indices is None:
            indices = np.empty(0, dtype=INDEX_DTYPE)
            values = np.empty(0, dtype=self.value_dtype)

        if copy:
            idx = np.asarray(indices)
            val = np.asarray(values, dtype=self.value_dtype)
            if idx.shape != val.shape or idx.ndim != 1:
                raise ValueError(
                    f"indices and values must be 1-D of equal length, got {idx.shape} vs {val.shape}"
                )
            if idx.size and (idx.min() < 0 or idx.max() >= self.dimension):
                raise IndexError(
                    f"indices out of range for dimension {self.dimension}: "
                    f"[{idx.min()}, {idx.max()}]"
                )
            idx = idx.astype(INDEX_DTYPE, copy=True)
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            val = np.array(val[order], copy=True)
            if idx.size > 1 and np.any(idx[1:] == idx[:-1]):
                raise ValueError("duplicate indices in sparse stream payload")
        else:
            idx = indices  # type: ignore[assignment]
            val = values  # type: ignore[assignment]
        self._indices = idx
        self._values = val
        self._dense = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, dimension: int, value_dtype: np.dtype | type = DEFAULT_VALUE_DTYPE) -> "SparseStream":
        """An empty (all-zero) sparse stream."""
        return cls(dimension, value_dtype=value_dtype)

    @classmethod
    def _trusted(
        cls, dimension: int, indices: np.ndarray, values: np.ndarray, value_dtype: np.dtype
    ) -> "SparseStream":
        """A sparse stream over ``indices`` / ``values`` as given: no
        checks, no copies. The trust ``copy=False`` extends, for a caller
        that already fixed ``value_dtype`` and the arrays' dtypes and
        lengths: the wire decoder (from the frame), :meth:`copy`, a
        reduction's accumulator."""
        out = cls.__new__(cls)
        out.dimension = dimension
        out.value_dtype = value_dtype
        out.value_wire_bytes = None
        out._indices = indices
        out._values = values
        out._dense = None
        return out

    @classmethod
    def from_dense(
        cls,
        array: np.ndarray,
        *,
        value_dtype: np.dtype | type | None = None,
        keep_dense: bool = False,
        zero_tol: float = 0.0,
    ) -> "SparseStream":
        """Build a stream from a dense array.

        By default the non-zero entries are extracted into a sparse payload
        (dropping entries with ``|x| <= zero_tol``); with ``keep_dense=True``
        the stream stays in dense representation.
        """
        arr = np.asarray(array)
        dt = validate_value_dtype(value_dtype if value_dtype is not None else arr.dtype
                                  if np.dtype(arr.dtype) in (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64))
                                  else DEFAULT_VALUE_DTYPE)
        arr = arr.astype(dt, copy=False)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
        if keep_dense:
            return cls(arr.shape[0], dense=arr, value_dtype=dt)
        if zero_tol > 0:
            mask = np.abs(arr) > zero_tol
        else:
            mask = arr != 0
        idx = np.nonzero(mask)[0].astype(INDEX_DTYPE)
        return cls(arr.shape[0], indices=idx, values=arr[idx], value_dtype=dt, copy=False)

    @classmethod
    def random_uniform(
        cls,
        dimension: int,
        nnz: int,
        rng: np.random.Generator,
        *,
        value_dtype: np.dtype | type = DEFAULT_VALUE_DTYPE,
        scale: float = 1.0,
    ) -> "SparseStream":
        """Stream with ``nnz`` uniformly random support and N(0, scale) values.

        This matches the synthetic workload of the paper's micro-benchmarks
        ("k indices out of N are selected uniformly at random at each node and
        are assigned a random value", §8.1).
        """
        if not 0 <= nnz <= dimension:
            raise ValueError(f"nnz must be in [0, {dimension}], got {nnz}")
        idx = rng.choice(dimension, size=nnz, replace=False).astype(INDEX_DTYPE)
        idx.sort()
        val = (rng.standard_normal(nnz) * scale).astype(value_dtype)
        return cls(dimension, indices=idx, values=val, value_dtype=value_dtype, copy=False)

    # ------------------------------------------------------------------
    # representation queries
    # ------------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        """The header flag: True when the payload is a dense value block."""
        return self._dense is not None

    @property
    def nnz(self) -> int:
        """Number of stored elements (dense streams count every slot)."""
        if self._dense is not None:
            return self.dimension
        return len(self._indices)

    @property
    def stored_nonzeros(self) -> int:
        """Number of entries that are actually non-zero."""
        if self.is_dense:
            return int(np.count_nonzero(self._dense))
        return int(np.count_nonzero(self._values))

    @property
    def density(self) -> float:
        """``nnz / N`` (1.0 for dense streams; 0.0 for empty universes)."""
        if self.dimension == 0:
            return 0.0
        return self.nnz / self.dimension

    @property
    def indices(self) -> np.ndarray:
        """Sorted unique non-zero indices (sparse representation only)."""
        if self._dense is not None:
            raise ValueError("dense stream has no explicit index array")
        return self._indices

    @property
    def values(self) -> np.ndarray:
        """Values aligned with :attr:`indices` (sparse representation only)."""
        if self._dense is not None:
            raise ValueError("dense stream has no explicit value array; use to_dense()")
        return self._values

    @property
    def dense_payload(self) -> np.ndarray:
        """The dense block (dense representation only)."""
        if self._dense is None:
            raise ValueError("stream is sparse; call densify() or to_dense()")
        return self._dense

    @property
    def delta(self) -> int:
        """The sparse-efficiency threshold for this stream's dimension/dtype."""
        return delta_threshold(self.dimension, self.value_dtype.itemsize, INDEX_BYTES)

    def comm_nbytes(self) -> int:
        """Bytes this stream occupies on the wire (header + payload).

        Sparse: ``header + nnz*(c + isize)``, with ``isize`` the quantized
        :attr:`value_wire_bytes` where set (rounded up); dense:
        ``header + N*isize``. This is the quantity all the cost-model
        formulas reason about, and the protocol hook the runtime charges
        wire bytes by (:func:`~repro.runtime.comm.payload_nbytes`).
        """
        isize = self.value_dtype.itemsize
        if self._dense is not None:
            return STREAM_HEADER_BYTES + self.dimension * isize
        if self.value_wire_bytes is not None:
            isize = self.value_wire_bytes
        return STREAM_HEADER_BYTES + math.ceil(len(self._indices) * (INDEX_BYTES + isize))

    #: :meth:`comm_nbytes` as a property.
    nbytes_payload = property(comm_nbytes)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Materialise the stream as a fresh dense numpy array.

        ``fill`` is the value of the *missing* coordinates — 0 for sum
        semantics, the operation's neutral element in general (§5.2).
        """
        if self.is_dense:
            return self._dense.copy()
        if fill == 0.0:
            out = np.zeros(self.dimension, dtype=self.value_dtype)
        else:
            out = np.full(self.dimension, fill, dtype=self.value_dtype)
        if self._indices.size:
            out[self._indices] = self._values
        return out

    def densify(self, fill: float = 0.0) -> "SparseStream":
        """Switch *this* stream to the dense representation in place."""
        if not self.is_dense:
            self._dense = self.to_dense(fill)
            self._indices = None
            self._values = None
        return self

    def sparsify(self) -> "SparseStream":
        """Switch *this* stream to the sparse representation in place.

        Entries exactly equal to zero are dropped (index cancellation); the
        paper ignores cancellation in the analysis but the representation
        supports it.
        """
        if self.is_dense:
            idx = np.nonzero(self._dense)[0].astype(INDEX_DTYPE)
            self._indices = idx
            self._values = self._dense[idx].copy()
            self._dense = None
        return self

    def set_pairs(self, indices: np.ndarray, values: np.ndarray) -> "SparseStream":
        """Adopt sparse pair arrays in place — trusted, zero-copy.

        The hot-path counterpart of building a new stream with
        ``copy=False``: the reduction kernels replace a stream's payload
        every round and reuse the stream object. ``indices`` must already
        be sorted unique :data:`~repro.config.INDEX_DTYPE` and ``values``
        aligned with them in this stream's value dtype; no validation is
        performed.
        """
        self._indices = indices
        self._values = values
        self._dense = None
        return self

    # ------------------------------------------------------------------
    # arithmetic helpers (the heavy lifting lives in streams.summation)
    # ------------------------------------------------------------------
    def copy(self) -> "SparseStream":
        """Deep copy preserving the representation and wire annotations."""
        if self._dense is not None:
            out = SparseStream(self.dimension, dense=self._dense, value_dtype=self.value_dtype)
        else:
            out = SparseStream._trusted(
                self.dimension, self._indices.copy(), self._values.copy(), self.value_dtype
            )
        out.value_wire_bytes = self.value_wire_bytes
        return out

    def iscale(self, factor: float) -> "SparseStream":
        """Multiply all stored values by ``factor`` in place."""
        if self.is_dense:
            self._dense *= self.value_dtype.type(factor)
        else:
            self._values *= self.value_dtype.type(factor)
        return self

    def allclose(self, other: "SparseStream | np.ndarray", rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """Numerically compare against another stream or dense vector."""
        ref = other.to_dense() if isinstance(other, SparseStream) else np.asarray(other)
        return bool(np.allclose(self.to_dense(), ref, rtol=rtol, atol=atol))

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dense" if self.is_dense else "sparse"
        return (
            f"SparseStream(N={self.dimension}, {kind}, nnz={self.nnz}, "
            f"dtype={self.value_dtype}, bytes={self.nbytes_payload})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseStream):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.value_dtype == other.value_dtype
            and bool(np.array_equal(self.to_dense(), other.to_dense()))
        )

    __hash__ = None  # type: ignore[assignment]
