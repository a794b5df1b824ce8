"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.config import INDEX_DTYPE
from repro.streams import SparseStream, reduce_streams


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def cpu_has_flags(*flags: str) -> bool:
    """True where ``/proc/cpuinfo`` lists every one of ``flags`` (what a
    compiled seam's SIMD body needs)."""
    try:
        listed = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return all(re.search(rf"\b{flag}\b", listed) for flag in flags)


def compiler_and_cffi() -> bool:
    """True where the compiled seams can be built: ``cc`` on ``PATH`` and ``cffi``."""
    return bool(shutil.which("cc") and importlib.util.find_spec("cffi"))


def make_rank_stream(
    dimension: int,
    nnz: int,
    rank: int,
    base_seed: int = 7000,
    value_dtype=np.float32,
) -> SparseStream:
    """Deterministic per-rank random stream (same recipe everywhere)."""
    gen = np.random.default_rng(base_seed + rank)
    return SparseStream.random_uniform(dimension, nnz=nnz, rng=gen, value_dtype=value_dtype)


def reference_sum(dimension: int, nnz: int, nranks: int, base_seed: int = 7000) -> np.ndarray:
    """Dense reference sum of the per-rank streams."""
    return reduce_streams(
        [make_rank_stream(dimension, nnz, r, base_seed) for r in range(nranks)]
    ).to_dense()


def reference_bucket_indices(vec: np.ndarray, k: int, bucket_size: int) -> np.ndarray:
    """The selection before it followed the non-zeros (PR 19 and earlier):
    ``min(k, len)`` of every bucket by magnitude, zeros and all."""
    n = vec.shape[0]
    if k == 0 or n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    k = min(k, bucket_size)
    full_end = (n // bucket_size) * bucket_size
    picks: list[np.ndarray] = []
    if full_end:
        mat = np.abs(vec[:full_end]).reshape(-1, bucket_size)
        if k >= bucket_size:
            sel = np.tile(np.arange(bucket_size), (mat.shape[0], 1))
        else:
            sel = np.argpartition(mat, bucket_size - k, axis=1)[:, bucket_size - k:]
        offs = (np.arange(mat.shape[0]) * bucket_size)[:, None]
        picks.append((sel + offs).reshape(-1))
    tail = n - full_end
    if tail:
        kt = min(k, tail)
        tail_abs = np.abs(vec[full_end:])
        if kt >= tail:
            sel_t = np.arange(tail)
        else:
            sel_t = np.argpartition(tail_abs, tail - kt)[tail - kt:]
        picks.append(sel_t + full_end)
    idx = np.concatenate(picks)
    idx.sort()
    return idx.astype(INDEX_DTYPE)
