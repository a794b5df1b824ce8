"""The compiled kernels of every C seam, built and loaded once.

Two seams have a C pass behind a numpy reference: the sparse + sparse
merge and SUM's dense += sparse scatter (``streams/_merge.c``), and
QSGD's per-entry work (``quant/_qsgd.c``). Both files are built by one
``cc -O2 -falign-loops=32 -ffp-contract=off -shared -fPIC`` call into one
shared object in a private temporary directory, ``cffi`` loads it in ABI
mode (no extension module, so installing the package needs no build
step), and the directory is removed — the mapping outlives the file.
``-ffp-contract=off`` (and no ``-ffast-math``) keeps every floating-point
operation the one the source writes, so the QSGD kernels round exactly as
numpy does. ``-falign-loops=32`` starts every loop on a 32-byte boundary,
so a hot loop's speed does not hang on where earlier code happens to end:
at gcc's default 16, growing ``_merge.c`` moved QSGD's 32-byte scalar
decode loop across a 64-byte line and cost ``dense_quant`` 0.2–0.25 ms of
CPU per rank per step. That loop now runs only on a bucket's last
``n % 16`` entries and on CPUs without AVX-512; the flag still keeps the
other scalar loops, and every CPU without AVX-512, off that cliff.

This runs once, at import: a launcher imports the package before it
forks its ranks, so rank processes inherit the loaded library instead of
each compiling it. The seams share their failure causes — no ``cffi``, no
``cc``, a compile error, a temporary directory mounted ``noexec`` — so any
failure leaves :data:`NATIVE` None and both seams on their numpy paths.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from pathlib import Path

_SOURCES = ("streams/_merge.c", "quant/_qsgd.c")

_CDEF = "".join(
    f"size_t merge_pairs_w{w}(const void *, const void *, size_t, const void *,"
    " const void *, size_t, void *, void *, void *, void *);"
    for w in (2, 4, 8)
) + (
    "size_t merge_pairs_w4_simd(const void *, const void *, size_t, const void *,"
    " const void *, size_t, void *, void *, void *, void *); int merge_simd(void);"
    " int qsgd_simd(void);"
) + "".join(
    f"int scatter_add_{t}(void *, const void *, const void *, size_t);"
    + "".join(
        f"void qsgd_codes_{t}{body}(const void *, size_t, size_t, const void *, double,"
        " const void *, unsigned int, void *);"
        for body in ("", "_simd")
    )
    + "".join(
        f"void qsgd_decode_{t}{body}(const void *, size_t, size_t, const void *, const void *, void *);"
        for body in ("", "_simd")
    )
    for t in ("f32", "f64")
)


def _load():
    """``(ffi, lib)`` of the compiled kernels, or None where they cannot be built."""
    try:
        from cffi import FFI
    except ImportError:
        return None
    ffi = FFI()
    ffi.cdef(_CDEF)
    root = Path(__file__).parent
    try:
        with tempfile.TemporaryDirectory() as tmp:
            shared = os.path.join(tmp, "_native.so")
            subprocess.run(
                ["cc", "-O2", "-falign-loops=32", "-ffp-contract=off", "-shared", "-fPIC",
                 "-o", shared, *(str(root / source) for source in _SOURCES)],
                check=True, capture_output=True, timeout=60,
            )
            lib = ffi.dlopen(shared)
    except (OSError, subprocess.SubprocessError):
        return None
    return ffi, lib


#: ``(ffi, lib)`` of the compiled kernels, or None: every seam then runs on numpy
NATIVE = _load()
