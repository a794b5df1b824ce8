"""The compiled kernels of every C seam, built and loaded once.

Two seams have a C pass behind a numpy reference: the sparse + sparse
merge (``streams/_merge.c``) and QSGD's per-entry work
(``quant/_qsgd.c``). Both files are built by one ``cc -O2
-ffp-contract=off -shared -fPIC`` call into one shared object in a private
temporary directory, ``cffi`` loads it in ABI mode (no extension module,
so installing the package needs no build step), and the directory is
removed — the mapping outlives the file. ``-ffp-contract=off`` (and no
``-ffast-math``) keeps every floating-point operation the one the source
writes, so the QSGD kernels round exactly as numpy does.

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
) + "".join(
    f"void qsgd_codes_{t}(const void *, size_t, size_t, const void *, double,"
    " const void *, unsigned int, void *);"
    f"void qsgd_decode_{t}(const void *, size_t, size_t, const void *, const void *, void *);"
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
                ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-o", shared,
                 *(str(root / source) for source in _SOURCES)],
                check=True, capture_output=True, timeout=60,
            )
            lib = ffi.dlopen(shared)
    except (OSError, subprocess.SubprocessError):
        return None
    return ffi, lib


#: ``(ffi, lib)`` of the compiled kernels, or None: every seam then runs on numpy
NATIVE = _load()
