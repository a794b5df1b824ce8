"""Every schedule's traffic and result, pinned bit for bit.

Each sparse, dense and allgather schedule runs on the thread backend at
P = 1 ... 8 under SUM and MAX, on seeded inputs of two densities (40 and
1 500 pairs of N = 4 096; the dense allreduces take their dense form).
One digest per (schedule, P) covers every rank's trace rows — ``(op,
peer, tag, seq, nbytes, label, context)``, marks and compute charges
included — and its result bytes, so a refactor of a schedule that moves
a message, a charge or a float association fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.collectives import (
    DENSE_ALGORITHMS,
    allgather_blocks,
    allgather_ring,
    dsar_split_allgather,
    ssar_recursive_double,
    ssar_ring,
    ssar_split_allgather,
)
from repro.runtime import run_ranks
from repro.streams import MAX, SUM

from conftest import make_rank_stream

DIM = 4096
DENSITIES = (40, 1500)
WORLD_SIZES = range(1, 9)

SPARSE = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_split_ag": ssar_split_allgather,
    "ssar_ring": ssar_ring,
    "dsar_split_ag": dsar_split_allgather,
}
ALLGATHERS = {"allgather_blocks": allgather_blocks, "allgather_ring": allgather_ring}

#: the digests, recorded before the schedules shared their skeletons: P = 1 ... 8
PINNED = {
    "ssar_rec_dbl": (
        "3fd681e0b24e24c1", "1986b3c481ec2a51", "1df0cc7fca67ba7b", "62127b117afe0e21",
        "e192c8bd2e977d2f", "4b8519186b04f45f", "8ffdac614f8b8c23", "f7491ae4bfd8b955",
    ),
    "ssar_split_ag": (
        "3fd681e0b24e24c1", "8e9e8bbae0ab7bbe", "6f68225554eebfd2", "cf012bee9ba2723d",
        "38f29d310af34dc7", "6cdd17f050365b63", "7bfbcf61d57c7af0", "ae65c13f19624d6e",
    ),
    "ssar_ring": (
        "3fd681e0b24e24c1", "10a2670d2b685655", "cbd34ed9a0d8a06b", "dd099d570afd5418",
        "85789a0237602950", "f4515d04905433a1", "7e3e3ff57fb94753", "faa4222f8e5c85ca",
    ),
    "dsar_split_ag": (
        "52e73d40ad7258a7", "c6f808e4d258c79f", "125f1d1c4b157f16", "327b8d96f7d7b1ec",
        "c47869c00dc39ce4", "20f251469def678e", "7772bd7a9d7f12c7", "571c302f36dee410",
    ),
    "dense_rec_dbl": (
        "159a00fc66e448ba", "59bb10d7bbf317e4", "7ff79f18c3cf8cc6", "36291951d66c4b42",
        "aef9d15d307e6e7e", "10b5a052a1b732a1", "c2b35b627a0ff954", "5a6e26bb314a7a9f",
    ),
    "dense_ring": (
        "159a00fc66e448ba", "d0de8fb2e12c0743", "de04b9f2850cf167", "ff31ef3d826dcee6",
        "479e197e07287860", "ac4ec2af40eddae9", "987edbf5a00d8781", "56adba3ac6927838",
    ),
    "dense_rabenseifner": (
        "159a00fc66e448ba", "16f18fac8e1adb9a", "075da46395413cf2", "0ad7b7b9a1446d04",
        "d0965e882c5b8a8b", "ebe927baddfde8a9", "9a411f237ddb4d52", "94a7fb1c64c78e00",
    ),
    "allgather_blocks": (
        "f166a5482e9917ec", "3458b4d97c10ce83", "52abab53a2ed4167", "5741215847d67a86",
        "be8697d482befe55", "d0699f486915e7a3", "52b13c6265aef0e7", "89ff06b2228bfe9b",
    ),
    "allgather_ring": (
        "f166a5482e9917ec", "d5884eb3ba089fd4", "52abab53a2ed4167", "214e710b0bcd3f9c",
        "be8697d482befe55", "d0699f486915e7a3", "52b13c6265aef0e7", "4d3eae3db0e077ec",
    ),
}


def _update(digest, array):
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _update_stream(digest, stream):
    if stream.is_dense:
        digest.update(b"dense")
        _update(digest, stream.dense_payload)
    else:
        _update(digest, stream.indices)
        _update(digest, stream.values)


def _runs(name, nranks):
    """The rank programs of ``name`` at ``nranks``: each returns the result's digest."""
    for nnz in DENSITIES:
        if name in ALLGATHERS:
            def prog(comm, nnz=nnz):
                digest = hashlib.blake2b(digest_size=8)
                for block in ALLGATHERS[name](comm, make_rank_stream(DIM, nnz, comm.rank)):
                    _update_stream(digest, block)
                return digest.digest()

            yield prog
            continue
        for op in (SUM, MAX):
            def prog(comm, nnz=nnz, op=op):
                digest = hashlib.blake2b(digest_size=8)
                stream = make_rank_stream(DIM, nnz, comm.rank)
                if name in DENSE_ALGORITHMS:
                    _update(digest, DENSE_ALGORITHMS[name](comm, stream.to_dense(), op=op))
                else:
                    _update_stream(digest, SPARSE[name](comm, stream, op=op))
                return digest.digest()

            yield prog


def traffic_digest(name: str, nranks: int) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for prog in _runs(name, nranks):
        run = run_ranks(prog, nranks, backend="thread")
        for rank in range(nranks):
            digest.update(run.results[rank])
            for event in run.trace.events(rank):
                digest.update(repr(event).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("nranks", WORLD_SIZES)
@pytest.mark.parametrize("name", [*SPARSE, *DENSE_ALGORITHMS, *ALLGATHERS])
def test_traffic_and_result_are_pinned(name, nranks):
    assert traffic_digest(name, nranks) == PINNED[name][nranks - 1]


if __name__ == "__main__":
    # prints the table above, for a deliberate change of a schedule's traffic
    for name in [*SPARSE, *DENSE_ALGORITHMS, *ALLGATHERS]:
        print(f"    {name!r}: {tuple(traffic_digest(name, p) for p in WORLD_SIZES)},")
