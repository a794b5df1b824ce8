"""The inline progress engine of the process-family transports.

No process-family communicator starts a thread: whichever thread of a
rank is blocked — in a receive, or in a send whose channel is full —
reads the rank's inbound channels itself (:mod:`repro.runtime.mesh`).
These tests pin what that design must guarantee:

* cycles of large sends complete (a blocked sender keeps reading, and a
  read never waits inside a half-received frame);
* frame reassembly is independent of how the byte stream is cut;
* corruption, EOF and reset on a channel become the typed error naming
  the sender, and a garbage length word never sizes an allocation;
* two blocked threads of one rank share the engine through a signalled
  hand-off, not a timed poll;
* a blocked send obeys ``op_timeout`` on pipes as on TCP, reports the
  true culprit when the world aborts before its first byte, and finishes
  a frame it has begun (the channel outlives a shrink), whatever the
  frames in flight when a rank dies — shmem's slab frames included;
* the engine holder keeps the frame it is waiting for instead of queueing
  it, without breaking per-channel FIFO order, starving another receiver
  or leaving the frame behind when its step raises;
* an idle rank has exactly one thread, a finished rank still absorbs a
  late large send, a world whose descriptors pass ``FD_SETSIZE`` runs
  (the engine waits with ``poll``), and a rejoined peer can be wired in
  while another thread holds the engine.

The byte-level tests drive one real :class:`ProcessComm` /
:class:`ShmemComm` / :class:`SocketComm` (rank 0) inside the test
process, with the test playing its peers on the far ends of real pipes
(beside shared slabs) / loopback TCP connections.
"""

from __future__ import annotations

import array
import fcntl
import mmap
import multiprocessing as mp
import os
import resource
import socket
import statistics
import struct
import termios
import threading
import time

import numpy as np
import pytest

from repro.collectives import sparse_allreduce
from repro.collectives.dense import allreduce_recursive_doubling
from repro.runtime import (
    CommTimeoutError,
    ProcessComm,
    RankError,
    RankFailedError,
    ShmemComm,
    SocketComm,
    Trace,
    i_collective,
    run_ranks,
)
from repro.runtime.context import pack_context
from repro.runtime.faults import KILL_EXIT_CODE
from repro.runtime.mesh import _FIN_TAG, _LEN
from repro.runtime.nonblocking import join_progress
from repro.runtime.shmem_backend import _SLAB_HEADER, _SLAB_TAG, ShmemBackend, Slab
from repro.runtime.wire import _FRAME, MAX_FRAME_BYTES, encode_frame_parts
from repro.streams import SparseStream

STREAM_BACKENDS = ["process", "socket"]  # the byte-stream channels
MESH_BACKENDS = ["process", "socket", "shmem"]

BIG = 1 << 20  # float64 elements: 8 MB, far beyond any channel buffer here


# ----------------------------------------------------------------------
# in-process rig: one communicator, its peers played by the test
# ----------------------------------------------------------------------
def _tcp_pair() -> tuple[socket.socket, socket.socket]:
    with socket.create_server(("127.0.0.1", 0)) as server:
        near = socket.create_connection(server.getsockname())
        far, _ = server.accept()
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return near, far


class Rig:
    """Rank 0 of a ``size``-rank world; ``feeds[p]`` is the far (write)
    end of its inbound channel from peer ``p``, ``sinks[p]`` the far
    (read) end of its outbound channel to ``p``. A shmem rig also has
    the slabs: ``in_slabs[p]`` is the one peer ``p`` writes to."""

    SLAB = 1 << 14

    def __init__(self, backend: str, size: int = 2, op_timeout: float | None = None) -> None:
        out, inn = [None] * size, [None] * size
        self.feeds, self.sinks = [None] * size, [None] * size
        for p in range(1, size):
            if backend == "socket":
                inn[p], self.feeds[p] = _tcp_pair()
                out[p], self.sinks[p] = _tcp_pair()
            else:
                inn[p], self.feeds[p] = mp.Pipe(duplex=False)
                self.sinks[p], out[p] = mp.Pipe(duplex=False)
        self._ends = [e for e in out + inn if e is not None]
        self._maps, self._views, self._slabs, self.in_slabs = [], [], [], None
        if backend == "shmem":
            # anonymous shared mappings, one per directed pair: what the
            # launcher's segment holds
            self._maps = [mmap.mmap(-1, _SLAB_HEADER + self.SLAB) for _ in range(2 * (size - 1))]
            self._views = [memoryview(m) for m in self._maps]
            self._slabs = [Slab(v, self.SLAB) for v in self._views]
            out_slabs, self.in_slabs = [None, *self._slabs[::2]], [None, *self._slabs[1::2]]
            self.comm = ShmemComm(
                0, size, out, inn, out_slabs, self.in_slabs, Trace(size), op_timeout
            )
        else:
            cls = SocketComm if backend == "socket" else ProcessComm
            self.comm = cls(0, size, out, inn, Trace(size), op_timeout)

    def frame(self, peer: int, tag: int, seq: int, obj, context: bytes = b"") -> bytes:
        """What ``peer`` writes to send ``obj`` to rank 0: the frame, or on
        a shmem rig a descriptor naming it in the peer's slab."""
        if self.in_slabs is None:
            return bytes(self.comm._frame(tag, seq, 8, obj, context))
        slab = self.in_slabs[peer]
        total, parts = encode_frame_parts(tag, seq, 8, obj, 0, context)
        offset, slab.head = slab.put(parts, total)
        descriptor = _FRAME.pack(_SLAB_TAG, offset, total, slab.head, 0)
        return _LEN.pack(len(descriptor)) + descriptor

    def feed(self, peer: int, data: bytes) -> None:
        end = self.feeds[peer]
        if isinstance(end, socket.socket):
            end.sendall(data)
        else:
            os.write(end.fileno(), data)

    def feed_whole(self, peer: int, data: bytes) -> None:
        """Feed ``data`` and return once all of it is readable at rank 0's
        end of the channel (which must hold nothing else), so the
        engine's next read takes it in one ``recv_into``."""
        self.feed(peer, data)
        fd, readable = self.comm._inn[peer].fileno(), array.array("i", [0])
        deadline = time.monotonic() + 10.0
        while fcntl.ioctl(fd, termios.FIONREAD, readable) or readable[0] < len(data):
            assert time.monotonic() < deadline, f"{readable[0]} of {len(data)} bytes arrived"
            time.sleep(0.001)

    def drain(self, peer: int, nbytes: int) -> bytes:
        """Exactly ``nbytes`` of what rank 0 wrote to ``peer`` (blocking)."""
        sink, got = self.sinks[peer], bytearray()
        while len(got) < nbytes:
            if isinstance(sink, socket.socket):
                got += sink.recv(min(nbytes - len(got), 1 << 16))
            else:
                got += os.read(sink.fileno(), min(nbytes - len(got), 1 << 16))
        return bytes(got)

    def drain_frame(self, peer: int) -> bytes:
        """The next whole frame on the channel to ``peer``, prefix checked."""
        (length,) = _LEN.unpack(self.drain(peer, _LEN.size))
        assert length <= 20 * BIG, f"misaligned stream: length word {length:#x}"
        return self.drain(peer, length)

    def fill(self, peer: int) -> int:
        """Stuff the channel to ``peer`` until it takes no more; the byte count."""
        channel, total, refusals = self.comm._out[peer], 0, 0
        while refusals < 3:  # TCP moves bytes to the far buffer for a while
            try:
                total += channel.send(memoryview(bytes(4096)))  # pipes: all or nothing
                refusals = 0
            except BlockingIOError:
                refusals += 1
                time.sleep(0.05)
        return total

    def step(self) -> None:
        """One engine step; returns as soon as something was readable."""
        assert self.comm._run_progress(2.0)

    def take(self, peer: int, tag: int):
        with self.comm._engine:
            return self.comm._take((peer, b"", tag))  # the backend's context

    def close(self) -> None:
        for end in self._ends + self.feeds + self.sinks:
            if end is not None:
                end.close()
        for slab in self._slabs:
            slab.close()
        for view in self._views:
            view.release()
        for mapping in self._maps:
            mapping.close()


@pytest.fixture
def rig():
    made: list[Rig] = []

    def make(*args, **kwargs) -> Rig:
        made.append(Rig(*args, **kwargs))
        return made[-1]

    yield make
    for r in made:
        r.close()


def _payloads() -> list:
    gen = np.random.default_rng(3)
    sparse = SparseStream.random_uniform(4096, nnz=20, rng=gen)
    dense = SparseStream(64, dense=gen.standard_normal(64).astype(np.float32))
    return [sparse, dense, {"k": (1, 2.5, "three")}, np.arange(7.0)]


def _same(a, b) -> bool:
    if isinstance(a, SparseStream):
        return (
            isinstance(b, SparseStream)
            and a.dimension == b.dimension
            and a.is_dense == b.is_dense
            and a.value_dtype == b.value_dtype
            and np.array_equal(a.to_dense(), b.to_dense())
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


# ----------------------------------------------------------------------
# (a) cycles of large sends complete
# ----------------------------------------------------------------------
def _ring_prog(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.send(np.arange(BIG, dtype=np.float64) + comm.rank, right, tag=1)
    got = comm.recv(left, tag=1)
    return bool(np.array_equal(got, np.arange(BIG, dtype=np.float64) + left))


def _all_to_all_prog(comm):
    mine = np.arange(BIG, dtype=np.float64) * (comm.rank + 1)
    peers = [p for p in range(comm.size) if p != comm.rank]
    for p in peers:
        comm.send(mine, p, tag=2)
    return all(
        np.array_equal(comm.recv(p, tag=2), np.arange(BIG, dtype=np.float64) * (p + 1))
        for p in peers
    )


class TestSendBeforeReceiveCycles:
    """Every rank sends 8 MB before it receives anything: each send fills
    its channel and blocks, so the world completes only because blocked
    senders read — and would wedge if a read ever waited for the rest of
    a frame whose sender is itself paused mid-send."""

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    @pytest.mark.parametrize("nranks", [3, 4])
    def test_ring_shift(self, backend, nranks):
        out = run_ranks(_ring_prog, nranks, backend=backend, timeout=120.0)
        assert out.results == [True] * nranks

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    @pytest.mark.parametrize("nranks", [3, 4])
    def test_all_to_all(self, backend, nranks):
        out = run_ranks(_all_to_all_prog, nranks, backend=backend, timeout=120.0)
        assert out.results == [True] * nranks


# ----------------------------------------------------------------------
# (b) reassembly does not depend on how the stream is cut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", STREAM_BACKENDS)
class TestFrameReassembly:
    def _blobs(self, comm) -> list[bytes]:
        return [
            bytes(comm._frame(tag=5, seq=i, nbytes=100 + i, obj=obj))
            for i, obj in enumerate(_payloads())
        ]

    def _assert_delivered(self, r: Rig) -> None:
        for i, obj in enumerate(_payloads()):
            payload, nbytes, seq = r.take(1, 5)
            assert (nbytes, seq) == (100 + i, i)
            assert _same(obj, payload)
        assert r.take(1, 5) is None
        assert r.comm._partial[1][1] == 0  # nothing left half-assembled

    def test_whole_frames(self, backend, rig):
        r = rig(backend)
        for blob in self._blobs(r.comm):
            r.feed(1, blob)
            r.step()
        self._assert_delivered(r)

    def test_one_byte_at_a_time(self, backend, rig):
        r = rig(backend)
        for byte in b"".join(self._blobs(r.comm)):
            r.feed(1, bytes([byte]))
            r.step()
        self._assert_delivered(r)

    def test_split_at_every_offset(self, backend, rig):
        """Two reads per frame, cut at every offset: inside the length
        prefix, at its end, inside the frame header, inside the payload."""
        r = rig(backend)
        blob = self._blobs(r.comm)[0]
        for cut in range(1, len(blob)):
            r.feed(1, blob[:cut])
            r.step()
            assert r.take(1, 5) is None
            r.feed(1, blob[cut:])
            r.step()
            payload, nbytes, seq = r.take(1, 5)
            assert (nbytes, seq) == (100, 0) and _same(_payloads()[0], payload)

    def test_several_frames_and_a_tail_in_one_read(self, backend, rig):
        r = rig(backend)
        data = b"".join(self._blobs(r.comm))
        cut = len(data) - 11  # the last frame arrives in two pieces
        r.feed(1, data[:cut])
        r.step()
        assert r.comm._partial[1][1] > 0
        r.feed(1, data[cut:])
        r.step()
        self._assert_delivered(r)

    def test_frame_larger_than_the_buffer(self, backend, rig):
        """The reassembly buffer grows to hold a frame it has seen the
        (valid) length of, and small frames behind it still decode."""
        r = rig(backend, op_timeout=10.0)
        big = np.arange(40_000, dtype=np.float64)  # 320 KB > the 64 KB buffer
        blob = bytes(r.comm._frame(5, 0, 1, big)) + bytes(r.comm._frame(5, 1, 2, "after"))
        for start in range(0, len(blob), 30_000):
            r.feed(1, blob[start:start + 30_000])
            r.step()
        assert _same(big, r.comm.recv(1, tag=5))
        assert r.comm.recv(1, tag=5) == "after"
        assert len(r.comm._partial[1][0]) >= big.nbytes

    def test_fin_stops_the_channel(self, backend, rig):
        r = rig(backend)
        r.feed(1, bytes(r.comm._frame(_FIN_TAG, -1, 0, None)))
        r.step()
        assert not r.comm._watch and not r.comm.aborted.is_set()


# ----------------------------------------------------------------------
# (c) corruption / EOF / reset -> the typed error naming the sender
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", STREAM_BACKENDS)
class TestChannelFailures:
    def _assert_blames(self, r: Rig, peer: int, match: str | None = None) -> None:
        with pytest.raises(RankFailedError, match=match) as err:
            r.comm.recv(peer, tag=5)
        assert err.value.rank == peer
        assert r.comm.aborted.failed_rank == peer

    def test_length_word_past_the_limit(self, backend, rig):
        r = rig(backend)
        r.feed(1, _LEN.pack(MAX_FRAME_BYTES + 1))
        self._assert_blames(r, 1, "corrupt")
        assert len(r.comm._partial[1][0]) == 1 << 16  # the word sized nothing

    def test_garbage_word_behind_a_good_frame(self, backend, rig):
        r = rig(backend)
        r.feed(1, bytes(r.comm._frame(5, 0, 8, "ok")) + _LEN.pack((1 << 64) - 1))
        assert r.comm.recv(1, tag=5) == "ok"  # what arrived whole is delivered
        self._assert_blames(r, 1, "corrupt")
        assert len(r.comm._partial[1][0]) == 1 << 16

    def test_eof_mid_frame(self, backend, rig):
        r = rig(backend)
        blob = bytes(r.comm._frame(5, 0, 8, np.arange(100.0)))
        r.feed(1, blob[: len(blob) // 2])
        r.step()
        r.feeds[1].close()
        self._assert_blames(r, 1)

    def test_eof_without_fin(self, backend, rig):
        r = rig(backend, size=3)
        r.feeds[2].close()
        with pytest.raises(RankFailedError) as err:
            r.comm.recv(1, tag=5)  # blocked on rank 1, told about rank 2
        assert err.value.rank == 2
        self._assert_blames(r, 2)

    def test_eof_after_fin_is_a_clean_wind_down(self, backend, rig):
        r = rig(backend, size=3, op_timeout=0.3)
        r.feed(2, bytes(r.comm._frame(_FIN_TAG, -1, 0, None)))
        r.feeds[2].close()
        with pytest.raises(CommTimeoutError):
            r.comm.recv(1, tag=5)
        assert not r.comm.aborted.is_set()

    @pytest.mark.parametrize(
        "offset, byte", [(51, 4), (59, ord("q")), (32, 200)], ids=["count", "dtype", "context"]
    )
    def test_undecodable_frame_names_its_writer(self, backend, rig, offset, byte):
        """A sparse frame whose count or context length overruns its
        length, or whose dtype code is unknown: the decoder refuses it,
        and the receiver learns which rank sent it."""
        r = rig(backend)
        blob = bytearray(r.comm._frame(5, 0, 8, SparseStream(64, indices=[1, 2, 3], values=[1.0] * 3)))
        blob[_LEN.size + offset] = byte  # count 3 -> 4 / dtype code b"q" / a 200-byte context
        r.feed(1, bytes(blob))
        self._assert_blames(r, 1, "undecodable frame from rank 1")

    def test_dead_rank_of_an_earlier_shrink_does_not_abort(self, backend, rig):
        r = rig(backend, size=3, op_timeout=0.3)
        r.comm.dead_ranks.add(2)
        r.feeds[2].close()
        with pytest.raises(CommTimeoutError):
            r.comm.recv(1, tag=5)
        assert not r.comm.aborted.is_set() and len(r.comm._watch) == 1


def test_tcp_reset_names_the_sender(rig):
    """A pipe cannot be reset; a TCP peer that closes with SO_LINGER 0 is."""
    r = rig("socket")
    r.feeds[1].setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    r.feeds[1].close()
    with pytest.raises(RankFailedError) as err:
        r.comm.recv(1, tag=5)
    assert err.value.rank == 1


# ----------------------------------------------------------------------
# blocked sends: op_timeout and the true culprit
# ----------------------------------------------------------------------
def _stalled_peer_prog(comm):
    if comm.rank == 1:
        time.sleep(1.5)  # alive, but not in any transport call
        return "slept"
    t0 = time.monotonic()
    try:
        comm.send(np.zeros(2 * BIG), 1, tag=3)  # 16 MB: more than the kernel buffers
    except CommTimeoutError as exc:
        return ("timeout", exc.source, exc.timeout, time.monotonic() - t0)
    return "sent"


def _straggler_prog(comm):
    if comm.rank == 0:
        try:
            comm.send(np.zeros(2 * BIG), 1, tag=3)
        except CommTimeoutError as exc:
            return ("timeout", exc.source)
        return "sent"
    time.sleep(1.0)  # healthy, but computing for twice op_timeout
    try:
        comm.recv(0, tag=3)
    except RankFailedError as exc:
        return ("failed", exc.rank)
    return "received"


def _shrink_under_a_big_send_prog(comm):
    if comm.rank == 2:
        time.sleep(0.3)
        os._exit(KILL_EXIT_CODE)  # dies hard while rank 0 is mid-frame
    try:
        if comm.rank == 0:
            comm.send(np.zeros(2 * BIG), 1, tag=3)  # 16 MB to a rank that is not reading yet
        else:
            time.sleep(0.8)  # healthy but busy
        comm.recv(2, tag=3)
    except RankFailedError as exc:
        world = comm.shrink()
        total = allreduce_recursive_doubling(world, np.full(4, comm.rank + 1.0))
        return exc.rank, world.size, tuple(float(x) for x in total)
    return "no failure seen"


def _shrink_under_a_large_frame_exchange_prog(comm):
    """Every rank trades 512 KB frames with both peers (slab-sized on
    shmem, many pipe / TCP buffers elsewhere); rank 2 dies hard part-way."""
    peers = [p for p in range(comm.size) if p != comm.rank]
    try:
        for step in range(40):
            if comm.rank == 2 and step == 5:
                os._exit(KILL_EXIT_CODE)
            for p in peers:
                comm.send(np.full(BIG // 16, float(step)), p, tag=6)
            for p in peers:
                assert comm.recv(p, tag=6)[0] == step
    except RankFailedError as exc:
        world = comm.shrink()
        total = allreduce_recursive_doubling(world, np.full(BIG // 16, comm.rank + 1.0))
        return exc.rank, world.size, float(total[0]), float(total[-1])
    return "no failure seen"


class TestBlockedSend:
    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_op_timeout_bounds_a_send_nobody_reads(self, backend):
        """Pipes used to ignore the timeout of a blocked write; the
        engine's send loop applies it to every byte-stream channel."""
        out = run_ranks(_stalled_peer_prog, 2, backend=backend, op_timeout=0.5, timeout=60.0)
        kind, peer, timeout, elapsed = out[0]
        assert (kind, peer, timeout) == ("timeout", 1, 0.5)
        assert 0.5 <= elapsed < 1.4  # before the peer woke up
        assert out[1] == "slept"

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_deadline_restarts_while_bytes_move(self, backend, rig):
        """A slow reader is not a stalled one: the send outlives
        ``op_timeout`` as long as every wait within it sees progress."""
        r = rig(backend, op_timeout=0.4)
        payload = np.zeros(BIG // 4)  # 2 MB
        blob_len = len(r.comm._frame(3, 0, 0, payload))

        def slow_reader() -> None:
            sink, got = r.sinks[1], 0
            while got < blob_len:
                time.sleep(0.02)
                if isinstance(sink, socket.socket):
                    got += len(sink.recv(1 << 16))
                else:
                    got += len(os.read(sink.fileno(), 1 << 16))

        reader = threading.Thread(target=slow_reader, daemon=True)
        reader.start()
        t0 = time.monotonic()
        r.comm.send(payload, 1, tag=3)
        elapsed = time.monotonic() - t0
        reader.join(timeout=30.0)
        assert not reader.is_alive()
        if backend == "process":  # 2 MB through a 64 KB pipe at 50 reads/s
            assert elapsed > 0.4

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_straggler_beyond_op_timeout_is_a_stalled_peer(self, backend):
        """The decided outcome for a healthy receiver that computes for
        longer than ``op_timeout`` under a send larger than the channel
        buffer: the sender cannot tell it from a hung one and times out —
        as a receiver waiting on a straggling sender always has — and the
        half-written frame costs the world (the receiver sees the stream
        from rank 0 end mid-frame). ``op_timeout`` must exceed the longest
        compute phase."""
        out = run_ranks(_straggler_prog, 2, backend=backend, op_timeout=0.5, timeout=60.0)
        assert out.results == [("timeout", 1), ("failed", 0)]

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_timeout_before_the_first_byte_leaves_the_world_alone(self, backend, rig):
        """A send that timed out without writing anything left the stream
        at a frame boundary: no abort, and the channel works afterwards."""
        r = rig(backend, op_timeout=0.3)
        stuffed = r.fill(1)
        with pytest.raises(CommTimeoutError) as err:
            r.comm.send("refused", 1, tag=3)
        assert err.value.source == 1 and not r.comm.aborted.is_set()
        r.drain(1, stuffed)
        r.comm.send("accepted", 1, tag=3)
        assert b"accepted" in r.drain_frame(1)

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_abort_before_the_first_byte_names_the_culprit(self, backend, rig):
        """Rank 2 dies while rank 0 waits to start a frame to the (healthy
        but busy) rank 1: the error says 2, not the destination."""
        r = rig(backend, size=3)
        r.fill(1)
        r.feeds[2].close()
        with pytest.raises(RankFailedError) as err:
            r.comm.send("never starts", 1, tag=3)
        assert err.value.rank == 2

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_abort_mid_frame_finishes_the_frame(self, backend, rig):
        """Rank 2 dies while rank 0 is half-way through 16 MB to the busy
        rank 1. The channel 0 -> 1 outlives the shrink that follows, so the
        frame is finished, not abandoned: a truncated one would make rank
        1 read the membership barrier's frames as its tail."""
        r = rig(backend, size=3)
        frames: list[bytes] = []

        def busy_peer() -> None:
            time.sleep(0.3)
            frames.extend(r.drain_frame(1) for _ in range(2))

        peer = threading.Thread(target=busy_peer, daemon=True)
        peer.start()
        r.feeds[2].close()
        r.comm.send(np.zeros(2 * BIG), 1, tag=3)  # notices the death after the first 64 KB
        with pytest.raises(RankFailedError) as err:
            r.comm.recv(1, tag=3)
        assert err.value.rank == 2
        r.comm._elastic_reset({2}, 1)  # what the shrink does before its barrier
        r.comm.send("first frame of the barrier", 1, tag=4)
        peer.join(timeout=30.0)
        assert not peer.is_alive()
        assert len(frames[0]) > 16 * BIG and b"first frame of the barrier" in frames[1]

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_shrink_after_an_abort_seen_mid_frame(self, backend):
        """The same end to end: the survivors shrink over the channel the
        big frame was on, and the new world computes."""
        with pytest.raises(RankError) as err:
            run_ranks(_shrink_under_a_big_send_prog, 3, backend=backend, timeout=60.0)
        assert err.value.partial_results[:2] == [(2, 2, (3.0,) * 4)] * 2

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_shrink_after_a_kill_mid_large_frame_exchange(self, backend):
        """Frames in flight when the rank dies — on shmem, descriptors
        whose slab bytes nobody will read — are dropped by epoch, and the
        survivors' large-frame channel carries the new world's allreduce."""
        with pytest.raises(RankError) as err:
            run_ranks(
                _shrink_under_a_large_frame_exchange_prog, 3, backend=backend,
                timeout=60.0, op_timeout=20.0,
            )
        assert err.value.partial_results[:2] == [(2, 2, 3.0, 3.0)] * 2

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_send_to_a_gone_peer_names_it(self, backend, rig):
        r = rig(backend, size=3)
        r.sinks[1].close()
        with pytest.raises(RankFailedError) as err:
            for _ in range(50):  # TCP reports the closed peer on a later write
                r.comm.send(np.zeros(1024), 1, tag=3)
                time.sleep(0.01)
        assert err.value.rank == 1


# ----------------------------------------------------------------------
# a drained channel keeps nothing
# ----------------------------------------------------------------------
def _many_small_allreduces_prog(comm):
    stream = SparseStream.random_uniform(4096, 16, np.random.default_rng(comm.rank))
    for _ in range(1000):
        total = sparse_allreduce(comm, stream, algorithm="ssar_rec_dbl")
    return len(comm._queues), total.nnz


@pytest.mark.parametrize("backend", ["thread", *MESH_BACKENDS])
def test_queues_are_empty_after_many_collectives(backend):
    """Every collective takes a fresh tag; a queue lives only while it
    holds messages, so 1 000 allreduces leave no per-message state."""
    out = run_ranks(_many_small_allreduces_prog, 4, backend=backend, timeout=120.0)
    assert [queues for queues, _ in out.results] == [0] * 4
    assert len({nnz for _, nnz in out.results}) == 1


# ----------------------------------------------------------------------
# (d) two blocked threads share the engine by signal, not by timed poll
# ----------------------------------------------------------------------
def _handoff_prog(comm):
    """Rank 0's rank thread blocks first and holds the engine; its
    background collective blocks 5 ms later and must wait. Rank 1 serves
    the rank thread at 20 ms — the holder leaves — and the background
    collective at 40 ms, stamped with the send time."""
    latencies = []
    for _ in range(20):
        def late(c):
            if c.rank == 1:
                time.sleep(0.04)
                return c.bcast(time.monotonic(), root=1)
            time.sleep(0.005)
            sent = c.bcast(None, root=1)
            return time.monotonic() - sent  # CLOCK_MONOTONIC is host-wide

        handle = i_collective(comm, late)
        if comm.rank == 1:
            time.sleep(0.02)
        assert comm.bcast("early", root=1) == "early"
        latencies.append(handle.wait())
        comm.barrier()
    return statistics.median(latencies) if comm.rank == 0 else None


class TestEngineHandOff:
    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_waiter_takes_over_when_the_holder_leaves(self, backend):
        """If the waiting thread only noticed the free engine on its next
        timed wake-up (the 50 ms abort-poll tick, 55 ms into the trial),
        the 40 ms message would sit unread for ~15 ms."""
        out = run_ranks(_handoff_prog, 2, backend=backend, timeout=120.0)
        assert out[0] < 0.010, f"median late-message latency {out[0] * 1e3:.1f} ms"

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_holder_delivers_for_the_waiter(self, backend, rig):
        """A thread without the engine is woken by the holder's delivery
        into its mailbox."""
        r = rig(backend, size=3, op_timeout=20.0)
        got = {}
        holder = threading.Thread(
            target=lambda: got.update(holder=r.comm.recv(1, tag=1)), daemon=True
        )
        holder.start()
        while not r.comm._token.locked():
            time.sleep(0.001)
        waiter = threading.Thread(
            target=lambda: got.update(waiter=r.comm.recv(2, tag=2)), daemon=True
        )
        waiter.start()
        time.sleep(0.05)
        t0 = time.monotonic()
        r.feed(2, bytes(r.comm._frame(2, 0, 8, "for the waiter")))
        waiter.join(timeout=10.0)
        assert got.get("waiter") == "for the waiter" and time.monotonic() - t0 < 1.0
        assert holder.is_alive()  # still blocked, still holding the engine
        r.feed(1, bytes(r.comm._frame(1, 0, 8, "for the holder")))
        holder.join(timeout=10.0)
        assert got.get("holder") == "for the holder"


# ----------------------------------------------------------------------
# (d') the engine holder keeps the frame it is waiting for
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", MESH_BACKENDS)
class TestHolderKeepsItsFrame:
    """A blocked receiver that steps the engine itself takes the first
    frame of its own channel without queueing it (``StreamComm._deliver``);
    everything else still goes through the queue table."""

    def test_a_queued_frame_comes_before_a_newer_one(self, backend, rig):
        r = rig(backend, op_timeout=20.0)
        r.feed(1, r.frame(1, 5, 0, "first"))
        r.step()  # nobody wants tag 5 yet: queued
        r.feed_whole(1, r.frame(1, 5, 1, "second"))
        # the queue is served without a step, "second" stays on the channel
        assert r.comm.recv(1, tag=5) == "first"
        assert r.comm.recv(1, tag=5) == "second"  # handed over by the receiver's own step
        r.feed_whole(1, r.frame(1, 5, 2, "third") + r.frame(1, 5, 3, "fourth"))
        assert r.comm.recv(1, tag=5) == "third"  # one read, two frames: the first is kept ...
        assert r.take(1, 5)[0] == "fourth"  # ... and the one behind it queued
        assert not r.comm._queues and r.comm._kept is None
        trace = r.comm.trace.events(0)
        assert [ev.seq for ev in trace] == [0, 1, 2]  # in channel order

    def test_a_frame_for_another_key_reaches_its_own_receiver(self, backend, rig):
        """The rank thread and its progress thread receive from the same
        peer on the same tag, in two contexts; whichever holds the engine,
        the other one's frame is queued for it and wakes it."""
        r = rig(backend, op_timeout=20.0)
        comm, got = r.comm, {}
        rank = threading.Thread(target=lambda: got.update(rank=comm.recv(1, tag=3)), daemon=True)
        rank.start()
        while not comm._token.locked():
            time.sleep(0.001)
        handle = i_collective(comm, lambda c: c.recv(1, tag=3))
        time.sleep(0.05)  # both blocked now
        r.feed(1, r.frame(1, 3, 0, "for the launch", pack_context((0,))))
        assert handle.wait() == "for the launch"
        assert rank.is_alive() and "rank" not in got
        r.feed(1, r.frame(1, 3, 0, "for the rank"))
        rank.join(timeout=10.0)
        assert got.get("rank") == "for the rank"
        join_progress(comm)
        assert not comm._queues and comm._kept is None

    def test_a_step_that_raises_leaves_nothing_stale(self, backend, rig, monkeypatch):
        """The step hands the receiver its frame, then raises on the next
        frame of the same read: the receive raises, the handed-over frame
        waits at the head of its channel's queue, and later receives on
        any channel get their own frames."""
        r = rig(backend, op_timeout=20.0)
        comm, deliver, seen = r.comm, r.comm._deliver, []

        def failing_deliver(src, frame):
            seen.append(src)
            if len(seen) == 2:
                raise RuntimeError("the step fails after the hand-off")
            return deliver(src, frame)

        monkeypatch.setattr(comm, "_deliver", failing_deliver)
        r.feed_whole(1, r.frame(1, 5, 0, "handed over") + r.frame(1, 6, 0, "lost with the step"))
        with pytest.raises(RuntimeError, match="after the hand-off"):
            comm.recv(1, tag=5)
        assert seen == [1, 1] and comm._kept is None and not comm._token.locked()
        monkeypatch.undo()
        r.feed(1, r.frame(1, 7, 0, "later"))
        assert comm.recv(1, tag=7) == "later"
        assert comm.recv(1, tag=5) == "handed over"
        assert not comm._queues and comm._kept is None


# ----------------------------------------------------------------------
# (e) no communicator thread; (f) late send to a finished rank
# ----------------------------------------------------------------------
def _thread_count_prog(comm):
    comm.send(np.arange(4.0), (comm.rank + 1) % comm.size, tag=1)
    comm.recv((comm.rank - 1) % comm.size, tag=1)
    comm.barrier()
    idle = threading.active_count()
    handle = i_collective(comm, lambda c: c.barrier())
    handle.wait()
    return idle, threading.active_count()


def _late_send_prog(comm):
    if comm.rank == 0:
        return "done-early"  # never receives
    time.sleep(0.3)  # let rank 0 finish first
    comm.send(np.zeros(BIG), 0, tag=5)
    return "sent"


class TestRankLifecycle:
    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_a_rank_has_one_thread(self, backend):
        """No communicator thread; a launch adds the launching
        communicator's one progress thread, which outlives its wait."""
        out = run_ranks(_thread_count_prog, 3, backend=backend, timeout=60.0)
        assert out.results == [(1, 2)] * 3

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_late_large_send_to_finished_rank_completes(self, backend):
        """Nobody reads for a finished rank but the rank itself,
        lingering until its peers FIN, on every transport."""
        out = run_ranks(_late_send_prog, 2, backend=backend, timeout=60.0)
        assert out.results == ["done-early", "sent"]


# ----------------------------------------------------------------------
# (g) wiring a rejoined peer in under a blocked receiver
# ----------------------------------------------------------------------
class TestInstallPeerUnderTheEngine:
    def test_rejoin_while_another_thread_holds_the_engine(self, rig):
        r = rig("socket", size=3, op_timeout=20.0)
        comm = r.comm
        comm.dead_ranks.add(2)
        r.feeds[2].close()  # rank 2 died; a shrink accounted for it
        r.sinks[2].close()
        got = {}
        holder = threading.Thread(
            target=lambda: got.update(holder=comm.recv(1, tag=1)), daemon=True
        )
        holder.start()
        while not comm._token.locked():
            time.sleep(0.001)
        time.sleep(0.02)  # the holder is inside its poll by now

        new_in, feed = _tcp_pair()
        new_out, sink = _tcp_pair()
        r._ends += [new_in, new_out, feed, sink]
        t0 = time.monotonic()
        comm._install_peer(2, new_out, new_in)
        comm._elastic_regrow(2, epoch=0)
        assert time.monotonic() - t0 < 1.0  # waited one poll tick at most
        assert comm._watch[new_in.fileno()] == (new_in, 2) and not comm.aborted.is_set()

        # the revived rank is heard through the holder's engine ...
        feed.sendall(bytes(comm._frame(7, 0, 8, "hello again")))
        assert comm.recv(2, tag=7) == "hello again"
        # ... and reachable on the new outbound channel
        comm.send("welcome back", 2, tag=8)
        sink.settimeout(5.0)
        (length,) = _LEN.unpack(sink.recv(_LEN.size, socket.MSG_WAITALL))
        assert b"welcome back" in sink.recv(length, socket.MSG_WAITALL)

        assert holder.is_alive()
        r.feed(1, bytes(comm._frame(1, 0, 8, "done")))
        holder.join(timeout=10.0)
        assert got.get("holder") == "done"


# ----------------------------------------------------------------------
# (h) a world past FD_SETSIZE
# ----------------------------------------------------------------------
BIG_WORLD = 24  # its P(P-1) pipes put descriptors past select()'s 1024


def _big_world_prog(comm):
    comm.barrier()
    return allreduce_recursive_doubling(comm, np.full(4, comm.rank + 1.0))


@pytest.mark.parametrize(
    "backend", ["process", "socket", ShmemBackend(slab_capacity=1 << 14)], ids=MESH_BACKENDS
)
def test_a_world_past_fd_setsize_runs(backend):
    # the pipe launchers hold two descriptors per directed pair of ranks
    # (plus result pipes; shmem one more, its segment)
    need = 3 * BIG_WORLD * (BIG_WORLD - 1)
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < need:
        pytest.skip(f"RLIMIT_NOFILE is below the {need} descriptors {BIG_WORLD} ranks need")
    out = run_ranks(_big_world_prog, BIG_WORLD, backend=backend, timeout=120.0)
    total = BIG_WORLD * (BIG_WORLD + 1) / 2
    assert all(np.array_equal(r, np.full(4, total)) for r in out.results)
