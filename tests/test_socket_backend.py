"""Socket backend internals: rendezvous, TCP framing, failure handling.

The generic point-to-point/collective semantics are asserted for every
backend by the equivalence layer (``test_backend_equivalence.py``,
``test_cross_backend_property.py``, ``test_wire_roundtrip.py``); this
file covers what only exists on the TCP transport — the rendezvous
protocol and its timeout paths, the mesh handshake, oversized frames
streaming through TCP send windows, EOF-as-peer-death semantics, and the
multi-host ``serve-rank`` entry point.
"""

import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.collectives import sparse_allreduce, ssar_recursive_double
from repro.runtime import (
    RankError,
    RankFailedError,
    Rendezvous,
    RendezvousTimeoutError,
    StaleEpochError,
    Trace,
    run_ranks,
    serve_rank,
)
from repro.runtime.rendezvous import (
    _HELLO,
    _MAGIC,
    _accept_channels,
    _connect_retry,
    _register,
    _resolve_program,
    _send_blob,
    demo_program,
)
from repro.runtime.socket_backend import _LEN, SocketBackend, _bind_listener, _close_all
from repro.streams import SparseStream

from conftest import make_rank_stream, reference_sum

BACKEND = "socket"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _rendezvous(nranks: int, timeout: float) -> tuple[Rendezvous, tuple[str, int]]:
    listener = _bind_listener("127.0.0.1", 0, nranks)
    return Rendezvous(listener, nranks, timeout), ("127.0.0.1", listener.getsockname()[1])


def _register_all(addr, nranks: int, timeout: float = 10.0) -> dict:
    replies = {}

    def join(rank):
        replies[rank] = _register(
            addr, "join", rank, nranks, ("127.0.0.1", 40000 + rank), timeout
        )

    threads = [threading.Thread(target=join, args=(r,)) for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 5.0)
        assert not t.is_alive()
    return replies


#: what an unpickled registration would have run: the rendezvous must
#: never call it.
_UNPICKLED: list = []


def _record_unpickling(tag: str) -> None:
    _UNPICKLED.append(tag)


class _Exploit:
    def __reduce__(self):
        return _record_unpickling, ("registration unpickled",)


class TestRendezvous:
    def test_full_world_gets_identical_address_map(self):
        nranks = 3
        server, addr = _rendezvous(nranks, 10.0)
        try:
            replies = _register_all(addr, nranks)
        finally:
            server.close()
        assert replies[0] == replies[1] == replies[2]
        assert replies[0] == (0, [0, 1, 2], [("127.0.0.1", 40000 + r) for r in range(nranks)])

    def test_client_times_out_when_nobody_listens(self):
        """Connect retries against a dead address end in the typed error."""
        dead = ("127.0.0.1", _free_port())  # bound-then-released: nobody there
        t0 = time.monotonic()
        with pytest.raises(RendezvousTimeoutError, match="could not reach"):
            _register(dead, "join", 0, 2, ("127.0.0.1", 1), timeout=0.5)
        assert time.monotonic() - t0 < 10.0

    def test_client_times_out_when_world_incomplete(self):
        """Registered but the world never fills: the reply never comes."""
        nranks = 2
        server, addr = _rendezvous(nranks, 0.6)
        try:
            # only one of the two ranks ever registers
            with pytest.raises(RendezvousTimeoutError, match="never fully"):
                _register(addr, "join", 0, nranks, ("127.0.0.1", 1), timeout=0.8)
        finally:
            server.close()

    def test_server_survives_garbage_client(self):
        """A stray non-protocol connection must not poison the world."""
        nranks = 1
        server, addr = _rendezvous(nranks, 10.0)
        try:
            stray = socket.create_connection(addr, timeout=5.0)
            stray.sendall(b"\xff" * 64)
            stray.close()
            out = _register(addr, "join", 0, nranks, ("127.0.0.1", 7), timeout=10.0)
        finally:
            server.close()
        assert out == (0, [0], [("127.0.0.1", 7)])

    def test_server_survives_silent_client(self):
        """A stray connection that sends *nothing* holds the serial accept
        loop only for the bounded handshake timeout, not the full deadline
        — real ranks queued behind it still get serviced."""
        nranks = 1
        server, addr = _rendezvous(nranks, 30.0)
        silent = socket.create_connection(addr, timeout=5.0)  # never sends
        try:
            t0 = time.monotonic()
            out = _register(addr, "join", 0, nranks, ("127.0.0.1", 7), timeout=20.0)
            assert out == (0, [0], [("127.0.0.1", 7)])
            assert time.monotonic() - t0 < 10.0  # stray cost ~ the handshake cap
        finally:
            silent.close()
            server.close()

    def test_registration_is_never_unpickled(self):
        """A pickle sent to the rendezvous port is a malformed record: it is
        dropped without running anything, and the real ranks assemble."""
        nranks = 2
        server, addr = _rendezvous(nranks, 10.0)
        rogue = socket.create_connection(addr, timeout=5.0)
        try:
            _send_blob(rogue, pickle.dumps(_Exploit()))
            replies = _register_all(addr, nranks)
            assert rogue.recv(1) == b""  # closed, never answered
        finally:
            rogue.close()
            server.close()
        assert _UNPICKLED == []
        addrs = [("127.0.0.1", 40000 + r) for r in range(nranks)]
        assert replies[0] == replies[1] == (0, [0, 1], addrs)

    def test_connect_retry_waits_for_late_listener(self):
        """Peers may come up in any order: connect retries until the deadline."""
        port = _free_port()
        result = {}

        def late_bind():
            time.sleep(0.3)
            listener = _bind_listener("127.0.0.1", port, 1)
            conn, _ = listener.accept()
            result["accepted"] = True
            conn.close()
            listener.close()

        t = threading.Thread(target=late_bind, daemon=True)
        t.start()
        sock = _connect_retry(("127.0.0.1", port), time.monotonic() + 10.0, "late peer")
        sock.close()
        t.join(timeout=5.0)
        assert result.get("accepted")


class TestMeshHandshake:
    """The accepting side of the one hello every mesh channel opens with:
    rank 0 admits both channels of rank 1 in epoch 3 while a stray dial
    lands between them."""

    EPOCH = 3

    @pytest.mark.parametrize(
        "stray",
        [
            pytest.param(_HELLO.pack(b"XXXX", 1, 1, EPOCH), id="magic"),
            pytest.param(_HELLO.pack(_MAGIC, 2, 1, EPOCH), id="outsider"),
            pytest.param(_HELLO.pack(_MAGIC, 1, 2, EPOCH), id="direction"),
            pytest.param(_HELLO.pack(_MAGIC, 1, 0, EPOCH), id="duplicate"),
            pytest.param(_HELLO.pack(_MAGIC, 1, 1, EPOCH - 1), id="stale-epoch"),
        ],
    )
    def test_only_the_real_pair_is_admitted(self, stray):
        listener = _bind_listener("127.0.0.1", 0, 2)
        addr = listener.getsockname()
        out_socks, in_socks = [None, None], [None, None]
        dials = []
        for hello in (_HELLO.pack(_MAGIC, 1, 0, self.EPOCH), stray,
                      _HELLO.pack(_MAGIC, 1, 1, self.EPOCH)):
            dials.append(socket.create_connection(addr, timeout=5.0))
            dials[-1].sendall(hello)
        real_out, rogue, real_in = dials
        args = (listener, [1], self.EPOCH, time.monotonic() + 10.0, 0, out_socks, in_socks)
        try:
            if _HELLO.unpack(stray)[3] != self.EPOCH:
                with pytest.raises(StaleEpochError) as err:
                    _accept_channels(*args)
                assert (err.value.frame_epoch, err.value.current_epoch) == (2, 3)
                return
            _accept_channels(*args)
            assert rogue.recv(1) == b""  # dropped
            real_out.sendall(b"ping")
            assert in_socks[1].recv(4, socket.MSG_WAITALL) == b"ping"
            out_socks[1].sendall(b"pong")
            assert real_in.recv(4, socket.MSG_WAITALL) == b"pong"
        finally:
            _close_all([listener, *dials, *out_socks, *in_socks])


class TestSocketFailurePaths:
    def test_rank_error_mid_allreduce_aborts_blocked_peers(self):
        """A rank raising inside a collective unblocks everyone via EOF."""
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom mid-collective")
            return ssar_recursive_double(comm, make_rank_stream(2048, 64, comm.rank))

        t0 = time.monotonic()
        with pytest.raises(RankError) as exc_info:
            run_ranks(prog, 4, backend=BACKEND, timeout=60.0)
        assert exc_info.value.rank == 2
        assert isinstance(exc_info.value.original, ValueError)
        assert time.monotonic() - t0 < 30.0

    def test_hard_death_mid_allreduce_surfaces_as_eof(self):
        """os._exit closes the dying rank's sockets: peers see EOF with no
        FIN, abort, and the parent reports the dead rank."""
        import os as _os

        def prog(comm):
            if comm.rank == 1:
                _os._exit(3)
            return ssar_recursive_double(comm, make_rank_stream(2048, 64, comm.rank))

        with pytest.raises(RankError, match="process died"):
            run_ranks(prog, 3, backend=BACKEND, timeout=60.0)

    def test_timeout_detects_deadlock(self):
        def prog(comm):
            comm.recv(1 - comm.rank)  # mutual recv: classic deadlock

        with pytest.raises(TimeoutError):
            run_ranks(prog, 2, backend=BACKEND, timeout=2.0)

    def test_negative_tags_rejected(self):
        """Negative tags are transport-internal (FIN) on this backend too."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"x", 1, tag=-1)
            else:
                comm.recv(0, tag=-1)

        with pytest.raises(RankError) as exc_info:
            run_ranks(prog, 2, backend=BACKEND)
        assert "non-negative" in str(exc_info.value.original)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_ranks(lambda c: None, 0, backend=BACKEND)

    def test_corrupt_length_word_names_the_peer(self):
        """A garbage length word becomes RankFailedError(sender) at the
        blocked reader, not an allocation of that size followed by a read
        that never completes (twin of the shmem corrupt-descriptor test)."""

        def prog(comm):
            if comm.rank == 0:
                comm._out[1].sendall(_LEN.pack((1 << 30) + 1))
                return None
            with pytest.raises(RankFailedError) as err:
                comm.recv(0, tag=5)
            return err.value.rank, str(err.value)

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0)
        rank, message = out[1]
        assert rank == 0 and "corrupt" in message

    def test_setup_timeout_is_bounded_by_run_timeout(self):
        """A failed world assembly must never outlive the run watchdog."""
        backend = SocketBackend(rendezvous_timeout=123.0)
        assert backend._setup_timeout(None) == 123.0
        assert backend._setup_timeout(300.0) == 123.0
        assert backend._setup_timeout(2.0) == 2.0


class TestOversizedFrames:
    def test_multi_megabyte_frame_chunks_through_tcp(self):
        """A frame far larger than any socket buffer streams through the
        sendall/recv_into loops intact (the TCP analog of the shmem
        oversize-chunking path)."""
        def prog(comm):
            peer = 1 - comm.rank
            big = np.arange(1 << 21, dtype=np.float64) + comm.rank  # 16 MB
            got = comm.sendrecv(big, peer, tag=3)
            return float(got[0]), float(got.sum())

        out = run_ranks(prog, 2, backend=BACKEND, timeout=120.0)
        n = 1 << 21
        base = float(np.arange(n, dtype=np.float64).sum())
        assert out[0] == (1.0, base + n)  # rank 0 received rank 1's vector
        assert out[1] == (0.0, base)

    def test_large_sparse_stream_round_trips(self):
        def prog(comm):
            if comm.rank == 0:
                gen = np.random.default_rng(5)
                s = SparseStream.random_uniform(1 << 22, nnz=200_000, rng=gen)
                comm.send(s, 1, tag=1)
                return float(s.values.sum())
            got = comm.recv(0, tag=1)
            return float(got.values.sum())

        out = run_ranks(prog, 2, backend=BACKEND, timeout=120.0)
        assert out[0] == out[1]

    def test_late_large_send_to_finished_rank_completes(self):
        """Buffered-send contract: a multi-MB send to a rank whose program
        already returned must still complete (the finished rank's pumps
        keep draining until every peer FINs)."""
        def prog(comm):
            if comm.rank == 0:
                return "done-early"  # exits immediately, never receives
            time.sleep(0.3)  # let rank 0 finish first
            big = np.zeros(1 << 21, dtype=np.float64)  # 16 MB >> TCP buffers
            comm.send(big, 0, tag=5)
            return "sent"

        out = run_ranks(prog, 2, backend=BACKEND, timeout=60.0)
        assert out.results == ["done-early", "sent"]


class TestSocketSemantics:
    def test_allreduce_matches_reference(self):
        def prog(comm):
            return sparse_allreduce(
                comm, make_rank_stream(4096, 80, comm.rank), algorithm="ssar_rec_dbl"
            )

        out = run_ranks(prog, 4, backend=BACKEND)
        ref = reference_sum(4096, 80, 4)
        for r in range(4):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(50)]

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[1] == list(range(50))

    def test_cross_process_isolation_is_physical(self):
        def prog(comm):
            arr = np.zeros(4)
            if comm.rank == 0:
                comm.send(arr, 1)
                comm.recv(1, tag=9)  # sync
                return float(arr[0])
            got = comm.recv(0)
            got[0] = 99.0
            comm.send(0, 0, tag=9)
            return None

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[0] == 0.0

    def test_accumulating_trace_rebases_seqs(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=4)
            else:
                comm.recv(0, tag=4)

        trace = Trace(2)
        run_ranks(prog, 2, backend=BACKEND, trace=trace)
        run_ranks(prog, 2, backend=BACKEND, trace=trace)
        sends = [e for e in trace.events(0) if e.op == "send"]
        assert [e.seq for e in sends] == [0, 1]

    def test_world_metadata(self):
        out = run_ranks(lambda c: c.rank, 3, backend=BACKEND)
        assert out.world.size == 3
        assert len(out.world.pids) == 3
        assert out.world.rendezvous[0] == "127.0.0.1"


class TestServeRank:
    """The multi-host entry point, exercised over real TCP on loopback."""

    def _assemble(self, nranks, program=None, **kwargs):
        port = _free_port()
        results, errors = {}, {}

        def join(rank):
            try:
                results[rank] = serve_rank(
                    ("127.0.0.1", port), rank, nranks,
                    program=program, rendezvous_timeout=30.0, **kwargs,
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced by the test
                errors[rank] = exc

        threads = [threading.Thread(target=join, args=(r,)) for r in range(nranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, f"serve_rank ranks failed: {errors}"
        return results

    def test_demo_program_agrees_across_ranks(self):
        results = self._assemble(3)
        checksums = {r: v["checksum"] for r, v in results.items()}
        assert len(set(checksums.values())) == 1
        assert all(results[r]["size"] == 3 for r in range(3))

    def test_custom_program_by_callable(self):
        def program(comm):
            return comm.bcast(f"from-{comm.rank}", root=1)

        results = self._assemble(2, program=program)
        assert results == {0: "from-1", 1: "from-1"}

    def test_matches_run_ranks_bit_identically(self):
        """serve-rank worlds compute the same bits as the launcher path."""
        results = self._assemble(2)
        ref = run_ranks(demo_program, 2, backend=BACKEND)
        assert results[0]["checksum"] == ref[0]["checksum"]
        assert results[0]["bytes_sent"] == ref[0]["bytes_sent"]

    def test_topology_exposed_from_rendezvous_map(self, capfd):
        """The (rank, host) column of the address map becomes comm.topology
        instead of being discarded after mesh assembly, and verbose mode
        surfaces the grouping in the logs."""
        port = _free_port()
        results, errors = {}, {}

        def program(comm):
            return (comm.topology.hosts, comm.topology.nnodes)

        def join(rank):
            try:
                results[rank] = serve_rank(
                    ("127.0.0.1", port), rank, 2,
                    program=program, rendezvous_timeout=30.0, verbose=True,
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced by the test
                errors[rank] = exc

        threads = [threading.Thread(target=join, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, f"serve_rank ranks failed: {errors}"
        assert results[0] == (("127.0.0.1", "127.0.0.1"), 1)
        assert results[0] == results[1]
        logs = capfd.readouterr().err
        assert "world assembled" in logs and "127.0.0.1=[0, 1]" in logs

    def test_hier_allreduce_on_simulated_hosts(self):
        """2 simulated hosts x 2 ranks over TCP loopback: the hierarchical
        schedule runs on the socket transport and matches the reference."""
        from repro.runtime import Topology, bytes_by_tier

        def prog(comm):
            return sparse_allreduce(
                comm, make_rank_stream(2048, 64, comm.rank), algorithm="ssar_hier"
            ).to_dense()

        topo = Topology.from_spec("2x2")
        out = run_ranks(prog, 4, backend=BACKEND, topology=topo)
        ref = reference_sum(2048, 64, 4)
        for r in range(4):
            assert np.allclose(out[r], ref, atol=1e-4)
        intra, inter = bytes_by_tier(out.trace, topo)
        assert 0 < inter < intra + inter

    def test_topology_and_op_timeout_reach_the_comm(self):
        results = self._assemble(
            2, lambda comm: (comm.topology.nnodes, comm.op_timeout),
            topology=1, op_timeout=5.0,
        )
        assert results == {0: (2, 5.0), 1: (2, 5.0)}  # 1 rank per node -> two nodes

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            serve_rank(("127.0.0.1", 1), 2, 2)

    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_non_positive_op_timeout_rejected_before_any_socket_work(self, bad):
        with pytest.raises(ValueError, match="op_timeout"):
            serve_rank(("127.0.0.1", 1), 0, 2, op_timeout=bad)

    def test_program_spec_resolution(self):
        fn = _resolve_program("repro.runtime.rendezvous:demo_program")
        assert fn is demo_program
        assert _resolve_program(None) is demo_program
        with pytest.raises(ValueError, match="module:function"):
            _resolve_program("no-colon")
        with pytest.raises(ValueError, match="non-callable"):
            _resolve_program("repro.runtime.rendezvous:_MAGIC")
