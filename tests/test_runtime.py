"""Tests for the message-passing runtime: p2p semantics, traces, failures."""

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    RankError,
    WorldAbortedError,
    copy_payload,
    i_collective,
    payload_nbytes,
    run_ranks,
)
from repro.quant import QSGDQuantizer
from repro.runtime.thread_backend import ThreadWorld
from repro.streams import SparseStream


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(5) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 8

    def test_numpy_array(self):
        arr = np.zeros(100, dtype=np.float32)
        assert payload_nbytes(arr) == 8 + 400

    def test_stream_uses_protocol(self):
        s = SparseStream(1000, indices=[1], values=[2.0])
        assert payload_nbytes(s) == s.nbytes_payload

    @pytest.mark.parametrize(
        "case, wire", [("sparse", None), ("dense", None), ("empty", None), ("sparse", 1.0),
                       ("sparse", 0.5 + 4.0 * 3 / 37), ("dense", 0.5)],
        ids=["sparse", "dense", "empty", "8-bit", "fractional", "dense-annotated"],
    )
    def test_stream_size_is_one_int(self, case, wire):
        """All three spellings of a stream's wire size agree, as an int, on
        the §5.1 formula — the number the trace (and so every byte count)
        is made of. A fractional ``value_wire_bytes`` rounds up per stream;
        a dense stream ignores the annotation."""
        rng = np.random.default_rng(5)
        if case == "dense":
            s = SparseStream(50, dense=rng.standard_normal(50), value_dtype=np.float64)
            want = 8 + 50 * 8
        elif case == "empty":
            s, want = SparseStream.zeros(123, value_dtype=np.float16), 8
        else:
            s = SparseStream.random_uniform(1000, 37, rng)
            want = 8 + int(np.ceil(37 * (4 + (4 if wire is None else wire))))
        s.value_wire_bytes = wire
        sizes = (payload_nbytes(s), s.comm_nbytes(), s.nbytes_payload)
        assert sizes == (want,) * 3 and all(type(n) is int for n in sizes)

    def test_other_payloads_keep_their_sizes(self):
        block = QSGDQuantizer(bits=4, bucket_size=64, seed=1).quantize(np.linspace(-1, 1, 300))
        assert payload_nbytes(block) == 8 + block.packed.nbytes + block.scales.nbytes
        s = SparseStream(1000, indices=[1, 5], values=[2.0, 3.0])  # 8 + 2 * 8
        assert payload_nbytes((s, 3)) == 8 + 24 + 8
        assert payload_nbytes({"k": s, 2: 1.5}) == 8 + (9 + 24) + (8 + 8)
        assert payload_nbytes([block, None]) == 8 + payload_nbytes(block)

    def test_containers_recursive(self):
        arr = np.zeros(10, dtype=np.float64)
        assert payload_nbytes([arr, arr]) == 8 + 2 * (8 + 80)
        assert payload_nbytes({0: arr}) == 8 + 8 + (8 + 80)

    def test_strings_and_bytes(self):
        assert payload_nbytes("abc") == 11
        assert payload_nbytes(b"abcd") == 12

    def test_unmeasurable_rejected(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestCopyPayload:
    def test_array_copy_independent(self):
        arr = np.zeros(3)
        c = copy_payload(arr)
        c[0] = 1.0
        assert arr[0] == 0.0

    def test_scalars_passthrough(self):
        assert copy_payload(7) == 7
        assert copy_payload("x") == "x"

    def test_nested_containers(self):
        arr = np.zeros(2)
        copied = copy_payload({0: [arr]})
        copied[0][0][0] = 5.0
        assert arr[0] == 0.0

    def test_stream_copy(self):
        s = SparseStream(10, indices=[1], values=[1.0])
        c = copy_payload(s)
        c.values[0] = 9.0
        assert s.values[0] == 1.0


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), 1, tag=7)
                return None
            return comm.recv(0, tag=7)

        out = run_ranks(prog, 2)
        assert np.array_equal(out[1], np.arange(5))

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(20)]

        out = run_ranks(prog, 2)
        assert out[1] == list(range(20))

    def test_tags_do_not_cross(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        out = run_ranks(prog, 2)
        assert out[1] == ("a", "b")

    def test_sendrecv_exchange(self):
        def prog(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank * 10, peer, tag=5)

        out = run_ranks(prog, 2)
        assert out[0] == 10 and out[1] == 0

    def test_payload_isolation(self):
        """Receiver mutations must not reach the sender's buffer."""
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

        out = run_ranks(prog, 2)
        assert out[0] == 0.0

    def test_self_send_rejected(self):
        def prog(comm):
            comm.send(1, comm.rank)

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_out_of_range_dest_rejected(self):
        def prog(comm):
            comm.send(1, 5)

        with pytest.raises(RankError):
            run_ranks(prog, 2)


class TestCollectiveHelpers:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 7, 8])
    def test_barrier_completes(self, nranks):
        def prog(comm):
            comm.barrier()
            return comm.rank

        out = run_ranks(prog, nranks)
        assert out.results == list(range(nranks))

    @pytest.mark.parametrize("nranks,root", [(2, 0), (4, 0), (5, 2), (8, 7)])
    def test_bcast(self, nranks, root):
        def prog(comm):
            value = f"payload-{comm.rank}" if comm.rank == root else None
            return comm.bcast(value, root=root)

        out = run_ranks(prog, nranks)
        assert all(v == f"payload-{root}" for v in out.results)

    @pytest.mark.parametrize("nranks", [2, 4, 6])
    def test_gather_to_root(self, nranks):
        def prog(comm):
            return comm.gather_to_root(comm.rank * 2, root=0)

        out = run_ranks(prog, nranks)
        assert out[0] == [2 * r for r in range(nranks)]
        assert all(out[r] is None for r in range(1, nranks))


class TestFailureHandling:
    def test_rank_error_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(1)  # would deadlock without abort

        with pytest.raises(RankError) as exc_info:
            run_ranks(prog, 2)
        assert exc_info.value.rank == 1
        assert isinstance(exc_info.value.original, ValueError)

    def test_blocked_ranks_abort_not_deadlock(self):
        start = time.monotonic()
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("fail fast")
            comm.recv(0)

        with pytest.raises(RankError):
            run_ranks(prog, 4)
        assert time.monotonic() - start < 10.0

    def test_timeout_detects_deadlock(self):
        def prog(comm):
            comm.recv(1 - comm.rank)  # mutual recv: classic deadlock

        with pytest.raises(TimeoutError):
            run_ranks(prog, 2, timeout=0.5)

    def test_timeout_bounds_the_run_not_each_join(self):
        # each rank alone finishes inside the timeout; the run does not
        def staggered(comm):
            time.sleep(0.2 * (comm.rank + 1))

        start = time.monotonic()
        with pytest.raises(TimeoutError, match="within 0.3s"):
            run_ranks(staggered, 3, timeout=0.3)
        assert time.monotonic() - start < 0.3 + 0.15

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_ranks(lambda c: None, 0)

    @pytest.mark.parametrize("field", ["timeout", "op_timeout"])
    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_non_positive_timeouts_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            run_ranks(lambda c: None, 2, **{field: bad})

    def test_topology_and_op_timeout_reach_every_comm(self):
        out = run_ranks(
            lambda comm: (comm.topology.nnodes, comm.op_timeout), 4,
            topology="2x2", op_timeout=12.5,
        )
        assert out.results == [(2, 12.5)] * 4

    def test_timeout_none_disables_the_watchdog(self):
        def slow(comm):
            time.sleep(0.2)
            return comm.rank

        out = run_ranks(slow, 2, timeout=None)
        assert out.results == [0, 1]


class TestTraceRecording:
    def test_send_recv_events_match(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10, dtype=np.float32), 1)
            else:
                comm.recv(0)

        out = run_ranks(prog, 2)
        sends = [e for e in out.trace.events(0) if e.op == "send"]
        recvs = [e for e in out.trace.events(1) if e.op == "recv"]
        assert len(sends) == len(recvs) == 1
        assert sends[0].nbytes == recvs[0].nbytes == 48
        assert sends[0].seq == recvs[0].seq

    def test_compute_events(self):
        def prog(comm):
            comm.compute(1000, "work")

        out = run_ranks(prog, 2)
        events = out.trace.events(0)
        assert events[0].op == "compute" and events[0].nbytes == 1000

    def test_total_bytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10, dtype=np.float64), 1)
            else:
                comm.recv(0)

        out = run_ranks(prog, 2)
        assert out.trace.total_bytes_sent == 88
        assert out.trace.total_messages == 1
        assert out.trace.bytes_received_by(1) == 88

    def test_summary_keys(self):
        out = run_ranks(lambda c: None, 2)
        assert set(out.trace.summary()) == {"ranks", "messages", "bytes_sent", "max_rank_recv_bytes"}

    def test_negative_compute_rejected(self):
        def prog(comm):
            comm.compute(-1)

        with pytest.raises(RankError):
            run_ranks(prog, 2)


class TestNonBlocking:
    def test_icollective_allreduce(self):
        from repro.collectives import ssar_recursive_double

        def prog(comm):
            gen = np.random.default_rng(comm.rank)
            stream = SparseStream.random_uniform(1000, nnz=20, rng=gen)
            handle = i_collective(comm, ssar_recursive_double, stream)
            local = sum(range(1000))  # overlapped local work
            result = handle.wait()
            return result.to_dense(), local

        out = run_ranks(prog, 4)
        expected = np.sum(
            [
                SparseStream.random_uniform(1000, nnz=20, rng=np.random.default_rng(r)).to_dense()
                for r in range(4)
            ],
            axis=0,
        )
        for r in range(4):
            assert np.allclose(out[r][0], expected, atol=1e-4)

    def test_icollective_error_surfaces_at_wait(self):
        def bad_collective(comm):
            raise RuntimeError("collective failed")

        def prog(comm):
            handle = i_collective(comm, bad_collective)
            with pytest.raises(RuntimeError, match="collective failed"):
                handle.wait()
            return True

        out = run_ranks(prog, 2)
        assert all(out.results)

    def test_icollective_trace_flushed_at_wait(self):
        from repro.collectives import ssar_recursive_double

        def prog(comm):
            gen = np.random.default_rng(comm.rank)
            stream = SparseStream.random_uniform(100, nnz=5, rng=gen)
            handle = i_collective(comm, ssar_recursive_double, stream)
            handle.wait()
            return None

        out = run_ranks(prog, 2)
        assert out.trace.total_messages > 0


class TestWorld:
    def test_comm_rank_bounds(self):
        world = ThreadWorld(2)
        with pytest.raises(ValueError):
            world.comm(2)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadWorld(0)

    def test_abort_wakes_receivers(self):
        world = ThreadWorld(2)
        comm = world.comm(0)
        caught = []

        def blocked():
            try:
                comm.recv(1)
            except WorldAbortedError:
                caught.append(True)

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        time.sleep(0.1)
        world.abort()
        t.join(timeout=5)
        assert caught == [True]
