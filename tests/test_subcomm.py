"""Sub-communicator semantics (``comm.split`` / ``comm.subgroup``).

The cross-backend guarantees (bit-identical collectives on every split,
all four backends) live in ``test_backend_equivalence.py`` and the
hypothesis suite; this file pins the *semantics* on the thread backend:
rank renumbering, key ordering, tag isolation, trace attribution,
nesting, and the error paths.
"""

import numpy as np
import pytest

from repro.collectives import sparse_allreduce, ssar_recursive_double
from repro.runtime import SubCommunicator, Topology, i_collective, run_ranks
from repro.runtime.trace import SEND

from conftest import make_rank_stream, reference_sum

DIM, NNZ = 1024, 40


class TestSplit:
    def test_colors_partition_and_keys_order(self):
        def prog(comm):
            # even ranks in one group; keys reverse the member order
            sub = comm.split(comm.rank % 2, key=-comm.rank)
            return (sub.rank, sub.size, sub.parent_ranks)

        out = run_ranks(prog, 4)
        assert out[0] == (1, 2, (2, 0))
        assert out[2] == (0, 2, (2, 0))
        assert out[1] == (1, 2, (3, 1))
        assert out[3] == (0, 2, (3, 1))

    def test_none_color_opts_out(self):
        def prog(comm):
            sub = comm.split(None if comm.rank == 0 else "grp", key=comm.rank)
            if comm.rank == 0:
                assert sub is None
                return None
            return (sub.rank, sub.size)

        out = run_ranks(prog, 3)
        assert out.results == [None, (0, 2), (1, 2)]

    def test_arbitrary_hashable_colors(self):
        def prog(comm):
            sub = comm.split(("team", comm.rank // 2))
            return sub.parent_ranks

        out = run_ranks(prog, 4)
        assert out[0] == (0, 1) and out[3] == (2, 3)

    def test_non_int_key_rejected(self):
        def prog(comm):
            comm.split(0, key="a")

        with pytest.raises(Exception, match="key must be an int"):
            run_ranks(prog, 2)

    def test_single_color_covers_world(self):
        def prog(comm):
            sub = comm.split(0)
            assert isinstance(sub, SubCommunicator)
            return (sub.rank, sub.size)

        out = run_ranks(prog, 3)
        assert out.results == [(0, 3), (1, 3), (2, 3)]

    def test_point_to_point_and_collectives_inside_split(self):
        def prog(comm):
            sub = comm.split(comm.rank // 2)
            if sub.rank == 0:
                sub.send(("hello", comm.rank), 1, tag=5)
                got = None
            else:
                got = sub.recv(0, tag=5)
            bc = sub.bcast(comm.rank, root=0)
            sub.barrier()
            return (got, bc)

        out = run_ranks(prog, 4)
        assert out[1] == (("hello", 0), 0)
        assert out[3] == (("hello", 2), 2)

    def test_allreduce_on_split_matches_member_reference(self):
        def prog(comm):
            sub = comm.split(comm.rank % 2)
            stream = make_rank_stream(DIM, NNZ, comm.rank)
            return ssar_recursive_double(sub, stream).to_dense()

        out = run_ranks(prog, 4)
        evens = sum(
            make_rank_stream(DIM, NNZ, r).to_dense() for r in (0, 2)
        )
        odds = sum(make_rank_stream(DIM, NNZ, r).to_dense() for r in (1, 3))
        assert np.allclose(out[0], evens, atol=1e-5)
        assert np.array_equal(out[0], out[2])
        assert np.allclose(out[1], odds, atol=1e-5)
        assert np.array_equal(out[1], out[3])

    def test_concurrent_splits_do_not_collide(self):
        """Row and column splits of a 2x2 grid carry disjoint tag windows."""

        def prog(comm):
            row = comm.split(comm.rank // 2)
            col = comm.split(comm.rank % 2)
            a = row.bcast(("row", comm.rank), root=0)
            b = col.bcast(("col", comm.rank), root=0)
            return (a, b)

        out = run_ranks(prog, 4)
        assert out[3] == (("row", 2), ("col", 1))

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(comm.rank // 2)  # {0,1} and {2,3}
            solo = half.split(half.rank)  # singletons
            assert solo.size == 1 and solo.rank == 0
            pair_sum = half.bcast(comm.rank, root=0)
            return (half.parent_ranks, solo.parent_ranks, pair_sum)

        out = run_ranks(prog, 4)
        assert out[3] == ((2, 3), (1,), 2)

    def test_nested_windows_never_alias(self):
        """Sequential overlapping splits and their nested splits all carry
        globally distinct tag windows (regression: a second child of the
        first split used to alias the first child of the second split)."""

        def prog(comm):
            x = comm.split(0)
            y = comm.split(0)
            children = [x.split(0), x.split(0), y.split(0), y.split(0)]
            grand = [c.split(0) for c in children]
            comms = [x, y, *children, *grand]
            windows = [c.context for c in comms]
            assert len(set(windows)) == len(windows), windows
            # traffic on same-numbered tags of alias-prone groups stays
            # separate: exchange on x-child#1 and y-child#0 concurrently
            # (sends are buffered, so both go out before either receive)
            a, b = children[1], children[2]
            peer = 1 - comm.rank
            a.send(("a", comm.rank), peer, tag=7)
            b.send(("b", comm.rank), peer, tag=7)
            got_b = b.recv(peer, tag=7)
            got_a = a.recv(peer, tag=7)
            return (got_a, got_b)

        out = run_ranks(prog, 2)
        assert out[0] == (("a", 1), ("b", 1))
        assert out[1] == (("a", 0), ("b", 0))


class TestSubgroup:
    def test_subgroup_order_defines_ranks(self):
        def prog(comm):
            sub = comm.subgroup([2, 0])
            if sub is None:
                return None
            return (sub.rank, sub.parent_ranks)

        out = run_ranks(prog, 3)
        assert out.results == [(1, (2, 0)), None, (0, (2, 0))]

    def test_disjoint_groups_in_one_call_slot(self):
        """The host-group pattern: different ranks pass disjoint lists."""

        def prog(comm):
            mine = [0, 1] if comm.rank < 2 else [2, 3]
            sub = comm.subgroup(mine)
            return sub.bcast(comm.rank, root=0)

        out = run_ranks(prog, 4)
        assert out.results == [0, 0, 2, 2]

    def test_validation(self):
        def dup(comm):
            comm.subgroup([0, 0])

        def empty(comm):
            comm.subgroup([])

        def out_of_range(comm):
            comm.subgroup([0, 9])

        for bad, msg in ((dup, "duplicate"), (empty, "at least one"), (out_of_range, "out of range")):
            with pytest.raises(Exception, match=msg):
                run_ranks(bad, 2)

    def test_topology_restriction(self):
        def prog(comm):
            sub = comm.subgroup(comm.topology.group_of(comm.rank))
            leaders = comm.subgroup(comm.topology.leaders)
            return (
                sub.topology.hosts,
                None if leaders is None else leaders.topology.hosts,
            )

        out = run_ranks(prog, 4, topology="2x2")
        assert out[0] == (("node0", "node0"), ("node0", "node1"))
        assert out[1] == (("node0", "node0"), None)
        assert out[2] == (("node1", "node1"), ("node0", "node1"))

    def test_no_topology_means_none(self):
        out = run_ranks(lambda comm: comm.subgroup([0, 1]).topology, 2)
        assert out.results == [None, None]


class TestTraceAttribution:
    def test_events_land_on_world_ranks(self):
        """A split's traffic is attributed to real ranks, not sub-ranks."""

        def prog(comm):
            sub = comm.split(0 if comm.rank >= 2 else None)
            if sub is not None and sub.rank == 0:
                sub.send(1.0, 1, tag=3)
            elif sub is not None:
                sub.recv(0, tag=3)

        out = run_ranks(prog, 4)
        sends = [e for events in out.trace for e in events if e.op == SEND and e.context]
        assert len(sends) == 1
        (ev,) = sends
        assert ev.rank == 2 and ev.peer == 3  # world ranks, not (0, 1)

    def test_bytes_accounting_survives_splits(self):
        def prog(comm):
            sub = comm.split(comm.rank % 2)
            stream = make_rank_stream(DIM, NNZ, comm.rank)
            ssar_recursive_double(sub, stream)
            return comm.trace.bytes_sent_by(comm.rank)

        thread = run_ranks(prog, 4, backend="thread")
        process = run_ranks(prog, 4, backend="process")
        assert thread.trace.total_bytes_sent == process.trace.total_bytes_sent
        assert [thread.trace.bytes_sent_by(r) for r in range(4)] == [
            process.trace.bytes_sent_by(r) for r in range(4)
        ]


class TestProxyComposition:
    def test_nonblocking_collective_on_split(self):
        """i_collective over a sub-communicator: tags, ranks and the trace
        buffer all compose."""

        def prog(comm):
            sub = comm.split(comm.rank % 2)
            stream = make_rank_stream(DIM, NNZ, comm.rank)
            handle = i_collective(sub, ssar_recursive_double, stream)
            return handle.wait().to_dense()

        out = run_ranks(prog, 4)
        evens = sum(make_rank_stream(DIM, NNZ, r).to_dense() for r in (0, 2))
        assert np.allclose(out[0], evens, atol=1e-5)
        assert np.array_equal(out[0], out[2])

    def test_auto_algorithm_on_split_uses_sub_topology(self):
        """sparse_allreduce(algorithm='auto') sees the restricted topology."""

        def prog(comm):
            sub = comm.subgroup(list(range(comm.size)))  # whole world, but a proxy
            assert sub.topology == Topology.uniform(4, 2)
            return sparse_allreduce(sub, make_rank_stream(DIM, NNZ, comm.rank), "auto").to_dense()

        out = run_ranks(prog, 4, topology="2x2")
        assert np.allclose(out[0], reference_sum(DIM, NNZ, 4), atol=1e-4)
