"""Tests for the topology layer (rank -> host maps and tiered accounting)."""

import pickle

import pytest

from repro.runtime import (
    RankError,
    Topology,
    bytes_by_tier,
    check_topology_size,
    inter_node_bytes,
    normalize_topology,
    run_ranks,
)
from repro.runtime.trace import Trace


class TestConstruction:
    def test_flat(self):
        t = Topology.flat(4)
        assert t.nranks == 4
        assert t.nnodes == 1
        assert not t.is_hierarchical
        assert t.groups == ((0, 1, 2, 3),)
        assert t.leaders == (0,)

    def test_uniform(self):
        t = Topology.uniform(6, 2)
        assert t.hosts == ("node0", "node0", "node1", "node1", "node2", "node2")
        assert t.nnodes == 3
        assert t.is_hierarchical
        assert t.leaders == (0, 2, 4)

    def test_uniform_ragged_tail(self):
        t = Topology.uniform(5, 2)
        assert t.groups == ((0, 1), (2, 3), (4,))
        assert t.max_ranks_per_node == 2

    def test_from_spec(self):
        t = Topology.from_spec("2x4")
        assert t.nranks == 8
        assert t.nnodes == 2
        assert t.groups == ((0, 1, 2, 3), (4, 5, 6, 7))

    @pytest.mark.parametrize("bad", ["", "2", "x4", "2x", "ax4", "2x4x2", "0x4"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            Topology.from_spec(bad)

    def test_explicit_hosts(self):
        t = Topology(("a", "b", "a", "c"))
        assert t.unique_hosts == ("a", "b", "c")
        assert t.groups == ((0, 2), (1,), (3,))
        assert t.ranks_on("a") == (0, 2)
        assert t.host_of(3) == "c"
        assert t.group_of(1) == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(())
        with pytest.raises(ValueError):
            Topology(("a", ""))
        with pytest.raises(ValueError):
            Topology.flat(0)
        with pytest.raises(ValueError):
            Topology.uniform(4, 0)
        with pytest.raises(ValueError):
            Topology(("a", "b")).host_of(2)
        with pytest.raises(ValueError):
            Topology(("a", "b")).ranks_on("zzz")

    def test_hierarchy_predicate(self):
        assert not Topology.flat(8).is_hierarchical  # one host
        assert not Topology.uniform(4, 1).is_hierarchical  # one rank per host
        assert Topology.uniform(4, 2).is_hierarchical
        assert Topology(("a", "a", "b")).is_hierarchical

    def test_restrict(self):
        t = Topology.from_spec("2x2")
        assert t.restrict([1, 3]).hosts == ("node0", "node1")
        assert t.restrict([2, 3]).nnodes == 1
        with pytest.raises(ValueError):
            t.restrict([4])

    def test_picklable_and_hashable(self):
        t = Topology.from_spec("2x2")
        assert pickle.loads(pickle.dumps(t)) == t
        assert hash(t) == hash(Topology.uniform(4, 2))

    def test_describe(self):
        assert Topology(("a", "a", "b")).describe() == "2 hosts: a=[0, 1] b=[2]"


class TestNormalize:
    def test_passthrough_and_specs(self):
        assert normalize_topology(None, 4) is None
        t = Topology.uniform(4, 2)
        assert normalize_topology(t, 4) is t
        assert normalize_topology("2x2", 4) == t
        assert normalize_topology(2, 4) == t
        assert normalize_topology(["node0", "node0", "node1", "node1"], 4) == t

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="describes 4 ranks"):
            normalize_topology("2x2", 8)
        with pytest.raises(ValueError, match="describes 3 ranks"):
            normalize_topology(("a", "b", "c"), 2)


class TestTieredAccounting:
    def _trace(self):
        tr = Trace(4)
        tr.record_send(0, 1, 0, 0, 100)  # intra (node0)
        tr.record_send(0, 2, 0, 0, 10)   # inter
        tr.record_send(3, 1, 0, 0, 1)    # inter
        tr.record_recv(1, 0, 0, 0, 100)  # recv events never count
        tr.record_compute(2, 555)
        return tr

    def test_bytes_by_tier(self):
        topo = Topology.from_spec("2x2")
        assert bytes_by_tier(self._trace(), topo) == (100, 11)
        assert inter_node_bytes(self._trace(), topo) == 11

    def test_flat_world_has_no_inter_bytes(self):
        assert inter_node_bytes(self._trace(), Topology.flat(4)) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bytes_by_tier(self._trace(), Topology.flat(2))


BACKENDS = ["thread", "process", "shmem", "socket"]


class TestPlumbing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_topology_reaches_every_rank(self, backend):
        out = run_ranks(lambda comm: comm.topology, 4, backend=backend, topology="2x2")
        assert all(t == Topology.uniform(4, 2) for t in out.results)

    def test_default_is_none_on_local_backends(self):
        for backend in ("thread", "process", "shmem"):
            out = run_ranks(lambda comm: comm.topology, 2, backend=backend)
            assert out.results == [None, None]

    def test_spec_forms_accepted_by_run_ranks(self):
        out = run_ranks(lambda comm: comm.topology, 4, topology=2)
        assert out.results[0] == Topology.uniform(4, 2)
        with pytest.raises(ValueError, match="describes"):
            run_ranks(lambda comm: None, 4, topology="2x4")

    def test_socket_backend_derives_topology_from_rendezvous(self):
        """Single-host socket runs see the loopback host map (flat)."""
        out = run_ranks(lambda comm: comm.topology, 2, backend="socket")
        assert all(t == Topology(("127.0.0.1", "127.0.0.1")) for t in out.results)
        assert not out.results[0].is_hierarchical

    def test_socket_backend_explicit_topology_overrides_derived(self):
        out = run_ranks(
            lambda comm: comm.topology, 4, backend="socket", topology="2x2"
        )
        assert all(t == Topology.uniform(4, 2) for t in out.results)


MISMATCH = r"topology describes 4 ranks but the world has 2"


class TestUniformSizeValidation:
    """Every launcher path raises the same clear ValueError when the
    topology's rank count disagrees with the world size."""

    def test_check_topology_size_helper(self):
        topo = Topology.uniform(4, 2)
        assert check_topology_size(topo, 4) is topo
        with pytest.raises(ValueError, match=MISMATCH):
            check_topology_size(topo, 2)

    def test_run_ranks(self):
        with pytest.raises(ValueError, match=MISMATCH):
            run_ranks(lambda comm: None, 2, topology="2x2")
        with pytest.raises(ValueError, match=MISMATCH):
            run_ranks(lambda comm: None, 2, topology=Topology.uniform(4, 2))

    def test_run_sparse_allreduce(self):
        from repro.collectives import run_sparse_allreduce
        from repro.streams import SparseStream

        streams = [SparseStream(64, indices=[r], values=[1.0]) for r in range(2)]
        with pytest.raises(ValueError, match=MISMATCH):
            run_sparse_allreduce(streams, "ssar_rec_dbl", topology="2x2")

    def test_serve_rank_validates_before_any_socket_work(self):
        from repro.runtime import serve_rank

        # an unroutable rendezvous would hang if validation came later;
        # the mismatch must be raised immediately instead
        with pytest.raises(ValueError, match=MISMATCH):
            serve_rank(("127.0.0.1", 1), 0, 2, topology="2x2")

    def test_subcommunicator_restrict_path(self):
        """A communicator whose topology was (wrongly) replaced by hand
        still fails the same way when a sub-communicator restricts it."""

        def prog(comm):
            comm.topology = Topology.uniform(4, 2)  # lies about the world
            comm.subgroup([0, 1])

        with pytest.raises(RankError, match=MISMATCH):
            run_ranks(prog, 2, backend="thread")

    def test_hierarchical_collectives_path(self):
        """The hierarchical schedules group ranks by ``comm.topology``: one
        replaced by hand fails there the same way."""
        from repro.collectives import dsar_hierarchical, ssar_hierarchical
        from repro.streams import SparseStream

        for algo in (ssar_hierarchical, dsar_hierarchical):
            def prog(comm, algo=algo):
                comm.topology = Topology.uniform(4, 2)  # lies about the world
                return algo(comm, SparseStream(64, indices=[0], values=[1.0]))

            with pytest.raises(RankError, match=MISMATCH):
                run_ranks(prog, 2, backend="thread")
