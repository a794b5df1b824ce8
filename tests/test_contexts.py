"""Communicator contexts: one message key beside the tag.

Every communicator carries a context — its path of creation slots from
the backend communicator — and every message is addressed by
``(peer, context, tag)``:

* distinct creation paths give distinct contexts, computed by every
  member without communicating, and the epoch and barrier contexts of an
  elastic world never equal a split's or a launch's;
* launches nest to any depth: a three-level nested launch running 1 000
  inner collectives is bit-identical to the same program run blocking,
  and leaves every rank's queue table empty, on all four backends;
* a fault plan pins a message of any context by its printed path, and a
  timeout names the context it was blocked on.
"""

import hashlib
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.dense import allreduce_recursive_doubling
from repro.runtime import (
    CommTimeoutError,
    ElasticWorld,
    FaultPlan,
    RankError,
    ThreadWorld,
    i_collective,
    run_ranks,
)
from repro.runtime.context import (
    BARRIER,
    epoch_slot,
    format_context,
    pack_context,
    parse_context,
    unpack_context,
)
from repro.runtime.faults import _key_uniform
from repro.runtime.nonblocking import join_progress
from repro.runtime.trace import SEND

BACKENDS = ["thread", "process", "shmem", "socket"]

#: every context an elastic world of epochs 1..200 reserves: the epoch
#: world's own and its membership barrier's.
RESERVED = {(epoch_slot(e),) for e in range(1, 201)} | {
    (epoch_slot(e), BARRIER) for e in range(1, 201)
}


# ----------------------------------------------------------------------
# distinct creation paths, distinct contexts
# ----------------------------------------------------------------------
_CREATIONS = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.sampled_from(["split", "subgroup", "launch", "opt_out"])),
    max_size=30,
)


def _create(parent, kind):
    if kind == "split":
        return parent.split(0)
    if kind == "subgroup":
        return parent.subgroup([0])
    if kind == "launch":
        return i_collective(parent, lambda launched: launched).wait()
    return parent.split(None)  # opts out, but consumes its slot


class TestContextPaths:
    @settings(max_examples=60, deadline=None)
    @given(creations=_CREATIONS, epochs=st.sets(st.integers(1, 200), max_size=3))
    def test_distinct_creation_paths_give_distinct_contexts(self, creations, epochs):
        """A random tree of splits, subgroups and launches (nested, and
        under epoch worlds too) on a one-rank world: every context is the
        creation path a counter-per-communicator model predicts, no two
        are equal, and none is an epoch or barrier context. A
        communicator's launches share one context, whose slot its first
        launch takes."""
        backend = ThreadWorld(1).comm(0)
        comms = [backend] + [ElasticWorld(backend, [0], e) for e in sorted(epochs)]
        paths = [()] + [(epoch_slot(e),) for e in sorted(epochs)]
        children = [0] * len(comms)
        launched: dict = {}  # parent index -> index of its launch context
        for pick, kind in creations:
            parent = pick % len(comms)
            made = _create(comms[parent], kind)
            if kind == "launch" and parent in launched:
                assert made is comms[launched[parent]]
                continue
            slot, children[parent] = children[parent], children[parent] + 1
            if kind == "opt_out":
                assert made is None
                continue
            if kind == "launch":
                launched[parent] = len(comms)
            comms.append(made)
            paths.append((*paths[parent], slot))
            children.append(0)
            assert made.context == paths[-1]
            assert made.context not in RESERVED
        contexts = [c.context for c in comms]
        assert len(set(contexts)) == len(contexts)
        for context in contexts:
            assert parse_context(format_context(context)) == context
            assert unpack_context(pack_context(context)) == context
        # the rank epilogue a world outside run_ranks does not run: else
        # the launches' threads live until a collection finds this world
        join_progress(backend)

    def test_epoch_and_barrier_contexts_are_distinct(self):
        assert len(RESERVED) == 400
        for e in (1, 2, 200):
            world = ElasticWorld(ThreadWorld(1).comm(0), [0], e)
            assert world.context == (epoch_slot(e),)
            assert format_context(world.context) == f"e{e}"
            assert format_context((*world.context, BARRIER)) == f"e{e}.barrier"

    def test_shrink_barrier_and_epoch_world_traffic_carry_their_contexts(self):
        def prog(comm):
            if comm.rank == 2:
                return None
            world = comm.shrink(dead=[2])
            return allreduce_recursive_doubling(world, np.ones(2)).tolist()

        out = run_ranks(prog, 3)
        assert out[0] == out[1] == [2.0, 2.0]
        sent = {e.context for events in out.trace for e in events if e.op == SEND}
        assert sent == {parse_context("e1.barrier"), parse_context("e1")}

    def test_parse_rejects_garbage(self):
        for text in ("x", "e0", "1.-2", "e1..2"):
            with pytest.raises(ValueError):
                parse_context(text)


# ----------------------------------------------------------------------
# launches nest to any depth
# ----------------------------------------------------------------------
INNER_CALLS = 1000


def _three_level_prog(comm, nonblocking):
    """i_collective -> i_collective on a split -> i_collective, the
    innermost running INNER_CALLS allreduces; run blocking, every launch
    is a direct call instead."""
    vec = np.random.default_rng(comm.rank).standard_normal(8)

    def launch(c, fn):
        return i_collective(c, fn).wait() if nonblocking else fn(c)

    def innermost(c3):
        acc = np.zeros_like(vec)
        for i in range(INNER_CALLS):
            acc += allreduce_recursive_doubling(c3, vec + i)
        return acc, c3.context

    def outer(c1):
        return launch(c1.split(c1.rank % 2), lambda c2: launch(c2, innermost))

    acc, context = launch(comm, outer)
    return acc.tobytes(), context, len(comm.backend._queues)


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_level_nested_launch(backend):
    blocking = run_ranks(_three_level_prog, 4, False, backend=backend, timeout=120.0)
    nested = run_ranks(_three_level_prog, 4, True, backend=backend, timeout=120.0)
    for rank in range(4):
        assert nested[rank][0] == blocking[rank][0], rank  # bit for bit
        assert blocking[rank][1] == (0,)  # the split alone
        assert nested[rank][1] == (0, 0, 0, 0)  # launch, split, launch, launch
        assert nested[rank][2] == blocking[rank][2] == 0  # nothing left queued


def _two_threads_per_rank_prog(comm, rounds):
    """The rank thread and a launch receive from one queue table at once,
    on different contexts; every sum must be exact."""

    def sums(c):
        return [allreduce_recursive_doubling(c, np.full(2, float(c.rank + i)))[0] for i in range(rounds)]

    handle = i_collective(comm, sums)
    mine = sums(comm)
    return mine, handle.wait(), len(comm._queues)


def test_thread_queue_table_under_a_short_switch_interval():
    """Eight ranks on two cores, two receiving threads per rank, the
    interpreter switching threads every microsecond: no message is lost
    or delivered to the wrong context, and every table drains."""
    rounds, size = 200, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_ranks(_two_threads_per_rank_prog, size, rounds, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    expected = [float(sum(range(size)) + size * i) for i in range(rounds)]
    assert out.results == [(expected, expected, 0)] * size


# ----------------------------------------------------------------------
# fault plans and timeouts speak contexts
# ----------------------------------------------------------------------
class TestFaultPlanContexts:
    def test_five_field_keys_round_trip(self):
        key = (1, 0, parse_context("e1.2"), 65600, 3)
        plan = FaultPlan(drops=frozenset({(0, 1, 5, 0), key}), delays={(2, 3, (3, 0), 7, 1): 0.5})
        text = plan.describe()
        assert "pindrop=0:1:5:0" in text and "pindrop=1:0:e1.2:65600:3" in text
        assert "pindelay=2:3:3.0:7:1/0.5" in text
        assert FaultPlan.from_spec(text) == plan
        assert plan.action(1, 0, parse_context("e1.2"), 65600, 3) == ("drop", 0.0)
        assert plan.action(1, 0, (), 65600, 3) == ("pass", 0.0)

    def test_backend_messages_hash_the_bytes_they_always_did(self):
        def before(seed, src, dst, tag, seq):
            packed = struct.pack("<qqqqq", seed, src, dst, tag, seq)
            return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little") / 2.0**64

        for seed, src, dst, tag, seq in [(7, 0, 1, 5, 0), (-3, 2, 1, 65536, 9)]:
            assert _key_uniform(seed, src, dst, (), tag, seq) == before(seed, src, dst, tag, seq)
        assert _key_uniform(7, 0, 1, (0,), 5, 0) != before(7, 0, 1, 5, 0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_timeout_inside_a_split_names_its_context(self, backend):
        """Rank 1's exchange message in an allreduce on a split of a split
        is pinned lost: rank 0's receive times out naming context ``0.0``
        and the tag (the collective's first block, exchange round)."""

        def prog(comm):
            inner = comm.split(0).split(0)
            return allreduce_recursive_doubling(inner, np.ones(2)).tolist()

        plan = FaultPlan.from_spec("pindrop=1:0:0.0:65537:0")
        with pytest.raises(RankError) as err:
            run_ranks(prog, 2, backend=backend, fault_plan=plan, op_timeout=0.5)
        cause = err.value.__cause__
        assert isinstance(cause, CommTimeoutError)
        assert (cause.source, cause.context, cause.tag) == (1, (0, 0), 65537)
        assert "recv from rank 1 (context 0.0, tag 65537)" in str(cause)
