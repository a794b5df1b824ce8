"""Message-passing runtime: the library's MPI stand-in.

The runtime is split into a backend-neutral core and pluggable backends:

* :mod:`~repro.runtime.comm` — the :class:`Communicator` interface all
  collectives are written against;
* :mod:`~repro.runtime.context` — communicator contexts, the half of a
  message's ``(peer, context, tag)`` key that is not the tag;
* :mod:`~repro.runtime.backend` — the :class:`Backend` abstraction and
  registry (``"thread"``, ``"process"``, ``"shmem"`` and ``"socket"``
  ship built in);
* :mod:`~repro.runtime.mesh` — the launcher, rank lifecycle and
  byte-stream communicator the three process-family backends share (each
  of them supplies only its channel objects: pipe ends, pipe ends plus a
  shared-memory slab for large frames, TCP sockets);
* :mod:`~repro.runtime.rendezvous` — how a TCP world assembles: one
  rendezvous server, one mesh handshake and one join path (a rejoin is a
  join whose rank comes last), ``serve_rank``;
* :mod:`~repro.runtime.launcher` — :func:`run_ranks`, the ``mpiexec``
  analog, with a ``backend=`` selector;
* :mod:`~repro.runtime.trace` / :mod:`~repro.runtime.nonblocking` —
  event recording and MPI-3-style non-blocking collectives.
"""

from .backend import (
    Backend,
    ParallelResult,
    RankError,
    available_backends,
    get_backend,
    register_backend,
)
from .comm import (
    AbortState,
    CommTimeoutError,
    Communicator,
    Handle,
    ProxyComm,
    RankFailedError,
    StaleEpochError,
    SubCommunicator,
    TAG_USER_LIMIT,
    WorldAbortedError,
    copy_payload,
    payload_nbytes,
)
from .elastic import ElasticWorld, grow, shrink, thread_rejoin
from .faults import FaultPlan, RankKilledError
from .launcher import run_ranks
from .topology import (
    Topology,
    bytes_by_tier,
    check_topology_size,
    inter_node_bytes,
    normalize_topology,
)
from .nonblocking import NonBlockingHandle, i_collective
from .mesh import MeshBackend, MeshWorld, StreamComm
from .process_backend import ProcessBackend, ProcessComm
from .shmem_backend import ShmemBackend, ShmemComm
from .socket_backend import SocketBackend, SocketComm
from .rendezvous import (
    Rendezvous,
    RendezvousError,
    RendezvousTimeoutError,
    serve_rank,
)
from .thread_backend import ThreadBackend, ThreadComm, ThreadWorld
from .trace import COMPUTE, MARK, RECV, SEND, Trace, TraceEvent

__all__ = [
    "Communicator",
    "ProxyComm",
    "SubCommunicator",
    "Handle",
    "payload_nbytes",
    "copy_payload",
    "TAG_USER_LIMIT",
    "Topology",
    "normalize_topology",
    "check_topology_size",
    "inter_node_bytes",
    "bytes_by_tier",
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "ParallelResult",
    "RankError",
    "run_ranks",
    "NonBlockingHandle",
    "i_collective",
    "ThreadBackend",
    "ThreadComm",
    "ThreadWorld",
    "MeshBackend",
    "MeshWorld",
    "StreamComm",
    "ProcessBackend",
    "ProcessComm",
    "ShmemBackend",
    "ShmemComm",
    "SocketBackend",
    "SocketComm",
    "Rendezvous",
    "RendezvousError",
    "RendezvousTimeoutError",
    "serve_rank",
    "WorldAbortedError",
    "RankFailedError",
    "CommTimeoutError",
    "StaleEpochError",
    "AbortState",
    "ElasticWorld",
    "grow",
    "shrink",
    "thread_rejoin",
    "FaultPlan",
    "RankKilledError",
    "Trace",
    "TraceEvent",
    "SEND",
    "RECV",
    "COMPUTE",
    "MARK",
]
