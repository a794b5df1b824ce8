"""Benchmark-side span recorder: time calls into the library from outside.

The library times nothing itself (ROADMAP open item 1), so the traced
run wraps the *public* callables of each layer with timing shims while
a world runs and restores them afterwards. Nothing under ``src/`` is
edited; a later change that adds spans inside the program can be
compared against these.

Accounting is per thread and by *self* time: a span's duration minus the
part its child spans cover, so ``Communicator.recv`` nested in
``consistent_mean`` nested in ``resolve_collective`` charges each layer
only what it spent itself. The rank's own thread ("main") is kept apart
from every other thread of the process (pump threads, ``icoll-*``
progress threads), because only main-thread time sits on the step's
critical path; the rest is work hidden behind it.

Installation happens in the driver process *before* ``run_ranks`` so that
the process-family backends inherit the patched modules through fork
(all of them fork on Linux; under a spawn start method the children
would re-import unpatched modules and every span would read zero).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
from time import perf_counter_ns

__all__ = ["SpanRecorder", "SPAN_TARGETS", "GAP_LABELS"]

#: span name -> the public callables whose self time it collects, as
#: ``module:function`` or ``module:Class.method``.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "comm": (
        "repro.runtime.comm:Communicator.send",
        "repro.runtime.comm:Communicator.recv",
    ),
    "wait": (
        "repro.runtime.nonblocking:NonBlockingHandle.wait",
        "repro.core.fusion:FusedPendingUpdate.wait",
    ),
    "wire": (
        "repro.runtime.wire:encode_payload_parts",
        "repro.runtime.wire:encode_frame_parts",
        "repro.runtime.wire:encode_payload",
        "repro.runtime.wire:encode_message",
        "repro.runtime.wire:decode_payload",
        "repro.runtime.wire:decode_message",
    ),
    "merge": (
        "repro.streams.summation:merge_sparse_pairs",
        "repro.streams.summation:add_streams_",
        "repro.streams.summation:add_streams",
        "repro.streams.summation:concat_disjoint",
        "repro.streams.summation:reduce_streams",
    ),
    "split": ("repro.collectives.sparse:slice_stream",),
    "densify": (
        "repro.streams.stream:SparseStream.densify",
        "repro.streams.stream:SparseStream.to_dense",
    ),
    "quantize": ("repro.quant.qsgd:QSGDQuantizer.quantize",),
    "dequantize": ("repro.quant.qsgd:QSGDQuantizer.dequantize",),
    "select": ("repro.core.topk:ErrorFeedback.select",),
    "fuse_launch": (
        "repro.core.fusion:GradientFuser.i_fused_allreduce",
        "repro.runtime.nonblocking:i_collective",
    ),
    "resolve": (
        "repro.collectives.api:resolve_collective",
        "repro.costmodel.adaptive:AdaptiveSelector.step",
        "repro.costmodel.adaptive:consistent_mean",
    ),
    "grad": ("repro.mlopt.linear:LinearModel.grad_stream",),
}

#: ``comm.compute(nbytes, label)`` calls that *follow* inline work no
#: public function wraps: the gap since the thread's previous span ended
#: is charged to the named span. ``dsar_split_allgather`` densifies its
#: partition inline and then reports it with ``compute(..., "densify")``.
GAP_LABELS = {"densify": "densify"}
_COMPUTE = "repro.runtime.comm:Communicator.compute"


class SpanRecorder:
    """Wraps the :data:`SPAN_TARGETS` callables and sums self time per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread ident -> {span name: self nanoseconds}
        self._totals: dict[int, dict[str, int]] = {}
        self._undo: list[tuple[object, str, object]] = []
        #: targets that could not be resolved (renamed or removed since).
        self.missing: list[str] = []
        #: idents of the threads that are a rank's own ("main") thread.
        self._rank_threads: frozenset[int] = frozenset()

    # -- per-thread state ------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # child-time accumulators of the open spans
            local.last_end = perf_counter_ns()
            local.totals = {}
            with self._lock:
                # idents are reused once a thread exits; merging a dead
                # progress thread's sums with its successor's is harmless
                previous = self._totals.get(threading.get_ident())
                if previous is not None:
                    local.totals = previous
                self._totals[threading.get_ident()] = local.totals
        return local

    def _timed(self, name: str, fn):
        def span(*args, **kwargs):
            local = self._thread_state()
            local.stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                elapsed = t1 - t0
                children = local.stack.pop()
                if local.stack:
                    local.stack[-1] += elapsed
                totals = local.totals
                totals[name] = totals.get(name, 0) + elapsed - children
                local.last_end = t1

        span.__wrapped__ = fn
        return span

    def _gap(self, fn):
        def compute(comm, nbytes, label=""):
            name = GAP_LABELS.get(label)
            if name is not None:
                local = self._thread_state()
                now = perf_counter_ns()
                gap = now - local.last_end
                local.totals[name] = local.totals.get(name, 0) + gap
                if local.stack:
                    local.stack[-1] += gap  # not the enclosing span's own time
                local.last_end = now
            return fn(comm, nbytes, label)

        compute.__wrapped__ = fn
        return compute

    # -- patching ----------------------------------------------------------
    def _patch(self, target: str, make_wrapper) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapper = make_wrapper(original)
        if path:
            holders = [owner]  # a method: one class attribute serves every caller
        else:
            # ``from x import f`` binds f in the importer's namespace too
            holders = [
                mod for name, mod in list(sys.modules.items())
                if name.partition(".")[0] == "repro"
                and getattr(mod, attr, None) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._undo.append((holder, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the ``with`` block."""
        try:
            for name, targets in SPAN_TARGETS.items():
                for target in targets:
                    self._patch(target, lambda fn, name=name: self._timed(name, fn))
            self._patch(_COMPUTE, self._gap)
            yield self
        finally:
            for holder, attr, original in reversed(self._undo):
                setattr(holder, attr, original)
            self._undo.clear()

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        """``(this thread's sums, every other non-rank thread's sums)`` in ns.

        Call from a rank's own thread; threads that called
        :meth:`mark_rank_thread` are other ranks of a thread-backend
        world and are left out of the second dict.
        """
        mine = dict(self._thread_state().totals)
        me = threading.get_ident()
        others: dict[str, int] = {}
        with self._lock:
            for ident, totals in self._totals.items():
                if ident == me or ident in self._rank_threads:
                    continue
                for name, ns in list(totals.items()):
                    others[name] = others.get(name, 0) + ns
        return mine, others

    def mark_rank_thread(self) -> None:
        """Declare the calling thread a rank's own ("main") thread."""
        self._thread_state()
        with self._lock:
            self._rank_threads = self._rank_threads | {threading.get_ident()}
