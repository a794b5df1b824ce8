"""Deterministic fault injection: drop, delay or kill on any backend.

SparCML targets deployments where a dead or slow rank is the common case
(§6); this module makes those failures *reproducible test inputs* instead
of production surprises. The design follows the shape of PyTorch's faulty
RPC agent — faulty messaging is *configuration of the one agent*, not a
second agent wrapped around it:

:class:`FaultPlan`
    a frozen, seeded schedule of actions keyed on the message identity
    ``(src, dst, context, tag, seq)`` (:mod:`~repro.runtime.context`)
    plus a per-rank kill trigger keyed on the rank's transport-operation
    count. Decisions are pure functions of the
    key and the seed (a keyed hash, not Python's salted ``hash()``), so
    the same plan reproduces the same failure sequence on every backend,
    every process, every run.
``comm.fault_plan``
    state of the *backend* communicator (``None`` = off). The one place
    every message passes — :meth:`Communicator.send
    <repro.runtime.comm.Communicator.send>` / ``recv``, just before the
    transport hooks — applies it: drops vanish on the wire *after* the
    send is traced (exactly where a real network would lose them), delays
    sleep before the send, kills terminate the rank mid-collective (the
    backend's ``_die``). Proxies (sub-communicators, non-blocking
    launches, elastic worlds) reach the same state through
    ``comm.backend``, so a plan keeps applying across ``comm.shrink()``.

The launchers hand the plan to every rank's communicator
(``run_ranks(..., fault_plan=...)``, ``serve_rank(..., fault_plan=...)``),
and the CLI entry points (``quickstart``, ``serve-rank``) take
``--fault-plan``. A revived rank's fresh communicator carries no plan.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

from .context import format_context, pack_context, parse_context

__all__ = ["FaultPlan", "RankKilledError", "KILL_EXIT_CODE"]

#: exit status of a rank hard-killed by a plan on a process-family backend.
KILL_EXIT_CODE = 113

#: the three actions a plan can take on one message.
DROP, DELAY, PASS = "drop", "delay", "pass"


class RankKilledError(RuntimeError):
    """Raised *inside* a rank scheduled to die on the thread backend.

    Thread ranks share the caller's process, so "kill" cannot be a real
    ``os._exit`` there; raising this unwinds the rank like a crash and the
    world aborts naming it, giving survivors the same
    :class:`~repro.runtime.comm.RankFailedError` they would see on the
    process-family backends.
    """

    def __init__(self, rank: int, op_index: int) -> None:
        super().__init__(f"rank {rank} killed by fault plan at op {op_index}")
        self.rank = rank
        self.op_index = op_index


def _parse_message_key(text: str) -> tuple:
    """Parse a pinned-message key from a spec clause: ``SRC:DST:TAG:SEQ``
    (the backend communicator's message) or ``SRC:DST:CTX:TAG:SEQ`` (CTX a
    context's printed path, e.g. ``e1.2``)."""
    fields = text.split(":")
    if len(fields) == 5:
        src, dst, ctx, tag, seq = fields
        context = parse_context(ctx)
        if context:
            return (int(src), int(dst), context, int(tag), int(seq))
        fields = [src, dst, tag, seq]
    if len(fields) != 4:
        raise ValueError(f"expected SRC:DST:TAG:SEQ or SRC:DST:CTX:TAG:SEQ, got {text!r}")
    return tuple(int(f) for f in fields)


def _format_message_key(key: tuple) -> str:
    """Inverse of :func:`_parse_message_key`."""
    if len(key) == 5:
        src, dst, context, tag, seq = key
        return f"{int(src)}:{int(dst)}:{format_context(context)}:{int(tag)}:{int(seq)}"
    return ":".join(str(int(v)) for v in key)


def _key_order(key: tuple) -> tuple:
    """Sort order of pinned keys: a four-field key is the backend's, context ``()``."""
    return key if len(key) == 5 else (key[0], key[1], (), key[2], key[3])


def _key_uniform(seed: int, src: int, dst: int, context: tuple, tag: int, seq: int) -> float:
    """Deterministic uniform in [0, 1) for one message key.

    A keyed blake2b, *not* ``hash()``: Python salts ``hash()`` per process,
    which would make every rank (and every rerun) decide differently. The
    packed context follows the integers, so a message of the backend
    communicator (context ``()``) hashes the five integers alone.
    """
    digest = hashlib.blake2b(
        struct.pack("<qqqqq", seed, src, dst, tag, seq) + pack_context(context), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run.

    Probabilistic faults (``drop_rate`` / ``delay_rate``) are decided per
    message from the seeded key hash; explicit faults (``drops`` /
    ``delays``) pin individual messages by their exact key and take
    precedence: ``(src, dst, tag, seq)`` for a message of the backend
    communicator, ``(src, dst, context, tag, seq)`` for one of a
    sub-communicator, launch or epoch world. ``kill_rank`` dies
    on its ``kill_after_ops``-th transport operation (sends and receives
    both count), so the kill lands mid-collective deterministically.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.002
    kill_rank: int | None = None
    kill_after_ops: int = 1
    drops: frozenset = frozenset()
    delays: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.delay_rate > 1.0:
            raise ValueError("drop_rate + delay_rate must not exceed 1")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.kill_after_ops < 1:
            raise ValueError(f"kill_after_ops must be >= 1, got {self.kill_after_ops}")

    # ------------------------------------------------------------------
    # decisions (pure, deterministic)
    # ------------------------------------------------------------------
    def action(self, src: int, dst: int, context: tuple, tag: int, seq: int) -> tuple[str, float]:
        """Decide one message's fate: ``(action, delay_seconds)``."""
        key = (src, dst, context, tag, seq) if context else (src, dst, tag, seq)
        if key in self.drops:
            return DROP, 0.0
        if key in self.delays:
            return DELAY, float(self.delays[key])
        if self.drop_rate or self.delay_rate:
            u = _key_uniform(self.seed, src, dst, context, tag, seq)
            if u < self.drop_rate:
                return DROP, 0.0
            if u < self.drop_rate + self.delay_rate:
                return DELAY, self.delay_s
        return PASS, 0.0

    def kills(self, rank: int, op_index: int) -> bool:
        """Should ``rank`` die at its ``op_index``-th (1-based) transport op?"""
        return rank == self.kill_rank and op_index >= self.kill_after_ops

    # ------------------------------------------------------------------
    # CLI spec
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Comma-separated ``key=value`` clauses::

            seed=7,drop=0.02,delay=0.1/0.005,kill=2@40

        ``drop=R`` sets the drop rate; ``delay=R`` or ``delay=R/SECONDS``
        the delay rate (and per-message delay); ``kill=RANK`` or
        ``kill=RANK@OPS`` the rank to kill (after OPS transport ops,
        default 1). Individual messages are pinned with repeatable
        ``pindrop=SRC:DST:TAG:SEQ`` and
        ``pindelay=SRC:DST:TAG:SEQ/SECONDS`` clauses — a message of the
        backend communicator; ``SRC:DST:CTX:TAG:SEQ`` names one of another
        context by its printed path (``e1``, ``3.0``, ``e1.2``).

        The spec grammar is the inverse of :meth:`describe`:
        ``FaultPlan.from_spec(plan.describe()) == plan`` for every plan.
        """
        kwargs: dict[str, Any] = {}
        pinned_drops: set[tuple] = set()
        pinned_delays: dict[tuple, float] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            if not sep:
                raise ValueError(f"bad fault-plan clause {clause!r} (expected key=value)")
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "drop":
                    kwargs["drop_rate"] = float(value)
                elif key == "delay":
                    rate, slash, seconds = value.partition("/")
                    kwargs["delay_rate"] = float(rate)
                    if slash:
                        kwargs["delay_s"] = float(seconds)
                elif key == "kill":
                    rank, at, ops = value.partition("@")
                    kwargs["kill_rank"] = int(rank)
                    if at:
                        kwargs["kill_after_ops"] = int(ops)
                elif key == "pindrop":
                    pinned_drops.add(_parse_message_key(value))
                elif key == "pindelay":
                    msg, slash, seconds = value.partition("/")
                    if not slash:
                        raise ValueError("expected a message key and /SECONDS")
                    pinned_delays[_parse_message_key(msg)] = float(seconds)
                else:
                    raise ValueError(f"unknown fault-plan key {key!r}")
            except ValueError as exc:
                raise ValueError(f"bad fault-plan clause {clause!r}: {exc}") from None
        if pinned_drops:
            kwargs["drops"] = frozenset(pinned_drops)
        if pinned_delays:
            kwargs["delays"] = pinned_delays
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: "FaultPlan | str | None") -> "FaultPlan | None":
        """What every ``fault_plan=`` entry point accepts -> a plan or ``None``."""
        return cls.from_spec(value) if isinstance(value, str) else value

    def describe(self) -> str:
        """The plan as a spec string that :meth:`from_spec` parses back.

        Emitting the bare clause grammar (rather than prose) makes the
        description copy-pastable into ``--fault-plan`` and round-trippable:
        ``FaultPlan.from_spec(plan.describe()) == plan``.
        """
        parts = [f"seed={self.seed}"]
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate}")
        if self.delay_rate or self.delay_s != 0.002:
            parts.append(f"delay={self.delay_rate}/{self.delay_s}")
        if self.kill_rank is not None:
            parts.append(f"kill={self.kill_rank}@{self.kill_after_ops}")
        for key in sorted(self.drops, key=_key_order):
            parts.append("pindrop=" + _format_message_key(key))
        for key in sorted(self.delays, key=_key_order):
            parts.append(f"pindelay={_format_message_key(key)}/{float(self.delays[key])}")
        return ",".join(parts)
