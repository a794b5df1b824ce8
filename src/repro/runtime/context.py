"""Communicator contexts: the half of a message's key that is not the tag.

MPI matches a message on its communicator's *context id* plus a tag; so
does this runtime. A communicator's context is the path of creation slots
that leads to it from the backend communicator, whose context is ``()``:

* ``split``, ``subgroup`` and a communicator's first ``i_collective``
  take the next slot of one per-communicator child counter (``0, 1, 2,
  ...``) and append it to the parent's path — ``(3,)`` is the fourth
  child of the backend communicator, ``(3, 0)`` the first child of that
  one; every later launch reuses the first one's context;
* the working world of elastic epoch ``e`` is ``(e<e>,)`` and its
  membership barrier ``(e<e>, barrier)``. Those slots are negative and no
  counter produces one, so epoch contexts never depend on the per-rank
  counters (which diverge when ranks catch a failure at different
  points) and never equal a split's or a launch's.

Every member computes the same path without communicating, because every
member creates children in the same program order (the collective
contract). A context travels packed — one little-endian int64 per slot,
:func:`pack_context` — and prints as its dotted path (``e1.2``, ``3.0``;
the backend's is the empty string), which :func:`parse_context` reads
back.
"""

from __future__ import annotations

import struct

__all__ = ["BARRIER", "epoch_slot", "format_context", "pack_context", "parse_context", "unpack_context"]

#: the slot of an epoch's membership barrier under its epoch world.
BARRIER = -1


def epoch_slot(epoch: int) -> int:
    """The slot of world epoch ``epoch`` (>= 1) under the backend communicator."""
    if epoch < 1:
        raise ValueError(f"elastic epochs start at 1, got {epoch}")
    return -1 - int(epoch)


def pack_context(context: tuple) -> bytes:
    """The bytes a context travels as: one ``<q`` per slot."""
    return struct.pack(f"<{len(context)}q", *context)


def unpack_context(key: bytes) -> tuple:
    """Inverse of :func:`pack_context`."""
    return struct.unpack(f"<{len(key) // 8}q", key)


def format_context(context: tuple) -> str:
    """The dotted path of a context: ``e1.2``, ``3.0``, ``e2.barrier``."""
    return ".".join(
        str(slot) if slot >= 0 else "barrier" if slot == BARRIER else f"e{-1 - slot}"
        for slot in context
    )


def parse_context(text: str) -> tuple:
    """Inverse of :func:`format_context`."""
    if not text:
        return ()
    path = []
    for part in text.split("."):
        if part == "barrier":
            path.append(BARRIER)
        elif part.startswith("e"):
            path.append(epoch_slot(int(part[1:])))
        elif part.isdigit():
            path.append(int(part))
        else:
            raise ValueError(f"bad context slot {part!r} in {text!r}")
    return tuple(path)
