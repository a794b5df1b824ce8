"""User-facing experiment tooling: the replayed node-count sweep and the CLI."""

from .cli import build_parser, main
from .sweeps import ALGORITHM_SET, SweepPoint, sweep_node_counts

__all__ = [
    "build_parser",
    "main",
    "ALGORITHM_SET",
    "SweepPoint",
    "sweep_node_counts",
]
