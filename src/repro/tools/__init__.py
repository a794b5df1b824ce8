"""The command-line interface: ``calibrate`` and ``serve-rank``."""

from .cli import build_parser, main

__all__ = ["build_parser", "main"]
