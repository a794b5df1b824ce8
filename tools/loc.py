"""Count code lines: non-blank, non-comment, non-docstring (``make loc``).

The number ROADMAP's "Quality of design" aim asks every PR to report.
A line counts when it carries at least one token that is neither a
comment nor part of a docstring, so deleting comments, trimming
docstrings or re-wrapping them moves nothing. C sources (the compiled
kernels under ``src/repro``) count the same way: a line counts when
something other than a ``/* */`` or ``//`` comment — or a lone macro
line-continuation — is left on it. Stdlib only.

    python tools/loc.py            # per package of src/repro + the backends
    python tools/loc.py FILE...    # just these files
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the process-family transport files ISSUE 14 collapsed, reported as one row
#: (``rendezvous.py`` was split out of ``socket_backend.py``: counting it
#: keeps that move from reading as a reduction; ``shmem_backend.py`` is the
#: pipe transport plus a slab for large frames since ISSUE 23).
BACKEND_FILES = (
    "mesh.py",
    "process_backend.py",
    "rendezvous.py",
    "shmem_backend.py",
    "socket_backend.py",
)

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


#: a C string or character literal (kept: it may hold "/*"), or a comment
_C_TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|/\*.*?\*/|//[^\n]*', re.S)


def c_code_lines(source: str) -> int:
    """Number of lines of C ``source`` that hold code."""
    def blank_comment(match: re.Match) -> str:
        text = match.group()
        return text if text[0] in "\"'" else "\n" * text.count("\n")

    stripped = _C_TOKEN.sub(blank_comment, source)
    return sum(line.strip() not in ("", "\\") for line in stripped.splitlines())


def count(paths) -> int:
    return sum(
        (c_code_lines if p.suffix == ".c" else code_lines)(p.read_text(encoding="utf-8"))
        for p in paths
    )


def main(argv: list[str]) -> int:
    if not all(Path(name).is_file() for name in argv):  # --help included
        print("\n".join(__doc__.splitlines()[-2:]), file=sys.stderr)
        return 2
    if argv:
        for name in argv:
            print(f"{count([Path(name)]):7d}  {name}")
        return 0
    for package in sorted(p for p in ROOT.iterdir() if p.is_dir() and p.name != "__pycache__"):
        print(f"{count(package.rglob('*.py')):7d}  src/repro/{package.name}")
    runtime = ROOT / "runtime"
    backends = [runtime / name for name in BACKEND_FILES if (runtime / name).exists()]
    for path in backends:
        print(f"{count([path]):7d}    runtime/{path.name}")
    print(f"{count(backends):7d}  process-family backends ({len(backends)} files)")
    kernels = sorted(ROOT.rglob("*.c"))
    print(f"{count(kernels):7d}  src/repro/**/*.c ({len(kernels)} files)")
    print(f"{count([*ROOT.rglob('*.py'), *kernels]):7d}  src/repro")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
