"""The vendored lint fallback (``tools/lint.py``): what it flags, what it lets by."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "lint.py"
_spec = importlib.util.spec_from_file_location("repo_lint", _PATH)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _codes(source):
    return [line.split(": ", 1)[1] for line in lint.lint_source(source, "t.py")]


class TestUnusedImports:
    def test_flags_each_unused_binding_on_its_own_line(self):
        src = "import os, sys\nfrom y import (\n    used,\n    unused,\n)\nprint(sys, used)\n"
        assert lint.lint_source(src, "t.py") == [
            "t.py:1: F401 `os` imported but unused",
            "t.py:4: F401 `y.unused` imported but unused",
        ]

    @pytest.mark.parametrize("source", [
        "from x import a\n__all__ = ['a']\n",               # re-export
        "from x import a  # noqa: F401\n",                   # suppressed
        "from __future__ import annotations\n",              # not a binding
        "import a.b\nprint(a.b.c)\n",                        # dotted import binds the root
        "from x import T\ndef f(v: 'list[T]') -> 'T': ...\n",  # quoted annotation
        "def f():\n    import json\n    return json\n",      # function-local import
    ])
    def test_lets_by(self, source):
        assert _codes(source) == []


class TestUndefinedNames:
    @pytest.mark.parametrize("source,name", [
        ("def f():\n    return missing\n", "missing"),
        ("class C:\n    a = 1\n    def m(self):\n        return a\n", "a"),      # class scope does not nest
        ("class C:\n    a = 1\n    b = [a for _ in range(3)]\n", "a"),
        ("f = lambda k: (k, nope)\n", "nope"),
    ])
    def test_flags(self, source, name):
        assert _codes(source) == [f"F821 undefined name `{name}`"]

    @pytest.mark.parametrize("source", [
        "def f():\n    return g()\ndef g():\n    return 1\n",                 # defined later in the module
        "class C:\n    a = 1\n    b = [i for i in range(a)]\n",              # first iterable sees the class
        "def f():\n    global G\n    G = 1\ndef g():\n    return G\n",
        "def f(p):\n    return [w for q in p if (w := q)], w\n",             # walrus leaks out of the comprehension
        "try:\n    pass\nexcept OSError as e:\n    print(e)\n",
        "def f(*a, k=len, **kw):\n    return a, k, kw, __file__\n",
        "from typing import Literal\ndef f(b: Literal['thread']): ...\n",   # a string that is not a name
        "from x import *\nprint(anything)\n",                                # star import: cannot know
    ])
    def test_lets_by(self, source):
        assert _codes(source) == []


def test_syntax_error_is_a_finding():
    assert _codes("def f(:\n")[0].startswith("E999")


def test_repo_is_clean():
    """``make lint`` in a ruff-less image: src/ and tests/ carry no F401 / F821."""
    assert lint.main() == 0
