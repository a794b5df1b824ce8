"""The code-line counter (``tools/loc.py``, ``make loc``)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("repo_loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def test_counts_code_not_comments_or_docstrings():
    source = '"""Doc."""\n\n# note\ndef f():\n    """Doc\n    more."""\n    return (1 +\n            2)\n'
    assert loc.code_lines(source) == 3  # def, and the two lines of the return


def test_counts_c_code_not_comments():
    source = (
        "/* header\n * more */\n#include <stdint.h>\n\n"
        "// note\n#define ID(x) \\\n    /* why */ \\\n    (x)\n"
        'int f(void) { return 2; } /* trailing */\nconst char *s = "/* not a comment */";\n'
    )
    # include, both real define lines, the function, the string line
    assert loc.c_code_lines(source) == 5


@pytest.mark.parametrize("argv", [["--help"], [str(_PATH), "no/such/file.py"]])
def test_an_argument_that_is_not_a_file_prints_usage(argv, capsys):
    assert loc.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("python tools/loc.py") == 2
