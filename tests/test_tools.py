"""The line counter in ``tools/`` counts what its docstring says."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SOURCE = '''"""A module docstring
on two lines."""

import os  # a trailing comment leaves a code line

# a comment-only line


def f(x):
    """A function docstring."""
    return (x +
            len(os.sep))
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # code: the import, the def and both lines of the return statement
    assert linecount.code_lines(SOURCE) == 4


def test_total_row_sums_the_module_rows(capsys):
    assert linecount.main([str(ROOT / "src" / "jigsolve")]) == 0
    header, *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"] and total[0] == "total"
    assert len(modules) == len(list((ROOT / "src" / "jigsolve").glob("*.py"))) > 0
    assert [int(v) for v in total[1:]] == [sum(int(row[i]) for row in modules) for i in (1, 2)]
