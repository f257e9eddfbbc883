"""Print total and code lines per module of a package, default ``src/jigsolve``.

Code lines are the lines holding any token but a comment, outside module,
class and function docstrings; the total counts every line. Run from
anywhere:

    python tools/linecount.py [package_dir]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` with a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "jigsolve"
    total = code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        lines, loc = len(source.splitlines()), code_lines(source)
        total, code = total + lines, code + loc
        print(f"{path.stem:<16} {lines:>6} {loc:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
