"""Code lines: lines holding a token that is neither comment nor docstring.

    python3 scripts/sloc.py PATH...

A PATH is a Python file, or a directory searched for ``*.py``.  Prints one
count per file and their total.  ``wc -l`` charges a module for the
comments and docstrings it keeps, so a deletion target stated in raw lines
is met soonest by deleting those; this count moves only when code does.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with tokenize.open(path) as handle:
        source = handle.read()
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _DOCUMENTED)
        and ast.get_docstring(node, clean=False) is not None
    }
    lines: set[int] = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python3 scripts/sloc.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in map(Path, paths):
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(file)
            total += count
            print(f"{count:7,}  {file}")
    print(f"{total:7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
