"""Line counts of each module of the package, as a Markdown table.

For every ``*.py`` file of a package directory (``src/tracecause`` by
default), two counts: its non-blank lines, and its code lines, the
non-blank lines that are neither a comment alone nor part of a
docstring (of the module, a class or a function).  A change states its
net ``src/`` figure from these, run on both sides.

    python tests/src_lines.py                  # this checkout
    python tests/src_lines.py other/src/tracecause

pytest does not collect this module; it needs nothing outside the
standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tracecause"


def counts(text: str) -> tuple[int, int]:
    """The non-blank and the code lines of the module source ``text``."""
    nonblank = {i for i, line in enumerate(text.splitlines(), 1)
                if line.strip()}
    prose = {tok.start[0]
             for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type == tokenize.COMMENT
             and tok.line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                prose.update(range(first.lineno, first.end_lineno + 1))
    return len(nonblank), len(nonblank - prose)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    print("| module | non-blank | code |")
    print("|---|---:|---:|")
    for name, nonblank, code in rows:
        print(f"| {name} | {nonblank} | {code} |")
    print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")


if __name__ == "__main__":
    main(sys.argv[1:])
