"""Code lines of Python files: the count the project's change notes quote.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a folder searched for them; the default is
``src/qcldpc``. A code line holds some token other than a comment, a
line break, an indent or a dedent, and is not a line of a module, class
or function docstring. One line per file, then the total, go to stdout.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """How many lines of ``source`` hold code, docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths):
    for path in paths:
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "qcldpc"])
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{count:6d}  {shown}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
