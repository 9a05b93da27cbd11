"""Count the lines of a source tree's ``src/`` package, with and without
the lines that hold no code.

    python3 scripts/src_lines.py TREE [TREE]

For each tree, prints the number of lines in the ``*.py`` files under
``TREE/src`` and the number of code lines: every line except blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, a class or a function).  Given two trees, it also prints the
second minus the first for both counts.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
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
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_bearing_lines(source: str) -> set[int]:
    """Lines on which a token other than a comment or a line break starts
    or continues (a multi-line string covers each of its lines)."""
    lines = set()
    skip = (
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
    )
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count_file(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    total = len(source.splitlines())
    code = _code_bearing_lines(source) - _docstring_lines(ast.parse(source))
    return total, len(code)


def count_tree(tree: Path) -> tuple[int, int]:
    """``(lines, code lines)`` summed over ``tree/src/**/*.py``."""
    total = code = 0
    for path in sorted((tree / "src").rglob("*.py")):
        lines, code_lines = count_file(path.read_text())
        total += lines
        code += code_lines
    return total, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    counts = [count_tree(tree) for tree in args.trees]
    for tree, (total, code) in zip(args.trees, counts):
        print(f"{tree}: src/ {total} lines, {code} code lines")
    if len(counts) == 2:
        (total_a, code_a), (total_b, code_b) = counts
        print(f"change: {total_b - total_a:+d} lines, {code_b - code_a:+d} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
