"""scripts/src_lines.py: the line and code-line counts of a tree's ``src/``."""
import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _SCRIPT)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 17 lines, 7 of them code: blank lines, comment-only lines and the three
# docstrings (one of them over two lines) are not code; a line with a
# trailing comment, a string that is not a docstring and each line of a
# bracketed expression are
_MODULE = '''"""Module docstring."""
# a comment-only line

import math  # a trailing comment


class Shape:
    """Class docstring,
    over two lines."""

    def area(self):
        """Function docstring."""
        # indented comment
        "a bare string after the docstring"
        return math.pi * (
            1.0
        )
'''


def _tree(root: Path, extra: str = "") -> Path:
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(_MODULE)
    (package / "__init__.py").write_text(extra)
    return root


def test_a_module_counts_its_lines_and_its_code_lines():
    assert src_lines.count_file(_MODULE) == (17, 7)


def test_trees_sum_their_modules_and_print_the_differences(tmp_path, capsys):
    first = _tree(tmp_path / "a")
    second = _tree(tmp_path / "b", extra="# a comment\nx = 1\n\n")
    assert src_lines.count_tree(first) == (17, 7)
    assert src_lines.count_tree(second) == (20, 8)
    assert src_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{first}: src/ 17 lines, 7 code lines",
        f"{second}: src/ 20 lines, 8 code lines",
        "change: +3 lines, +1 code lines",
    ]
