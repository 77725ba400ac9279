"""The code-line rule of `tools/code_lines.py`."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment counts its line


class Box:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        text = """a string that is not a docstring
        counts every line it spans"""
        return (1 +
                2)
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, def, the string's two lines, return and its second line
    assert code_lines.code_lines(SNIPPET) == 7
