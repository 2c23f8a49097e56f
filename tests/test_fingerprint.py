"""tools/fingerprint.py's code_lines, the size it reports of src/cfrk and
of tests."""

import runpy
from pathlib import Path

code_lines = runpy.run_path(str(Path(__file__).parents[1] / "tools" /
                                "fingerprint.py"))["code_lines"]


def test_code_lines_skips_blank_lines_comments_and_docstrings():
    # counted: the import, def, both lines of a string that is not a
    # docstring, class and its assignment; not the docstrings of the
    # module, function and class, comments or blank lines
    source = ('"""Module,\n\ndocstring."""\n\n# comment\nimport math  # a\n'
              '\n\ndef f():\n    """Doc."""\n    # note\n    return """\n'
              '    a string"""\n\n\nclass C:\n    """Doc."""\n    y = 1')
    assert code_lines(source) == 6
