"""tools/fingerprint.py's code_lines, the size it reports of src/cfrk and
of tests, and its count of the settable values."""

import dataclasses
import runpy
from pathlib import Path

from cfrk.bench import ExperimentConfig
from cfrk.cli import build_parser

fingerprint = runpy.run_path(str(Path(__file__).parents[1] / "tools" /
                                 "fingerprint.py"))
code_lines = fingerprint["code_lines"]


def test_code_lines_skips_blank_lines_comments_and_docstrings():
    # counted: the import, def, both lines of a string that is not a
    # docstring, class and its assignment; not the docstrings of the
    # module, function and class, comments or blank lines
    source = ('"""Module,\n\ndocstring."""\n\n# comment\nimport math  # a\n'
              '\n\ndef f():\n    """Doc."""\n    # note\n    return """\n'
              '    a string"""\n\n\nclass C:\n    """Doc."""\n    y = 1')
    assert code_lines(source) == 6


def test_settable_values_count_fields_and_options():
    counts = fingerprint["settable_values"]()
    assert counts["ExperimentConfig fields"] == \
        len(dataclasses.fields(ExperimentConfig))
    # integrate's options by the strings that name them, -h/--help aside
    (sub,) = build_parser()._subparsers._group_actions
    named = set(sub.choices["integrate"]._option_string_actions.values())
    assert counts["cfrk integrate options"] == len(named) - 1
