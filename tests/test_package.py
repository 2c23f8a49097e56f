"""The package's public surface: every name cfrk.__all__ lists exists, and
README.md's examples run."""

import ast
import copy
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import cfrk
from cfrk.cli import build_parser, main


def test_star_import_and_every_public_name_resolve():
    # a star import raises AttributeError on an __all__ entry left behind
    # by a deletion
    namespace = {}
    exec("from cfrk import *", namespace)
    assert len(cfrk.__all__) == len(set(cfrk.__all__))
    for name in cfrk.__all__:
        assert namespace[name] is getattr(cfrk, name)



def test_records_holding_arrays_compare_and_hash_by_identity():
    # a field-wise == would take the truth value of an array, and a hash of
    # the fields would hash an array
    cf4, prob = cfrk.get_tableau("cf4"), cfrk.rigid_body()
    records = [cf4, cfrk.reduce(cf4), prob,
               cfrk.Se3Element(np.eye(3), np.zeros(3)),
               cfrk.integrate_fixed(cf4, prob, prob.default_y0, 0.0, 0.1, 2)]
    for record in records:
        twin = copy.copy(record)
        assert record == record and record != twin
        assert len({record, twin, record}) == 2

# ------------------------------------------------------- README's examples

README = Path(__file__).parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The text of README.md's section "## title", its subsections too."""
    return next(part for part in README.read_text().split("\n## ")
                if part.startswith(title + "\n"))


def code_blocks(text: str, language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def test_console_script_is_the_cli_main():
    # README runs every command as `cfrk ...`, pyproject's console script
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    doc = tomllib.loads((README.parent / "pyproject.toml").read_text())
    module, _, name = doc["project"]["scripts"]["cfrk"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_readme_command_lines_parse():
    # every command of the Command line block is one the parser takes
    lines = [line for block in code_blocks(readme_section("Command line"),
                                           "sh")
             for line in block.splitlines() if line.startswith("cfrk ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_library_example_runs(capsys):
    [block] = code_blocks(readme_section("Library entry points"), "python")
    exec(block, {})
    y_end, drift = capsys.readouterr().out.splitlines()
    assert y_end.startswith("[") and float(drift) < 1e-12


def test_readme_names_the_owner_of_each_idea():
    # each name "How a step runs" points to is a module, class or function
    # of cfrk with a docstring, or a test that exists
    names = re.findall(r"`([^`]+)`", readme_section("How a step runs"))
    assert len(names) >= 8
    for name in names:
        if "::" in name:
            path, test = name.split("::")
            tree = ast.parse((README.parent / path).read_text())
            assert test in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, name
            continue
        head, *rest = name.split(".")
        try:
            owner = importlib.import_module(f"cfrk.{head}")
        except ModuleNotFoundError:
            owner = getattr(cfrk, head)
        for attr in rest:
            owner = getattr(owner, attr)
        assert (owner.__doc__ or "").strip(), name
