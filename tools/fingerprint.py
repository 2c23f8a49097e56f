"""Print two fingerprints of the cfrk source tree.

code lines: the non-blank lines of src/cfrk outside comments and
docstrings, the code size every change reports.

compiled sha256: one SHA-256 over the source of every compiled loop and
step kernel, in a fixed order, so a refactor that must leave the compiled
code as it was can show it did.  The loops are every catalog tableau x the
three problems x f as packaged, f wrapped in a Python function and an
action subclass that overrides exp (the calling form) x the adaptive loop,
the fixed-step loop and the fixed-step loop on the embedded solution,
where the tableau has embedded rows; the kernels are step_kernel of every
catalog tableau at algebra lengths 3, 4 and 6, with and without the
embedded rows.

Run from the repository root: python3 tools/fingerprint.py
"""

from __future__ import annotations

import ast
import hashlib
import io
import sys
import tokenize
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cfrk.catalog import catalog  # noqa: E402
from cfrk.controller import _loop  # noqa: E402
from cfrk.problems import PROBLEM_BUILDERS  # noqa: E402
from cfrk.stepper import step_kernel  # noqa: E402


def code_lines(source: str) -> int:
    """The lines of source holding a token outside comments and
    docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def calling(action):
    """An action of action's class whose exp overrides it with a call."""
    class Calling(type(action)):
        def exp(self, v):
            return super().exp(v)
    return Calling()


def compiled_sources():
    """The source of every compiled loop and step kernel, in order."""
    for tableau in catalog():
        modes = [False] + [None, True] * tableau.has_embedded
        for build in PROBLEM_BUILDERS.values():
            problem = build()
            for variant in (problem,
                            replace(problem, f=lambda y, f=problem.f: f(y)),
                            replace(problem, action=calling(problem.action))):
                for advance_embedded in modes:
                    yield _loop(tableau, variant, advance_embedded)[0].source
        for n in (3, 4, 6):
            for with_embedded in (False, True):
                yield step_kernel(tableau, n, with_embedded).source


def main() -> None:
    lines = sum(code_lines(path.read_text())
                for path in sorted((ROOT / "src" / "cfrk").glob("*.py")))
    digest, count = hashlib.sha256(), 0
    for source in compiled_sources():
        digest.update(source.encode())
        count += 1
    print(f"src/cfrk code lines: {lines}")
    print(f"compiled sha256: {digest.hexdigest()} ({count} sources)")


if __name__ == "__main__":
    main()
