"""Print fingerprints of the cfrk source tree.

code lines: the non-blank lines of src/cfrk outside comments and
docstrings, the code size every change reports, in total and per module.

compiled sha256: one SHA-256 over the source of every compiled loop and
step kernel, in a fixed order, so a refactor that must leave the compiled
code as it was can show it did.  The loops are every catalog tableau x the
three problems x f as packaged, f wrapped in a Python function and an
action subclass that overrides exp (the calling form) x the adaptive loop,
the fixed-step loop and the fixed-step loop on the embedded solution,
where the tableau has embedded rows; the kernels are step_kernel of every
catalog tableau at algebra lengths 3, 4 and 6, with and without the
embedded rows.  A second SHA-256 covers the same sources but the
calling-form loops (the inline loops and the step kernels), so a change
confined to the calling form can show that the rest did not move.  One
more SHA-256 per geometry (so(3), gl(2), se(3)) covers the inline loops
of the problem on it, so a change confined to one geometry's inline
loops can show that the other geometries' did not move.

bytecode per attempt: the bytecode instructions the compiled adaptive
loop's own frame executes in a run, over the run's attempts, for the runs
in ATTEMPT_RUNS; a loop runs a built-in field inline, so its frame holds
the whole attempt.  The count is exact (sys.settrace with f_trace_opcodes
counts each instruction executed), so it repeats on a given CPython.

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

from cfrk.catalog import catalog, get_tableau  # noqa: E402
from cfrk.controller import (ControllerConfig, _loop,  # noqa: E402
                             integrate_adaptive)
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


# the geometry of each algebra length
GEOMETRIES = {3: "so(3)", 4: "gl(2)", 6: "se(3)"}


def compiled_sources():
    """(kind, source) of every compiled loop and step kernel, in order:
    kind is "calling" for a calling-form loop, "kernel" for a step kernel
    and the geometry (a value of GEOMETRIES) for an inline loop."""
    for tableau in catalog():
        modes = [False] + [None, True] * tableau.has_embedded
        for build in PROBLEM_BUILDERS.values():
            problem = build()
            geometry = GEOMETRIES[problem.action.algebra_length]
            for variant, kind in (
                    (problem, geometry),
                    (replace(problem, f=lambda y, f=problem.f: f(y)),
                     geometry),
                    (replace(problem, action=calling(problem.action)),
                     "calling")):
                for advance_embedded in modes:
                    yield kind, _loop(tableau, variant,
                                      advance_embedded)[0].source
        for n in GEOMETRIES:
            for with_embedded in (False, True):
                yield "kernel", step_kernel(tableau, n, with_embedded).source


# (problem, tableau, t1, tolerance as atol = rtol), each run from the
# problem's default initial state over [0, t1]
ATTEMPT_RUNS = [("van-der-pol", "cf43", 60.0, 1e-6),
                ("van-der-pol", "cf32a", 60.0, 1e-6),
                ("rigid-body", "cf43", 20.0, 1e-8),
                ("heavy-top", "cf43", 20.0, 1e-8)]


def bytecode_per_attempt(problem, tableau, t1, tol) -> tuple:
    """(instructions per attempt, attempts) of the adaptive run of tableau
    on problem over [0, t1] at atol = rtol = tol, counted in the frame of
    the compiled loop."""
    code = _loop(tableau, problem)[0].__code__
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return opcode

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        traj = integrate_adaptive(tableau, problem, problem.default_y0, 0.0,
                                  t1, ControllerConfig(atol=tol, rtol=tol))
    finally:
        sys.settrace(previous)
    attempts = len(traj.h_history)
    return count / attempts, attempts


def main() -> None:
    lines = {path.name: code_lines(path.read_text())
             for path in sorted((ROOT / "src" / "cfrk").glob("*.py"))}
    sources = list(compiled_sources())
    every = {kind for kind, _ in sources}
    print(f"src/cfrk code lines: {sum(lines.values())}")
    for name, count in lines.items():
        print(f"  {name}: {count}")
    for label, kinds in [("compiled", every),
                         ("inline loops and step kernels", every - {"calling"}),
                         *((f"{g} inline loops", {g})
                           for g in GEOMETRIES.values())]:
        chosen = [source for kind, source in sources if kind in kinds]
        digest = hashlib.sha256("".join(chosen).encode()).hexdigest()
        print(f"{label} sha256: {digest} ({len(chosen)} sources)")
    for name, tableau, t1, tol in ATTEMPT_RUNS:
        per, attempts = bytecode_per_attempt(PROBLEM_BUILDERS[name](),
                                             get_tableau(tableau), t1, tol)
        print(f"bytecode per attempt: {name} {tableau} [0, {t1:g}] "
              f"tol {tol:g}: {per:.1f} ({attempts} attempts)")


if __name__ == "__main__":
    main()
