"""Command-line interface.

Subcommands mirror the experiment classes: ``tableaux list`` and
``tableaux check`` for validation, ``integrate`` for a single adaptive run,
and ``convergence`` / ``work-precision`` / ``needle`` for the benchmark
sweeps.  Each command but ``tableaux list`` builds one ExperimentConfig from
the options given: an option left out takes ExperimentConfig's default,
except the few a command sets itself (its tableau, its mode, and needle's
problem and t1).  Output goes to stdout or, with --out, to a CSV/JSON file,
opened before the run; a run's file carries the fully resolved
configuration in its header.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bench import (CSV_COLUMNS, RENDERERS, ExperimentConfig,
                    ReferenceSolveError, open_output, resolved_config,
                    run_convergence, run_integrate, run_needle,
                    run_tableau_check, run_work_precision, strict_json)
from .catalog import catalog
from .controller import ConfigError, IntegrationError
from .problems import PROBLEM_BUILDERS
from .stepper import count_budget
from .tableaux import TableauError


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _add_common(sp, **defaults):
    # the defaults this command keeps beside ExperimentConfig's
    sp.set_defaults(**defaults)
    sp.add_argument("--problem", choices=PROBLEM_BUILDERS)
    sp.add_argument("--tableau",
                    help="catalog name or path to a tableau JSON file")
    sp.add_argument("--param", action="append", dest="problem_params",
                    metavar="KEY=VALUE",
                    help="problem parameter override (repeatable)")
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--out")
    sp.add_argument("--format", dest="fmt", choices=RENDERERS)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser (subparsers too) reading -1e308 as a value, as -1,
    and leaving an option that is not given out of the namespace, so that
    ExperimentConfig's default applies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfrk",
        description="Adaptive commutator-free Lie group integrators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("tableaux", help="inspect or validate tableaux")
    tab_sub = p_tab.add_subparsers(dest="tableaux_command", required=True)
    tab_sub.add_parser("list", help="list catalog tableaux")
    p_check = tab_sub.add_parser("check", help="validate one tableau")
    p_check.set_defaults(mode="tableau-check")
    p_check.add_argument("--tableau", required=True)
    p_check.add_argument("--out")
    p_check.add_argument("--format", dest="fmt", choices=RENDERERS)

    p_int = sub.add_parser("integrate", help="one adaptive integration")
    _add_common(p_int, mode="adaptive", tableau="cf43")
    p_int.add_argument("--atol", type=float)
    p_int.add_argument("--rtol", type=float)
    p_int.add_argument("--h0", type=float)
    p_int.add_argument("--hmax", type=float)

    p_conv = sub.add_parser("convergence", help="fixed-step convergence table")
    _add_common(p_conv, mode="convergence", tableau="cf4")
    p_conv.add_argument("--steps", action="append", type=int,
                        help="step count (repeatable)")
    p_conv.add_argument("--embedded", action="store_true",
                        dest="advance_embedded",
                        help="advance with the embedded solution instead")

    p_wp = sub.add_parser("work-precision",
                          help="cost vs error across tolerances")
    _add_common(p_wp, mode="work-precision", tableau="cf32a")
    p_wp.add_argument("--tol", action="append", type=float, dest="tols",
                      metavar="TOL", help="tolerance (repeatable)")
    p_wp.add_argument("--steps", action="append", type=int,
                      help="also run fixed-step entries (repeatable)")
    p_wp.add_argument("--h0", type=float)
    p_wp.add_argument("--hmax", type=float)

    p_needle = sub.add_parser("needle", help="adaptive step-size trace")
    _add_common(p_needle, mode="needle", tableau="cf32a",
                problem="van-der-pol", t1=15.0)
    p_needle.add_argument("--tol", action="append", type=float, dest="tols",
                          metavar="TOL")
    p_needle.add_argument("--h0", type=float)
    p_needle.add_argument("--hmax", type=float)

    return parser


# Each run mode -> the name of its runner in this module (looked up when it
# runs, so a replaced runner is the one called) and its CSV columns.
_RUNS = {"adaptive": ("run_integrate", "needle"),
         "convergence": ("run_convergence", "convergence"),
         "work-precision": ("run_work_precision", "work-precision"),
         "needle": ("run_needle", "needle")}


def _config_from(args) -> ExperimentConfig:
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "tableaux_command")}
    if "problem_params" in given:
        given["problem_params"] = _parse_params(given["problem_params"])
    for name in ("tols", "steps"):  # a repeated option gives a list
        if name in given:
            given[name] = tuple(given[name])
    return ExperimentConfig(**given)


def _cmd_tableaux_list() -> int:
    for t in catalog():
        n_exp, n_feval = count_budget(t)
        pair = f"{t.order_p}({t.order_phat})" if t.has_embedded \
            else str(t.order_p)
        print(f"{t.name:14s} s={t.s} order={pair:5s} fsal={str(t.fsal):5s} "
              f"exp/step={n_exp} feval/step={n_feval}")
    return 0


def _dispatch(args) -> int:
    if getattr(args, "tableaux_command", None) == "list":
        return _cmd_tableaux_list()
    config = _config_from(args)
    # --out is opened before the run, so that a path that cannot be
    # written ends the command before any solve
    with open_output(config.out) as out:
        if config.mode == "tableau-check":
            text, payload = run_tableau_check(config)
            out.write((strict_json(payload, indent=2)
                       if config.fmt == "json" else text) + "\n")
            return 0 if payload["ok"] else 1
        runner, kind = _RUNS[config.mode]
        rows, summary = globals()[runner](config)
        out.write(RENDERERS[config.fmt](CSV_COLUMNS[kind], rows,
                                        resolved_config(config), summary))
    return 1 if summary.get("failures") else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (TableauError, ConfigError) as exc:
        # a bad --tableau, --param, span, step count, tolerance or step
        # size is a usage error: one line, argparse's exit code
        print(f"cfrk: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except ReferenceSolveError as exc:
        print(f"cfrk: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # --out's; a tableau file's is TableauError
        out = getattr(args, "out", None) or "stdout"
        print(f"cfrk: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
