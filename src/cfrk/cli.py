"""Command-line interface.

Subcommands mirror the experiment classes: ``tableaux list`` and
``tableaux check`` for validation, ``integrate`` for a single adaptive run,
and ``convergence`` / ``work-precision`` / ``needle`` for the benchmark
sweeps.  Output goes to stdout or, with --out, to a CSV/JSON file carrying
the fully resolved configuration in its header.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bench import (CSV_COLUMNS, ExperimentConfig, ReferenceSolveError,
                    open_output, render_csv, render_json, resolved_config,
                    run_convergence, run_integrate, run_needle,
                    run_tableau_check, run_work_precision, write_output)
from .catalog import catalog
from .controller import ConfigError, IntegrationError
from .stepper import count_budget
from .tableaux import TableauError


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _add_common(sp, *, tableau_default=None):
    sp.add_argument("--problem", default="rigid-body",
                    choices=("rigid-body", "van-der-pol", "heavy-top"))
    sp.add_argument("--tableau", default=tableau_default,
                    help="catalog name or path to a tableau JSON file")
    sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="problem parameter override (repeatable)")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", default="csv",
                    choices=("csv", "json"))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser (subparsers too) reading -1e308 as a value, as -1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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
    p_check.add_argument("--tableau", required=True)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--format", dest="fmt", default="csv",
                         choices=("csv", "json"))

    p_int = sub.add_parser("integrate", help="one adaptive integration")
    _add_common(p_int, tableau_default="cf43")
    p_int.add_argument("--atol", type=float, default=1e-6)
    p_int.add_argument("--rtol", type=float, default=1e-6)
    p_int.add_argument("--h0", type=float, default=None)
    p_int.add_argument("--hmax", type=float, default=None)

    p_conv = sub.add_parser("convergence", help="fixed-step convergence table")
    _add_common(p_conv, tableau_default="cf4")
    p_conv.add_argument("--steps", action="append", type=int,
                        help="step count (repeatable)")
    p_conv.add_argument("--embedded", action="store_true",
                        dest="advance_embedded",
                        help="advance with the embedded solution instead")

    p_wp = sub.add_parser("work-precision",
                          help="cost vs error across tolerances")
    _add_common(p_wp, tableau_default="cf32a")
    p_wp.add_argument("--tol", action="append", type=float,
                      help="tolerance (repeatable)")
    p_wp.add_argument("--steps", action="append", type=int,
                      help="also run fixed-step entries (repeatable)")
    p_wp.add_argument("--h0", type=float, default=None)
    p_wp.add_argument("--hmax", type=float, default=None)

    p_needle = sub.add_parser("needle", help="adaptive step-size trace")
    _add_common(p_needle, tableau_default="cf32a")
    p_needle.add_argument("--tol", action="append", type=float)
    p_needle.add_argument("--h0", type=float, default=None)
    p_needle.add_argument("--hmax", type=float, default=None)
    p_needle.set_defaults(problem="van-der-pol", t1=15.0)

    return parser


# Each run command -> its ExperimentConfig mode, the name of its runner in
# this module (looked up when it runs, so a replaced runner is the one
# called) and its CSV columns.
_RUNS = {"integrate": ("adaptive", "run_integrate", "needle"),
         "convergence": ("convergence", "run_convergence", "convergence"),
         "work-precision": ("work-precision", "run_work_precision",
                            "work-precision"),
         "needle": ("needle", "run_needle", "needle")}


def _config_from(args, mode: str) -> ExperimentConfig:
    # the options only some commands take: ExperimentConfig's defaults
    # where a command has none
    given = {name: getattr(args, name) for name in
             ("atol", "rtol", "h0", "hmax", "advance_embedded")
             if hasattr(args, name)}
    return ExperimentConfig(
        problem=args.problem,
        problem_params=_parse_params(args.param),
        tableau=args.tableau,
        mode=mode,
        tols=tuple(getattr(args, "tol", None) or ()),
        steps=tuple(getattr(args, "steps", None) or ()),
        t0=args.t0,
        t1=args.t1,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
        **given,
    )


def _cmd_tableaux_list() -> int:
    for t in catalog():
        n_exp, n_feval = count_budget(t)
        pair = f"{t.order_p}({t.order_phat})" if t.has_embedded \
            else str(t.order_p)
        print(f"{t.name:14s} s={t.s} order={pair:5s} fsal={str(t.fsal):5s} "
              f"exp/step={n_exp} feval/step={n_feval}")
    return 0


def _cmd_tableaux_check(args) -> int:
    config = ExperimentConfig(tableau=args.tableau, mode="tableau-check",
                              out=args.out, fmt=args.fmt)
    text, payload = run_tableau_check(config)
    write_output((json.dumps(payload, sort_keys=True, indent=2)
                  if args.fmt == "json" else text) + "\n", args.out)
    return 0 if payload["ok"] else 1


def _dispatch(args) -> int:
    if args.command == "tableaux":
        if args.tableaux_command == "list":
            return _cmd_tableaux_list()
        return _cmd_tableaux_check(args)
    mode, runner, kind = _RUNS[args.command]
    config = _config_from(args, mode)
    # --out is opened before the run, so that a path that cannot be
    # written ends the command before any solve
    with open_output(config.out) as out:
        rows, summary = globals()[runner](config)
        render = render_csv if config.fmt == "csv" else render_json
        out.write(render(CSV_COLUMNS[kind], rows, resolved_config(config),
                         summary))
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
