"""Experiment harness: convergence, work-precision, step-size traces, and
tableau validation, with reproducible CSV/JSON output.

Every output embeds its configuration in a header (a JSON comment in
CSV), so any row can be reproduced from the file alone: ExperimentConfig's
fields as given, the tableau as given (a catalog name or a file path), and
under problem_params the problem's parameters with their defaults filled
in, the rigid body's seed among them.  The runners' own fallbacks are not
written there: the default steps and tols a sweep runs when they are
empty, and needle's tolerance and hmax when they are unset.

Reference solutions come from scipy's compiled DOP853, cross-checked with
its compiled LSODA, on each problem's ambient field, so the errors of
cfrk's own integrators are measured against integrators that share no
code with them.  Both run on the span shifted to start at 0, call the
field at no time beyond its end, and stop at the field's first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .catalog import get_tableau
from .controller import (ConfigError, ControllerConfig, IntegrationError,
                         check_method, check_span, check_steps,
                         integrate_adaptive, integrate_fixed)
from .order_conditions import certify_pair, is_genuine_pair
from .problems import build_problem
from .stepper import count_budget
from .tableaux import (TableauError, load_tableau, reuse_groups,
                       scan_identical_rows)

NEEDLE_WINDOW = (1.4, 1.56)

CSV_COLUMNS = {
    "convergence": ("h", "global_error", "local_slope"),
    "work-precision": ("tol", "global_error", "n_exp", "n_feval",
                       "n_steps", "n_rejected"),
    "needle": ("t", "h", "accepted", "y1", "y2", "err"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; its defaults are the command line's."""

    problem: str = "rigid-body"
    problem_params: dict = field(default_factory=dict)
    tableau: str = "cf32a"
    mode: str = "adaptive"
    tols: tuple = ()
    steps: tuple = ()
    t0: float = 0.0
    t1: float = 2.0
    atol: float = 1e-6
    rtol: float = 1e-6
    h0: float | None = None
    hmax: float | None = None
    advance_embedded: bool = False
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        # a run that cannot start fails here, before any reference solve
        if self.fmt not in RENDERERS:
            raise ConfigError(f"format must be {' or '.join(RENDERERS)}")
        check_span(self.t0, self.t1)
        for n in self.steps:
            check_steps(n, self.t0, self.t1)


def _resolve_tableau(name: str):
    """A tableau file when name ends in .json or contains a path
    separator, otherwise the catalog member of that name."""
    if name.endswith(".json") or os.path.sep in name:
        return load_tableau(name)
    try:
        return get_tableau(name)
    except KeyError as exc:
        raise TableauError(exc.args[0]) from None


def build_experiment(config: ExperimentConfig):
    return (build_problem(config.problem, config.problem_params),
            _resolve_tableau(config.tableau))


def resolved_config(config: ExperimentConfig) -> dict:
    """The output header: config's fields as given, with problem_params
    holding every parameter of the problem (see the module docstring)."""
    out = dataclasses.asdict(config)
    out["problem_params"] = dataclasses.asdict(
        build_problem(config.problem, config.problem_params).params)
    out["tols"] = list(config.tols)
    out["steps"] = list(config.steps)
    return out


# ------------------------------------------------------- reference solutions

class ReferenceSolveError(RuntimeError):
    """A reference solve failed, or its two integrators disagree."""


def reference_endpoint(problem, y0, t0: float, t1: float) -> np.ndarray:
    """High-accuracy solution at t1 from an integrator independent of cfrk.

    Integrates problem.ambient_field, which uses neither f nor the group
    action, with scipy's compiled DOP853 (Hairer's code, through
    scipy.integrate.ode) at rtol 1e-13, atol 1e-14, cross-checked against
    the compiled LSODA (Adams/BDF multistep, a different method family,
    through scipy.integrate.odeint with t1 as its critical time) at rtol
    1e-12, atol 1e-14.  The ambient fields read no t, so both solve over
    [0, t1 - t0]; messages give times as t0 + t.  Neither has a step limit,
    and neither calls the field beyond t1.  The first failure in the
    field, a non-finite derivative or any exception it raises, stops the
    solve: the field is not called again and the failure is raised
    unchanged once the solver returns.  A non-finite derivative, a failed
    solve or a cross-check gap above 1e-9 raises ReferenceSolveError (a
    RuntimeError) rather than returning a silently bad reference; a
    problem without an ambient field raises ValueError, and a span that
    is not finite with t1 > t0 ConfigError (a ValueError).  One call over
    [0, 2] takes about 1 ms on the heavy top, 0.4 ms on the rigid body and
    14 ms on Van der Pol (shared 2-vCPU host; see README).
    """
    check_span(t0, t1)
    field = problem.ambient_field
    if field is None:
        raise ValueError(f"problem {problem.name!r} has no ambient_field "
                         "to compute a reference from")
    # scipy.integrate takes most of a second to import; only this needs it.
    from scipy.integrate import ode, odeint

    y0 = np.asarray(y0, float)
    zero, failure = np.zeros_like(y0), []

    def rhs(t, y):
        # The compiled solvers call on past an exception raised here, so the
        # first failure is kept and zeros, which end the solve in a few
        # steps, are returned in place of the field.
        if failure:
            return zero
        try:
            dy = np.asarray(field(y), float)
            # the sum is finite only if every entry is; it may overflow
            # where they all are, so the exact test decides then
            if not (math.isfinite(sum(dy.tolist()))
                    or np.isfinite(dy).all()):
                raise ReferenceSolveError(
                    f"reference for {problem.name}: non-finite derivative "
                    f"at t={t0 + t}")
        except BaseException as exc:
            failure.append(exc)
            return zero
        return dy

    # Solving from t = 0 rather than t0 keeps a span of a few ulps of t0
    # above both solvers' floors relative to |t|.  Still, LSODA's own first
    # step is 0 once 1 / (rtol T^2) overflows (T = t1 - t0 below ~7e-149),
    # and DOP853 refuses a step h with 0.1 |h| <= eps |t|, so at t = 0 one
    # whose tenth underflows (T below ~2.5e-323).  Their error control
    # cannot see a span that short, so there both take it in one step:
    # LSODA is given the span as its first step, DOP853 a first step of 1,
    # which it cuts to the span.
    span = t1 - t0
    tiny = 1e-12 * span * span < 1.0 / sys.float_info.max

    def dop853():
        solver = ode(rhs).set_integrator("dop853", rtol=1e-13, atol=1e-14,
                                         first_step=1.0 if tiny else 0.0,
                                         nsteps=2**31 - 1)
        solver.set_initial_value(y0, 0.0)
        end = solver.integrate(span)
        return (end, solver.successful(),
                f"return code {solver.get_return_code()}")

    def lsoda():
        # odeint, not ode: only odeint passes tcrit, which keeps LSODA from
        # stepping past the span and interpolating back, so the field is
        # never called beyond t1
        ys, info = odeint(rhs, y0, [0.0, span], rtol=1e-12, atol=1e-14,
                          tcrit=[span], h0=span if tiny else 0.0,
                          mxstep=2**31 - 1, full_output=True, tfirst=True)
        return (ys[-1], info["message"] == "Integration successful.",
                info["message"])

    ends = []
    for method, solve in (("DOP853", dop853), ("LSODA", lsoda)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the failure is raised below
            end, successful, message = solve()
        if failure:
            raise failure[0]
        if not successful:
            raise ReferenceSolveError(
                f"reference {method} solve failed for {problem.name}: "
                f"{message}")
        ends.append(end)
    ref, check = ends
    agreement = float(np.linalg.norm(ref - check))
    if agreement > 1e-9:
        raise ReferenceSolveError(
            f"reference cross-check failed for {problem.name}: DOP853 and "
            f"LSODA differ by {agreement:.2e}")
    return ref


# ------------------------------------------------------------------- runners

def _sweep(problem, ref, runs):
    """(key, trajectory, error) for each entry (key, label, run) of runs,
    the error of the run's endpoint against ref in problem's metric, and
    the failures: an IntegrationError gives its partial trajectory, error
    NaN and a failures entry "label: message", and the sweep goes on."""
    results, failures = [], []
    for key, label, run in runs:
        try:
            traj = run()
            err = problem.action.ambient_distance(traj.y_end, ref)
        except IntegrationError as exc:
            failures.append(f"{label}: {exc}")
            traj, err = exc.trajectory, math.nan
        results.append((key, traj, err))
    return results, failures


def run_convergence(config: ExperimentConfig):
    """Fixed-step global errors against the reference, with local slopes.

    Rows are (h, global_error, local_slope); the slope on each row is
    measured against the previous (coarser) row and the first row carries
    NaN.  A step count that fails gives a NaN row and a failures entry.
    """
    problem, tableau = build_experiment(config)
    check_method(tableau, False, config.advance_embedded)
    steps = config.steps or (40, 80, 160, 320)
    t0, t1, y0 = config.t0, config.t1, problem.default_y0
    ref = reference_endpoint(problem, y0, t0, t1)
    results, failures = _sweep(problem, ref, [(n, f"steps={n}", partial(
        integrate_fixed, tableau, problem, y0, t0, t1, n,
        advance_embedded=config.advance_embedded)) for n in steps])
    rows = []
    for n, _, err in results:
        h = (t1 - t0) / n
        h_prev, e_prev, _ = rows[-1] if rows else (h, math.nan, None)
        slope = (math.log(e_prev / err) / math.log(h_prev / h)
                 if err > 0.0 and e_prev > 0.0 and h_prev != h else math.nan)
        rows.append((h, err, slope))
    return rows, {"reference_norm": float(np.linalg.norm(ref)),
                  "advance_embedded": config.advance_embedded,
                  "failures": failures}


def run_work_precision(config: ExperimentConfig):
    """Cost and accuracy per tolerance (adaptive) and per step count (fixed).

    Rows are (tol, global_error, n_exp, n_feval, n_steps, n_rejected);
    fixed-step rows carry tol = NaN.  A failed entry is recorded with
    global_error = NaN and listed in the summary instead of aborting the
    sweep.  Every tolerance's ControllerConfig is built first, so a bad
    tolerance raises ControllerConfigError before the reference is solved.
    """
    problem, tableau = build_experiment(config)
    check_method(tableau, True)
    tols = config.tols or (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    t0, t1, y0 = config.t0, config.t1, problem.default_y0
    runs = [(tol, f"tol={tol:g}", partial(
        integrate_adaptive, tableau, problem, y0, t0, t1,
        ControllerConfig(atol=tol, rtol=tol, h0=config.h0,
                         hmax=math.inf if config.hmax is None
                         else config.hmax))) for tol in tols]
    runs += [(math.nan, f"steps={n}", partial(
        integrate_fixed, tableau, problem, y0, t0, t1, n))
        for n in config.steps]
    results, failures = _sweep(
        problem, reference_endpoint(problem, y0, t0, t1), runs)
    # Totals is (n_exp, n_feval, n_accepted, n_rejected)
    return ([(tol, err, *dataclasses.astuple(traj.totals))
             for tol, traj, err in results], {"failures": failures})


def attempt_rows(traj) -> list:
    """One needle row (t, h, accepted, y1, y2, err) per attempt of
    traj.h_history; y1 and y2 are the first two entries of the candidate
    end state.  The CSV rows of cfrk integrate and needle are these, so the
    trace cannot disagree with h_history."""
    nan = math.nan
    return [(a.t, a.h, a.accepted, a.y[0] if a.y else nan,
             a.y[1] if len(a.y) > 1 else nan, a.err) for a in traj.h_history]


def _trace(config: ExperimentConfig, atol: float, rtol: float, hmax: float):
    """One adaptive run of config's problem and tableau from its default
    y0 over [t0, t1], with these tolerances and hmax: one attempt_rows row
    per attempt, and the run's end point and totals as the summary."""
    problem, tableau = build_experiment(config)
    cfg = ControllerConfig(atol=atol, rtol=rtol, h0=config.h0, hmax=hmax)
    traj = integrate_adaptive(tableau, problem, problem.default_y0,
                              config.t0, config.t1, cfg)
    return attempt_rows(traj), {"t_end": traj.t_end,
                                "y_end": traj.y_end.tolist(),
                                **dataclasses.asdict(traj.totals)}


def run_integrate(config: ExperimentConfig):
    """One adaptive run at config's atol and rtol: the needle rows of every
    attempt, and its end point and totals as the summary."""
    return _trace(config, config.atol, config.rtol,
                  math.inf if config.hmax is None else config.hmax)


def run_needle(config: ExperimentConfig):
    """Per-attempt step trace of an adaptive run, with a step-size summary
    over the spike window t in [1.4, 1.56] (the Van der Pol needle).

    Rows are (t, h, accepted, y1, y2, err) for every attempt, rejected ones
    included; t is the time at the start of the attempt and y the candidate
    end state.  It takes at most one tolerance, else ConfigError.
    """
    if len(config.tols) > 1:
        raise ConfigError(f"needle takes one tolerance, got {config.tols}")
    tol = config.tols[0] if config.tols else config.atol
    # Default max step of a tenth of the span (the usual ODE-suite choice)
    # keeps the slow-branch part of the trace resolved.
    hmax = config.hmax if config.hmax is not None \
        else (config.t1 - config.t0) / 10.0
    rows, summary = _trace(config, tol, tol, hmax)
    del summary["n_feval"]  # the needle summary counts exponentials only

    lo, hi = NEEDLE_WINDOW
    accepted_h = [h for _, h, accepted, *_ in rows if accepted]
    window_h = [h for t, h, accepted, *_ in rows
                if accepted and lo <= t <= hi]
    n_att = len(rows)
    summary.update({
        "needle_window": [lo, hi],
        "min_h_in_window": min(window_h) if window_h else float("nan"),
        "median_h": float(np.median(accepted_h)) if accepted_h else float("nan"),
        "reject_fraction": summary["n_rejected"] / n_att if n_att else 0.0,
    })
    return rows, summary


def run_tableau_check(config: ExperimentConfig):
    """Validation report for one tableau: order-condition residuals,
    certified orders, reuse census, and static cost budget.

    Returns (text_report, payload).  The boolean payload["ok"] is true when
    each certified order reaches the claimed one, no condition of the
    claimed order is violated, an embedded pair is genuine and all
    declared reuse is sound and maximal.
    """
    tableau = _resolve_tableau(config.tableau)
    reports = certify_pair(tableau)
    principal = reports["principal"]
    lines = [f"tableau {tableau.name}: s={tableau.s}, fsal={tableau.fsal}, "
             f"claimed order {tableau.order_p}"
             + (f"({tableau.order_phat})" if tableau.has_embedded else "")]

    def render(report, claimed):
        lines.append(f"  {report.which}: certified algebraic order "
                     f"{report.certified_algebraic_order} "
                     f"(claimed {claimed}, tolerance {report.tolerance:g})")
        for label, value in report.classical_residuals.items():
            lines.append(f"    classical   {label:24s} residual {value: .3e}")
        for label, value in report.nonclassical_residuals.items():
            lines.append(f"    split       {label:36s} residual {value: .3e}")
        violated = report.failed(claimed, report.tolerance)
        for label in violated:
            lines.append(f"    VIOLATED at claimed order: {label}")
        for note in report.notes:
            lines.append(f"    note: {note}")
        return violated

    bad = list(render(principal, tableau.order_p))
    pair_ok = True
    if tableau.has_embedded:
        bad += render(reports["embedded"], tableau.order_phat)
        pair_ok, _ = is_genuine_pair(tableau)
        lines.append(f"  genuine {tableau.order_p}({tableau.order_phat}) "
                     f"pair: {pair_ok}")

    declared = reuse_groups(tableau)
    observed = scan_identical_rows(tableau)
    maximal = (sorted(map(sorted, declared)) == sorted(map(sorted, observed)))
    lines.append(f"  reuse groups declared: "
                 + ("; ".join(str(sorted(g)) for g in declared) or "none"))
    lines.append(f"  declared reuse maximal and sound: {maximal}")

    n_exp, n_feval = count_budget(tableau)
    lines.append(f"  budget per step (fsal carry, reuse on): "
                 f"{n_exp} exponentials, {n_feval} f evaluations")

    claimed = {"principal": tableau.order_p, "embedded": tableau.order_phat}
    reached = all(report.certified_algebraic_order >= claimed[which]
                  for which, report in reports.items())
    ok = (not bad) and reached and maximal and pair_ok
    payload = {
        "name": tableau.name,
        "ok": bool(ok),
        "violated": bad,
        "certified_order": principal.certified_algebraic_order,
        "claimed_order": tableau.order_p,
        "reuse_maximal": bool(maximal),
        "n_exp": n_exp,
        "n_feval": n_feval,
    }
    if tableau.has_embedded:
        payload["certified_order_embedded"] = \
            reports["embedded"].certified_algebraic_order
        payload["genuine_pair"] = bool(pair_ok)
    return "\n".join(lines), payload


# -------------------------------------------------------------- serialization

def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)  # a float's str is its repr


def render_csv(columns, rows, config_dict: dict, summary: dict | None = None) -> str:
    def comment(doc):
        return strict_json(doc, separators=(",", ":"))
    lines = ["# " + comment(config_dict)]
    if summary is not None:
        lines.append("# summary: " + comment(summary))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _finite_or_null(v):
    """v with every non-finite float in it, at any depth, as None (null)."""
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def strict_json(doc, **layout) -> str:
    """doc as the strict JSON every output is written in: sorted keys and
    each non-finite float as null; layout is json.dumps's indent or
    separators."""
    return json.dumps(_finite_or_null(doc), sort_keys=True, allow_nan=False,
                      **layout)


def render_json(columns, rows, config_dict: dict, summary: dict | None = None) -> str:
    doc = {"config": config_dict, "columns": columns, "rows": rows}
    if summary is not None:
        doc["summary"] = summary
    return strict_json(doc, indent=2) + "\n"


# each output format -> its renderer: (columns, rows, config_dict, summary)
# -> the text written
RENDERERS = {"csv": render_csv, "json": render_json}


def open_output(out: str | None):
    """The file out, opened for writing, or stdout where out is None, as a
    context manager."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", newline="\n")
