"""Experiment harness: convergence, work-precision, step-size traces, and
tableau validation, with reproducible CSV/JSON output.

Every output embeds the fully resolved configuration (defaults filled in,
seed included) as a JSON comment, so any row can be reproduced from the
file alone.  Reference solutions come from scipy's DOP853 on each
problem's ambient field, so the errors of cfrk's own integrators are
measured against an integrator that shares no code with them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .catalog import get_tableau
from .controller import (ConfigError, ControllerConfig, IntegrationError,
                         check_span, integrate_adaptive, integrate_fixed)
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
    seed: int = 7
    advance_embedded: bool = False
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        # a run that cannot start fails here, before any reference solve
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        check_span(self.t0, self.t1)
        for n in self.steps:
            if n < 1:
                raise ConfigError(f"need step counts >= 1, got {n}")


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
    params = dict(config.problem_params)
    if config.problem == "rigid-body" and "seed" not in params:
        params["seed"] = config.seed
    problem = build_problem(config.problem, params)
    return problem, _resolve_tableau(config.tableau)


def resolved_config(config: ExperimentConfig) -> dict:
    """The full configuration with defaults filled in, for output headers."""
    problem, tableau = build_experiment(config)
    out = dataclasses.asdict(config)
    out["problem_params"] = dataclasses.asdict(problem.params)
    out["tableau"] = tableau.name
    out["tols"] = list(config.tols)
    out["steps"] = list(config.steps)
    return out


# ------------------------------------------------------- reference solutions

def reference_endpoint(problem, y0, t0: float, t1: float) -> np.ndarray:
    """High-accuracy solution at t1 from an integrator independent of cfrk.

    Integrates problem.ambient_field, which uses neither f nor the group
    action, with scipy's DOP853 at rtol 1e-13, atol 1e-14, cross-checked
    against LSODA (Adams/BDF multistep, a different method family) at
    rtol 1e-12, atol 1e-14.  A failed solve, a non-finite derivative or a
    cross-check gap above 1e-9 raises RuntimeError rather than returning a
    silently bad reference; a problem without an ambient field raises
    ValueError, and a span that is not finite with t1 > t0 ConfigError
    (a ValueError).
    """
    check_span(t0, t1)
    field = problem.ambient_field
    if field is None:
        raise ValueError(f"problem {problem.name!r} has no ambient_field "
                         "to compute a reference from")
    # scipy.integrate takes most of a second to import; only this needs it.
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        dy = field(y)
        if not np.all(np.isfinite(dy)):
            raise RuntimeError(f"reference for {problem.name}: non-finite "
                               f"derivative at t={t!r}")
        return dy

    ends = []
    for method, rtol, atol in (("DOP853", 1e-13, 1e-14),
                               ("LSODA", 1e-12, 1e-14)):
        sol = solve_ivp(rhs, (t0, t1), np.asarray(y0, float), method=method,
                        rtol=rtol, atol=atol, t_eval=[t1])
        if not sol.success:
            raise RuntimeError(f"reference {method} solve failed for "
                               f"{problem.name}: {sol.message}")
        ends.append(sol.y[:, -1])
    ref, check = ends
    agreement = float(np.linalg.norm(ref - check))
    if agreement > 1e-9:
        raise RuntimeError(
            f"reference cross-check failed for {problem.name}: DOP853 and "
            f"LSODA differ by {agreement:.2e}")
    return ref


# ------------------------------------------------------------------- runners

def run_convergence(config: ExperimentConfig):
    """Fixed-step global errors against the reference, with local slopes.

    Rows are (h, global_error, local_slope); the slope on each row is
    measured against the previous (coarser) row and the first row carries
    NaN.
    """
    problem, tableau = build_experiment(config)
    steps = config.steps or (40, 80, 160, 320)
    y0 = problem.default_y0
    ref = reference_endpoint(problem, y0, config.t0, config.t1)
    action = problem.action

    rows = []
    prev = None
    for n in steps:
        traj = integrate_fixed(tableau, problem, y0, config.t0, config.t1,
                               int(n), advance_embedded=config.advance_embedded)
        h = (config.t1 - config.t0) / n
        err = action.ambient_distance(traj.y_end, ref)
        slope = float("nan")
        if prev is not None:
            h_prev, e_prev = prev
            if err > 0.0 and e_prev > 0.0 and h_prev != h:
                slope = math.log(e_prev / err) / math.log(h_prev / h)
        rows.append((h, err, slope))
        prev = (h, err)
    summary = {"reference_norm": float(np.linalg.norm(ref)),
               "advance_embedded": config.advance_embedded}
    return rows, summary


def run_work_precision(config: ExperimentConfig):
    """Cost and accuracy per tolerance (adaptive) and per step count (fixed).

    Rows are (tol, global_error, n_exp, n_feval, n_steps, n_rejected);
    fixed-step rows carry tol = NaN.  A failed entry is recorded with
    global_error = NaN and listed in the summary instead of aborting the
    sweep.  Every tolerance's ControllerConfig is built first, so a bad
    tolerance raises ControllerConfigError before the reference is solved.
    """
    problem, tableau = build_experiment(config)
    tols = config.tols or (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    t0, t1, y0 = config.t0, config.t1, problem.default_y0
    runs = [(tol, f"tol={tol:g}", partial(
        integrate_adaptive, tableau, problem, y0, t0, t1,
        ControllerConfig(atol=tol, rtol=tol, h0=config.h0,
                         hmax=config.hmax or math.inf))) for tol in tols]
    runs += [(math.nan, f"steps={n}", partial(
        integrate_fixed, tableau, problem, y0, t0, t1, int(n)))
        for n in config.steps]
    ref = reference_endpoint(problem, y0, t0, t1)

    rows, failures = [], []
    for tol, label, run in runs:
        try:
            traj = run()
            err = problem.action.ambient_distance(traj.y_end, ref)
        except IntegrationError as exc:
            failures.append(f"{label}: {exc}")
            traj, err = exc.trajectory, math.nan
        tt = traj.totals
        rows.append((tol, err, tt.n_exp, tt.n_feval, tt.n_accepted,
                     tt.n_rejected))
    return rows, {"failures": failures}


def attempt_rows(traj) -> list:
    """One needle row (t, h, accepted, y1, y2, err) per attempted step;
    y1 and y2 are the first two components of the candidate end state."""
    rows = []
    for at in traj.h_history:
        y = np.asarray(at.y, float).ravel()
        y1 = float(y[0]) if y.size > 0 else float("nan")
        y2 = float(y[1]) if y.size > 1 else float("nan")
        rows.append((at.t, at.h, at.accepted, y1, y2, at.err))
    return rows


def run_needle(config: ExperimentConfig):
    """Per-attempt step trace of an adaptive run, with a step-size summary
    over the spike window t in [1.4, 1.56] (the Van der Pol needle).

    Rows are (t, h, accepted, y1, y2, err) for every attempt, rejected ones
    included; t is the time at the start of the attempt and y the candidate
    end state.
    """
    problem, tableau = build_experiment(config)
    tol = config.tols[0] if config.tols else config.atol
    # Default max step of a tenth of the span (the usual ODE-suite choice)
    # keeps the slow-branch part of the trace resolved.
    hmax = config.hmax if config.hmax is not None \
        else (config.t1 - config.t0) / 10.0
    cfg = ControllerConfig(atol=tol, rtol=tol, h0=config.h0, hmax=hmax)
    y0 = problem.default_y0
    traj = integrate_adaptive(tableau, problem, y0, config.t0, config.t1, cfg)
    rows = attempt_rows(traj)

    lo, hi = NEEDLE_WINDOW
    accepted_h = [at.h for at in traj.h_history if at.accepted]
    window_h = [at.h for at in traj.h_history
                if at.accepted and lo <= at.t <= hi]
    n_att = len(traj.h_history)
    summary = {
        "needle_window": [lo, hi],
        "min_h_in_window": min(window_h) if window_h else float("nan"),
        "median_h": float(np.median(accepted_h)) if accepted_h else float("nan"),
        "n_accepted": traj.totals.n_accepted,
        "n_rejected": traj.totals.n_rejected,
        "reject_fraction": traj.totals.n_rejected / n_att if n_att else 0.0,
        "t_end": traj.t_end,
        "y_end": np.asarray(traj.y_end, float).tolist(),
        "n_exp": traj.totals.n_exp,
    }
    return rows, summary


def run_tableau_check(config: ExperimentConfig):
    """Validation report for one tableau: order-condition residuals,
    certified orders, reuse census, and static cost budget.

    Returns (text_report, payload).  The boolean payload["ok"] is true when
    the certified orders match the claimed ones and all declared reuse is
    sound and maximal.
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

    ok = (not bad) and maximal and pair_ok
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
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns, rows, config_dict: dict, summary: dict | None = None) -> str:
    lines = ["# " + json.dumps(config_dict, sort_keys=True,
                               separators=(",", ":"))]
    if summary is not None:
        lines.append("# summary: " + json.dumps(summary, sort_keys=True,
                                                separators=(",", ":")))
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


def render_json(columns, rows, config_dict: dict, summary: dict | None = None) -> str:
    doc = {"config": config_dict, "columns": columns, "rows": rows}
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(_finite_or_null(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_output(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
