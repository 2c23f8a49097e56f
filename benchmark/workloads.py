"""The benchmark's workloads: seeded inputs, the fixed set of solves each
workload runs, an oracle independent of cfrk's integrators, and the
correctness checks every solve must pass.

A workload is a list of solves.  Each solve calls cfrk only through its
public functions, reached through an ``api`` object so that a traced run
can substitute wrapped versions of the same functions (see ``tracer.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

import cfrk
import cfrk.bench
from cfrk.bench import CSV_COLUMNS, ExperimentConfig, resolved_config

# A solve fails when its global error exceeds this multiple of its tolerance.
ERR_OVER_TOL_LIMIT = 1e3
# Acceptance criterion 4: sphere-norm drift and Casimir drift.
INVARIANT_LIMIT = {"rigid-body": 1e-11, "heavy-top": 1e-10}
# A fixed-step cf4 convergence slope must lie in 4 +- 0.3.
SLOPE_TARGET, SLOPE_WIDTH = 4.0, 0.3
# The DOP853 oracle and its Radau cross-check must agree to this share of
# every error they judge, so each error is known to about 1%.
ORACLE_RESOLUTION = 1e-2
# Exponentials and f evaluations per adaptive attempt, with row reuse and
# the FSAL carry; the first attempt of a solve adds one f evaluation.
PER_ATTEMPT = {"cf32a": (4, 3), "cf43": (6, 4)}


@dataclass(frozen=True)
class Api:
    """The cfrk entry points a solve calls.

    ``problem`` maps a problem to the one the solve integrates: the identity
    in an untraced run, a tracing proxy in a traced one.
    """
    integrate_adaptive: Callable
    run_convergence: Callable
    run_needle: Callable
    render_needle: Callable
    problem: Callable


def plain_api() -> Api:
    """The untraced entry points."""
    return Api(cfrk.integrate_adaptive, cfrk.bench.run_convergence,
               cfrk.bench.run_needle, render_needle, lambda p: p)


def render_needle(config, rows, summary) -> str:
    """The needle trace as the CLI writes it: CSV with the resolved config."""
    return cfrk.bench.render_csv(CSV_COLUMNS["needle"], rows,
                                 resolved_config(config), summary)


# -------------------------------------------------------------------- oracle

def oracle_endpoint(problem, y0, t1: float):
    """Endpoint at t1 of the ambient ODE y' = infinitesimal(f(y), y) from
    scipy's DOP853, and its distance to an independent Radau solve."""
    action, f = problem.action, problem.f

    def rhs(_t, y):
        return action.infinitesimal(f(y), y)

    ends = []
    for method, rtol, atol in (("DOP853", 1e-13, 1e-14),
                               ("Radau", 1e-10, 1e-12)):
        sol = solve_ivp(rhs, (0.0, t1), np.asarray(y0, float), method=method,
                        rtol=rtol, atol=atol, t_eval=[t1])
        if not sol.success:
            raise RuntimeError(f"oracle {method} failed: {sol.message}")
        ends.append(sol.y[:, -1])
    return ends[0], float(np.linalg.norm(ends[0] - ends[1]))


def invariant_drift(problem, points) -> float:
    """Largest drift of the problem's conserved quantities along a solve:
    the sphere norm for the rigid body, the Casimirs for the heavy top."""
    pts = np.asarray(points, float)
    if problem.name == "rigid-body":
        norms = np.linalg.norm(pts, axis=1)
        return float(np.max(np.abs(norms - norms[0])))
    first = problem.invariants(pts[0])
    return max((abs(problem.invariants(p)[k] - v)
                for p in pts for k, v in first.items()), default=0.0)


def _error_failures(label, err, tol, gap):
    fails = []
    if err > ERR_OVER_TOL_LIMIT * tol:
        fails.append(f"{label}: error {err:.3e} exceeds "
                     f"{ERR_OVER_TOL_LIMIT:g} x tol {tol:g}")
    if gap > ORACLE_RESOLUTION * err:
        fails.append(f"{label}: oracle cross-check gap {gap:.1e} does not "
                     f"resolve error {err:.1e}")
    return fails


# -------------------------------------------------------------------- solves

@dataclass(frozen=True, eq=False)
class Adaptive:
    """One direct integrate_adaptive call."""
    problem: object
    tableau: str
    y0: np.ndarray
    t1: float
    tol: float
    direct = True

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.tableau}/tol={self.tol:g}"

    def run(self, api: Api):
        rtol = self.tol if self.problem.use_rtol else 0.0
        cfg = cfrk.ControllerConfig(atol=self.tol, rtol=rtol)
        return api.integrate_adaptive(cfrk.get_tableau(self.tableau),
                                      api.problem(self.problem), self.y0,
                                      0.0, self.t1, cfg)

    def attempts(self, traj) -> int:
        return traj.totals.n_accepted + traj.totals.n_rejected

    def fingerprint(self, traj):
        t = traj.totals
        return (traj.y_end.tobytes(), t.n_exp, t.n_feval, t.n_accepted,
                t.n_rejected)

    def check(self, traj, oracle):
        """Failures of one result, and its error over tolerance."""
        ref, gap = oracle
        err = self.problem.action.ambient_distance(traj.y_end, ref)
        fails = _error_failures(self.label, err, self.tol, gap)
        limit = INVARIANT_LIMIT.get(self.problem.name)
        if limit is not None:
            drift = invariant_drift(self.problem, traj.points)
            if drift > limit:
                fails.append(f"{self.label}: invariant drift {drift:.1e} "
                             f"exceeds {limit:g}")
        n_att = self.attempts(traj)
        per_exp, per_f = PER_ATTEMPT[self.tableau]
        want = (per_exp * n_att, per_f * n_att + 1)
        got = (traj.totals.n_exp, traj.totals.n_feval)
        if got != want:
            fails.append(f"{self.label}: (n_exp, n_feval) = {got}, "
                         f"expected {want} for {n_att} attempts")
        return fails, err / self.tol


@dataclass(frozen=True, eq=False)
class Convergence:
    """run_convergence with fixed-step cf4 against a cold reference cache."""
    problem: object
    steps: tuple
    t1: float
    tableau = "cf4"
    direct = False

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.tableau}/convergence"

    @property
    def y0(self):
        return self.problem.default_y0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(problem=self.problem.name,
                                tableau=self.tableau, steps=self.steps,
                                t1=self.t1)

    def run(self, api: Api):
        return api.run_convergence(self.config())

    def fingerprint(self, result):
        return repr(result[0])

    def check(self, result, oracle):
        ref, gap = oracle
        rows, _ = result
        fails = []
        # The rows' errors are against cfrk's own reference: check that
        # reference against the oracle.  The run has just cached it, so
        # this call reads the file.
        cfrk_ref = cfrk.bench.reference_endpoint(self.problem, self.y0,
                                                 0.0, self.t1)
        ref_gap = float(np.linalg.norm(cfrk_ref - ref))
        finest = rows[-1][1]
        if max(ref_gap, gap) > ORACLE_RESOLUTION * finest:
            fails.append(f"{self.label}: reference gaps {ref_gap:.1e} (cfrk) "
                         f"and {gap:.1e} (Radau) do not resolve the finest "
                         f"error {finest:.1e}")
        for h, _, slope in rows[1:]:
            if not abs(slope - SLOPE_TARGET) <= SLOPE_WIDTH:
                fails.append(f"{self.label}: slope {slope:.3f} at h={h:g} "
                             f"outside {SLOPE_TARGET} +- {SLOPE_WIDTH}")
        return fails, None


@dataclass(frozen=True, eq=False)
class Needle:
    """run_needle through the Van der Pol spike, rendered with render_csv."""
    problem: object
    tableau: str
    tol: float
    t1: float
    direct = False

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.tableau}/needle"

    @property
    def y0(self):
        return self.problem.default_y0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(problem=self.problem.name,
                                tableau=self.tableau, tols=(self.tol,),
                                t1=self.t1)

    def run(self, api: Api):
        cfg = self.config()
        rows, summary = api.run_needle(cfg)
        return rows, summary, api.render_needle(cfg, rows, summary)

    def fingerprint(self, result):
        return result[2]

    def check(self, result, oracle):
        ref, gap = oracle
        rows, summary, text = result
        err = float(np.linalg.norm(np.asarray(summary["y_end"]) - ref))
        fails = _error_failures(self.label, err, self.tol, gap)
        n_att = summary["n_accepted"] + summary["n_rejected"]
        if summary["n_exp"] != PER_ATTEMPT[self.tableau][0] * n_att:
            fails.append(f"{self.label}: {summary['n_exp']} exponentials "
                         f"for {n_att} attempts")
        n_lines = text.count("\n")
        if len(rows) != n_att or n_lines != n_att + 3:
            fails.append(f"{self.label}: {len(rows)} rows and {n_lines} CSV "
                         f"lines for {n_att} attempts")
        return fails, err / self.tol


# ----------------------------------------------------------------- workloads

def _orbit_point(inertia, level: float, phase: float) -> np.ndarray:
    """Unit vector on the free-rigid-body orbit sum(y_i^2 / I_i) = level,
    at the given angle around the axis the orbit circles."""
    a1, a2, a3 = 1.0 / np.asarray(inertia, float)
    if not a3 < level < a1 or level == a2:
        raise ValueError(f"level {level} is not a regular orbit")
    if level < a2:  # circles the axis of largest inertia
        r1 = math.sqrt((level - a3) / (a1 - a3))
        r2 = math.sqrt((level - a3) / (a2 - a3))
        x1, x2 = r1 * math.cos(phase), r2 * math.sin(phase)
        y = np.array([x1, x2, math.sqrt(1.0 - x1 * x1 - x2 * x2)])
    else:  # circles the axis of smallest inertia
        r3 = math.sqrt((a1 - level) / (a1 - a3))
        r2 = math.sqrt((a1 - level) / (a1 - a2))
        x3, x2 = r3 * math.cos(phase), r2 * math.sin(phase)
        y = np.array([math.sqrt(1.0 - x3 * x3 - x2 * x2), x2, x3])
    return y / np.linalg.norm(y)


def rigid_sweep(seed: int) -> list:
    """Free rigid body on S^2: cf32a and cf43 over a tolerance sweep.

    The initial states lie on two fixed orbits, one on each side of the
    separatrix, at five phases evenly spaced over half the orbit (the other
    half mirrors it); the seed sets the phase offset.  Stratifying the
    phases keeps the total work and the worst error over tolerance nearly
    the same for every seed, where independent random states would
    sometimes land next to the separatrix, whose error amplification
    dominates everything else.
    """
    rng = np.random.default_rng(seed)
    problem = cfrk.rigid_body()
    inertia = problem.params.inertia
    states = []
    for level in (0.4, 0.65):
        offset = rng.uniform()
        states += [_orbit_point(inertia, level, math.pi * (k + offset) / 5)
                   for k in range(5)]
    return [Adaptive(problem, tab, y0, 20.0, tol)
            for y0 in states
            for tab, tols in (("cf32a", (1e-4, 1e-5, 1e-6, 1e-7)),
                              ("cf43", (1e-4, 1e-6, 1e-8)))
            for tol in tols]


def heavytop_convergence(seed: int) -> list:
    """Heavy top on se(3)*: cf4 convergence against a cold reference, then
    one long adaptive cf43 run from a seeded perturbation of the default
    state.  run_convergence always starts from the default state."""
    rng = np.random.default_rng(seed)
    problem = cfrk.heavy_top()
    y0 = problem.default_y0 * (1.0 + 1e-2 * rng.standard_normal(6))
    return [Convergence(problem, (20, 40, 80, 160), 2.0),
            Adaptive(problem, "cf43", y0, 20.0, 1e-8)]


def vdp_needle(seed: int) -> list:
    """Van der Pol (mu = 60) through GL(2): cf32a and cf43 with atol = rtol
    from loose to tight through the relaxation needles, plus the needle
    step trace of the default state rendered as CSV."""
    rng = np.random.default_rng(seed)
    problem = cfrk.van_der_pol()
    y0 = problem.default_y0 * (1.0 + 1e-4 * rng.standard_normal(2))
    solves = [Adaptive(problem, "cf32a", y0, 60.0, tol)
              for tol in (1e-3, 1e-4, 1e-5, 1e-6)]
    solves += [Adaptive(problem, "cf43", y0, 60.0, tol)
               for tol in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
    return solves + [Needle(problem, "cf43", 1e-3, 2.0)]


WORKLOADS = {
    "rigid-sweep": rigid_sweep,
    "heavytop-convergence": heavytop_convergence,
    "vdp-needle": vdp_needle,
}

def oracle_key(solve):
    """The inputs that determine a solve's exact endpoint."""
    return solve.problem.name, solve.y0.tobytes(), solve.t1


def oracles(solves) -> dict:
    """Oracle endpoint and cross-check gap for every distinct solve input."""
    out = {}
    for s in solves:
        key = oracle_key(s)
        if key not in out:
            out[key] = oracle_endpoint(s.problem, s.y0, s.t1)
    return out
