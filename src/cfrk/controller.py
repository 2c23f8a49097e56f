"""Step-size control and integration drivers.

The adaptive loop uses the embedded pair's error estimate with local
extrapolation: the error is measured between the two members, but the
trajectory always advances with the higher-order one.  A fixed-step driver
without error estimation is provided for convergence and cost comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .actions import DomainError
from .stepper import cf_step

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ControllerConfig:
    atol: float = 1e-6
    rtol: float = 0.0
    fac: float = 0.9
    facmin: float = 0.2
    facmax: float = 5.0
    h0: float | None = None
    hmin: float = 1e-12
    hmax: float = math.inf
    max_consecutive_rejects: int = 20

    def __post_init__(self):
        if not (0.0 < self.fac < 1.0):
            raise ValueError("fac must lie in (0, 1)")
        if not (0.0 < self.facmin < 1.0 < self.facmax):
            raise ValueError("need 0 < facmin < 1 < facmax")
        if self.atol <= 0.0:
            raise ValueError("atol must be positive")
        if self.rtol < 0.0:
            raise ValueError("rtol must be nonnegative")
        if not self.hmin < self.hmax:
            raise ValueError("need hmin < hmax")
        if self.max_consecutive_rejects < 1:
            raise ValueError("max_consecutive_rejects must be >= 1")


@dataclass
class StepAttempt:
    """One attempted step: base time, size, outcome, error measure, and the
    candidate end point (the accepted point when accepted)."""
    t: float
    h: float
    accepted: bool
    err: float
    y: object


@dataclass
class Totals:
    n_exp: int = 0
    n_feval: int = 0
    n_accepted: int = 0
    n_rejected: int = 0


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    h_history: list = field(default_factory=list)
    totals: Totals = field(default_factory=Totals)

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def y_end(self):
        return self.points[-1]


class IntegrationError(RuntimeError):
    """Integration failed; .trajectory holds the partial result."""

    def __init__(self, message: str, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflowError(IntegrationError):
    pass


class TooManyRejectsError(IntegrationError):
    pass


class NonFiniteError(IntegrationError):
    pass


def error_measure(y0, y1, yhat1, cfg: ControllerConfig, action) -> float:
    """Scaled error: distance(y1, yhat1) / (atol + max(|y0|,|y1|) rtol)."""
    if yhat1 is None:
        raise ValueError("error_measure needs an embedded solution")
    sc = cfg.atol + max(action.ambient_norm(y0),
                        action.ambient_norm(y1)) * cfg.rtol
    return action.ambient_distance(y1, yhat1) / sc


def next_step_size(h: float, err: float, p: int,
                   cfg: ControllerConfig, *, facmax: float | None = None) -> float:
    """h * min(facmax, max(facmin, fac * err^(-1/p))), clamped to
    [hmin, hmax].  err = 0 is treated as machine epsilon."""
    if err <= 0.0:
        err = _EPS
    fmax = cfg.facmax if facmax is None else facmax
    factor = min(fmax, max(cfg.facmin, cfg.fac * err ** (-1.0 / p)))
    return min(cfg.hmax, max(cfg.hmin, h * factor))


def initial_step(problem, y0, cfg: ControllerConfig, p: int,
                 t0: float, t1: float) -> float:
    """Starting step size: cfg.h0 verbatim when given, else a crude rate
    heuristic clamped to a tenth of the span."""
    if cfg.h0 is not None:
        return cfg.h0
    action = problem.action
    rate = action.ambient_norm(action.infinitesimal(problem.f(y0), y0))
    h0 = 0.01 * cfg.atol ** (1.0 / p) / max(rate, _EPS)
    h0 = min(cfg.hmax, max(cfg.hmin, h0))
    return min(h0, (t1 - t0) / 10.0)


def _in_domain(trajectory, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a DomainError from f or the action raised
    as an IntegrationError carrying the partial trajectory."""
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        raise IntegrationError(f"left the domain: {exc}", trajectory) from exc


def _check_finite(y, trajectory):
    arr = np.asarray(y, float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("state became non-finite", trajectory)


def integrate_adaptive(pair, problem, y0, t0: float, t1: float,
                       cfg: ControllerConfig) -> Trajectory:
    """Adaptive integration of problem over [t0, t1] with an embedded pair.

    Steps with err <= 1 are accepted and the trajectory advances with the
    higher-order solution; rejected steps are retried with the shrunken
    step (growth is disabled on the retry).  The final step is truncated
    to land exactly on t1.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not pair.has_embedded:
        raise ValueError(f"{pair.name} has no embedded solution")
    if pair.order_phat != pair.order_p - 1:
        raise ValueError(
            f"{pair.name}: expected an embedded pair of order p(p-1)")
    action = problem.action
    f = problem.f
    p = pair.order_p
    cfg_err = cfg if problem.use_rtol else replace(cfg, rtol=0.0)

    traj = Trajectory()
    y = np.asarray(y0, float)
    t = t0
    traj.times.append(t)
    traj.points.append(y)

    h = _in_domain(traj, initial_step, problem, y, cfg, p, t0, t1)
    h = min(h, t1 - t0)
    carry = None
    rejects_in_a_row = 0

    while t < t1:
        truncated = t + h >= t1
        h_step = t1 - t if truncated else h
        res = _in_domain(traj, cf_step, pair, action, f, y, h_step,
                         carried_f=carry, with_embedded=True)
        traj.totals.n_exp += res.n_exp
        traj.totals.n_feval += res.n_feval
        _check_finite(res.y1, traj)
        err = error_measure(y, res.y1, res.yhat1, cfg_err, action)
        if not math.isfinite(err):
            raise NonFiniteError("error measure became non-finite", traj)
        accepted = err <= 1.0
        traj.h_history.append(StepAttempt(t, h_step, accepted, err, res.y1))

        if accepted:
            traj.totals.n_accepted += 1
            rejects_in_a_row = 0
            t = t1 if truncated else t + h_step
            y = res.y1
            carry = res.f_last if pair.fsal else None
            traj.times.append(t)
            traj.points.append(y)
            if truncated:
                break
            h = next_step_size(h_step, err, p, cfg)
        else:
            traj.totals.n_rejected += 1
            rejects_in_a_row += 1
            if rejects_in_a_row > cfg.max_consecutive_rejects:
                raise TooManyRejectsError(
                    f"{rejects_in_a_row} consecutive rejected steps at "
                    f"t = {t}", traj)
            if h_step <= cfg.hmin * (1.0 + 1e-12):
                raise StepSizeUnderflowError(
                    f"step size underflow at t = {t} (h = {h_step})", traj)
            h = next_step_size(h_step, err, p, cfg, facmax=1.0)
    return traj


def integrate_fixed(method, problem, y0, t0: float, t1: float,
                    n_steps: int, *, advance_embedded: bool = False) -> Trajectory:
    """Fixed-step integration with n_steps equal steps, no error control.

    Embedded rows are skipped entirely unless advance_embedded is set, in
    which case the trajectory follows the embedded (lower-order) solution;
    the FSAL carry is then invalid and never used.
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if advance_embedded and not method.has_embedded:
        raise ValueError(f"{method.name} has no embedded solution")
    action = problem.action
    f = problem.f
    h = (t1 - t0) / n_steps

    traj = Trajectory()
    y = np.asarray(y0, float)
    traj.times.append(t0)
    traj.points.append(y)
    carry = None
    for i in range(1, n_steps + 1):
        res = _in_domain(traj, cf_step, method, action, f, y, h,
                         carried_f=carry, with_embedded=advance_embedded)
        traj.totals.n_exp += res.n_exp
        traj.totals.n_feval += res.n_feval
        traj.totals.n_accepted += 1
        y = res.yhat1 if advance_embedded else res.y1
        carry = None if advance_embedded else res.f_last
        _check_finite(y, traj)
        t = t1 if i == n_steps else t0 + i * h
        traj.h_history.append(StepAttempt(t0 + (i - 1) * h, h, True,
                                          float("nan"), y))
        traj.times.append(t)
        traj.points.append(y)
    return traj
