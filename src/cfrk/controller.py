"""Step-size control and integration drivers.

The adaptive loop uses the embedded pair's error estimate with local
extrapolation: the error is measured between the two members, but the
trajectory always advances with the higher-order one.  A fixed-step driver
without error estimation is provided for convergence and cost comparisons.

Between attempts both drivers hold the state and the step's y1/yhat1, and
the adaptive driver the FSAL value, as flat lists of Python floats, which
cf_step takes and returns (the FSAL value is the list f returned at y1);
the finite check and the error measure (math.dist and math.hypot through
the action) run on those lists.  f sees only lists, the starting rate
estimate included, and each StepAttempt.y is the list the step
returned.  numpy appears only at the edges: y0 as given (copied once), and
Trajectory.points, built once per run from the accepted lists as one array,
in a finally clause so that a failed run's partial trajectory holds it too;
a rejected attempt allocates no array.  A DomainError from f or the action
and a FieldLengthError from the step end the run as an IntegrationError
carrying the partial trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .actions import DomainError
from .stepper import FieldLengthError, cf_step

_EPS = float(np.finfo(float).eps)


class ConfigError(ValueError):
    """A setting outside its valid range: a time span, a step count, a
    problem parameter."""


class ControllerConfigError(ConfigError):
    """A ControllerConfig field outside its valid range."""


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerances and step-size control of integrate_adaptive.

    h0, when given, must be positive; an infinite h0 is clamped to the
    span.  Any field outside its range raises ControllerConfigError.
    """
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
            raise ControllerConfigError("fac must lie in (0, 1)")
        if not (0.0 < self.facmin < 1.0 < self.facmax):
            raise ControllerConfigError("need 0 < facmin < 1 < facmax")
        if not self.atol > 0.0:
            raise ControllerConfigError("atol must be positive")
        if not self.rtol >= 0.0:
            raise ControllerConfigError("rtol must be nonnegative")
        if not self.hmin < self.hmax:
            raise ControllerConfigError("need hmin < hmax")
        if self.max_consecutive_rejects < 1:
            raise ControllerConfigError("max_consecutive_rejects must be >= 1")
        if self.h0 is not None and not self.h0 > 0.0:
            raise ControllerConfigError(f"h0 must be positive, got {self.h0}")


@dataclass
class StepAttempt:
    """One attempted step: base time, size, outcome, error measure, and the
    candidate end point (the accepted point when accepted) as the flat list
    of Python floats the step returned."""
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
    """The accepted times, and the points at them as the rows of one array
    of shape (len(times), *y0.shape); every attempt in h_history."""
    times: list = field(default_factory=list)
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
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
    """Scaled error: distance(y1, yhat1) / (atol + max(|y0|,|y1|) rtol),
    with the action's ambient metric; the points are flat lists of floats
    or arrays."""
    if yhat1 is None:
        raise ValueError("error_measure needs an embedded solution")
    sc = cfg.atol
    if cfg.rtol != 0.0:  # with rtol 0 the norms would only be scaled by 0
        sc += max(action.ambient_norm(y0), action.ambient_norm(y1)) * cfg.rtol
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
    heuristic clamped to a tenth of the span.  y0 is the state as a flat
    list of floats; a huge y0 may overflow the rate to inf, and h0 then
    falls to hmin."""
    if cfg.h0 is not None:
        return cfg.h0
    action = problem.action
    rate = action.ambient_norm(action.infinitesimal(problem.f(y0), y0))
    h0 = 0.01 * cfg.atol ** (1.0 / p) / max(rate, _EPS)
    h0 = min(cfg.hmax, max(cfg.hmin, h0))
    return min(h0, (t1 - t0) / 10.0)


def _failure(exc: Exception, trajectory) -> IntegrationError:
    """A DomainError or FieldLengthError as an IntegrationError carrying
    the partial trajectory."""
    if isinstance(exc, DomainError):
        return IntegrationError(f"left the domain: {exc}", trajectory)
    return IntegrationError(str(exc), trajectory)


def _check_finite(y: list, trajectory):
    """NonFiniteError carrying trajectory unless every float of y is
    finite."""
    if not all(map(math.isfinite, y)):
        raise NonFiniteError("state became non-finite", trajectory)


def check_span(t0: float, t1: float) -> None:
    """ConfigError unless t0 and t1 are finite with t1 > t0."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ConfigError(f"need finite t0, t1 with t1 > t0, got t0 = {t0}, "
                          f"t1 = {t1}")


def _start(problem, y0, t0: float) -> tuple:
    """The one-point trajectory at (t0, y0), with its own copy of y0, and
    y0 as a flat list of floats.

    Raises ValueError unless y0 has the shape of problem.default_y0, and
    NonFiniteError carrying the trajectory unless every entry is finite;
    both before any f or exp call.
    """
    y = np.array(y0, float)
    expected = np.shape(problem.default_y0)
    if y.shape != expected:
        raise ValueError(f"y0 must have shape {expected}, got shape "
                         f"{y.shape}")
    traj = Trajectory(times=[t0], points=y[np.newaxis])
    y = y.ravel().tolist()
    _check_finite(y, traj)
    return traj, y


def _set_points(traj: Trajectory, rows: list) -> None:
    """traj.points as one new array of the rows, each shaped like y0."""
    traj.points = np.array(rows).reshape(-1, *traj.points.shape[1:])


def integrate_adaptive(pair, problem, y0, t0: float, t1: float,
                       cfg: ControllerConfig) -> Trajectory:
    """Adaptive integration of problem over [t0, t1] with an embedded pair.

    Steps with err <= 1 are accepted and the trajectory advances with the
    higher-order solution; rejected steps are retried with the shrunken
    step (growth is disabled on the retry).  The final step is truncated
    to land exactly on t1.
    """
    check_span(t0, t1)
    if not pair.has_embedded:
        raise ValueError(f"{pair.name} has no embedded solution")
    if pair.order_phat != pair.order_p - 1:
        raise ValueError(
            f"{pair.name}: expected an embedded pair of order p(p-1)")
    action = problem.action
    f = problem.f
    p = pair.order_p
    cfg_err = cfg if problem.use_rtol else replace(cfg, rtol=0.0)

    traj, y = _start(problem, y0, t0)
    totals = traj.totals
    rows = [y]
    t = t0
    carry = None
    rejects_in_a_row = 0

    try:
        h = initial_step(problem, y, cfg, p, t0, t1)
        h = min(h, t1 - t0)
        while t < t1:
            truncated = t + h >= t1
            h_step = t1 - t if truncated else h
            res = cf_step(pair, action, f, y, h_step, carried_f=carry,
                          with_embedded=True)
            totals.n_exp += res.n_exp
            totals.n_feval += res.n_feval
            y1 = res.y1_list
            _check_finite(y1, traj)
            err = error_measure(y, y1, res.yhat1_list, cfg_err, action)
            if not math.isfinite(err):
                raise NonFiniteError("error measure became non-finite", traj)
            accepted = err <= 1.0
            traj.h_history.append(StepAttempt(t, h_step, accepted, err, y1))

            if accepted:
                totals.n_accepted += 1
                rejects_in_a_row = 0
                t = t1 if truncated else t + h_step
                y = y1
                carry = res.f_last
                traj.times.append(t)
                rows.append(y1)
                if truncated:
                    break
                h = next_step_size(h_step, err, p, cfg)
            else:
                totals.n_rejected += 1
                rejects_in_a_row += 1
                if rejects_in_a_row > cfg.max_consecutive_rejects:
                    raise TooManyRejectsError(
                        f"{rejects_in_a_row} consecutive rejected steps at "
                        f"t = {t}", traj)
                if h_step <= cfg.hmin * (1.0 + 1e-12):
                    raise StepSizeUnderflowError(
                        f"step size underflow at t = {t} (h = {h_step})",
                        traj)
                h = next_step_size(h_step, err, p, cfg, facmax=1.0)
    except (DomainError, FieldLengthError) as exc:
        raise _failure(exc, traj) from exc
    finally:
        _set_points(traj, rows)
    return traj


def integrate_fixed(method, problem, y0, t0: float, t1: float,
                    n_steps: int, *, advance_embedded: bool = False) -> Trajectory:
    """Fixed-step integration with n_steps equal steps, no error control.

    Embedded rows are skipped entirely unless advance_embedded is set, in
    which case the trajectory follows the embedded (lower-order) solution.
    No f value is carried: f(y1), when a step forms it, is not at the point
    the trajectory follows, so each step evaluates f at its base point.
    """
    check_span(t0, t1)
    if n_steps < 1:
        raise ConfigError(f"need n_steps >= 1, got {n_steps}")
    if advance_embedded and not method.has_embedded:
        raise ValueError(f"{method.name} has no embedded solution")
    action = problem.action
    f = problem.f
    h = (t1 - t0) / n_steps

    traj, y = _start(problem, y0, t0)
    totals = traj.totals
    rows = [y]
    try:
        for i in range(1, n_steps + 1):
            res = cf_step(method, action, f, y, h,
                          with_embedded=advance_embedded)
            totals.n_exp += res.n_exp
            totals.n_feval += res.n_feval
            y = res.yhat1_list if advance_embedded else res.y1_list
            _check_finite(y, traj)
            totals.n_accepted += 1
            t = t1 if i == n_steps else t0 + i * h
            traj.h_history.append(StepAttempt(t0 + (i - 1) * h, h, True,
                                              float("nan"), y))
            traj.times.append(t)
            rows.append(y)
    except (DomainError, FieldLengthError) as exc:
        raise _failure(exc, traj) from exc
    finally:
        _set_points(traj, rows)
    return traj
