"""Step-size control and integration drivers.

The adaptive loop uses the embedded pair's error estimate with local
extrapolation: the error is measured between the two members, but the
trajectory always advances with the higher-order one.  A fixed-step driver
without error estimation is provided for convergence and cost comparisons.

The calling form holds points as flat lists of Python floats, as f and
cf_step take and return them; the inline form holds the state and the f
values in float locals.  Each attempt is one row (t, h, accepted, err,
*y) of Trajectory.record, one array('d'), with y the candidate end point;
h_history, points and y_end are built from it when read.  Both
drivers run through _run, which turns any exception raised once the run
has started into an IntegrationError carrying the partial trajectory; an
error raised before that keeps its type.

Both drivers run a compiled loop (_loop): one prologue and Totals
epilogue (_RUN) around the adaptive loop (_LOOP) or the fixed-step loop
(_FIXED), each compiled per pair on first use and cached with the step
kernels.  The adaptive loop runs the step-size rule once per attempt,
capped at facmax after an accept and at 1 after a reject; the fixed-step
loop takes count equal steps, the last landing on t1.  An action that
steps inline (stepper.inline_length) gets the inline form, which holds
the step's kernel_lines, so a run is one Python frame besides f; the
adaptive loop asks the action to keep GroupAction's metrics too.  Any
other action gets the calling form, which calls cf_step once per attempt
or step.  Where problem.f is a packaged field (stepper.inline_field), the
inline form runs its block in place of every f call, with the field's
parameters as loop arguments, so one loop per pair, geometry and field
serves every parameter value.  The inline form reads each math function
and constant from a local bound once before its loop (math_sqrt for
math.sqrt), so a step looks up no module attribute; with the blocks'
inline overflow guards and at most three targets per assignment, it calls
no Python-level function but a called f and builds no tuple.  The
adaptive loop evaluates f(base) once per base point and keeps it across
rejected attempts, and forms the rtol norm of the base once per base
point too, before its first attempt and from y1's norm on an accept, in
both forms; the fixed-step loop carries no f value and evaluates f(base)
every step.  In both, n_feval is k_feval (the calls after f0)
per completed step plus the f(base) evaluations that returned, counted
as each returns (n_fresh).  The fixed-step loop forms each coefficient
product h * c_j once, before its steps, as h is fixed for the run.  A
packaged field's run-constant results are constants of the inline form
(actions.Block.constants).
"""

from __future__ import annotations

import math
import operator
import re
import struct
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .actions import (Block, DomainError, GroupAction, _body,
                      compile_function)
from .stepper import (FieldLengthError, _length_error, _list,
                      cf_step, check_length, inline_field, inline_length,
                      kernel_lines)

_EPS = sys.float_info.epsilon


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
        if not 0.0 < self.hmin < self.hmax:
            raise ControllerConfigError("hmin must be in (0, hmax)")
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
    """A run's counts.  n_feval counts every f call of each completed
    attempt (a step stepped to its point) and every f(base) that
    returned, in both drivers, so a run that fails inside a step counts
    its fresh f(base) but not the stage calls of that step."""
    n_exp: int = 0
    n_feval: int = 0
    n_accepted: int = 0
    n_rejected: int = 0


@dataclass
class Trajectory:
    """The run's own copy of y0, the accepted times and its record: one row
    of 4 + y0.size floats per attempt, (t, h, accepted, err, *y) with
    accepted 1.0 or 0.0, packed into one array('d').  h_history, points
    and y_end are built from the record when read."""
    y0: np.ndarray = field(default_factory=lambda: np.empty(0))
    times: list = field(default_factory=list)
    record: array = field(default_factory=lambda: array("d"))
    totals: Totals = field(default_factory=Totals)

    def _rows(self) -> np.ndarray:  # a copy of the record, a row an attempt
        return np.array(self.record).reshape(-1, 4 + self.y0.size)

    @cached_property
    def h_history(self) -> list:
        """Every attempt as a StepAttempt, y a list, built from the record
        when first read."""
        rows = self._rows()
        return [StepAttempt(t, h, accepted != 0.0, err, y)
                for (t, h, accepted, err), y
                in zip(rows[:, :4].tolist(), rows[:, 4:].tolist())]

    @cached_property
    def points(self) -> np.ndarray:
        """y0 and the accepted attempts' points as the rows of one new
        array, shape (len(times), *y0.shape), built when first read."""
        rows = self._rows()
        return np.concatenate([self.y0.reshape(1, -1),
                               rows[rows[:, 2] != 0.0, 4:]]).reshape(
            -1, *self.y0.shape)

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def y_end(self) -> np.ndarray:
        """The last accepted attempt's point, or y0, as a new array of y0's
        shape; points is not built."""
        record, w = self.record, 4 + self.y0.size
        last = next((i for i in range(len(record) - w, -1, -w)
                     if record[i + 2]), None)
        return (self.y0.copy() if last is None else
                np.array(record[last + 4:last + w]).reshape(self.y0.shape))


class IntegrationError(RuntimeError):
    """Integration failed; .trajectory holds the partial result."""

    def __init__(self, message: str, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflowError(IntegrationError):
    """A rejected attempt at h = hmin, or a step too small to move t."""


class TooManyRejectsError(IntegrationError):
    """More consecutive rejected attempts than max_consecutive_rejects."""


class NonFiniteError(IntegrationError):
    """A non-finite state (y0 or a step's point) or error measure."""


# The controller's formulas, each written once: the adaptive loop runs them
# inline, and error_measure and next_step_size call their bodies
# (actions._body); d is y1's distance to yhat1.  `b if b > a else a` is
# max(a, b), and `b if b < a else a` is min(a, b), for any two floats, NaN
# included.
_ERROR = Block(["d base y1 atol rtol norm"], "err", """
sc = atol
if rtol != 0.0:  # with rtol 0 the norms would only be scaled by 0
    n0, n1 = norm(base), norm(y1)
    sc += (n1 if n1 > n0 else n0) * rtol
err = d / sc
""")
_STEP_SIZE = Block(["h err fmax fac facmin hmin hmax expo"], "h_new", """
factor = fac * (_EPS if err <= 0.0 else err) ** expo  # expo = -1/p
factor = factor if factor > facmin else facmin
factor = factor if factor < fmax else fmax
h_new = h * factor
h_new = h_new if h_new > hmin else hmin
h_new = h_new if h_new < hmax else hmax
""")


_error = _body("error", _ERROR, globals())
_step_size = _body("step_size", _STEP_SIZE, globals())


def error_measure(y0, y1, yhat1, cfg: ControllerConfig, action) -> float:
    """Scaled error: distance(y1, yhat1) / (atol + max(|y0|,|y1|) rtol),
    with the action's ambient metric; the points are flat lists of floats
    or arrays."""
    if yhat1 is None:
        raise ValueError("error_measure needs an embedded solution")
    return _error(action.ambient_distance(y1, yhat1), y0, y1, cfg.atol,
                  cfg.rtol, action.ambient_norm)[0]


def next_step_size(h: float, err: float, p: int,
                   cfg: ControllerConfig, *, facmax: float | None = None) -> float:
    """h * min(facmax, max(facmin, fac * err^(-1/p))), clamped to
    [hmin, hmax].  err = 0 is treated as machine epsilon."""
    return _step_size(h, err, cfg.facmax if facmax is None else facmax,
                      cfg.fac, cfg.facmin, cfg.hmin, cfg.hmax, -1.0 / p)[0]


def initial_step(problem, y0, cfg: ControllerConfig, p: int,
                 t0: float, t1: float) -> float:
    """Starting step size: cfg.h0 verbatim when given, else a crude rate
    heuristic clamped to a tenth of the span.  y0 is the state as a flat
    list of floats; a huge y0 may overflow the rate to inf, and h0 then
    falls to hmin."""
    if cfg.h0 is not None:
        return cfg.h0
    action = problem.action
    v = problem.f(y0)
    check_length(action, v)
    rate = action.ambient_norm(action.infinitesimal(v, y0))
    h0 = 0.01 * cfg.atol ** (1.0 / p) / max(rate, _EPS)
    h0 = min(cfg.hmax, max(cfg.hmin, h0), (t1 - t0) / 10.0)
    # a tenth may underflow, or fall below half an ulp of t0
    return h0 if t0 + h0 > t0 else t1 - t0


def _check_finite(y: list, trajectory, n=None):
    """NonFiniteError carrying trajectory unless every float of y is
    finite; first, given y0's length n, IntegrationError unless y has n."""
    if n is not None and len(y) != n:
        raise IntegrationError(f"the step returned a point of {len(y)} "
                               f"entries, y0 has {n}", trajectory)
    if not all(map(math.isfinite, y)):
        raise NonFiniteError("state became non-finite", trajectory)


def check_span(t0: float, t1: float) -> None:
    """ConfigError unless t0 < t1, both finite, and t1 - t0 is finite."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ConfigError(f"need finite t0, t1 with t1 > t0, got t0 = {t0}, "
                          f"t1 = {t1}")
    if t1 - t0 == math.inf:
        raise ConfigError(f"need a finite span t1 - t0, got t0 = {t0}, "
                          f"t1 = {t1}")


def check_steps(n, t0: float, t1: float) -> tuple:
    """The step count n as an int and the step (t1 - t0) / n over a
    checked span; ConfigError unless n is an integer (an int or a numpy
    integer, as operator.index takes) of at least 1 whose step does not
    underflow to 0."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ConfigError(f"need integer step counts, got {n!r}") from None
    if count < 1:
        raise ConfigError(f"need step counts >= 1, got {count}")
    if (h := (t1 - t0) / count) == 0.0:
        raise ConfigError(f"the step (t1 - t0) / n_steps underflows to 0 for "
                          f"t0 = {t0}, t1 = {t1}, n_steps = {count}")
    return count, h


def check_method(method, adaptive: bool, advance_embedded: bool = False):
    """ConfigError unless method can run the mode: adaptive needs an
    embedded pair of order p(p-1), advance_embedded embedded rows."""
    if (adaptive or advance_embedded) and not method.has_embedded:
        raise ConfigError(f"{method.name} has no embedded solution")
    if adaptive and method.order_phat != method.order_p - 1:
        raise ConfigError(
            f"{method.name}: expected an embedded pair of order p(p-1)")


@contextmanager
def _run(problem, y0, t0: float):
    """Start a run: yield the one-point trajectory at (t0, y0), owning its
    copy of y0, y0 as a flat list of floats and the packer of a record row.

    A y0 not shaped like problem.default_y0 raises ValueError, a non-finite
    one NonFiniteError.  Any later exception but an IntegrationError is
    re-raised as one carrying the trajectory, from the original: "left the
    domain: ..." for a DomainError, a FieldLengthError's own message, else
    the type's name and the message.
    """
    y = np.array(y0, float)
    expected = np.shape(problem.default_y0)
    if y.shape != expected:
        raise ValueError(f"y0 must have shape {expected}, got shape "
                         f"{y.shape}")
    traj = Trajectory(y, times=[t0])
    y = y.ravel().tolist()
    _check_finite(y, traj)
    try:
        yield traj, y, struct.Struct(f"{4 + len(y)}d").pack
    except IntegrationError:
        raise
    except Exception as exc:
        message = (f"left the domain: {exc}" if isinstance(exc, DomainError)
                   else str(exc) if isinstance(exc, FieldLengthError)
                   else f"{type(exc).__name__}: {exc}")
        raise IntegrationError(message, traj) from exc


# A compiled run: START, LOOP and the sections named below each stand for
# lines (_fill), Y1 for the entries of the point the run follows.  START
# sets k_exp and k_feval, one step's counts after f0; LOOP is _LOOP or
# _FIXED; FRESH forms f0 = f(base) and counts it in n_fresh once it
# returned; STEP steps, leaving y1 (and yhat1);
# ACCEPT moves the point followed to base, and in the adaptive loop f(y1)
# to f0 if FSAL, else clears have_f0.
_RUN = """
times, rec, have_f0 = traj.times, traj.record.frombytes, False
n_steps = n_fresh = n_rejected = rejects = 0
START
try:
    LOOP
finally:
    traj.totals = Totals(k_exp * n_steps, k_feval * n_steps + n_fresh,
                         len(times) - 1, n_rejected)
"""
# One adaptive run from (t, base) with the first proposed step h_try: f0
# is formed once per base point, and ERROR leaves y1's error measure.
_LOOP_PARAMS = ("pair, action, f, base, t, t1, h_try, traj, pack, atol, "
                "rtol, fac, facmin, facmax, hmin, hmax, max_rejects, expo, "
                "norm, dist")
_LOOP = """
while t < t1:
    t_next = t + h_try
    truncated = t_next >= t1
    h = t1 - t if truncated else h_try
    if t_next == t:  # below half an ulp of t, h_try would not move t
        raise StepSizeUnderflowError(
            f"step size underflow at t = {t} (h = {h})", traj)
    if not have_f0:
        FRESH
        have_f0 = True
    STEP
    ERROR
    if not math.isfinite(err):
        _check_finite([Y1], traj)
        raise NonFiniteError("error measure became non-finite", traj)
    accepted = err <= 1.0
    rec(pack(t, h, accepted, err, Y1))
    if accepted:
        rejects = 0
        t = t1 if truncated else t_next
        ACCEPT
        times.append(t)
        if truncated:
            break
        fmax = facmax
    else:
        n_rejected += 1
        rejects += 1
        if rejects > max_rejects:
            raise TooManyRejectsError(
                f"{rejects} consecutive rejected steps at t = {t}",
                traj)
        if h <= hmin * (1.0 + 1e-12):
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t} (h = {h})", traj)
        fmax = 1.0
    STEP_SIZE
"""
# count steps of size h from (t, base), the last one landing on t1; STEP
# checks the point followed before its row is packed.
_FIXED_PARAMS = "pair, action, f, base, t, t1, h, traj, pack, count"
_FIXED = """
for i in range(1, count + 1):
    FRESH
    STEP
    rec(pack(t + (i - 1) * h, h, True, math.nan, Y1))
    ACCEPT
    times.append(t1 if i == count else t + i * h)
"""
_METRICS = [GroupAction.ambient_norm, GroupAction.ambient_distance]


def _fill(template: str, **sections) -> list:
    """The lines of template, each line that holds only a key of sections
    replaced by that section's lines at its indentation."""
    lines = []
    for line in template.strip().splitlines():
        key = line.strip()
        lines += ([line[:line.index(key)] + s for s in sections[key]]
                  if key in sections else [line])
    return lines


def _loop(pair, problem, advance_embedded=None):
    """pair's compiled loop for problem and the field parameters it takes:
    the adaptive loop for advance_embedded None, else the fixed-step loop,
    which follows yhat1 if advance_embedded.  A loop is compiled on first
    use and cached with pair's step kernels under ("loop", n, field,
    advance_embedded).  It is the inline form for the built-in geometry of
    algebra length n, where the action steps inline (stepper.inline_length)
    and, for the adaptive loop, keeps GroupAction's metrics, as math.hypot
    gives a finite err only for a finite y1 and the loop checks y1 only on
    a non-finite err; else the calling form, n = None.  Where problem.f is
    a packaged field, field is its Block (stepper.inline_field), run in
    place of f with its parameters as the loop's last arguments.  Both
    adaptive forms keep the base point's norm in the local norm_base,
    formed before the loop and carried from y1's on an accept; they
    differ only in the step, the distance and the norm (dist and norm,
    or math.hypot) and the point's spelling (one list, or its entries'
    locals).  The inline form keeps points and f values in float locals,
    measures with math.hypot, probes each point the fixed loop follows
    with one math.isfinite of its entries' sum, and reads each math name
    it uses from a local math_<name>, bound once before the loop, so a
    step looks up no module attribute."""
    action = problem.action
    adaptive = advance_embedded is None
    metrics = [getattr(m, "__func__", m)
               for m in (action.ambient_norm, action.ambient_distance)]
    n = inline_length(action) if metrics == _METRICS or not adaptive else None
    field, params = inline_field(problem.f, n)
    key = ("loop", n, field, advance_embedded)
    loop = pair._kernels.get(key)
    if loop is None:
        # the calling form takes the counts, base, FRESH and carry of
        # kernel_lines; h > 0 as t + h > t
        embedded = adaptive or advance_embedded
        (coefficients, lines, y1, yhat1, k_exp, k_feval, base, fresh,
         carry) = kernel_lines(pair, n or 1, embedded, n is not None, field)
        if n is None:
            followed = "yhat1" if advance_embedded else "y1"
            start = []
            # y1 is checked at once: an action's own ambient_distance need
            # not turn a non-finite y1 into a non-finite err
            step = [f"res = cf_step(pair, action, f, base, h, f0, "
                    f"with_embedded={embedded})", "n_steps += 1",
                    "y1, yhat1, f_last = res.y1_list, res.yhat1_list, "
                    "res.f_last", f"_check_finite({followed}, traj, len(base))"]
            step += ["d = dist(y1, yhat1)"] * adaptive
            point, moves = "*" + followed, [(base, followed)]
            norm_base, norm_y1 = "norm(base)", "norm(y1)"
        else:
            followed = yhat1 if advance_embedded else y1
            point = ", ".join(followed)
            # h is fixed for a fixed-step run: its h * c_j are formed once
            start = [f"{_list(base)} = base", *coefficients * (not adaptive)]
            step = [*coefficients * adaptive, *lines, "n_steps += 1"]
            step += ([f"d = math.hypot("
                      f"{', '.join(map(' - '.join, zip(y1, yhat1)))})"]
                     if adaptive else
                     [f"if not math.isfinite({' + '.join(followed)}):",
                      f"    _check_finite([{point}], traj)"])
            moves = [*zip(base, followed)]
            norm_base, norm_y1 = (f"math.hypot({', '.join(x)})"
                                  for x in (base, y1))
        if adaptive:
            # norm(x) becomes (x): y1's norm is norm_y1, and base's is the
            # local norm_base, formed once per base point, before the loop
            # and on each accept from ERROR's norm of y1, its temp n1
            # (bound before the loop too, as ERROR forms it only where
            # rtol != 0)
            start.append(f"norm_base = _n1 = {norm_base}")
            moves.append(("norm_base", "_n1"))
            moves += [("have_f0", "False")] if carry is None else carry
        error = ["d", "norm_base", norm_y1, "atol", "rtol", ""]
        body = _fill((_LOOP if adaptive else _FIXED).replace("Y1", point),
                     FRESH=[*fresh, "n_fresh += 1"], STEP=step,
                     ACCEPT=[f"{a} = {b}" for a, b in moves],
                     ERROR=_ERROR.inline([error], ["err"]),
                     STEP_SIZE=_STEP_SIZE.inline(_STEP_SIZE.params, ["h_try"]))
        lines = _fill(_RUN, LOOP=body, START=[
            f"k_exp, k_feval = {k_exp}, {k_feval}", *start])
        if n is not None:  # math's names as locals, bound before the loop
            names = set(re.findall(r"math\.(\w+)", "\n".join(lines)))
            lines = [f"math_{x} = math.{x}" for x in sorted(names)] + [
                s.replace("math.", "math_") for s in lines]
        # Every loop runs in this module's namespace, which holds what the
        # inline blocks read (stepper.KERNEL_GLOBALS); the calling form
        # looks cf_step up here at every step, where a wrapper may replace
        # it.
        signature = _LOOP_PARAMS if adaptive else _FIXED_PARAMS
        loop = pair._kernels[key] = compile_function(
            "loop", ", ".join([signature, *field.params[1]] if field
                              else [signature]), lines, None, globals())
    return loop, params


def integrate_adaptive(pair, problem, y0, t0: float, t1: float,
                       cfg: ControllerConfig) -> Trajectory:
    """Adaptive integration of problem over [t0, t1] with an embedded pair.

    Steps with err <= 1 are accepted and the trajectory advances with the
    higher-order solution; rejected steps are retried with the shrunken
    step (growth is disabled on the retry).  The final step is truncated
    to land exactly on t1.  The attempts run in pair's compiled loop (see
    _loop), inline for an action of a built-in geometry.
    """
    check_span(t0, t1)
    check_method(pair, True)
    loop, params = _loop(pair, problem)
    action = problem.action
    with _run(problem, y0, t0) as (traj, y, pack):
        h = initial_step(problem, y, cfg, pair.order_p, t0, t1)
        loop(pair, action, problem.f, y, t0, t1, min(h, t1 - t0), traj,
             pack, cfg.atol, cfg.rtol if problem.use_rtol else 0.0,
             cfg.fac, cfg.facmin, cfg.facmax, cfg.hmin, cfg.hmax,
             cfg.max_consecutive_rejects, -1.0 / pair.order_p,
             action.ambient_norm, action.ambient_distance, *params)
    return traj


def integrate_fixed(method, problem, y0, t0: float, t1: float,
                    n_steps: int, *, advance_embedded: bool = False) -> Trajectory:
    """Fixed-step integration with n_steps equal steps, no error control.

    Embedded rows are skipped entirely unless advance_embedded is set, in
    which case the trajectory follows the embedded (lower-order) solution.
    No f value is carried: f(y1), when a step forms it, is not at the point
    the trajectory follows, so each step evaluates f at its base point.
    The steps run in method's compiled fixed-step loop (see _loop), inline
    for an action of a built-in geometry.
    """
    check_span(t0, t1)
    n_steps, h = check_steps(n_steps, t0, t1)
    check_method(method, False, advance_embedded)
    loop, params = _loop(method, problem, advance_embedded)
    with _run(problem, y0, t0) as (traj, y, pack):
        loop(method, problem.action, problem.f, y, t0, t1, h, traj, pack,
             n_steps, *params)
    return traj
