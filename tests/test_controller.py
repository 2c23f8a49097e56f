"""Step-size controller: the accept/reject rule, the growth formula with
its clamps, typed failure modes, and both integration drivers."""

import ast
import dataclasses
import math
import re
import struct
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.actions import DomainError, GroupAction, So3SphereAction, so3_exp
from cfrk.catalog import catalog, get_tableau
from cfrk.controller import (ConfigError, ControllerConfig,
                             ControllerConfigError,
                             IntegrationError, NonFiniteError,
                             StepAttempt, StepSizeUnderflowError,
                             TooManyRejectsError, Trajectory, _check_finite,
                             error_measure, initial_step, integrate_adaptive,
                             integrate_fixed, next_step_size)
from cfrk.problems import Problem, heavy_top, rigid_body, van_der_pol
from cfrk.stepper import FieldLengthError, inline_field, step_kernel
from cfrk.tableaux import CFTableau
from test_stepper import calling

EPS = np.finfo(float).eps


def zero_field_problem():
    return Problem(name="still", action=So3SphereAction(),
                   f=lambda y: [0.0, 0.0, 0.0],
                   default_y0=np.array([1.0, 0.0, 0.0]),
                   use_rtol=False, invariants=lambda y: {}, params=None)


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(fac=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(facmin=1.2)
    with pytest.raises(ValueError):
        ControllerConfig(facmax=0.9)
    with pytest.raises(ValueError):
        ControllerConfig(atol=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(rtol=-1e-9)
    with pytest.raises(ValueError):
        ControllerConfig(hmin=2.0, hmax=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(max_consecutive_rejects=0)


@pytest.mark.parametrize("field,value", [
    ("h0", 0.0), ("h0", -0.1), ("h0", math.nan), ("h0", -math.inf),
    ("atol", math.nan), ("rtol", math.nan), ("hmin", 0.0), ("hmin", -1.0)])
def test_config_rejects_invalid_h0_and_nan_tolerances(field, value):
    # caught at construction, before a run could take a zero, backward or
    # NaN first step
    with pytest.raises(ControllerConfigError, match=f"{field} must be"):
        ControllerConfig(**{field: value})
    assert issubclass(ControllerConfigError, ValueError)


def test_infinite_h0_is_clamped_to_the_span():
    prob = rigid_body()
    traj = integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                              0.0, 0.5, ControllerConfig(h0=math.inf))
    assert traj.h_history[0].h == 0.5
    assert traj.t_end == 0.5


# ------------------------------------------------------------ error measure

def test_error_measure_absolute():
    act = So3SphereAction()
    cfg = ControllerConfig(atol=0.1, rtol=0.0)
    y0 = np.array([1.0, 0.0, 0.0])
    y1 = np.array([0.0, 1.0, 0.0])
    yhat = y1 + np.array([0.01, 0.0, 0.0])
    assert error_measure(y0, y1, yhat, cfg, act) == pytest.approx(0.1)


def test_error_measure_relative_scale_uses_larger_norm():
    act = So3SphereAction()
    cfg = ControllerConfig(atol=0.1, rtol=1.0)
    y0 = np.array([1.0, 0.0, 0.0])
    y1 = np.array([3.0, 0.0, 0.0])
    yhat = np.array([3.0, 0.01, 0.0])
    # sc = 0.1 + max(1, 3) * 1
    assert error_measure(y0, y1, yhat, cfg, act) == pytest.approx(0.01 / 3.1)


class _NormCountingAction(So3SphereAction):
    def __init__(self):
        self.norm_calls = 0

    def ambient_norm(self, p) -> float:
        self.norm_calls += 1
        return super().ambient_norm(p)


def test_error_measure_skips_norms_without_rtol():
    rng = np.random.default_rng(61)
    for _ in range(20):
        y0, y1, yhat = rng.standard_normal((3, 3))
        for atol, rtol in ((1e-6, 0.0), (0.1, 1e-3)):
            act = _NormCountingAction()
            cfg = ControllerConfig(atol=atol, rtol=rtol)
            sc = atol + max(math.hypot(*y0), math.hypot(*y1)) * rtol
            want = math.dist(y1, yhat) / sc
            assert error_measure(y0, y1, yhat, cfg, act) == want
            assert act.norm_calls == (0 if rtol == 0.0 else 2)
            lists = (y0.tolist(), y1.tolist(), yhat.tolist())
            assert error_measure(*lists, cfg, act) == want
            assert act.norm_calls == (0 if rtol == 0.0 else 4)


def test_error_measure_requires_embedded_solution():
    with pytest.raises(ValueError):
        error_measure(np.zeros(3), np.zeros(3), None,
                      ControllerConfig(), So3SphereAction())


# ------------------------------------------------------------ step formula

def test_next_step_size_values():
    cfg = ControllerConfig()
    assert next_step_size(0.1, 16.0, 4, cfg) == 0.1 * (0.9 * 16.0 ** -0.25)
    # tiny error saturates at facmax, huge error at facmin
    assert next_step_size(0.1, 1e-30, 4, cfg) == pytest.approx(0.5)
    assert next_step_size(0.1, 1e30, 4, cfg) == pytest.approx(0.02)
    # err = 0 is treated as machine epsilon, which still saturates facmax
    assert next_step_size(0.1, 0.0, 4, cfg) == pytest.approx(0.5)


def test_next_step_size_disables_growth_after_reject():
    cfg = ControllerConfig()
    assert next_step_size(0.1, 1e-30, 4, cfg, facmax=1.0) == 0.1


def test_next_step_size_clamps():
    cfg = ControllerConfig(hmax=0.3)
    assert next_step_size(0.1, 1e-30, 4, cfg) == 0.3
    cfg = ControllerConfig(hmin=0.05)
    assert next_step_size(0.06, 1e30, 4, cfg) == 0.05


def test_next_step_size_matches_formula_on_random_inputs():
    rng = np.random.default_rng(8)
    cfg = ControllerConfig(atol=1e-6, fac=0.8, facmin=0.1, facmax=4.0,
                           hmin=1e-10, hmax=10.0)
    for _ in range(300):
        h = 10.0 ** rng.uniform(-6, 1)
        err = 10.0 ** rng.uniform(-12, 6)
        p = int(rng.integers(2, 6))
        expected = h * min(cfg.facmax,
                           max(cfg.facmin, cfg.fac * err ** (-1.0 / p)))
        expected = min(cfg.hmax, max(cfg.hmin, expected))
        assert next_step_size(h, err, p, cfg) == expected


# ------------------------------------------------------------- initial step

def test_initial_step_honours_explicit_h0():
    prob = rigid_body()
    cfg = ControllerConfig(h0=0.123, hmax=0.05)
    # an explicit starting step is taken verbatim
    assert initial_step(prob, prob.default_y0, cfg, 3, 0.0, 2.0) == 0.123


def test_initial_step_rate_heuristic():
    prob = rigid_body()
    y0 = prob.default_y0
    cfg = ControllerConfig(atol=1e-6)
    act = prob.action
    rate = act.ambient_norm(act.infinitesimal(prob.f(y0), y0))
    expected = min(0.01 * 1e-6 ** (1 / 3) / rate, 2.0 / 10.0)
    assert initial_step(prob, y0, cfg, 3, 0.0, 2.0) == pytest.approx(expected)


def test_initial_step_zero_field_falls_back_to_span():
    prob = zero_field_problem()
    h0 = initial_step(prob, prob.default_y0, ControllerConfig(), 3, 0.0, 2.0)
    assert h0 == pytest.approx(0.2)


def test_initial_step_is_the_span_when_its_tenth_underflows():
    prob = rigid_body()
    y0 = prob.default_y0.tolist()
    assert initial_step(prob, y0, ControllerConfig(), 3, 0.0, 1e-323) == 1e-323
    traj = integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                              0.0, 1e-323, ControllerConfig())
    assert traj.times == [0.0, 1e-323]


def test_a_span_whose_tenth_is_below_an_ulp_is_stepped_at_once():
    # a tenth of this span of two ulps at 1e6 would not move t0:
    # initial_step returns the span, and the run ends at t1 with strictly
    # increasing times, the accepted steps summing to the span
    prob = heavy_top()
    t0, t1 = 1e6, 1000000.0000000002
    cfg = ControllerConfig(atol=1e-3, rtol=1e-3)
    y0 = prob.default_y0.tolist()
    assert initial_step(prob, y0, cfg, 4, t0, t1) == t1 - t0
    for action in (prob.action, calling(prob.action)):
        traj = integrate_adaptive(get_tableau("cf43"), dataclasses.replace(
            prob, action=action), prob.default_y0, t0, t1, cfg)
        assert traj.times[0] == t0 and traj.t_end == t1
        assert all(a < b for a, b in zip(traj.times, traj.times[1:]))
        assert sum(a.h for a in traj.h_history if a.accepted) == t1 - t0


@pytest.mark.parametrize("form", ["inline", "calling"])
def test_a_step_below_half_an_ulp_of_t_is_an_underflow(form):
    # at t = 1e15 an ulp is 0.125: from h0 = 1 two rejects shrink h by
    # facmin = 0.2 to 0.04, which would not move t, so the third attempt
    # raises before stepping; a starting step below half an ulp raises at
    # once.  f raises after 1000 calls, so that a loop whose accepted
    # steps do not move t ends.
    prob, calls = rigid_body(), []

    def f(y, f=prob.f):
        calls.append(None)
        if len(calls) > 1000:
            raise RuntimeError("t does not move")
        return f(y)
    prob = dataclasses.replace(prob, f=f)
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    t0 = 1e15
    for h0, rejected in ((1.0, 2), (0.03, 0)):
        cfg = ControllerConfig(atol=1e-14, h0=h0)
        with pytest.raises(StepSizeUnderflowError, match=re.escape(
                f"step size underflow at t = {t0} (h = ")) as info:
            integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                               t0, t0 + 1.0, cfg)
        traj = info.value.trajectory
        assert traj.times == [t0]
        assert [(a.t, a.accepted) for a in traj.h_history] == \
            [(t0, False)] * rejected
        assert traj.totals.n_rejected == rejected
        assert traj.totals.n_exp == 6 * rejected  # the last one never ran
        assert all(t0 + a.h > t0 for a in traj.h_history)


# -------------------------------------------------------- adaptive driver

def test_adaptive_validates_inputs():
    prob = rigid_body()
    cfg = ControllerConfig()
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                           1.0, 1.0, cfg)
    with pytest.raises(ValueError, match="embedded"):
        integrate_adaptive(get_tableau("cf4"), prob, prob.default_y0,
                           0.0, 1.0, cfg)
    t = get_tableau("cf32a")
    gap2 = CFTableau(name="gap2", s=3, alpha=t.alpha, beta=t.beta,
                     beta_hat=t.beta_hat, order_p=3, order_phat=1,
                     fsal=True, reuse_map=t.reuse_map)
    with pytest.raises(ValueError, match="p-1"):
        integrate_adaptive(gap2, prob, prob.default_y0, 0.0, 1.0, cfg)


def test_zero_field_grows_at_facmax():
    prob = zero_field_problem()
    cfg = ControllerConfig(atol=1e-6)
    traj = integrate_adaptive(get_tableau("cf32a"), prob,
                              prob.default_y0, 0.0, 2.0, cfg)
    hs = [a.h for a in traj.h_history]
    # span/10 start, one factor-5 growth, then the truncated remainder
    assert hs == [0.2, 1.0, 0.8]
    assert all(a.err == 0.0 and a.accepted for a in traj.h_history)
    assert traj.t_end == 2.0
    assert_allclose(traj.y_end, prob.default_y0, atol=0)


def test_final_step_lands_exactly_on_t1():
    prob = rigid_body()
    cfg = ControllerConfig(atol=1e-6)
    traj = integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                              0.0, 2.0, cfg)
    assert traj.t_end == 2.0
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.points) == traj.totals.n_accepted + 1


def test_replay_of_recorded_step_sizes_is_exact():
    # every attempt's step must be reproducible from the recorded history:
    # the controller formula after accepts, growth disabled after rejects,
    # truncation at the end point
    prob = van_der_pol()
    pair = get_tableau("cf32a")
    cfg = ControllerConfig(atol=1e-3, rtol=1e-3)
    t0, t1 = 0.0, 3.0
    traj = integrate_adaptive(pair, prob, prob.default_y0, t0, t1, cfg)
    assert traj.totals.n_rejected > 0  # the retry path is exercised
    p = pair.order_p

    h_free = min(initial_step(prob, prob.default_y0, cfg, p, t0, t1), t1 - t0)
    t = t0
    for a in traj.h_history:
        truncated = t + h_free >= t1
        h_step = t1 - t if truncated else h_free
        assert a.t == t
        assert a.h == h_step
        assert a.accepted == (a.err <= 1.0)
        if a.accepted:
            t = t1 if truncated else t + h_step
            if truncated:
                break
            h_free = next_step_size(h_step, a.err, p, cfg)
        else:
            h_free = next_step_size(h_step, a.err, p, cfg, facmax=1.0)
    assert t == t1 == traj.t_end


def test_rejected_attempts_do_not_advance_the_state():
    prob = van_der_pol()
    cfg = ControllerConfig(atol=1e-3, rtol=1e-3)
    traj = integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                              0.0, 3.0, cfg)
    totals = traj.totals
    assert totals.n_accepted + totals.n_rejected == len(traj.h_history)
    assert len(traj.points) == totals.n_accepted + 1
    accepted = [a for a in traj.h_history if a.accepted]
    for a, pt in zip(accepted, traj.points[1:]):
        assert np.array_equal(a.y, pt)


def test_adaptive_error_decreases_with_tolerance():
    prob = rigid_body()
    y0 = prob.default_y0
    ref = integrate_adaptive(get_tableau("cf43"), prob, y0, 0.0, 2.0,
                             ControllerConfig(atol=1e-11)).y_end
    errs = []
    for atol in (1e-4, 1e-6, 1e-8):
        end = integrate_adaptive(get_tableau("cf43"), prob, y0, 0.0, 2.0,
                                 ControllerConfig(atol=atol)).y_end
        errs.append(np.linalg.norm(end - ref))
    assert errs[0] > errs[1] > errs[2]


# ------------------------------------------------------------ failure modes

def test_step_size_underflow_carries_partial_trajectory():
    prob = rigid_body()
    cfg = ControllerConfig(atol=1e-14, hmin=0.05, h0=0.05)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                           0.0, 2.0, cfg)
    traj = info.value.trajectory
    assert traj is not None
    assert traj.totals.n_rejected >= 1
    assert len(traj.points) == 1  # nothing was accepted
    assert isinstance(info.value, IntegrationError)


def test_too_many_rejects():
    class AlwaysFar(So3SphereAction):
        def ambient_distance(self, p, q):
            return 1.0

    prob = Problem(name="stubborn", action=AlwaysFar(),
                   f=lambda y: [0.0, 0.0, 1.0],
                   default_y0=np.array([1.0, 0.0, 0.0]),
                   use_rtol=False, invariants=lambda y: {}, params=None)
    cfg = ControllerConfig(atol=0.01, max_consecutive_rejects=3, hmin=1e-300)
    with pytest.raises(TooManyRejectsError) as info:
        integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                           0.0, 1.0, cfg)
    assert info.value.trajectory.totals.n_rejected == 4


def test_non_finite_state_is_reported():
    prob = Problem(name="blowup", action=So3SphereAction(),
                   f=lambda y: [math.nan, 0.0, 0.0],
                   default_y0=np.array([1.0, 0.0, 0.0]),
                   use_rtol=False, invariants=lambda y: {}, params=None)
    with pytest.raises(NonFiniteError):
        integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                           0.0, 1.0, ControllerConfig())


def vdp_failing_after(n_calls):
    prob = van_der_pol()
    calls = []

    def f(y):
        calls.append(None)
        if len(calls) > n_calls:
            raise DomainError("synthetic domain failure")
        return prob.f(y)
    return dataclasses.replace(prob, f=f)


@pytest.mark.parametrize("run", [
    lambda prob: integrate_adaptive(get_tableau("cf43"), prob,
                                    prob.default_y0, 0.0, 1.0,
                                    ControllerConfig(atol=1e-6, rtol=1e-6)),
    lambda prob: integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                                 0.0, 1.0, 100),
], ids=["adaptive", "fixed"])
def test_domain_error_from_f_is_an_integration_error(run):
    with pytest.raises(IntegrationError, match="^left the domain: synthetic "
                                               "domain failure$") as info:
        run(vdp_failing_after(40))
    assert len(info.value.trajectory.points) > 1
    assert isinstance(info.value.__cause__, DomainError)


def rigid_body_changing_length_at(n_call):
    """The rigid body with f returning 4 entries from call n_call on."""
    prob = rigid_body()
    calls = []

    def f(y):
        calls.append(None)
        out = prob.f(y)
        return out + out[:1] if len(calls) >= n_call else out
    return dataclasses.replace(prob, f=f)


@pytest.mark.parametrize("run", [
    lambda prob: integrate_adaptive(get_tableau("cf43"), prob,
                                    prob.default_y0, 0.0, 1.0,
                                    ControllerConfig(atol=1e-6)),
    lambda prob: integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                                 0.0, 1.0, 100),
], ids=["adaptive", "fixed"])
def test_f_changing_length_is_an_integration_error(run):
    # cf43 calls f 4 times per attempt after the first f(y0), cf4 4 times
    # per step: call 31 falls in the eighth attempt of either
    with pytest.raises(IntegrationError,
                       match="f returned 4 entries within the step, "
                             "expected 3") as info:
        run(rigid_body_changing_length_at(31))
    traj = info.value.trajectory
    assert len(traj.points) == 8 == traj.totals.n_accepted + 1
    assert isinstance(info.value.__cause__, FieldLengthError)


def test_start_outside_the_domain_is_an_integration_error():
    prob = van_der_pol()
    with pytest.raises(IntegrationError) as info:
        integrate_adaptive(get_tableau("cf43"), prob, np.zeros(2), 0.0, 1.0,
                           ControllerConfig())
    assert len(info.value.trajectory.points) == 1
    assert isinstance(info.value.__cause__, DomainError)


def raising_after(prob, n_calls):
    """prob with f raising ZeroDivisionError from call n_calls + 1 on."""
    calls = []

    def f(y):
        calls.append(None)
        if len(calls) > n_calls:
            return [y[0] / 0.0]
        return prob.f(y)
    return dataclasses.replace(prob, f=f)


@pytest.mark.parametrize("form", ["inline", "calling"])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_any_exception_inside_a_run_is_an_integration_error(driver, form):
    # an exception of any type, not only a DomainError, ends the run as an
    # IntegrationError named by its type, with the partial trajectory
    prob = raising_after(van_der_pol(), 20)
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    with pytest.raises(IntegrationError, match="^ZeroDivisionError: float "
                                               "division by zero$") as info:
        if driver == "adaptive":
            integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                               0.0, 1.0, ControllerConfig(atol=1e-6))
        else:
            integrate_fixed(get_tableau("cf4"), prob, prob.default_y0, 0.0,
                            1.0, 100)
    assert type(info.value) is IntegrationError
    assert type(info.value.__cause__) is ZeroDivisionError
    traj = info.value.trajectory
    accepted = [a.y for a in traj.h_history if a.accepted]
    assert len(accepted) == traj.totals.n_accepted > 1
    assert traj.points.tolist() == [prob.default_y0.tolist(), *accepted]
    assert len(traj.times) == len(accepted) + 1
    assert 0 < traj.totals.n_feval <= 20


def test_exp_overflow_in_the_calling_loop_is_an_integration_error():
    # an action of its own that overrides exp runs the calling loop; an
    # OverflowError there ends the run like one from f
    calls = []

    class Overflowing(So3SphereAction):
        def exp(self, v):
            calls.append(None)
            if len(calls) > 30:
                raise OverflowError("math range error")
            return super().exp(v)
    prob = dataclasses.replace(rigid_body(), action=Overflowing())
    with pytest.raises(IntegrationError,
                       match="^OverflowError: math range error$") as info:
        integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0, 0.0,
                           1.0, ControllerConfig(atol=1e-6))
    assert type(info.value.__cause__) is OverflowError
    traj = info.value.trajectory
    assert traj.totals.n_exp == 30  # the five attempts before it, 6 each
    assert len(traj.points) == traj.totals.n_accepted + 1 > 1


# ---------------------------------------------------------- driver boundary

def counted(prob):
    """A copy of prob, with its own action, that records f and exp calls."""
    calls = []
    action = type(prob.action)()
    exp = action.exp

    def counted_exp(v):
        calls.append("exp")
        return exp(v)

    def f(y):
        calls.append("f")
        return prob.f(y)

    action.exp = counted_exp
    return dataclasses.replace(prob, f=f, action=action), calls


DRIVERS = {
    "adaptive": lambda prob, y0, t0, t1: integrate_adaptive(
        get_tableau("cf43"), prob, y0, t0, t1,
        ControllerConfig(atol=1e-6, rtol=1e-6)),
    "fixed": lambda prob, y0, t0, t1: integrate_fixed(
        get_tableau("cf4"), prob, y0, t0, t1, 10),
}
BOUNDARY_PROBLEMS = [rigid_body, heavy_top, van_der_pol]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (0.0, math.nan),
                                   (-math.inf, 1.0), (math.nan, 1.0),
                                   (1.0, 1.0), (1.0, 0.0), (-1e308, 1e308)],
                         ids=["t1-inf", "t1-nan", "t0-inf", "t0-nan",
                              "empty", "reversed", "span-overflows"])
def test_bad_time_span_is_rejected(driver, build, t0, t1):
    prob, calls = counted(build())
    start = time.perf_counter()
    with pytest.raises(ValueError, match="finite"):
        DRIVERS[driver](prob, prob.default_y0, t0, t1)
    assert time.perf_counter() - start < 1.0
    assert calls == []


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200],
                         ids=["inf", "-inf", "nan", "huge"])
def test_non_finite_initial_state_is_a_non_finite_error(driver, build, bad):
    # inf and nan replace the last entry and are caught before any f or exp
    # call; huge scales the whole (finite) state, so the first algebra
    # element overflows and the first step's state turns non-finite
    prob, calls = counted(build())
    y0 = prob.default_y0.copy()
    if math.isfinite(bad):
        y0 *= bad
    else:
        y0[-1] = bad
    start = time.perf_counter()
    with pytest.raises(NonFiniteError) as info:
        DRIVERS[driver](prob, y0, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    assert (calls == []) == (not math.isfinite(bad))
    traj = info.value.trajectory
    assert traj.times == [0.0]
    assert len(traj.points) == 1
    assert np.array_equal(traj.points[0], y0, equal_nan=True)


@pytest.mark.parametrize("build,scale,error", [
    (rigid_body, 1e160, StepSizeUnderflowError),
    (heavy_top, 1e160, StepSizeUnderflowError),
    (van_der_pol, 1e150, NonFiniteError),
    (van_der_pol, 1e160, NonFiniteError),
], ids=lambda x: getattr(x, "__name__", None))
def test_huge_finite_initial_state_is_a_typed_failure(build, scale, error):
    # the error measure's squares of ~1e160 entries would overflow a dot
    # product; on Van der Pol the initial-step rate overflows to inf
    prob = build()
    with pytest.raises(error) as info:
        DRIVERS["adaptive"](prob, prob.default_y0 * scale, 0.0, 1.0)
    assert info.value.trajectory.times == [0.0]


def test_initial_step_keeps_the_callers_numpy_error_state():
    # the rate estimate overflows to inf on Python floats, with no numpy
    # operation to warn, so nothing inside initial_step silences numpy
    prob = van_der_pol()
    seen = []

    class Recording(type(prob.action)):
        def infinitesimal(self, v, p):
            seen.append(np.geterr()["over"])
            return super().infinitesimal(v, p)

        def ambient_norm(self, p):
            seen.append(np.geterr()["over"])
            return super().ambient_norm(p)
    prob = dataclasses.replace(prob, action=Recording())
    y0 = (prob.default_y0 * 1e150).tolist()
    cfg = ControllerConfig(atol=1e-6, rtol=1e-6)
    with np.errstate(over="raise"):
        h0 = initial_step(prob, y0, cfg, 3, 0.0, 1.0)
    assert seen == ["raise", "raise"]
    assert h0 == cfg.hmin


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
def test_drivers_call_f_on_lists_only(driver, build):
    # the initial-step rate, the first f(y0) and every stage get a list
    prob = build()
    received = []

    def f(y):
        received.append(type(y))
        return prob.f(y)
    traj = DRIVERS[driver](dataclasses.replace(prob, f=f), prob.default_y0,
                           0.0, 0.1)
    assert set(received) == {list}
    assert len(received) == traj.totals.n_feval + (driver == "adaptive")


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
def test_wrong_length_initial_state_is_rejected(driver, build, extra):
    prob, calls = counted(build())
    n = len(prob.default_y0)
    y0 = np.resize(prob.default_y0, n + extra)
    expected = re.escape(f"shape ({n},), got shape ({n + extra},)")
    with pytest.raises(ValueError, match=expected):
        DRIVERS[driver](prob, y0, 0.0, 1.0)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_check_finite_accepts_huge_and_rejects_non_finite_entries(n):
    # the drivers check the state as a flat list of floats
    traj = Trajectory()
    huge = [1e300] * n  # huge . huge overflows; the check must not
    _check_finite(huge, traj)
    _check_finite([-x for x in huge], traj)
    for bad in (math.inf, -math.inf, math.nan):
        for idx in range(n):
            y = huge.copy()
            y[idx] = bad
            with pytest.raises(NonFiniteError) as info:
                _check_finite(y, traj)
            assert info.value.trajectory is traj


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_trajectory_owns_its_first_point(driver):
    prob = rigid_body()
    y0 = prob.default_y0.copy()
    for start in (prob.default_y0, y0):
        traj = DRIVERS[driver](prob, start, 0.0, 0.1)
        traj.points[0][0] = 99.0
        assert np.array_equal(prob.default_y0, y0)
        assert np.array_equal(start, y0)
    assert np.array_equal(rigid_body().default_y0, y0)
    y0[-1] = math.inf
    with pytest.raises(NonFiniteError) as info:
        DRIVERS[driver](prob, y0, 0.0, 0.1)
    assert info.value.trajectory.points[0] is not y0


def nan_field_after(prob, n_calls):
    """prob with f returning NaN entries from call n_calls + 1 on."""
    calls = []

    def f(y):
        calls.append(None)
        out = prob.f(y)
        return [math.nan] * len(out) if len(calls) > n_calls else out
    return dataclasses.replace(prob, f=f)


def far_after(prob, n_calls):
    """prob whose error distance reads 0 for n_calls attempts and 1 from
    then on, so every later attempt is rejected."""
    calls = []

    class Switching(type(prob.action)):
        def ambient_distance(self, p, q):
            calls.append(None)
            return 0.0 if len(calls) <= n_calls else 1.0
    return dataclasses.replace(prob, action=Switching())


# Each ending after some accepted steps: (problem, error, adaptive config).
# The adaptive runs cap h at 0.01 so that they cannot reach t1 = 1 first.
ENDINGS = {
    "non-finite": (lambda: nan_field_after(rigid_body(), 20), NonFiniteError,
                   ControllerConfig(atol=1e-6, hmax=0.01)),
    "too-many-rejects": (lambda: far_after(rigid_body(), 5),
                         TooManyRejectsError,
                         ControllerConfig(atol=1e-6, hmax=0.01,
                                          max_consecutive_rejects=3)),
    "step-size-underflow": (lambda: far_after(heavy_top(), 5),
                            StepSizeUnderflowError,
                            ControllerConfig(atol=1e-6, hmin=1e-4,
                                             hmax=0.01)),
    "domain": (lambda: vdp_failing_after(40), IntegrationError,
               ControllerConfig(atol=1e-6, rtol=1e-6, hmax=0.01)),
    "field-length": (lambda: rigid_body_changing_length_at(31),
                     IntegrationError, ControllerConfig(atol=1e-6,
                                                        hmax=0.01)),
}


@pytest.mark.parametrize("driver,ending", [
    *(("adaptive", ending) for ending in ENDINGS),
    ("fixed", "non-finite"), ("fixed", "domain"), ("fixed", "field-length")])
def test_partial_trajectory_points_are_arrays_of_the_accepted_states(
        driver, ending):
    build, error, cfg = ENDINGS[ending]
    prob = build()
    with pytest.raises(error) as info:
        if driver == "adaptive":
            integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                               0.0, 1.0, cfg)
        else:
            integrate_fixed(get_tableau("cf4"), prob, prob.default_y0, 0.0,
                            1.0, 100)
    traj = info.value.trajectory
    assert "points" not in vars(traj)  # built when first read
    accepted = [a for a in traj.h_history if a.accepted]
    assert len(accepted) > 1
    assert len(traj.points) == len(accepted) + 1 == len(traj.times)
    assert traj.points.shape == (len(traj.times), *prob.default_y0.shape)
    for point in traj.points:
        assert type(point) is np.ndarray
        assert point.shape == prob.default_y0.shape
    assert all(type(a.y) is list for a in traj.h_history)
    assert traj.points[-1].tolist() == accepted[-1].y
    assert traj.totals.n_accepted == len(accepted)


# --------------------------------------------------------------- fixed mode

def test_fixed_step_grid():
    prob = rigid_body()
    traj = integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                           0.0, 1.0, 7)
    assert traj.times[-1] == 1.0
    assert len(traj.points) == 8
    assert traj.totals.n_accepted == 7
    assert traj.totals.n_rejected == 0
    assert all(math.isnan(a.err) for a in traj.h_history)
    assert traj.totals.n_exp == 7 * 5


@pytest.mark.parametrize("n_steps", [0, -3, 10.0, 2.5, "10"])
def test_fixed_step_validates_count(n_steps):
    # a count below 1 or not an integer is a bad config before the run,
    # not a failed run
    prob, calls = counted(rigid_body())
    with pytest.raises(ConfigError, match="step counts"):
        integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                        0.0, 1.0, n_steps)
    # a step that underflows to 0 is a bad config, not a failed run
    with pytest.raises(ConfigError, match="underflows to 0"):
        integrate_fixed(get_tableau("cf4"), prob, prob.default_y0, 0.0,
                        5e-324, 2)
    assert calls == []


def test_fixed_step_keeps_a_finite_point_whose_entries_overflow_a_sum():
    # the inline fixed loop probes a point with math.isfinite of its
    # entries' sum and calls _check_finite only when that fails; a finite
    # point whose sum overflows passes that check, in both forms
    prob = rigid_body()
    prob = dataclasses.replace(prob, f=lambda y: [0.0, 0.0, 0.0],
                               default_y0=np.array([1.7e308, 1.7e308, 0.0]))
    for action in (prob.action, calling(prob.action)):
        traj = integrate_fixed(get_tableau("cf4"),
                               dataclasses.replace(prob, action=action),
                               prob.default_y0, 0.0, 1.0, 3)
        assert traj.totals.n_accepted == 3
        assert traj.points.tobytes() == np.tile(prob.default_y0,
                                                (4, 1)).tobytes()


def test_fixed_step_takes_a_numpy_integer_count():
    prob = rigid_body()
    runs = [integrate_fixed(get_tableau("cf4"), prob, prob.default_y0, 0.0,
                            1.0, n) for n in (7, np.int64(7), np.uint8(7))]
    for traj in runs:
        assert traj.totals == runs[0].totals
        assert traj.record.tobytes() == runs[0].record.tobytes()
        assert float_bits(traj.times) == float_bits(runs[0].times)


def test_fixed_embedded_mode_follows_lower_order_solution():
    prob = rigid_body()
    y0 = prob.default_y0
    main = integrate_fixed(get_tableau("cf32a"), prob, y0, 0.0, 1.0, 50)
    emb = integrate_fixed(get_tableau("cf32a"), prob, y0, 0.0, 1.0, 50,
                          advance_embedded=True)
    assert np.linalg.norm(main.y_end - emb.y_end) > 1e-9
    with pytest.raises(ValueError):
        integrate_fixed(get_tableau("cf4"), prob, y0, 0.0, 1.0, 10,
                        advance_embedded=True)


# ----------------------------------------------------------- failure matrix

# Inputs from the user or the vector field, each a change to y0, to the
# adaptive ControllerConfig, or to f ("f-nan": NaN from its eleventh call
# on; "f-raises": ZeroDivisionError at its eleventh call;
# "f-wrong-length": one entry too many from its first call).
MATRIX_Y0 = {
    "y0-nan": lambda y0: np.append(y0[:-1], math.nan),
    "y0-inf": lambda y0: np.append(y0[:-1], math.inf),
    "y0-huge": lambda y0: y0 * 1e200,
    "y0-long": lambda y0: np.append(y0, 0.0),
}
MATRIX_CFG = {
    "atol-tiny-hmin": dict(atol=1e-300, hmin=1e-3),
    "h0-huge": dict(h0=1e6, atol=1e6),
    "hmin-over-span": dict(hmin=2.0),
    "one-reject": dict(max_consecutive_rejects=1),
}
EMBEDDED = [t.name for t in catalog() if t.has_embedded]


def run_failure_case(driver, name, build, case):
    """Run one matrix case over t in [0, 1]: it must succeed, raise
    ValueError before any f or exp call, or raise an IntegrationError whose
    partial trajectory holds the accepted points and counts them."""
    prob = build()
    if case == "f-nan":
        prob = nan_field_after(prob, 10)
    elif case == "f-raises":
        prob = raising_after(prob, 10)
    elif case == "f-wrong-length":
        prob = dataclasses.replace(prob, f=lambda y, f=prob.f: [*f(y), 0.0])
    prob, calls = counted(prob)
    y0 = MATRIX_Y0.get(case, lambda y0: y0)(prob.default_y0)
    error = None
    start = time.perf_counter()
    try:
        if driver == "adaptive":
            cfg = ControllerConfig(**MATRIX_CFG.get(case, {}))
            traj = integrate_adaptive(get_tableau(name), prob, y0, 0.0, 1.0,
                                      cfg)
        else:
            traj = integrate_fixed(get_tableau(name), prob, y0, 0.0, 1.0, 20)
    except IntegrationError as exc:
        error, traj = exc, exc.trajectory
    except ValueError:
        assert calls == []
        traj = None
    assert time.perf_counter() - start < 1.0
    if case == "f-wrong-length":  # caught at f's first value
        assert type(error.__cause__) is FieldLengthError
        assert traj.times == [0.0] and traj.h_history == []
    if case == "f-raises":  # f's eleventh call raises within a step
        assert type(error) is IntegrationError
        assert type(error.__cause__) is ZeroDivisionError
        assert calls.count("f") == 11
        assert 0 < traj.totals.n_feval <= 10
    if traj is not None:
        accepted = sum(a.accepted for a in traj.h_history)
        assert len(traj.points) == len(traj.times) == accepted + 1
        assert traj.totals.n_accepted == accepted


@pytest.mark.parametrize("case", [*MATRIX_Y0, *MATRIX_CFG, "f-nan",
                                  "f-raises", "f-wrong-length"])
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", EMBEDDED)
def test_adaptive_failure_matrix(name, build, case):
    run_failure_case("adaptive", name, build, case)


@pytest.mark.parametrize("case", [*MATRIX_Y0, "f-nan", "f-raises",
                                  "f-wrong-length"])
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", ["cf4", "cf43"])
def test_fixed_failure_matrix(name, build, case):
    run_failure_case("fixed", name, build, case)


# ------------------------------------------------------- the two loop forms

def outcome(pair, prob, cfg, t1=1.0):
    """The run's error type and message (None, None on success) and its
    trajectory."""
    try:
        return None, None, integrate_adaptive(pair, prob, prob.default_y0,
                                              0.0, t1, cfg)
    except IntegrationError as exc:
        return type(exc), str(exc), exc.trajectory


def fixed_outcome(method, prob, n_steps, advance_embedded=False, t1=1.0):
    """outcome() of integrate_fixed over [0, t1] in n_steps steps."""
    try:
        return None, None, integrate_fixed(
            method, prob, prob.default_y0, 0.0, t1, n_steps,
            advance_embedded=advance_embedded)
    except IntegrationError as exc:
        return type(exc), str(exc), exc.trajectory


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", EMBEDDED)
def test_inline_and_calling_loops_agree_bitwise(name, build):
    # a built-in action runs the inline loops, a subclass overriding exp and
    # act the calling ones; both give the same outcome, bit for bit, on a
    # span whose tenth underflows to 0 too, adaptive and fixed-step, on
    # the higher-order and the embedded solution
    prob = build()
    other = dataclasses.replace(prob, action=calling(prob.action))
    pair = get_tableau(name)
    configs = [dict(atol=tol, rtol=tol) for tol in (1e-4, 1e-8)]
    runs = [(ControllerConfig(**kw), 1.0)
            for kw in [*configs, *MATRIX_CFG.values()]]
    for cfg, t1 in [*runs, (ControllerConfig(), 1e-323)]:
        assert_same_run(outcome(pair, prob, cfg, t1),
                        outcome(pair, other, cfg, t1))
    for steps, advance_embedded in [(1, False), (7, True), (60, False),
                                    (60, True)]:
        assert_same_run(*(fixed_outcome(pair, p, steps, advance_embedded)
                          for p in (prob, other)))
    n = len(prob.f(prob.default_y0))
    field = inline_field(prob.f, n)[0]
    for mode in (None, False, True):
        assert ("loop", n, field, mode) in pair._kernels
        assert ("loop", None, None, mode) in pair._kernels


@pytest.mark.parametrize("name", ["cf4", "cf43"])
def test_folded_van_der_pol_rows_agree_where_h_times_c_overflows(name):
    # over [0, 1.7e308] h * c_j overflows to inf: the inline loop's rows,
    # written from Van der Pol's run-constant 0, 1 and -1, fail the run as
    # the calling loop's unfolded sums do, with the same record bytes and
    # totals; over [0, 1e300] the state overflows, over [0, 0.01] the run
    # ends at t1
    prob = van_der_pol()
    other = dataclasses.replace(prob, action=calling(prob.action))
    pair = get_tableau(name)
    modes = [False, True] if pair.has_embedded else [False]
    for t1, steps, mode in [(t1, steps, mode) for t1 in (1.7e308, 1e300, 0.01)
                            for steps in (1, 3) for mode in modes]:
        inline, called = (fixed_outcome(pair, p, steps, mode, t1)
                          for p in (prob, other))
        assert_same_run(inline, called)
        assert inline[2].record.tobytes() == called[2].record.tobytes()
        assert inline[0] is (NonFiniteError if t1 > 1.0 else None)


@pytest.mark.parametrize("form", ["inline", "calling"])
@pytest.mark.parametrize("driver, name", [("fixed", "cf4"), ("fixed", "cf43"),
                                          ("adaptive", "cf43_4stage")])
def test_a_run_that_fails_inside_a_step_counts_f_alike_in_both_drivers(
        driver, name, form):
    # with f raising at its k-th call, Totals.n_feval counts every call of
    # each completed step and each f(base) that returned: a run of m calls
    # a step, f(base) first, reports m * (k - 1) // m plus one for a
    # returned f(base) of the failed step (no rejects; h0 is set, so
    # initial_step calls no f)
    prob = rigid_body()
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    pair = get_tableau(name)
    cfg = ControllerConfig(atol=1.0, h0=0.05, hmax=0.05)

    def run(p):
        if driver == "fixed":
            return integrate_fixed(pair, p, p.default_y0, 0.0, 1.0, 20)
        return integrate_adaptive(pair, p, p.default_y0, 0.0, 1.0, cfg)
    clean = run(prob).totals
    m = clean.n_feval // 20
    assert (clean.n_accepted, clean.n_rejected, clean.n_feval) == (
        20, 0, 20 * m)
    for k in range(1, 3 * m + 2):
        with pytest.raises(IntegrationError) as info:
            run(raising_after(prob, k - 1))
        assert type(info.value.__cause__) is ZeroDivisionError
        returned = k - 1
        assert info.value.trajectory.totals.n_feval == (
            m * (returned // m) + min(returned % m, 1))


def test_one_field_loop_serves_every_parameter_value():
    # inline_field takes a packaged field only, at its own length; two rigid
    # bodies share one compiled loop, their parameters passed in per run
    prob, other = rigid_body(), rigid_body(inertia=(3.0, 1.0, 4.0), m=2.0)
    block, params = inline_field(prob.f, 3)
    assert params == (1.0, 0.5, 0.2, 1.0)
    assert inline_field(other.f, 3) == (block, (1 / 3.0, 1.0, 0.25, 2.0))
    for f, n in ((lambda y: prob.f(y), 3), (prob.f, 4), (prob.f, None)):
        assert inline_field(f, n) == (None, ())
    pair = dataclasses.replace(get_tableau("cf43"))
    for p in (prob, other):
        called = dataclasses.replace(p, f=lambda y, f=p.f: f(y))
        assert_same_run(outcome(pair, p, ControllerConfig()),
                        outcome(pair, called, ControllerConfig()))
    assert [key for key in pair._kernels if key[0] == "loop"] == [
        ("loop", 3, block, None), ("loop", 3, None, None)]


def assert_same_run(a, b):
    """Two outcome() results agree: error type and message, times, every
    event's bits and the totals."""
    (kind, message, traj), (ref_kind, ref_message, ref) = a, b
    assert (kind, message) == (ref_kind, ref_message)
    assert float_bits(traj.times) == float_bits(ref.times)
    assert traj.totals == ref.totals
    assert len(traj.h_history) == len(ref.h_history)
    for a, r in zip(traj.h_history, ref.h_history):
        assert float_bits([a.t, a.h, a.err, *a.y]) == float_bits(
            [r.t, r.h, r.err, *r.y])
        assert a.accepted == r.accepted


@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", EMBEDDED)
def test_inline_and_called_fields_agree_bitwise(name, build):
    # a built-in field runs inline in the adaptive loop, a replacement
    # that calls it is called; both give the same outcome, bit for bit,
    # on the failure matrix's configurations and states too, and the
    # replacement sees every f evaluation Totals counts, plus initial_step's
    # where h0 is unset and the one that raised
    prob = build()
    calls = []

    def called(y):
        calls.append(None)
        return prob.f(y)
    pair = get_tableau(name)
    assert inline_field(prob.f, len(prob.f(prob.default_y0)))[0]
    runs = [(ControllerConfig(**kw), prob.default_y0)
            for kw in [dict(atol=1e-4, rtol=1e-4), dict(atol=1e-8, rtol=1e-8),
                       *MATRIX_CFG.values()]]
    runs += [(ControllerConfig(), MATRIX_Y0[case](prob.default_y0))
             for case in ("y0-nan", "y0-inf", "y0-huge")]
    if build is van_der_pol:  # the origin: DomainError from f(y0)
        runs.append((ControllerConfig(h0=0.1), np.zeros(2)))
    for cfg, y0 in runs:
        start = dataclasses.replace(prob, default_y0=y0)
        calls.clear()
        inline = outcome(pair, start, cfg)
        assert_same_run(inline, outcome(
            pair, dataclasses.replace(start, f=called), cfg))
        finite = bool(np.all(np.isfinite(y0)))
        raised = inline[0] is IntegrationError  # the f call that raised
        assert len(calls) == inline[2].totals.n_feval + (
            finite and (cfg.h0 is None or raised))


@pytest.mark.parametrize("form", ["inline", "calling"])
@pytest.mark.parametrize("name", ["cf43", "cf43_4stage"])
def test_a_retry_does_not_evaluate_f_again_at_its_base_point(name, form):
    # f(base) is formed once per base point and kept across rejected
    # attempts: FSAL cf43's first attempts (h0 far too large) and every
    # retry of the non-FSAL cf43_4stage evaluate f at no point twice, and
    # Totals counts each call (h0 is set, so initial_step calls no f)
    prob = van_der_pol()
    field, points = prob.f, []

    def f(y):
        points.append(tuple(y))
        return field(y)
    prob = dataclasses.replace(prob, f=f)
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    traj = integrate_adaptive(get_tableau(name), prob, prob.default_y0, 0.0,
                              3.0, ControllerConfig(atol=1e-4, rtol=1e-4,
                                                    h0=0.2))
    assert not traj.h_history[0].accepted and traj.totals.n_rejected > 10
    assert len(set(points)) == len(points) == traj.totals.n_feval


def test_calling_loop_steps_through_the_module_global(monkeypatch):
    # the calling loops look cf_step up in cfrk.controller at every attempt
    # or fixed step, where a wrapper such as the benchmark's tracer replaces
    # it; the inline loops never call it
    import cfrk.controller
    calls = []
    step = cfrk.controller.cf_step

    def counting(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)
    monkeypatch.setattr(cfrk.controller, "cf_step", counting)
    prob = van_der_pol()
    cfg = ControllerConfig(atol=1e-4, rtol=1e-4)
    for action, inline in ((prob.action, True), (calling(prob.action), False)):
        calls.clear()
        traj = integrate_adaptive(get_tableau("cf43"),
                                  dataclasses.replace(prob, action=action),
                                  prob.default_y0, 0.0, 3.0, cfg)
        attempts = traj.totals.n_accepted + traj.totals.n_rejected
        assert traj.totals.n_rejected > 0
        assert len(calls) == (0 if inline else attempts)
        for advance_embedded in (False, True):
            calls.clear()
            traj = integrate_fixed(get_tableau("cf43"),
                                   dataclasses.replace(prob, action=action),
                                   prob.default_y0, 0.0, 1.0, 40,
                                   advance_embedded=advance_embedded)
            assert traj.totals.n_accepted == 40
            assert len(calls) == (0 if inline else 40)


@pytest.mark.parametrize("rtol", [1e-3, 0.0])
def test_calling_loop_forms_the_base_norm_once_per_base_point(rtol):
    # an action with its own ambient_norm runs the calling loop, which
    # calls it on y1 once per attempt where rtol != 0, and on base once
    # per run, before its first attempt; y1's norm becomes the next base
    # point's on an accept.  h0 is unset, so initial_step adds its one
    # call, on f(y0)'s tangent vector.  The run keeps the inline run's
    # bits.
    prob = van_der_pol()
    norms = []

    class Counting(type(prob.action)):
        def ambient_norm(self, p):
            norms.append(list(p))
            return super().ambient_norm(p)
    cfg = ControllerConfig(atol=1e-3, rtol=rtol)
    pair = get_tableau("cf43")
    counted = dataclasses.replace(prob, action=Counting())
    run = outcome(pair, counted, cfg, 3.0)
    assert_same_run(run, outcome(pair, prob, cfg, 3.0))
    attempts = len(run[2].h_history)
    assert run[2].totals.n_rejected > 0
    assert len(norms) == 2 + attempts * (rtol != 0.0)
    assert norms[1] == prob.default_y0.tolist()  # after initial_step's
    if rtol != 0.0:
        assert attempts == 79 and len(norms) == 81
        assert norms[2:] == [a.y for a in run[2].h_history]


@pytest.mark.parametrize("form", ["inline", "calling"])
@pytest.mark.parametrize("h0", [None, 0.01])
@pytest.mark.parametrize("length", [2, 4, 6])
def test_wrong_length_field_at_the_start_is_a_field_length_error(
        form, h0, length):
    # the rigid body's algebra has 3 entries; the first f value decides,
    # in initial_step when it estimates h0, else in the first step
    prob = rigid_body()
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    prob = dataclasses.replace(prob, f=lambda y: [0.5] * length)
    for run in (lambda: integrate_adaptive(
                    get_tableau("cf43"), prob, prob.default_y0, 0.0, 1.0,
                    ControllerConfig(h0=h0)),
                lambda: integrate_fixed(get_tableau("cf4"), prob,
                                        prob.default_y0, 0.0, 1.0, 10)):
        with pytest.raises(IntegrationError,
                           match=f"f returned {length} entries, expected 3"):
            run()


def test_h_history_is_built_from_the_record_once():
    prob = rigid_body()
    traj = integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                              0.0, 1.0, ControllerConfig())
    assert all(type(a) is StepAttempt for a in traj.h_history)
    assert traj.h_history is traj.h_history
    width = 4 + traj.y0.size
    record = traj.record.tolist()
    assert [dataclasses.astuple(a) for a in traj.h_history] == [
        (t, h, accepted != 0.0, err, y) for t, h, accepted, err, *y
        in (record[i:i + width] for i in range(0, len(record), width))]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_points_are_built_once_when_first_read(driver):
    prob = rigid_body()
    traj = DRIVERS[driver](prob, prob.default_y0, 0.0, 1.0)
    assert "points" not in vars(traj)
    points = traj.points
    assert vars(traj)["points"] is points is traj.points
    accepted = [a.y for a in traj.h_history if a.accepted]
    assert points.tolist() == [prob.default_y0.tolist(), *accepted]


@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
def test_y_end_is_the_last_point_and_builds_no_points(build):
    # y_end reads the last accepted event, or y0: points[-1]'s bytes in
    # y0's shape, with points left unbuilt, also for a failed run that
    # accepted nothing
    prob = build()
    trajs = [run(prob, prob.default_y0, 0.0, 1.0) for run in DRIVERS.values()]
    with pytest.raises(IntegrationError) as info:
        integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0, 0.0,
                           1.0, ControllerConfig(atol=1e-12, h0=1.0,
                                                 max_consecutive_rejects=1))
    trajs.append(info.value.trajectory)
    for traj in trajs:
        y_end = traj.y_end
        assert "points" not in vars(traj)
        assert type(y_end) is np.ndarray
        assert y_end.shape == prob.default_y0.shape
        assert y_end.tobytes() == traj.points[-1].tobytes()
    assert trajs[-1].y_end.tolist() == prob.default_y0.tolist()
    assert trajs[-1].y_end is not trajs[-1].y0


class MinimalRotations(GroupAction):
    """Rotations of R^3 defining only GroupAction's abstract methods."""

    def exp(self, v):
        return so3_exp(v).ravel().tolist()

    def act(self, g, p):
        return (np.reshape(g, (3, 3)) @ np.asarray(p, float)).tolist()

    def infinitesimal(self, v, p):
        return np.cross(v, p)


def test_group_action_contract_is_exp_act_and_infinitesimal():
    # a geometry of its own needs only the three abstract methods to run
    # both drivers; it takes the calling forms, with roundoff from BLAS
    assert GroupAction.__abstractmethods__ == {"exp", "act", "infinitesimal"}
    prob = rigid_body()
    own = dataclasses.replace(prob, action=MinimalRotations())
    for driver in DRIVERS.values():
        ref = driver(prob, prob.default_y0, 0.0, 1.0)
        traj = driver(own, prob.default_y0, 0.0, 1.0)
        assert traj.t_end == 1.0
        assert_allclose(traj.y_end, ref.y_end, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- the record

@pytest.mark.parametrize("n", [2, 3, 6])
def test_hypot_of_differences_is_math_dist_and_ambient_norm(n):
    # the inline loop measures with math.hypot on its locals; it must give
    # the bits of math.dist and of GroupAction.ambient_norm (the default
    # metrics the calling form calls) on any floats
    rng = np.random.default_rng(n)
    special = [math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1e308, -1.7e308, 0.0, -0.0]
    pairs = [(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
              rng.standard_normal(n)) for _ in range(300)]
    pairs += [(rng.choice(special, n), rng.choice(special, n))
              for _ in range(300)]
    pairs += [(np.full(n, 1e308), np.full(n, -1e308)),
              (np.full(n, 5e-324), np.zeros(n))]
    action = So3SphereAction()
    for a, b in pairs:
        a, b = a.tolist(), b.tolist()
        assert float_bits([math.hypot(*(x - y for x, y in zip(a, b)))]) == \
            float_bits([math.dist(a, b)]) == \
            float_bits([action.ambient_distance(a, b)])
        assert float_bits([math.hypot(*a)]) == \
            float_bits([action.ambient_norm(a)])


def names_in(nodes) -> set:
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def is_unit(node) -> bool:
    """node is the literal 1.0 or -1.0."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 1.0


def stored_in(nodes) -> set:
    return {node.id for node in nodes if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)}


def name_of(call) -> str:
    """The name or dotted name a call calls."""
    return (call.func.id if isinstance(call.func, ast.Name)
            else ast.unparse(call.func))


def is_failure_branch(node) -> bool:
    """node is an if without else whose last statement raises or calls
    check_length or _check_finite."""
    if not isinstance(node, ast.If) or node.orelse:
        return False
    last = node.body[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Expr) and isinstance(last.value, ast.Call)
        and name_of(last.value) in ("check_length", "_check_finite"))


def loop_nodes(tree):
    """A compiled loop's nodes in three lists, from one walk of its tree:
    outside its one while or for, in one step (the loop's body and while
    test, less the bodies of its failure branches, whose tests stay), and
    in those bodies.  check_length and _check_finite raise in a failure
    branch (the latter but for a point whose finite entries overflow the
    probe's sum)."""
    found = {"outside": [], "step": [], "failure": []}
    todo = [(tree, "outside")]
    while todo:
        node, where = todo.pop()
        found[where].append(node)
        if isinstance(node, (ast.While, ast.For)):
            todo += [(child, "step") for child in node.body]
            todo += ([(node.test, "step")] if isinstance(node, ast.While)
                     else [(node.target, where), (node.iter, where)])
        elif where == "step" and is_failure_branch(node):
            todo.append((node.test, "step"))
            todo += [(child, "failure") for child in node.body]
        else:
            todo += [(child, where) for child in ast.iter_child_nodes(node)]
    return found["outside"], found["step"], found["failure"]


def test_compiled_sources_read_no_numpy_and_step_without_python_calls():
    # one walk over every float body, step kernel and compiled loop, each
    # loop compiled once:
    # - no source names numpy;
    # - a loop that runs a built-in field never calls f, and the loops
    #   without a field name none of the fields' parameters (locals of
    #   their own names where a field is inlined);
    # - each adaptive loop runs the step-size rule once, after the
    #   accept/reject branch;
    # - no product multiplies by 1.0 or -1.0 (the coefficient 1.0 is h
    #   itself, -1.0 is -h), a loop that runs a field inline never assigns
    #   the locals of its run-constant results, and no fixed-step loop
    #   forms a coefficient x_j (h * c_j, or -h) inside its for;
    # - the step of every inline loop, adaptive or fixed, field inlined or
    #   called, calls only math's C functions, bound once as locals
    #   math_X = math.X before the loop, the record's C functions, and f
    #   and len where f is not inlined; it builds a list only as the
    #   argument of such an f call, reads no math attribute and packs no
    #   tuple of more than three values (CPython builds and unpacks one
    #   there; three or fewer are plain loads and stores).  The adaptive
    #   loop measures with math_hypot, but never of the base point, whose
    #   norm it carries; the fixed loop probes each point with
    #   math_isfinite.
    import cfrk.actions
    import cfrk.controller
    from cfrk.stepper import inline_length
    for source in [body.source for bodies in cfrk.actions.INLINE.values()
                   for body in bodies[:2]] + [
            step_kernel(t, n, embedded).source for t in catalog()
            for n in cfrk.actions.INLINE for embedded in (True, False)]:
        assert not names_in(ast.walk(ast.parse(source))) & {
            "np", "numpy", "_np_exp"}
    # each built-in problem with its field inlined and called, and one
    # whose action runs the calling form
    problems = [build() for build in BOUNDARY_PROBLEMS]
    field_params = {p for prob in problems
                    for p in inline_field(prob.f, inline_length(
                        prob.action))[0].params[1]}
    problems += [dataclasses.replace(prob, f=lambda y, f=prob.f: f(y))
                 for prob in problems]
    problems.append(dataclasses.replace(
        problems[0], action=calling(problems[0].action)))
    step_size = cfrk.controller._STEP_SIZE
    rule = [line.strip()
            for line in step_size.inline(step_size.params, ["h_try"])]
    loops, constant_locals = [], 0
    for pair, advance_embedded, prob in [
            (pair, mode, prob) for pair in catalog()
            for mode in ([None, False, True] if pair.has_embedded
                         else [False])
            for prob in problems]:
        loops.append(cfrk.controller._loop(pair, prob, advance_embedded)[0])
        n = inline_length(prob.action)
        field = inline_field(prob.f, n)[0]
        source = loops[-1].source
        outside, step, failure = loop_nodes(ast.parse(source))
        nodes = outside + step + failure
        assert not names_in(nodes) & {"np", "numpy", "_np_exp"}
        assert not [node for node in nodes if isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)
                    and (is_unit(node.left) or is_unit(node.right))]
        if advance_embedded is not None:  # no x_j = h * c_j in the for
            assert not [x for x in stored_in(step) if re.fullmatch(r"x\d+", x)]
        if field:
            assert "f" not in {name_of(node) for node in nodes
                               if isinstance(node, ast.Call)}
            folded = {f"f{k}_{i}" for k in range(pair.s + 1)
                      for i, r in enumerate(field.results)
                      if r in field.constants}
            assert not stored_in(nodes) & folded
            constant_locals += len(folded)
        else:
            assert not names_in(nodes) & field_params
        if advance_embedded is None:
            lines = [line.strip() for line in source.splitlines()]
            assert [lines.count(line) for line in rule] == [1] * len(rule)
        if n is None:
            continue
        calls = [node for node in step if isinstance(node, ast.Call)]
        called = {name_of(call) for call in calls}
        bound = {c for c in called if c.startswith("math_")}
        assert called - bound <= {"rec", "pack", "times.append",
                                  *([] if field else ["f", "len"])}
        assert ("math_hypot" if advance_embedded is None
                else "math_isfinite") in bound
        assert not [call for call in calls if name_of(call) == "math_hypot"
                    and {ast.unparse(arg) for arg in call.args}
                    == {f"base_{i}" for i in range(len(call.args))}]
        for name in bound:
            assert f"{name} = math.{name[5:]}" in source
            assert type(getattr(math, name[5:])) is type(math.exp)
        args = [arg for call in calls if name_of(call) == "f"
                for arg in call.args]
        lists = [node for node in step if isinstance(node, ast.List)
                 and isinstance(node.ctx, ast.Load)]
        assert all(any(lst is arg for arg in args) for lst in lists)
        assert not (field and lists)
        assert not [node for node in step + failure
                    if isinstance(node, ast.Attribute)
                    and ast.unparse(node.value) == "math"]
        assert all(len(node.elts) <= 3 for node in step + failure
                   if isinstance(node, ast.Tuple))
    # 7 forms (calling; inline per length, field called or inlined) per
    # mode: adaptive, fixed and fixed on the embedded solution
    assert len(loops) == 7 * (3 * len(EMBEDDED) + 1)
    assert len(set(map(id, loops))) == len(loops)
    assert constant_locals > 0


def assert_views_match_the_record(traj):
    """h_history, points and y_end, read from a fresh trajectory,
    agree with its record bit for bit."""
    width = 4 + traj.y0.size
    record = traj.record.tolist()
    rows = [record[i:i + width] for i in range(0, len(record), width)]
    assert len(record) == width * len(rows)
    assert [float_bits(row) for row in rows] == [
        float_bits([a.t, a.h, float(a.accepted), a.err, *a.y])
        for a in traj.h_history]
    assert all(type(a.accepted) is bool and type(a.y) is list
               for a in traj.h_history)
    assert all(row[2] in (0.0, 1.0) for row in rows)
    accepted = [row[4:] for row in rows if row[2] == 1.0]
    assert len(traj.times) == len(accepted) + 1
    assert traj.points.tobytes() == np.array(
        [traj.y0.ravel().tolist(), *accepted]).tobytes()
    view = np.frombuffer(traj.record)
    assert not np.shares_memory(traj.points, view)  # points owns its data
    del view  # the record can grow again
    assert traj.y_end.tobytes() == traj.points[-1].tobytes()


@pytest.mark.parametrize("form", ["inline", "calling"])
@pytest.mark.parametrize("build", BOUNDARY_PROBLEMS,
                         ids=lambda build: build.__name__)
def test_the_record_holds_one_row_per_attempt(build, form):
    # both drivers, both forms, and the partial trajectories of failed
    # runs: one row of 4 + y0.size floats per attempt, whose views are
    # h_history, points and y_end
    prob = build()
    if form == "calling":
        prob = dataclasses.replace(prob, action=calling(prob.action))
    runs = [lambda: integrate_fixed(get_tableau("cf4"), prob,
                                    prob.default_y0, 0.0, 1.0, 13),
            lambda: integrate_fixed(get_tableau("cf43"), prob,
                                    prob.default_y0, 0.0, 1.0, 7,
                                    advance_embedded=True),
            lambda: integrate_adaptive(get_tableau("cf43_4stage"), prob,
                                       prob.default_y0, 0.0, 1.0,
                                       ControllerConfig())]
    runs += [lambda cfg=cfg: integrate_adaptive(
        get_tableau("cf32a"), prob, prob.default_y0, 0.0, 3.0,
        ControllerConfig(**cfg)) for cfg in [
            dict(atol=1e-6, rtol=1e-6), *MATRIX_CFG.values(),
            dict(atol=1e-12, h0=1.0, max_consecutive_rejects=1)]]
    failed = 0
    for run in runs:
        try:
            traj = run()
        except IntegrationError as exc:
            traj, failed = exc.trajectory, failed + 1
        attempts = traj.totals.n_accepted + traj.totals.n_rejected
        assert len(traj.record) == (4 + prob.default_y0.size) * attempts
        assert_views_match_the_record(traj)
    assert failed >= 2


@pytest.mark.parametrize("driver,ending", [
    *(("adaptive", ending) for ending in ENDINGS),
    ("fixed", "non-finite"), ("fixed", "domain"), ("fixed", "field-length")])
def test_a_failed_run_records_its_completed_attempts(driver, ending):
    build, error, cfg = ENDINGS[ending]
    prob = build()
    with pytest.raises(error) as info:
        if driver == "adaptive":
            integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                               0.0, 1.0, cfg)
        else:
            integrate_fixed(get_tableau("cf4"), prob, prob.default_y0, 0.0,
                            1.0, 100)
    traj = info.value.trajectory
    attempts = traj.totals.n_accepted + traj.totals.n_rejected
    assert attempts > 1
    assert len(traj.record) == (4 + prob.default_y0.size) * attempts
    assert_views_match_the_record(traj)


def test_a_step_that_changes_the_points_length_is_an_integration_error():
    # an action whose act returns two of the three entries makes a y1
    # shorter than y0: the run ends as an IntegrationError naming both
    # lengths, before the attempt is recorded
    class Dropping(So3SphereAction):
        def act(self, g, p):
            return super().act(g, [*p, 0.0][:3])[:2]

    prob = dataclasses.replace(rigid_body(), action=Dropping(),
                               f=lambda y: [0.1, 0.2, 0.3])
    for run in (lambda: integrate_adaptive(
                    get_tableau("cf43"), prob, prob.default_y0, 0.0, 1.0,
                    ControllerConfig()),
                lambda: integrate_fixed(get_tableau("cf4"), prob,
                                        prob.default_y0, 0.0, 1.0, 10)):
        with pytest.raises(IntegrationError) as info:
            run()
        assert type(info.value) is IntegrationError
        assert str(info.value) == \
            "the step returned a point of 2 entries, y0 has 3"
        traj = info.value.trajectory
        assert traj.times == [0.0] and len(traj.record) == 0
