"""Step-size controller: the accept/reject rule, the growth formula with
its clamps, typed failure modes, and both integration drivers."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.actions import DomainError, So3SphereAction
from cfrk.catalog import get_tableau
from cfrk.controller import (ControllerConfig, IntegrationError,
                             NonFiniteError, StepSizeUnderflowError,
                             TooManyRejectsError, error_measure,
                             initial_step, integrate_adaptive,
                             integrate_fixed, next_step_size)
from cfrk.problems import Problem, rigid_body, van_der_pol
from cfrk.tableaux import CFTableau

EPS = np.finfo(float).eps


def zero_field_problem():
    return Problem(name="still", action=So3SphereAction(),
                   f=lambda y: np.zeros(3),
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
                   f=lambda y: np.array([0.0, 0.0, 1.0]),
                   default_y0=np.array([1.0, 0.0, 0.0]),
                   use_rtol=False, invariants=lambda y: {}, params=None)
    cfg = ControllerConfig(atol=0.01, max_consecutive_rejects=3, hmin=1e-300)
    with pytest.raises(TooManyRejectsError) as info:
        integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                           0.0, 1.0, cfg)
    assert info.value.trajectory.totals.n_rejected == 4


def test_non_finite_state_is_reported():
    prob = Problem(name="blowup", action=So3SphereAction(),
                   f=lambda y: np.array([np.nan, 0.0, 0.0]),
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
    with pytest.raises(IntegrationError) as info:
        run(vdp_failing_after(40))
    assert len(info.value.trajectory.points) > 1
    assert isinstance(info.value.__cause__, DomainError)


def test_start_outside_the_domain_is_an_integration_error():
    prob = van_der_pol()
    with pytest.raises(IntegrationError) as info:
        integrate_adaptive(get_tableau("cf43"), prob, np.zeros(2), 0.0, 1.0,
                           ControllerConfig())
    assert len(info.value.trajectory.points) == 1
    assert isinstance(info.value.__cause__, DomainError)


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


def test_fixed_step_validates_count():
    prob = rigid_body()
    with pytest.raises(ValueError):
        integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                        0.0, 1.0, 0)


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
