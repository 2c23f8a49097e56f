"""Single-step semantics: row application order, FSAL carry, declared
row reuse, and static versus dynamic cost accounting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.actions import So3SphereAction, so3_exp
from cfrk.catalog import catalog, get_tableau
from cfrk.problems import heavy_top, rigid_body
from cfrk.stepper import cf_step, count_budget
from cfrk.tableaux import CFTableau

SPHERE = So3SphereAction()


def sphere_setup():
    prob = rigid_body()
    return prob.action, prob.f, prob.default_y0


def test_step_rejects_zero_h():
    _, f, y0 = sphere_setup()
    with pytest.raises(ValueError):
        cf_step(get_tableau("cf4"), SPHERE, f, y0, 0.0)


def test_lie_euler_step():
    t = CFTableau(name="euler", s=1, alpha=(), beta=((1.0,),),
                  beta_hat=(), order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.05
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, so3_exp(h * f(y0)) @ y0, atol=0)
    assert (res.n_exp, res.n_feval) == (1, 1)
    assert res.yhat1 is None and res.f_last is None
    assert abs(np.linalg.norm(res.y1) - 1.0) < 1e-15


def test_zero_rows_cost_nothing():
    # a zero stage row contributes the identity and is skipped outright
    t = CFTableau(name="skip", s=2, alpha=(((0.0, 0.0),),),
                  beta=((0.0, 0.0), (1.0, 0.0)), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.05
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, so3_exp(h * f(y0)) @ y0, atol=0)
    assert res.n_exp == 1  # only the single nonzero update row
    assert res.n_feval == 2  # f at y0 and at the (unmoved) stage-2 point


def test_cf4_step_matches_hand_composition():
    t = get_tableau("cf4")
    _, f, y0 = sphere_setup()
    h = 0.02

    f1 = f(y0)
    g_half = so3_exp(h * 0.5 * f1)
    y2 = g_half @ y0
    f2 = f(y2)
    y3 = so3_exp(h * 0.5 * f2) @ y0
    f3 = f(y3)
    # stage 4 applies its first row (shared with stage 2) and then the
    # second row, innermost first
    y4 = so3_exp(h * (-0.5 * f1 + f3)) @ (g_half @ y0)
    f4 = f(y4)
    b1 = h * (f1 / 4 + f2 / 6 + f3 / 6 - f4 / 12)
    b2 = h * (-f1 / 12 + f2 / 6 + f3 / 6 + f4 / 4)
    expected = so3_exp(b2) @ (so3_exp(b1) @ y0)

    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, expected, atol=1e-16)
    assert (res.n_exp, res.n_feval) == (5, 4)


def test_update_rows_apply_first_row_innermost():
    # asymmetric two-row update distinguishes the application order
    t = CFTableau(name="order-probe", s=2, alpha=(((0.5, 0.0),),),
                  beta=((0.3, 0.1), (0.2, 0.4)), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.1
    f1 = f(y0)
    f2 = f(so3_exp(h * 0.5 * f1) @ y0)
    inner = so3_exp(h * (0.3 * f1 + 0.1 * f2))
    outer = so3_exp(h * (0.2 * f1 + 0.4 * f2))
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, outer @ (inner @ y0), atol=0)
    wrong = inner @ (outer @ y0)
    assert np.max(np.abs(res.y1 - wrong)) > 1e-6


def test_fsal_carry_equivalence():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    h = 0.05
    fresh = cf_step(t, SPHERE, f, y0, h)
    carried = cf_step(t, SPHERE, f, y0, h, carried_f=f(y0))
    assert np.array_equal(fresh.y1, carried.y1)
    assert np.array_equal(fresh.yhat1, carried.yhat1)
    assert carried.n_feval == fresh.n_feval - 1
    assert carried.n_exp == fresh.n_exp


def test_fsal_returns_f_at_accepted_point():
    t = get_tableau("cf43")
    _, f, y0 = sphere_setup()
    res = cf_step(t, SPHERE, f, y0, 0.05)
    assert np.array_equal(res.f_last, f(res.y1))


def test_fsal_chain_matches_fresh_evaluations():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    h = 0.04
    r1 = cf_step(t, SPHERE, f, y0, h)
    chained = cf_step(t, SPHERE, f, r1.y1, h, carried_f=r1.f_last)
    fresh = cf_step(t, SPHERE, f, r1.y1, h)
    assert np.array_equal(chained.y1, fresh.y1)


def test_skipping_embedded_rows():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    res = cf_step(t, SPHERE, f, y0, 0.05, carried_f=f(y0),
                  with_embedded=False)
    assert res.yhat1 is None and res.f_last is None
    # rows: stage 2, stage 3, two principal rows; one of them reuses the
    # stage-3 exponential
    assert res.n_exp == 3
    assert res.n_feval == 2


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_static_budget_matches_dynamic_counts(name):
    t = get_tableau(name)
    prob = heavy_top()
    y0 = prob.default_y0
    carried = prob.f(y0) if t.fsal else None
    res = cf_step(t, prob.action, prob.f, y0, 0.01, carried_f=carried)
    assert (res.n_exp, res.n_feval) == count_budget(t)


@pytest.mark.parametrize("name,extra", [
    ("cf32a", 1), ("cf32b", 1), ("cf43", 2), ("cf43_v2", 2),
    ("cf43_decimal", 2), ("cf43_4stage", 2), ("cf4", 1),
])
def test_disabling_reuse_only_changes_counts(name, extra):
    t = get_tableau(name)
    _, f, y0 = sphere_setup()
    h = 0.03
    carried = f(y0) if t.fsal else None
    on = cf_step(t, SPHERE, f, y0, h, carried_f=carried)
    off = cf_step(t, SPHERE, f, y0, h, carried_f=carried, use_reuse=False)
    # identical rows produce bitwise-identical exponentials, so disabling
    # the cache cannot change any output
    assert np.array_equal(on.y1, off.y1)
    if t.has_embedded:
        assert np.array_equal(on.yhat1, off.yhat1)
    assert off.n_exp == on.n_exp + extra
    assert off.n_feval == on.n_feval


def test_known_budgets():
    assert count_budget(get_tableau("cf4")) == (5, 4)
    assert count_budget(get_tableau("cf32a")) == (4, 3)
    assert count_budget(get_tableau("cf32b")) == (4, 3)
    assert count_budget(get_tableau("cf43")) == (6, 4)
    assert count_budget(get_tableau("cf43_4stage")) == (6, 4)


def test_undeclared_equal_rows_are_not_coalesced():
    # the stage row and both update rows are equal; only declared reuse
    # shares an exponential
    rows = dict(name="equal-rows", s=2, alpha=(((0.5, 0.0),),),
                beta=((0.5, 0.0), (0.5, 0.0)), beta_hat=(),
                order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    plain = cf_step(CFTableau(**rows), SPHERE, f, y0, 0.05)
    assert plain.n_exp == 3
    shared = cf_step(CFTableau(**rows, reuse_map=(
        (("stage", 2, 0), ("y", 0)), (("y", 0), ("y", 1)))),
        SPHERE, f, y0, 0.05)
    assert shared.n_exp == 1
    assert np.array_equal(shared.y1, plain.y1)


def test_heavy_top_step_preserves_casimirs():
    prob = heavy_top()
    y0 = prob.default_y0
    before = prob.invariants(y0)
    res = cf_step(get_tableau("cf4"), prob.action, prob.f, y0, 0.01)
    after = prob.invariants(res.y1)
    assert abs(after["beta2"] - before["beta2"]) < 1e-13
    assert abs(after["mubeta"] - before["mubeta"]) < 1e-13
