"""Order-condition residuals and certification, including the split
conditions that couple the two exponential rows of an update."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.catalog import catalog, get_tableau
from cfrk.order_conditions import (CONDITION_4_NOTE, UnsupportedShapeError,
                                   certify, certify_pair, check_classical,
                                   is_genuine_pair, linear_conditions,
                                   split_residuals)
from cfrk.tableaux import CFTableau, ReducedCoefficients, reduce


def test_cf4_classical_residuals_vanish():
    res = check_classical(reduce(get_tableau("cf4")))
    assert len(res) == 8
    assert max(abs(v) for v in res.values()) < 1e-14


def test_classical_known_weights_certify_order_two_only_when_extended():
    # the shared embedded weights (0, 3/4, 1/4) over abscissae (0, 1/3, 1)
    # satisfy the quadrature conditions through order 3 ...
    b = np.array([0.0, 3 / 4, 1 / 4])
    c = np.array([0.0, 1 / 3, 1.0])
    assert abs(b @ c - 0.5) < 1e-15
    assert abs(b @ c**2 - 1 / 3) < 1e-15
    # ... but as an embedded method (f(y1) as a fourth stage) the coupled
    # condition b.A.c = 1/6 fails by 1/8 - 1/6 = -1/24
    rep = certify(get_tableau("cf32a"), "embedded")
    assert rep.certified_algebraic_order == 2
    assert rep.classical_residuals["b.A.c = 1/6"] == pytest.approx(-1 / 24)


def test_cf4_split_conditions_vanish():
    t = get_tableau("cf4")
    red = reduce(t)
    res = split_residuals(t.beta, red.a, red.c)
    assert len(res) == 4
    assert max(abs(v) for v in res.values()) < 1e-14
    # spot check of the order-3 identity: 1/12 + (1/2)(1/2) = 1/3
    b1, b2 = t.beta
    assert b1 @ red.c == pytest.approx(1 / 12)
    assert b2.sum() == pytest.approx(0.5)


def test_split_residuals_single_row_uses_zero_second_row():
    b = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
    red = reduce(get_tableau("cf4"))
    res = split_residuals([b], red.a, red.c)
    # with b2 = 0 the order-3 condition becomes b.c = 1/3, which the
    # classical weights cannot satisfy (b.c = 1/2)
    assert res["b1.c + (1/2)sum(b2) = 1/3"] == pytest.approx(1 / 2 - 1 / 3)


def test_split_residuals_reject_three_rows():
    red = reduce(get_tableau("cf4"))
    rows = [red.b, red.b, red.b]
    with pytest.raises(UnsupportedShapeError):
        split_residuals(rows, red.a, red.c)


def test_check_classical_up_to_validation():
    with pytest.raises(ValueError):
        check_classical(reduce(get_tableau("cf4")), up_to=5)


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_catalog_certifies_claimed_orders(name):
    t = get_tableau(name)
    reports = certify_pair(t)
    assert reports["principal"].certified_algebraic_order == t.order_p
    if t.has_embedded:
        assert reports["embedded"].certified_algebraic_order == t.order_phat


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_exact_tableaux_certify_at_tight_tolerance(name):
    # the decimal tableaux ship coefficients projected onto the conditions,
    # so they certify as tightly as the exact ones
    t = get_tableau(name)
    reports = certify_pair(t, tol=1e-13)
    assert reports["principal"].certified_algebraic_order == t.order_p
    if t.has_embedded:
        assert reports["embedded"].certified_algebraic_order == t.order_phat


@pytest.mark.parametrize("name",
                         ["cf32a", "cf32b", "cf43", "cf43_decimal",
                          "cf43_v2", "cf43_4stage"])
def test_catalog_pairs_are_genuine(name):
    ok, details = is_genuine_pair(get_tableau(name))
    assert ok, details
    assert details["certified"] == get_tableau(name).order_phat
    assert details["failing_above_threshold"]


def test_is_genuine_pair_without_embedded():
    ok, details = is_genuine_pair(get_tableau("cf4"))
    assert not ok
    assert "reason" in details


def test_reports_carry_condition_4_note():
    rep = certify(get_tableau("cf43"))
    assert CONDITION_4_NOTE in rep.notes


def test_perturbed_tableau_drops_certification():
    t = get_tableau("cf4")
    b0 = np.array(t.beta[0])
    b0[0] += 1e-3
    b0[1] -= 1e-3  # keep sum(b) = 1 so the tableau stays valid
    bad = CFTableau(name="cf4-perturbed", s=4, alpha=t.alpha,
                    beta=(tuple(b0), tuple(t.beta[1])), beta_hat=(),
                    order_p=4, order_phat=0, fsal=False,
                    reuse_map=t.reuse_map)
    rep = certify(bad)
    assert rep.certified_algebraic_order == 1
    failed = rep.failed(2)
    assert failed and failed[0][0] == "b.c = 1/2"
    assert failed[0][1] == pytest.approx(-5e-4)


def test_non_finite_residual_drops_certification():
    # cf4 plus a fifth stage with zero weight and a huge abscissa: its
    # square overflows, so 0 * inf makes every order-3 and order-4
    # residual that involves c^2 NaN, and NaN must not pass for "within tol"
    t = get_tableau("cf4")

    def pad(row):
        return tuple(row) + (0.0,)
    stages = tuple(tuple(pad(r) for r in stage) for stage in t.alpha)
    huge = CFTableau(name="cf4-huge-stage", s=5,
                     alpha=stages + (((1e200, 0.0, 0.0, 0.0, 0.0),),),
                     beta=tuple(pad(r) for r in t.beta), beta_hat=(),
                     order_p=4, order_phat=0, fsal=False,
                     reuse_map=t.reuse_map)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = certify(huge)
    assert np.isnan(rep.classical_residuals["b.c^2 = 1/3"])
    assert rep.certified_algebraic_order == 2
    assert "b.c^2 = 1/3" in [label for label, _ in rep.failed(3)]


def test_failed_respects_threshold():
    rep = certify(get_tableau("cf43_decimal"))
    # residuals are far below 1e-9, so nothing fails even at order 4
    assert rep.failed(4) == []
    # with an absurdly tight threshold the roundoff-level residuals show up
    assert rep.failed(4, threshold=0.0)


def test_certify_rejects_unknown_side():
    with pytest.raises(ValueError):
        certify(get_tableau("cf43"), "both")


@pytest.mark.parametrize("unknown_first", [False, True])
@pytest.mark.parametrize("pinned", [None, {2: 0.3}, {0: -0.7, 3: 1.1}])
def test_linear_conditions_match_table_residuals(unknown_first, pinned):
    # for any rows, M u - d over the free entries equals the residuals the
    # tables give for the assembled update through the order, classical
    # then split: five rows at order 3, the two classical rows at order 2
    rng = np.random.default_rng(20)
    for order in (3, 2):
        for _ in range(20):
            n = 5
            a = np.tril(rng.normal(size=(n, n)), -1)
            c = rng.normal(size=n)
            known = rng.normal(size=n)
            u = rng.normal(size=n)
            for col, value in (pinned or {}).items():
                u[col] = value
            free = [j for j in range(n) if j not in (pinned or {})]
            M, d = linear_conditions(a, c, known, unknown_first,
                                     pinned=pinned, order=order)
            rows = (u, known) if unknown_first else (known, u)
            red = ReducedCoefficients(a=a, b=known + u, c=c)
            classical = list(check_classical(red, up_to=order).values())
            split = list(split_residuals(rows, a, c, up_to=order).values())
            assert (len(classical), len(split)) == {2: (2, 0),
                                                    3: (4, 1)}[order]
            expected = classical + split
            assert M.shape == (len(expected), len(free))
            assert_allclose(M @ u[free] - d, expected, rtol=0, atol=1e-14)
