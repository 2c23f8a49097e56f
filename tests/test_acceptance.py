"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured numbers behind the verdict.

Run with -s (or read captured output on failure) to see the lines."""

import math
import sys
import time
from dataclasses import replace

import numpy as np

from cfrk.actions import (Gl2PlaneAction, Se3CoadjointAction,
                          So3SphereAction, gl2_exp, se3_exp, so3_exp)
from cfrk.bench import (ExperimentConfig, reference_endpoint, run_needle,
                        run_work_precision)
from cfrk.catalog import catalog, get_tableau
from cfrk.controller import (ControllerConfig, initial_step,
                             integrate_adaptive, integrate_fixed,
                             next_step_size)
from cfrk.order_conditions import certify, certify_pair, is_genuine_pair
from cfrk.problems import heavy_top, rigid_body, van_der_pol
from cfrk.stepper import cf_step
from cfrk.tableaux import reduce

EPS = np.finfo(float).eps


def _verdict(idx, label, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {idx}] {label}: {state} ({detail})")
    assert ok, f"criterion {idx} {label}: {detail}"


def _series_expm(M, terms=40):
    M = np.asarray(M, float)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def _hat3(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def test_criterion_1_tableau_certification():
    sys.modules["cfrk.catalog"]._catalog.cache_clear()
    t_start = time.perf_counter()
    members = catalog()
    problems = []
    for tab in members:
        tol = 1e-8 if "decimal" in tab.name or tab.name in (
            "cf43_v2", "cf43_4stage") else 1e-13
        rep = certify(tab, which="principal", tol=tol)
        if rep.certified_algebraic_order < tab.order_p:
            problems.append(f"{tab.name} principal {rep.certified_algebraic_order}")
        if tab.has_embedded:
            rep_hat = certify(tab, which="embedded", tol=max(tol, 1e-9))
            if rep_hat.certified_algebraic_order < tab.order_phat:
                problems.append(f"{tab.name} embedded")
            genuine, _ = is_genuine_pair(tab)
            if not genuine:
                problems.append(f"{tab.name} not a genuine pair")
    elapsed = time.perf_counter() - t_start

    cf43 = get_tableau("cf43")
    w_half = float(cf43.beta[0][3])
    c2 = float(reduce(cf43).c[1])
    if abs(w_half - 0.2227590088) > 1e-8:
        problems.append(f"w/2 = {w_half}")
    if abs(c2 - 4.785707347) > 1e-8:
        problems.append(f"c2 = {c2}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")

    _verdict(1, "tableau certification",
             not problems,
             f"{len(members)} tableaux certified in {elapsed * 1e3:.0f} ms, "
             f"w/2 = {w_half:.10f}, c2 = {c2:.9f}"
             + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_2_empirical_orders():
    prob = rigid_body()
    y0 = prob.default_y0
    ref = reference_endpoint(prob, y0, 0.0, 2.0)
    steps = (40, 80, 160, 320)

    def slope(tableau, embedded):
        errs = []
        for n in steps:
            traj = integrate_fixed(get_tableau(tableau), prob, y0, 0.0, 2.0,
                                   n, advance_embedded=embedded)
            errs.append(prob.action.ambient_distance(traj.y_end, ref))
        h = 2.0 / np.asarray(steps)
        return float(np.polyfit(np.log(h), np.log(errs), 1)[0])

    cases = [("cf32a", False, 3.0), ("cf32a", True, 2.0),
             ("cf4", False, 4.0), ("cf43", False, 4.0), ("cf43", True, 3.0)]
    measured = []
    ok = True
    for name, embedded, target in cases:
        s = slope(name, embedded)
        tag = f"{name}{'-embedded' if embedded else ''}"
        measured.append(f"{tag} {s:.2f}")
        ok = ok and abs(s - target) <= 0.2
    _verdict(2, "empirical convergence orders", ok, ", ".join(measured))


def test_criterion_3_exponential_budgets():
    prob = rigid_body()
    y0 = prob.default_y0
    cfg = ControllerConfig(atol=1e-6)
    notes = []
    ok = True

    for name, per_step, extra in (("cf32a", 4, 1), ("cf43", 6, 2)):
        traj = integrate_adaptive(get_tableau(name), prob, y0, 0.0, 2.0, cfg)
        attempts = len(traj.h_history)
        ok = ok and traj.totals.n_exp == per_step * attempts
        notes.append(f"{name} {traj.totals.n_exp}/{attempts} attempts")

        tab = get_tableau(name)
        on = cf_step(tab, prob.action, prob.f, y0, 0.01)
        off = cf_step(replace(tab, reuse_map=()), prob.action, prob.f, y0,
                      0.01)
        ok = ok and off.n_exp - on.n_exp == extra
        ok = ok and np.array_equal(on.y1, off.y1) \
            and np.array_equal(on.yhat1, off.yhat1)
        notes.append(f"reuse off +{off.n_exp - on.n_exp}")

    fixed = integrate_fixed(get_tableau("cf4"), prob, y0, 0.0, 2.0, 100)
    ok = ok and fixed.totals.n_exp == 500
    notes.append(f"cf4 fixed {fixed.totals.n_exp}/100 steps")
    _verdict(3, "exponential budgets", ok, ", ".join(notes))


def test_criterion_4_geometric_invariants():
    prob = rigid_body()
    traj = integrate_adaptive(get_tableau("cf32a"), prob, prob.default_y0,
                              0.0, 50.0, ControllerConfig(atol=1e-6))
    norm_drift = max(abs(np.linalg.norm(p) - 1.0) for p in traj.points)
    n_steps = traj.totals.n_accepted

    top = heavy_top()
    worst_casimir = 0.0
    for atol in (1e-3, 1e-8):
        tt = integrate_adaptive(get_tableau("cf43"), top, top.default_y0,
                                0.0, 2.0, ControllerConfig(atol=atol))
        start = top.invariants(tt.points[0])
        for p in tt.points:
            now = top.invariants(p)
            for key in start:
                worst_casimir = max(worst_casimir,
                                    abs(now[key] - start[key]))

    ok = n_steps >= 1000 and norm_drift <= 1e-11 and worst_casimir <= 1e-10
    _verdict(4, "geometric invariants", ok,
             f"sphere norm drift {norm_drift:.1e} over {n_steps} steps, "
             f"Casimir drift {worst_casimir:.1e}")


def test_criterion_5_tolerance_proportionality():
    tols = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    notes = []
    ok = True
    for name in ("cf32a", "cf43"):
        rows, summary = run_work_precision(
            ExperimentConfig(tableau=name, tols=tols))
        ok = ok and not summary["failures"]
        errs = np.array([r[1] for r in rows])
        slope = float(np.polyfit(np.log10(tols), np.log10(errs), 1)[0])
        ok = ok and 0.75 <= slope <= 1.25
        notes.append(f"{name} slope {slope:.3f}")
    _verdict(5, "tolerance proportionality", ok, ", ".join(notes))


def test_criterion_6_needle_step_response():
    rows, summary = run_needle(
        ExperimentConfig(problem="van-der-pol", tableau="cf32a",
                         tols=(1e-3,), t1=15.0))
    ratio = summary["min_h_in_window"] / summary["median_h"]
    ok = (summary["t_end"] == 15.0
          and ratio <= 0.2
          and summary["n_rejected"] > 0
          and summary["reject_fraction"] < 0.30)
    _verdict(6, "needle step-size response", ok,
             f"min/median h in window {ratio:.3f}, "
             f"{summary['n_rejected']} rejects "
             f"({100 * summary['reject_fraction']:.1f}% of attempts)")


def test_criterion_7_work_precision_advantage():
    prob = van_der_pol()
    y0 = prob.default_y0
    ref = reference_endpoint(prob, y0, 0.0, 1.6)
    target = 1e-5

    fixed_cost = None
    for n in (400, 800, 1600, 3200, 6400):
        traj = integrate_fixed(get_tableau("cf32a"), prob, y0, 0.0, 1.6, n)
        if prob.action.ambient_distance(traj.y_end, ref) <= target:
            fixed_cost = traj.totals.n_exp
            break

    adaptive_cost = None
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        cfg = ControllerConfig(atol=tol, rtol=tol)
        traj = integrate_adaptive(get_tableau("cf32a"), prob, y0,
                                  0.0, 1.6, cfg)
        err = prob.action.ambient_distance(traj.y_end, ref)
        if err <= target and (adaptive_cost is None
                              or traj.totals.n_exp < adaptive_cost):
            adaptive_cost = traj.totals.n_exp

    ok = (fixed_cost is not None and adaptive_cost is not None
          and fixed_cost >= 2 * adaptive_cost)
    _verdict(7, "work-precision advantage", ok,
             f"error <= {target:g}: fixed {fixed_cost} exps vs adaptive "
             f"{adaptive_cost} exps "
             f"({(fixed_cost or 0) / (adaptive_cost or 1):.1f}x)")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_exp = 0.0
    for _ in range(1000):
        v = rng.standard_normal(3)
        v *= rng.uniform(0, 2.0) / np.linalg.norm(v)
        worst_exp = max(worst_exp, np.max(np.abs(
            so3_exp(v) - _series_expm(_hat3(v)))))

        A = rng.standard_normal((2, 2))
        A *= rng.uniform(0, 2.0) / np.linalg.norm(A)
        worst_exp = max(worst_exp, np.max(np.abs(
            gl2_exp(A) - _series_expm(A))))

        w = rng.standard_normal(6)
        w *= rng.uniform(0, 2.0) / np.linalg.norm(w)
        M = np.zeros((4, 4))
        M[:3, :3] = _hat3(w[:3])
        M[:3, 3] = w[3:]
        E = _series_expm(M)
        g = se3_exp(w)
        worst_exp = max(worst_exp,
                        np.max(np.abs(g.rot - E[:3, :3])),
                        np.max(np.abs(g.trans - E[:3, 3])))

    t = 1e-5
    worst_fd = 0.0
    for action, dim_alg, make_point in (
            (So3SphereAction(), 3,
             lambda r: r.standard_normal(3) / np.linalg.norm(r.standard_normal(3))),
            (Gl2PlaneAction(), (2, 2),
             lambda r: r.standard_normal(2) + np.array([2.0, 0.0])),
            (Se3CoadjointAction(), 6, lambda r: r.standard_normal(6))):
        for _ in range(50):
            xi = rng.standard_normal(dim_alg) * 0.5
            y = make_point(rng)
            plus = action.act(action.exp(t * xi), y)
            minus = action.act(action.exp(-t * xi), y)
            fd = (np.asarray(plus, float) - np.asarray(minus, float)) / (2 * t)
            worst_fd = max(worst_fd, np.max(np.abs(
                fd - np.asarray(action.infinitesimal(xi, y), float))))

    ok = worst_exp <= 1e-12 and worst_fd <= 1e-8
    _verdict(8, "oracle equivalence", ok,
             f"exp vs series {worst_exp:.1e}, "
             f"infinitesimal vs finite differences {worst_fd:.1e}")


def test_criterion_9_controller_contract():
    rng = np.random.default_rng(99)
    formula_ok = True
    for _ in range(2000):
        cfg = ControllerConfig(
            fac=float(rng.uniform(0.5, 0.95)),
            facmin=float(rng.uniform(0.05, 0.5)),
            facmax=float(rng.uniform(1.5, 6.0)),
            hmin=1e-12,
            hmax=float(10.0 ** rng.uniform(-1, 2)))
        h = float(10.0 ** rng.uniform(-6, 1))
        err = 0.0 if rng.random() < 0.05 else float(10.0 ** rng.uniform(-12, 6))
        p = int(rng.integers(2, 6))
        cap = 1.0 if rng.random() < 0.3 else None
        got = next_step_size(h, err, p, cfg, facmax=cap)
        e = err if err > 0.0 else EPS
        want = h * min(cap if cap is not None else cfg.facmax,
                       max(cfg.facmin, cfg.fac * e ** (-1.0 / p)))
        want = min(cfg.hmax, max(cfg.hmin, want))
        formula_ok = formula_ok and got == want

    # a real run with rejections: accept exactly when err <= 1, the h
    # sequence reproducible from the recorded attempts, rejected candidates
    # never adopted
    prob = van_der_pol()
    pair = get_tableau("cf32a")
    cfg = ControllerConfig(atol=1e-3, rtol=1e-3)
    t0, t1 = 0.0, 3.0
    traj = integrate_adaptive(pair, prob, prob.default_y0, t0, t1, cfg)
    run_ok = traj.totals.n_rejected > 0
    h_free = min(initial_step(prob, prob.default_y0, cfg, pair.order_p,
                              t0, t1), t1 - t0)
    t = t0
    for at in traj.h_history:
        truncated = t + h_free >= t1
        h_step = t1 - t if truncated else h_free
        run_ok = run_ok and at.t == t and at.h == h_step
        run_ok = run_ok and at.accepted == (at.err <= 1.0)
        if at.accepted:
            t = t1 if truncated else t + h_step
            if truncated:
                break
            h_free = next_step_size(h_step, at.err, pair.order_p, cfg)
        else:
            h_free = next_step_size(h_step, at.err, pair.order_p, cfg,
                                    facmax=1.0)
    accepted = [at for at in traj.h_history if at.accepted]
    run_ok = run_ok and len(traj.points) == len(accepted) + 1
    for at, pt in zip(accepted, traj.points[1:]):
        run_ok = run_ok and np.array_equal(at.y, pt)

    ok = formula_ok and run_ok
    _verdict(9, "controller contract", ok,
             f"2000 formula samples exact: {formula_ok}, "
             f"replayed run with {traj.totals.n_rejected} rejects: {run_ok}")
