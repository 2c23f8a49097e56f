"""Experiment drivers and their file formats: convergence and
work-precision sweeps, the step-trace runner, tableau check reports,
reference solutions, and CSV/JSON rendering."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.bench import (ExperimentConfig, ReferenceSolveError,
                        build_experiment, reference_endpoint, render_csv,
                        render_json, resolved_config, run_convergence,
                        run_needle, run_tableau_check, run_work_precision,
                        write_output)
from cfrk.catalog import get_tableau
from cfrk.controller import ConfigError, integrate_fixed
from cfrk.order_conditions import certify_pair
from cfrk.problems import heavy_top, rigid_body, van_der_pol
from cfrk.tableaux import CFTableau, save_tableau


def test_config_rejects_unknown_format():
    with pytest.raises(ValueError, match="csv or json"):
        ExperimentConfig(fmt="yaml")


def test_build_experiment_resolves_catalog_names():
    problem, tableau = build_experiment(ExperimentConfig(tableau="cf43"))
    assert tableau.name == "cf43"
    assert problem.name == "rigid-body"


def test_build_experiment_loads_tableau_files(tmp_path):
    path = tmp_path / "pair.json"
    save_tableau(get_tableau("cf32a"), path)
    _, tableau = build_experiment(ExperimentConfig(tableau=str(path)))
    assert tableau.name == "cf32a"
    assert tableau.has_embedded


def test_experiment_and_tableau_check_resolve_names_alike(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "pair.json"
    save_tableau(get_tableau("cf43"), path)
    checked = []

    def spy(tableau, *args, **kwargs):
        checked.append(tableau)
        return certify_pair(tableau, *args, **kwargs)

    monkeypatch.setattr("cfrk.bench.certify_pair", spy)
    for name in ("cf43", str(path)):
        _, tableau = build_experiment(ExperimentConfig(tableau=name))
        run_tableau_check(ExperimentConfig(tableau=name))
        assert checked.pop().to_json() == tableau.to_json() == \
            get_tableau("cf43").to_json()


def test_rigid_body_seed_is_injected_from_config():
    problem, _ = build_experiment(ExperimentConfig(seed=11))
    assert np.array_equal(problem.default_y0, rigid_body(seed=11).default_y0)
    # an explicit param wins over the config seed
    problem, _ = build_experiment(
        ExperimentConfig(seed=11, problem_params={"seed": 4}))
    assert np.array_equal(problem.default_y0, rigid_body(seed=4).default_y0)


def test_resolved_config_fills_defaults():
    cfg = ExperimentConfig(problem="van-der-pol", problem_params={"mu": 5.0},
                           tableau="cf32b", tols=(1e-3,))
    doc = resolved_config(cfg)
    assert doc["problem"] == "van-der-pol"
    assert doc["tableau"] == "cf32b"
    assert doc["problem_params"] == {"mu": 5.0}
    assert doc["tols"] == [1e-3]
    assert doc["steps"] == []
    assert doc["seed"] == 7


# -------------------------------------------------------- reference solutions

def test_reference_endpoint_stays_on_sphere_and_matches_cf4():
    prob = rigid_body()
    # the reference calls neither f nor the action, the code it judges
    blind = dataclasses.replace(prob, f=None, action=None)
    ref = reference_endpoint(blind, prob.default_y0, 0.0, 0.5)
    assert abs(np.linalg.norm(ref) - 1.0) <= 1e-14
    fine = integrate_fixed(get_tableau("cf4"), prob, prob.default_y0,
                           0.0, 0.5, 640).y_end
    assert np.linalg.norm(ref - fine) <= 1e-12


def test_reference_endpoint_needs_an_ambient_field():
    prob = dataclasses.replace(rigid_body(), ambient_field=None)
    with pytest.raises(ValueError, match="'rigid-body' has no ambient_field"):
        reference_endpoint(prob, prob.default_y0, 0.0, 0.5)


@pytest.mark.parametrize("t0,t1", [(0.0, 0.0), (0.0, -1.0), (0.0, math.nan),
                                   (-math.inf, 1.0)])
def test_reference_endpoint_rejects_a_bad_span(t0, t1):
    prob = rigid_body()
    with pytest.raises(ConfigError, match=f"got t0 = {t0}, t1 = {t1}"):
        reference_endpoint(prob, prob.default_y0, t0, t1)


@pytest.mark.parametrize("fields", [dict(t1=0.0), dict(t0=1.0, t1=math.inf),
                                    dict(steps=(20, 0)), dict(steps=(10.0,)),
                                    dict(steps=(20, 2.5)), dict(fmt="xml")])
def test_experiment_config_rejects_a_run_that_cannot_start(fields):
    with pytest.raises(ConfigError):
        ExperimentConfig(**fields)


def counted_field(prob):
    """prob with an ambient field that fails the test, instead of hanging
    it, once a solve has called it 1,000 times."""
    calls = []

    def field(y):
        calls.append(None)
        assert len(calls) < 1000, "the reference solve does not advance"
        return prob.ambient_field(y)
    return dataclasses.replace(prob, ambient_field=field)


@pytest.mark.parametrize("t1", [1e-148, 7e-149, 1e-300, 5e-324])
def test_reference_endpoint_returns_on_a_tiny_span(t1):
    # LSODA's own first step is 0 for spans below ~7e-149 from 0, where it
    # never advanced; the reference is then y0 + t1 F(y0) to roundoff
    prob = heavy_top()
    y0 = prob.default_y0
    ref = reference_endpoint(counted_field(prob), y0, 0.0, t1)
    assert_allclose(ref, y0 + t1 * prob.ambient_field(y0), rtol=1e-14,
                    atol=0.0)


@pytest.mark.parametrize("ulps", [1, 2, 3, 4])
@pytest.mark.parametrize("t0", [1.0, -3.0, 7.5, 1e6])
def test_reference_endpoint_returns_on_a_span_of_a_few_ulps(t0, ulps):
    # LSODA refuses to start on a span below 2 eps max(|t0|, |t1|), 2-3
    # ulps at these t0; the reference is then y0 + (t1 - t0) F(y0) to
    # roundoff on every problem
    t1 = t0
    for _ in range(ulps):
        t1 = math.nextafter(t1, math.inf)
    for build in (rigid_body, van_der_pol, heavy_top):
        prob = build()
        y0 = prob.default_y0
        ref = reference_endpoint(counted_field(prob), y0, t0, t1)
        assert_allclose(ref, y0 + (t1 - t0) * prob.ambient_field(y0),
                        rtol=1e-15, atol=1e-15)


def test_reference_endpoint_rejects_non_finite_derivative():
    prob = dataclasses.replace(rigid_body(),
                               ambient_field=lambda y: np.full(3, np.nan))
    with pytest.raises(ReferenceSolveError, match=r"rigid-body: non-finite "
                                                  r"derivative at t=0\.0"):
        reference_endpoint(prob, prob.default_y0, 0.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("first_bad_call", [1, 20])
def test_reference_endpoint_rejects_one_non_finite_entry(bad, first_bad_call):
    # one non-finite entry of the derivative, at the solve's first call or
    # within it, stops the solve with ReferenceSolveError
    base = heavy_top()
    calls = []

    def field(y):
        calls.append(None)
        dy = base.ambient_field(y)
        if len(calls) >= first_bad_call:
            dy[4] = bad
        return dy
    prob = dataclasses.replace(base, ambient_field=field)
    with pytest.raises(ReferenceSolveError, match=r"heavy-top: non-finite "
                                                  r"derivative at t=") as err:
        reference_endpoint(prob, prob.default_y0, 0.0, 2.0)
    # t is the time of the failing call, a plain float
    t = float(str(err.value).rsplit("t=", 1)[1])
    assert t == 0.0 if first_bad_call == 1 else 0.0 < t < 2.0
    assert len(calls) == first_bad_call


@pytest.mark.parametrize("first_bad_call", [1, 20])
def test_reference_endpoint_raises_the_fields_own_exception(first_bad_call):
    # the compiled solvers call on past an exception in their callback: the
    # field is called no more once it has raised, and its exception, not a
    # hang or a solver error, comes out
    base = heavy_top()
    calls = []

    def field(y):
        calls.append(None)
        if len(calls) >= first_bad_call:
            raise ZeroDivisionError("field failed")
        return base.ambient_field(y)
    prob = dataclasses.replace(base, ambient_field=field)
    with pytest.raises(ZeroDivisionError, match="field failed"):
        reference_endpoint(prob, prob.default_y0, 0.0, 2.0)
    assert len(calls) == first_bad_call


def test_reference_endpoint_reports_the_time_from_t0():
    # the solvers run from 0; the message gives the time of the bad call
    # within [t0, t1]
    base = heavy_top()
    calls = []

    def field(y):
        calls.append(None)
        return base.ambient_field(y) * (math.nan if len(calls) >= 20 else 1)
    prob = dataclasses.replace(base, ambient_field=field)
    with pytest.raises(ReferenceSolveError, match="non-finite") as err:
        reference_endpoint(prob, prob.default_y0, 5.0, 7.0)
    assert 5.0 < float(str(err.value).rsplit("t=", 1)[1]) < 7.0


@pytest.mark.parametrize("t1", [2.0, 10.0])
@pytest.mark.parametrize("build", [rigid_body, van_der_pol, heavy_top])
def test_reference_endpoint_agrees_with_solve_ivp(build, t1):
    # scipy's interpreted DOP853 at the same tolerances lands on the same
    # endpoint to roundoff
    from scipy.integrate import solve_ivp
    prob = build()
    y0 = prob.default_y0
    ref = reference_endpoint(prob, y0, 0.0, t1)
    old = solve_ivp(lambda t, y: prob.ambient_field(y), (0.0, t1), y0,
                    method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
    assert np.linalg.norm(ref - old) <= 1e-13 * np.linalg.norm(old)


@pytest.mark.parametrize("t0", [-7.5, 3.0, 1e3])
def test_reference_endpoint_depends_only_on_the_span(t0):
    # the fields read no t, so [t0, t0 + 2] is solved as [0, 2]
    prob = heavy_top()
    y0 = prob.default_y0
    assert np.array_equal(reference_endpoint(prob, y0, t0, t0 + 2.0),
                          reference_endpoint(prob, y0, 0.0, 2.0))


# ---------------------------------------------------------------- convergence

def test_convergence_rows_and_slopes():
    cfg = ExperimentConfig(tableau="cf4", mode="fixed", steps=(20, 40))
    rows, summary = run_convergence(cfg)
    assert len(rows) == 2
    (h1, e1, s1), (h2, e2, s2) = rows
    assert h1 == 0.1 and h2 == 0.05
    assert math.isnan(s1)
    assert e1 > e2 > 0.0
    assert s2 == pytest.approx(4.0, abs=0.4)
    assert summary["reference_norm"] == pytest.approx(1.0, abs=1e-9)
    assert summary["advance_embedded"] is False


def test_convergence_runs_are_deterministic():
    cfg = ExperimentConfig(tableau="cf32a", mode="fixed", steps=(20, 40))
    first = run_convergence(cfg)
    second = run_convergence(cfg)
    doc = resolved_config(cfg)
    assert render_csv(("h", "err", "slope"), first[0], doc, first[1]) == \
        render_csv(("h", "err", "slope"), second[0], doc, second[1])


# ------------------------------------------------------------- work-precision

def test_work_precision_mixes_adaptive_and_fixed_rows():
    cfg = ExperimentConfig(tableau="cf32a", tols=(1e-3, 1e-4), steps=(50,))
    rows, summary = run_work_precision(cfg)
    assert len(rows) == 3
    assert summary["failures"] == []
    for tol, err, n_exp, n_feval, n_acc, n_rej in rows[:2]:
        assert err > 0.0
        assert n_exp == 4 * (n_acc + n_rej)  # four per attempted step
        assert n_feval < n_exp
    tol, err, n_exp, n_feval, n_acc, n_rej = rows[2]
    assert math.isnan(tol)
    assert (n_acc, n_rej) == (50, 0)
    assert n_exp == 3 * 50  # fixed mode skips the embedded row
    # tighter tolerance costs more and errs less
    assert rows[1][2] > rows[0][2]
    assert rows[1][1] < rows[0][1]


def test_work_precision_records_failures_without_aborting(monkeypatch):
    import cfrk.bench as bench_mod
    from cfrk.controller import StepSizeUnderflowError, Trajectory

    real = bench_mod.integrate_adaptive

    def flaky(pair, problem, y0, t0, t1, cfg):
        if cfg.atol < 1e-8:
            raise StepSizeUnderflowError("step size underflow at t = 0.3",
                                         Trajectory())
        return real(pair, problem, y0, t0, t1, cfg)

    monkeypatch.setattr(bench_mod, "integrate_adaptive", flaky)
    rows, summary = run_work_precision(
        ExperimentConfig(tableau="cf32a", tols=(1e-3, 1e-9)))
    assert len(rows) == 2
    assert not math.isnan(rows[0][1])
    assert math.isnan(rows[1][1])
    assert rows[1][2] == 0  # totals come from the partial trajectory
    assert len(summary["failures"]) == 1
    assert "1e-09" in summary["failures"][0]
    assert "underflow" in summary["failures"][0]


# --------------------------------------------------------------- needle trace

def test_needle_trace_reports_every_attempt():
    cfg = ExperimentConfig(problem="van-der-pol", tableau="cf32a",
                           tols=(1e-3,), t1=3.0)
    rows, summary = run_needle(cfg)
    assert summary["t_end"] == 3.0
    assert len(rows) == summary["n_accepted"] + summary["n_rejected"]
    assert summary["n_rejected"] > 0
    assert 0.0 < summary["reject_fraction"] < 1.0
    assert summary["needle_window"] == [1.4, 1.56]
    assert summary["min_h_in_window"] <= summary["median_h"]
    # default step cap is a tenth of the span
    assert max(r[1] for r in rows) <= 0.3 + 1e-15
    accepted = [r for r in rows if r[2]]
    assert len(accepted) == summary["n_accepted"]


def test_needle_respects_explicit_hmax():
    cfg = ExperimentConfig(problem="van-der-pol", tableau="cf32a",
                           tols=(1e-3,), t1=3.0, hmax=0.05)
    rows, _ = run_needle(cfg)
    assert max(r[1] for r in rows) <= 0.05 + 1e-15


# -------------------------------------------------------------- tableau check

def test_tableau_check_passes_for_catalog_members():
    text, payload = run_tableau_check(ExperimentConfig(tableau="cf4"))
    assert payload["ok"] is True
    assert payload["certified_order"] == 4
    assert (payload["n_exp"], payload["n_feval"]) == (5, 4)
    assert "genuine_pair" not in payload
    assert "certified algebraic order 4" in text
    assert "declared reuse maximal and sound: True" in text

    text, payload = run_tableau_check(ExperimentConfig(tableau="cf43"))
    assert payload["ok"] is True
    assert payload["certified_order_embedded"] == 3
    assert payload["genuine_pair"] is True
    assert "genuine 4(3) pair: True" in text


def test_tableau_check_flags_violated_conditions(tmp_path):
    base = get_tableau("cf4")
    row0 = np.array(base.beta[0])
    row0[0] += 1e-3
    row0[1] -= 1e-3  # keep the row sums intact so construction succeeds
    broken = CFTableau(name="cf4-bent", s=4, alpha=base.alpha,
                       beta=(row0, np.array(base.beta[1])), beta_hat=(),
                       order_p=4, order_phat=0, fsal=False,
                       reuse_map=base.reuse_map)
    path = tmp_path / "bent.json"
    save_tableau(broken, path)
    text, payload = run_tableau_check(ExperimentConfig(tableau=str(path)))
    assert payload["ok"] is False
    assert payload["violated"]
    assert payload["certified_order"] < 4
    assert "VIOLATED at claimed order:" in text


# ----------------------------------------------------------------- rendering

def test_csv_rendering_format():
    rows = [(0.1, True, 2), (float("nan"), False, 3)]
    text = render_csv(("a", "b", "c"), rows, {"seed": 7}, {"note": "x"})
    lines = text.splitlines()
    assert json.loads(lines[0][2:]) == {"seed": 7}
    assert lines[1] == '# summary: {"note":"x"}'
    assert lines[2] == "a,b,c"
    assert lines[3] == "0.1,true,2"
    assert lines[4] == "nan,false,3"
    assert text.endswith("\n")


def no_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_csv_comment_lines_are_strict_json():
    # cfrk needle --t1 1.0 --hmax inf: an infinite hmax in the config, and
    # no step in the needle window, so a NaN min_h_in_window
    cfg = ExperimentConfig(problem="van-der-pol", tableau="cf32a",
                           mode="needle", t1=1.0, hmax=math.inf)
    rows, summary = run_needle(cfg)
    assert math.isnan(summary["min_h_in_window"])
    lines = render_csv(("t", "h", "accepted", "y1", "y2", "err"), rows,
                       resolved_config(cfg), summary).splitlines()
    config = json.loads(lines[0].removeprefix("# "), parse_constant=no_constant)
    doc = json.loads(lines[1].removeprefix("# summary: "),
                     parse_constant=no_constant)
    assert config["hmax"] is None and config["t1"] == 1.0
    assert doc["min_h_in_window"] is None
    assert doc["n_accepted"] == summary["n_accepted"]


def test_json_rendering_replaces_non_finite_values():
    def strict(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rows = [(1.0, float("nan")), (float("inf"), 2.0)]
    doc = json.loads(render_json(("x", "y"), rows, {"seed": 7}, None),
                     parse_constant=strict)
    assert doc["rows"] == [[1.0, None], [None, 2.0]]
    assert doc["columns"] == ["x", "y"]
    assert doc["config"] == {"seed": 7}
    assert "summary" not in doc
    # config and summary values are cleaned too, floats inside lists as well
    config = {"seed": 7, "hmax": float("inf"), "tols": [1e-3, -math.inf]}
    summary = {"min_h_in_window": float("nan"), "n_exp": 3,
               "y_end": [0.5, float("nan")]}
    doc = json.loads(render_json(("x",), [], config, summary),
                     parse_constant=strict)
    assert doc["config"] == {"seed": 7, "hmax": None, "tols": [1e-3, None]}
    assert doc["summary"] == {"min_h_in_window": None, "n_exp": 3,
                              "y_end": [0.5, None]}


def test_write_output_file_and_stdout(tmp_path, capsys):
    target = tmp_path / "out.csv"
    write_output("h,err\n", str(target))
    assert target.read_text() == "h,err\n"
    write_output("h,err\n", None)
    assert capsys.readouterr().out == "h,err\n"
