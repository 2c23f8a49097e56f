"""Command-line entry point: exit codes, argument handling, and the file
formats it emits."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cfrk.catalog import get_tableau
from cfrk.cli import build_parser, main
from cfrk.controller import ControllerConfig, integrate_adaptive
from cfrk.order_conditions import certify
from cfrk.problems import van_der_pol
from cfrk.tableaux import CFTableau, save_tableau


def read_csv_table(path):
    """Split an output file into (config, summary, header, rows)."""
    lines = path.read_text().splitlines()
    config = json.loads(lines[0][2:])
    summary = None
    body = lines[1:]
    if body and body[0].startswith("# summary: "):
        summary = json.loads(body[0][len("# summary: "):])
        body = body[1:]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return config, summary, header, rows


def test_tableaux_list(capsys):
    assert main(["tableaux", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert out[0].startswith("cf4 ")
    assert "exp/step=5" in out[0]
    names = [line.split()[0] for line in out]
    assert names == ["cf4", "cf32a", "cf32b", "cf43", "cf43_decimal",
                     "cf43_v2", "cf43_4stage"]


def test_tableaux_check_ok(capsys):
    assert main(["tableaux", "check", "--tableau", "cf43"]) == 0
    out = capsys.readouterr().out
    assert "certified algebraic order 4" in out
    assert "genuine 4(3) pair: True" in out


def test_tableaux_check_json(capsys):
    assert main(["tableaux", "check", "--tableau", "cf32a",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["name"] == "cf32a"
    assert payload["genuine_pair"] is True


def test_tableaux_check_fails_on_broken_file(tmp_path, capsys):
    base = get_tableau("cf4")
    row0 = np.array(base.beta[0])
    row0[0] += 1e-3
    row0[1] -= 1e-3
    bent = CFTableau(name="bent", s=4, alpha=base.alpha,
                     beta=(row0, np.array(base.beta[1])), beta_hat=(),
                     order_p=4, order_phat=0, fsal=False,
                     reuse_map=base.reuse_map)
    path = tmp_path / "bent.json"
    save_tableau(bent, path)
    assert main(["tableaux", "check", "--tableau", str(path)]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_tableaux_check_fails_a_three_row_update(tmp_path, capsys):
    # cf4 with its second update row split into equal halves around the
    # first converges at order 2 (slope 2.0 on the rigid body, 40 -> 320
    # steps); its split conditions are not evaluated, so no order above 2
    # is certified and the claimed 4 is not reached
    base = get_tableau("cf4")
    b1, b2 = base.beta
    half = tuple(x / 2 for x in b2)
    split = CFTableau(name="split", s=4, alpha=base.alpha,
                      beta=(half, b1, half), beta_hat=(), order_p=4,
                      order_phat=0, fsal=False, reuse_map=(
                          (("stage", 2, 0), ("stage", 4, 0)),
                          (("y", 0), ("y", 2))))
    report = certify(split)
    assert report.certified_algebraic_order == 2
    assert ("3-row update: non-classical conditions not evaluated, so no "
            "order above 2 is certified") in report.notes
    path = tmp_path / "split.json"
    save_tableau(split, path)
    assert main(["tableaux", "check", "--tableau", str(path),
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified_order"] == 2 and payload["ok"] is False
    assert payload["violated"] == [] and payload["reuse_maximal"] is True


def _bad_tableau_files(tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text(get_tableau("cf32a").to_json()[:60])
    doc = get_tableau("cf32a").to_json_dict()
    doc["beta_hat"][0][1] = "nan"
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(doc))
    return {"cf99": "no catalog tableau named 'cf99'",
            str(truncated): "invalid tableau JSON",
            str(nan): "non-finite entry"}


@pytest.mark.parametrize("command", [["tableaux", "check"], ["integrate"]])
def test_bad_tableau_is_a_one_line_usage_error(tmp_path, capsys, command):
    for tableau, message in _bad_tableau_files(tmp_path).items():
        assert main(command + ["--tableau", tableau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("cfrk: ") and message in captured.err


SPAN = "need finite t0, t1 with t1 > t0, got "


@pytest.mark.parametrize("argv,message", [
    (["needle", "--h0", "0"], "h0 must be positive, got 0.0"),
    (["needle", "--tol", "-1"], "atol must be positive"),
    (["integrate", "--h0", "-0.1"], "h0 must be positive, got -0.1"),
    (["integrate", "--h0", "nan"], "h0 must be positive, got nan"),
    (["integrate", "--atol", "0"], "atol must be positive"),
    (["convergence", "--steps", "0"], "need step counts >= 1, got 0"),
    (["convergence", "--steps", "40", "--steps", "-3"],
     "need step counts >= 1, got -3"),
    (["work-precision", "--tol", "1e-3", "--steps", "0"],
     "need step counts >= 1, got 0"),
    (["integrate", "--t1", "nan"], SPAN + "t0 = 0.0, t1 = nan"),
    (["integrate", "--t0", "1", "--t1", "1"], SPAN + "t0 = 1.0, t1 = 1.0"),
    (["convergence", "--t1", "-1"], SPAN + "t0 = 0.0, t1 = -1.0"),
    (["work-precision", "--t1", "0"], SPAN + "t0 = 0.0, t1 = 0.0"),
    (["integrate", "--param", "foo=1"],
     "problem 'rigid-body' rejects parameter foo=1: rigid_body() got an "
     "unexpected keyword argument 'foo'"),
    (["integrate", "--problem", "van-der-pol", "--param", "mu=abc"],
     "problem 'van-der-pol' rejects parameter mu='abc': could not convert "
     "string to float: 'abc'"),
    (["integrate", "--param", "seed=null"],
     "problem 'rigid-body' rejects parameter seed=None: seed must be an "
     "integer, got None"),
    (["integrate", "--param", "seed=1.5"],
     "problem 'rigid-body' rejects parameter seed=1.5: seed must be an "
     "integer, got 1.5"),
    (["integrate", "--param", "inertia=[1,2]"],
     "problem 'rigid-body' rejects parameter inertia=[1, 2]: inertia must "
     "have 3 entries, got (1.0, 2.0)"),
    (["integrate", "--param", 'inertia="125"'],
     "problem 'rigid-body' rejects parameter inertia='125': inertia must "
     "be a sequence of numbers, got the string '125'"),
    (["integrate", "--problem", "heavy-top", "--param", "chi=0100"],
     "problem 'heavy-top' rejects parameter chi='0100': chi must be a "
     "sequence of numbers, got the string '0100'"),
    (["integrate", "--problem", "van-der-pol", "--param", "mu=NaN"],
     "problem 'van-der-pol' rejects parameter mu=nan: mu must be finite, "
     "got nan"),
    (["integrate", "--problem", "heavy-top", "--param", "g=Infinity"],
     "problem 'heavy-top' rejects parameter g=inf: g must be finite, got inf"),
    (["convergence", "--param", "m=NaN", "--steps", "10"],
     "problem 'rigid-body' rejects parameter m=nan: m must be finite, "
     "got nan"),
    (["integrate", "--param", "inertia=[1,2,NaN]"],
     "problem 'rigid-body' rejects parameter inertia=[1, 2, nan]: inertia "
     "must be finite, got (1.0, 2.0, nan)"),
    (["integrate", "--param", "inertia=[1e-320,1,1]", "--t1", "0.1"],
     "problem 'rigid-body' rejects parameter inertia=[1e-320, 1, 1]: "
     "1 / inertia must be finite, got (inf, 1.0, 1.0)"),
    (["integrate", "--problem", "heavy-top", "--param", "m=1e200",
      "--param", "g=1e200"],
     "problem 'heavy-top' rejects parameters m=1e+200, g=1e+200: "
     "m * g * chi must be finite, got (inf, nan, nan)"),
    (["integrate", "--param", "foo"],
     "--param expects key=value, got 'foo'"),
    (["work-precision", "--tableau", "cf4", "--t1", "1", "--tol", "1e-3"],
     "cf4 has no embedded solution"),
    (["convergence", "--tableau", "cf4", "--embedded"],
     "cf4 has no embedded solution"),
    (["work-precision", "--hmax", "0"], "hmin must be in (0, hmax)"),
    (["needle", "--t1", "1", "--tol", "1e-3", "--tol", "1e-5"],
     "needle takes one tolerance, got (0.001, 1e-05)"),
], ids=["needle-h0", "needle-tol", "integrate-h0", "integrate-h0-nan",
        "integrate-atol", "convergence-steps-0", "convergence-steps-negative",
        "work-precision-steps-0", "integrate-t1-nan", "integrate-empty-span",
        "convergence-backward-span", "work-precision-empty-span",
        "integrate-unknown-param", "integrate-param-not-a-float",
        "integrate-seed-null", "integrate-seed-not-an-integer",
        "integrate-param-too-short", "integrate-param-string",
        "integrate-param-not-json", "integrate-vdp-mu-nan",
        "integrate-heavy-top-g-inf", "convergence-m-nan",
        "integrate-inertia-nan", "integrate-inverse-inertia-inf",
        "integrate-heavy-top-m-g-overflow", "integrate-param-without-equals",
        "work-precision-no-pair",
        "convergence-embedded-without-rows", "work-precision-hmax-0",
        "needle-two-tolerances"])
def test_invalid_controller_config_is_a_one_line_usage_error(monkeypatch,
                                                              capsys, argv,
                                                              message):
    # bad tolerances, step sizes, spans, step counts, problem parameters
    # and tableaux that cannot run the mode are all rejected before any
    # reference is solved or any run starts
    import cfrk.bench as bench_mod

    def never(*args, **kwargs):
        raise AssertionError("a reference or a run started")
    for name in ("reference_endpoint", "integrate_adaptive",
                 "integrate_fixed"):
        monkeypatch.setattr(bench_mod, name, never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfrk: {message}\n"


@pytest.mark.parametrize("command", ["integrate", "convergence",
                                     "work-precision", "needle"])
def test_negative_time_in_exponent_form_is_a_separate_value(capsys, command):
    # argparse reads -1 and -1.5 as values by itself, -1e308 only here
    args = build_parser().parse_args(
        [command, "--t0", "-1e308", "--t1", "-2.5E-1"])
    assert (args.t0, args.t1) == (-1e308, -0.25)
    assert main([command, "--t0", "-1e308", "--t1", "1e308"]) == 2
    assert capsys.readouterr().err == (
        "cfrk: need a finite span t1 - t0, got t0 = -1e+308, t1 = 1e+308\n")


def test_integrate_runs_from_a_negative_time_in_exponent_form(capsys):
    assert main(["integrate", "--t0", "-2.5e-1", "--t1", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0][2:])["t0"] == -0.25
    assert lines[3].startswith("-0.25,")


@pytest.mark.parametrize("command", ["integrate", "needle"])
def test_a_tableau_without_a_pair_cannot_run_adaptive(capsys, command):
    # these commands solve no reference: integrate_adaptive rejects the
    # tableau before its first step, as a one-line usage error
    assert main([command, "--tableau", "cf4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cfrk: cf4 has no embedded solution\n"


def test_integrate_writes_trace(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["integrate", "--problem", "rigid-body", "--tableau", "cf43",
                 "--t1", "1.0", "--out", str(out)]) == 0
    config, summary, header, rows = read_csv_table(out)
    assert config["problem"] == "rigid-body"
    assert config["tableau"] == "cf43"
    assert header == ["t", "h", "accepted", "y1", "y2", "err"]
    assert summary["t_end"] == 1.0
    assert summary["n_accepted"] == sum(r[2] == "true" for r in rows)
    assert len(summary["y_end"]) == 3


def test_integrate_csv_rows_are_the_h_history_attempts(tmp_path):
    # the CLI trace is built from h_history: each row reads back as its
    # attempt, field for field, rejected attempts included
    out = tmp_path / "run.csv"
    assert main(["integrate", "--problem", "van-der-pol", "--tableau", "cf43",
                 "--t1", "3", "--atol", "1e-3", "--rtol", "1e-3",
                 "--out", str(out)]) == 0
    _, summary, _, rows = read_csv_table(out)
    prob = van_der_pol()
    traj = integrate_adaptive(get_tableau("cf43"), prob, prob.default_y0,
                              0.0, 3.0, ControllerConfig(atol=1e-3, rtol=1e-3))
    assert summary["n_rejected"] == traj.totals.n_rejected > 0
    assert [(float(t), float(h), accepted == "true", float(y1), float(y2),
             float(err)) for t, h, accepted, y1, y2, err in rows] == [
        (a.t, a.h, a.accepted, *a.y, a.err) for a in traj.h_history]


def test_integrate_records_a_seed_set_by_param(tmp_path):
    default, seeded = tmp_path / "default.csv", tmp_path / "seeded.csv"
    for argv, out in (([], default), (["--param", "seed=3"], seeded)):
        assert main(["integrate", "--t1", "0.1", "--out", str(out)]
                    + argv) == 0
    config, summary, _, _ = read_csv_table(seeded)
    assert config["problem_params"]["seed"] == 3
    default_config, default_summary, _, _ = read_csv_table(default)
    assert config != default_config
    assert summary["y_end"] != default_summary["y_end"]


def test_the_seed_has_no_option_of_its_own(capsys):
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--seed", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_a_tableau_file_is_recorded_by_its_path(tmp_path):
    # the file's internal name, cf43, is a catalog name: the header records
    # the path, which reruns the file
    path, out = tmp_path / "my_pair.json", tmp_path / "run.csv"
    save_tableau(get_tableau("cf43"), path)
    assert main(["integrate", "--tableau", str(path), "--t1", "0.1",
                 "--out", str(out)]) == 0
    assert read_csv_table(out)[0]["tableau"] == str(path)


@pytest.mark.filterwarnings("error")
def test_tableaux_check_json_is_strict_on_an_overflowing_tableau(tmp_path,
                                                                 capfd):
    # a stage entry of 1e200 overflows a residual: the payload writes it
    # as null, numpy warns nothing, and the check fails
    doc = get_tableau("cf32a").to_json_dict()
    doc["alpha"][0][0][0] = "1e200"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["tableaux", "check", "--tableau", str(path),
                 "--format", "json"]) == 1
    captured = capfd.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out, parse_constant=pytest.fail)
    assert payload["ok"] is False
    assert ["b.c^2 = 1/3", None] in payload["violated"]


def test_integrate_param_override(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["integrate", "--problem", "van-der-pol", "--param", "mu=5",
                 "--t1", "0.5", "--out", str(out)]) == 0
    config, _, _, _ = read_csv_table(out)
    assert config["problem_params"] == {"mu": 5}


@pytest.mark.parametrize("argv", [
    ["integrate", "--problem", "van-der-pol", "--param", "mu=1e9",
     "--tableau", "cf32a", "--t1", "2.0"],
    ["needle", "--t1", "2", "--tol", "1e-3", "--param", "mu=1e6"],
], ids=["integrate", "needle"])
def test_integrate_failure_exit_code(argv, capsys):
    # extreme stiffness overflows the state, which a single-run command
    # reports as a failed run in one line, not a traceback
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("integration failed: ")
    assert "Traceback" not in captured.err


def test_convergence_records_a_failed_step_count(capsys):
    # a step far too long for the problem overflows the state: that step
    # count is a NaN row and a failures entry, the sweep goes on, and the
    # command exits 1, as work-precision does
    assert main(["convergence", "--problem", "van-der-pol", "--t1", "2",
                 "--steps", "2", "--steps", "400", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["summary"]["failures"] == ["steps=2: state became non-finite"]
    failed, finest = doc["rows"]
    assert failed == [1.0, None, None]  # NaN is written as null
    assert finest[0] == 2.0 / 400 and 0.0 < finest[1] < 1e-3
    assert finest[2] is None


def test_convergence_whose_step_underflows_is_a_usage_error(monkeypatch,
                                                            capsys):
    # (t1 - t0) / 2 underflows to 0: the configuration is refused before
    # the reference solve, so the ambient field, which counts its calls
    # (failing the test instead of hanging it, should the solve run on a
    # span where LSODA never advances), is never called
    from cfrk import bench
    build, calls = bench.build_problem, []

    def counted(*args):
        prob = build(*args)

        def field(y):
            calls.append(None)
            assert len(calls) < 1000, "the reference solve does not advance"
            return prob.ambient_field(y)
        return dataclasses.replace(prob, ambient_field=field)
    monkeypatch.setattr(bench, "build_problem", counted)
    assert main(["convergence", "--t1", "5e-324", "--steps", "2"]) == 2
    assert capsys.readouterr().err == (
        "cfrk: the step (t1 - t0) / n_steps underflows to 0 for t0 = 0.0, "
        "t1 = 5e-324, n_steps = 2\n")
    assert calls == []


def test_convergence_over_a_span_of_one_ulp(capsys):
    # LSODA alone refuses to start on a span this short
    assert main(["convergence", "--t0", "1", "--t1", "1.0000000000000002",
                 "--steps", "2", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (row,) = json.loads(captured.out)["rows"]
    assert row[0] == 2.0 ** -53 and 0.0 <= row[1] < 1e-17


def test_a_failed_reference_solve_is_one_line(monkeypatch, capsys):
    from cfrk import bench
    build = bench.build_problem

    def broken(*args):
        return dataclasses.replace(build(*args),
                                   ambient_field=lambda y: np.full(3, np.nan))
    monkeypatch.setattr(bench, "build_problem", broken)
    assert main(["convergence", "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cfrk: reference for rigid-body: non-finite "
                            "derivative at t=0.0\n")


def test_convergence_sweep(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--problem", "rigid-body", "--tableau", "cf4",
                 "--steps", "20", "--steps", "40", "--out", str(out)]) == 0
    config, summary, header, rows = read_csv_table(out)
    assert config["steps"] == [20, 40]
    assert config["problem_params"]["seed"] == 7 and "seed" not in config
    assert header == ["h", "global_error", "local_slope"]
    assert len(rows) == 2
    assert rows[0][2] == "nan"
    assert float(rows[1][2]) == pytest.approx(4.0, abs=0.4)
    assert "reference_norm" in summary


def test_work_precision_sweep(tmp_path):
    out = tmp_path / "wp.json"
    assert main(["work-precision", "--problem", "rigid-body",
                 "--tableau", "cf32a", "--tol", "1e-3", "--tol", "1e-4",
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "tol"
    assert len(doc["rows"]) == 2
    assert doc["summary"]["failures"] == []
    assert doc["rows"][0][0] == 1e-3


def test_work_precision_rejects_a_bad_tolerance_before_any_run(monkeypatch,
                                                                capsys):
    # every tolerance is checked before the reference or the first run
    import cfrk.bench as bench_mod
    calls = []

    def counting(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return fail
    for name in ("reference_endpoint", "integrate_adaptive"):
        monkeypatch.setattr(bench_mod, name, counting(name))
    assert main(["work-precision", "--tol", "1e-4", "--tol", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cfrk: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("command,runner,row", [
    ("integrate", "run_integrate", (0.0, 0.1, True, 1.0, 0.0, 0.5)),
    ("convergence", "run_convergence", (0.1, math.nan, math.nan)),
    ("work-precision", "run_work_precision", (1e-3, math.nan, 0, 0, 0, 0)),
    ("needle", "run_needle", (0.0, 0.1, True, 1.0, 0.0, 0.5)),
], ids=["integrate", "convergence", "work-precision", "needle"])
def test_work_precision_failure_exit_code(monkeypatch, capsys, command,
                                          runner, row):
    # each run command calls the runner of its name in cfrk.cli, looked up
    # when it runs, and exits 1 when its summary lists failures
    import cfrk.cli as cli_mod
    calls = []

    def broken(config):
        calls.append(config.mode)
        return [row], {"failures": ["x: y"]}

    monkeypatch.setattr(cli_mod, runner, broken)
    assert main([command, "--tableau", "cf32a"]) == 1
    assert calls == [{"integrate": "adaptive"}.get(command, command)]
    assert "failures" in capsys.readouterr().out


def test_needle_trace(tmp_path):
    out = tmp_path / "needle.csv"
    assert main(["needle", "--tableau", "cf32a", "--tol", "1e-3",
                 "--t1", "3.0", "--out", str(out)]) == 0
    config, summary, header, rows = read_csv_table(out)
    assert config["problem"] == "van-der-pol"  # needle's default problem
    assert summary["t_end"] == 3.0
    assert summary["n_rejected"] > 0
    assert len(rows) == summary["n_accepted"] + summary["n_rejected"]


@pytest.mark.parametrize("out,reason", [
    ("", "Is a directory"), ("missing/x.csv", "No such file or directory")])
def test_an_out_path_that_cannot_be_written_is_one_line(tmp_path, capsys,
                                                         out, reason):
    # the open fails with one line, not a traceback
    path = tmp_path / out
    assert main(["integrate", "--problem", "van-der-pol", "--t1", "0.5",
                 "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfrk: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("command,runner", [
    ("integrate", "run_integrate"), ("convergence", "run_convergence"),
    ("work-precision", "run_work_precision"), ("needle", "run_needle")])
def test_an_out_path_that_cannot_be_written_stops_before_the_run(
        monkeypatch, tmp_path, capsys, command, runner):
    # --out is opened before the runner is called, so no solve is spent on
    # a run whose output cannot be written
    import cfrk.cli as cli_mod
    calls = []
    monkeypatch.setattr(cli_mod, runner, lambda config: calls.append(config))
    path = tmp_path / "missing" / "x.csv"
    assert main([command, "--tableau", "cf32a", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cfrk: cannot write {path}: No such file or directory\n")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["integrate", "--problem", "van-der-pol", "--param", "mu=1e9",
     "--tableau", "cf32a", "--t1", "2.0"],
    ["needle", "--t1", "2", "--tol", "1e-3", "--param", "mu=1e6"],
], ids=["integrate", "needle"])
def test_a_failed_run_leaves_the_opened_out_file_empty(tmp_path, capsys,
                                                       argv):
    path = tmp_path / "x.csv"
    assert main(argv + ["--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith("integration failed: ")
    assert path.read_text() == ""


def test_invalid_problem_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--problem", "lorenz"])
    assert info.value.code == 2


def test_malformed_param_is_rejected(capsys):
    assert main(["integrate", "--problem", "van-der-pol", "--param", "mu:5",
                 "--t1", "0.5"]) == 2
    assert capsys.readouterr().err == \
        "cfrk: --param expects key=value, got 'mu:5'\n"


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])
