"""Command-line entry point: exit codes, argument handling, and the file
formats it emits."""

import json
import math

import numpy as np
import pytest

from cfrk.catalog import get_tableau
from cfrk.cli import main
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
    (["integrate", "--param", "inertia=[1,2]"],
     "problem 'rigid-body' rejects parameter inertia=[1, 2]: not enough "
     "values to unpack (expected 3, got 2)"),
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
    (["integrate", "--param", "foo"],
     "--param expects key=value, got 'foo'"),
], ids=["needle-h0", "needle-tol", "integrate-h0", "integrate-h0-nan",
        "integrate-atol", "convergence-steps-0", "convergence-steps-negative",
        "work-precision-steps-0", "integrate-t1-nan", "integrate-empty-span",
        "convergence-backward-span", "work-precision-empty-span",
        "integrate-unknown-param", "integrate-param-not-a-float",
        "integrate-param-too-short", "integrate-vdp-mu-nan",
        "integrate-heavy-top-g-inf", "convergence-m-nan",
        "integrate-inertia-nan", "integrate-param-without-equals"])
def test_invalid_controller_config_is_a_one_line_usage_error(monkeypatch,
                                                              capsys, argv,
                                                              message):
    # bad tolerances, step sizes, spans, step counts and problem parameters
    # are all rejected before any reference is solved or any run starts
    import cfrk.bench as bench_mod
    import cfrk.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("a reference or a run started")
    for module, name in ((bench_mod, "reference_endpoint"),
                         (bench_mod, "integrate_adaptive"),
                         (bench_mod, "integrate_fixed"),
                         (cli_mod, "integrate_adaptive")):
        monkeypatch.setattr(module, name, never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfrk: {message}\n"


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


def test_integrate_param_override(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["integrate", "--problem", "van-der-pol", "--param", "mu=5",
                 "--t1", "0.5", "--out", str(out)]) == 0
    config, _, _, _ = read_csv_table(out)
    assert config["problem_params"] == {"mu": 5}


def test_integrate_failure_exit_code(capsys):
    # extreme stiffness drives a stage into the expansive band and the
    # resulting overflow is reported as a failed run, not a traceback
    code = main(["integrate", "--problem", "van-der-pol", "--param", "mu=1e9",
                 "--tableau", "cf32a", "--t1", "2.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "integration failed" in captured.err


def test_convergence_sweep(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--problem", "rigid-body", "--tableau", "cf4",
                 "--steps", "20", "--steps", "40", "--out", str(out)]) == 0
    config, summary, header, rows = read_csv_table(out)
    assert config["steps"] == [20, 40]
    assert config["seed"] == 7
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


def test_work_precision_failure_exit_code(monkeypatch, capsys):
    import cfrk.cli as cli_mod

    def broken(config):
        return [(1e-3, math.nan, 0, 0, 0, 0)], {"failures": ["tol=0.001: x"]}

    monkeypatch.setattr(cli_mod, "run_work_precision", broken)
    assert main(["work-precision", "--tableau", "cf32a",
                 "--tol", "1e-3"]) == 1
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
