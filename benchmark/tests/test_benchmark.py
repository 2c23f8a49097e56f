"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@lru_cache(maxsize=None)
def _inputs(workload, seed):
    solves = workloads.WORKLOADS[workload](seed)
    return solves, workloads.oracles(solves)


def _traced_round(workload, seed):
    """The named counts of one traced round, and each solve's attempts."""
    solves, oracle = _inputs(workload, seed)
    tr = Tracer()
    rnd = run.run_round(solves, tr.api(), oracle, tr)
    assert not any(rnd.failures), rnd.failures
    m, problems, _ = run.layer_metrics(tr)
    assert not problems, problems
    counts = (m["actions.exp.calls"], m["stepper.steps"],
              m["controller.rejected"])
    return counts, rnd.attempts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_a_seed_and_change_with_it(workload, monkeypatch):
    monkeypatch.delenv("CFRK_CACHE", raising=False)  # run_round sets it
    first = _traced_round(workload, 1)
    assert _traced_round(workload, 1) == first
    # The inputs are stratified so that the totals barely move with the
    # seed (rigid-sweep: 29065 to 29073 attempts over seeds 1 to 10, and
    # seeds 1 and 2 tie), so the change shows in the per-solve attempts.
    assert _traced_round(workload, 2)[1] != first[1]


def _run(args, cwd, env=None):
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section, tmp_path):
    # heavytop-convergence is the workload that builds cfrk references.
    env = dict(os.environ, HOME=str(tmp_path))
    out = _run(["--workload", "heavytop-convergence", "--seed", "3",
                "--seconds", "1", "--trace", str(trace)], ROOT, env)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert not (tmp_path / ".cache").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    out = _run(["--workload", "vdp-needle", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
