"""cfrk benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).  Run from the repository root:

    python3 benchmark/run.py --workload rigid-sweep --seed 1 --seconds 20 --trace 0

The workloads, metrics and their units are declared in BENCHMARK.json.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the metrics for
people, with the raw timings beside them.  The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the benchmark
could not run at all.

A run repeats the workload's fixed set of solves (a round) for --seconds
seconds, at least once.  Every solve is timed on its own and rescaled to
the reference host speed by the probe samples taken while it ran (see
probe.py); a metric takes each solve's median over rounds.  A traced
run alternates untraced and traced rounds: per-layer numbers come from the
traced rounds, the tracing overhead from the pairing.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_AREA = HERE / ".run"
SETUP_REPEATS = 5
# A solve's host speed is the mean of its own probe samples shrunk toward
# its round's mean as if the round contributed this many samples, so that
# a solve too short to collect samples takes the round's speed.
ROUND_WEIGHT = 10
# The layers' self times must cover this share of the traced wall time.
SELF_SUM_MIN = 0.95


def measure_setup(problems) -> dict:
    """Median over fresh interpreters of set-up time and its phases, at
    reference speed, and of the raw set-up wall time."""
    from probe import at_reference_speed
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), *problems],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True)
        wall = time.perf_counter() - t0
        child = json.loads(out.stdout.strip().splitlines()[-1])
        probe_us = child["probe_us"]
        runs.append({
            "setup_s": at_reference_speed(wall, probe_us),
            "setup.import_s": at_reference_speed(child["import_s"], probe_us),
            "catalog.build_s": at_reference_speed(child["catalog_s"],
                                                  probe_us),
            "raw_s": wall,
        })
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Round:
    """Outcome of running every solve of a workload once."""

    def __init__(self, n):
        self.raw = [math.nan] * n  # solve times without the probe samples
        self.times = [math.nan] * n  # the same at reference speed
        self.probe_us = math.nan  # mean probe sample of the round
        self.failures = [[] for _ in range(n)]
        self.err_over_tol = [None] * n
        self.fingerprints = [None] * n
        self.attempts = [0] * n


def run_round(solves, api, oracle, tracer=None) -> Round:
    """Run each solve once against a fresh, empty reference cache, then
    check every result.  With a tracer, the traced module attributes are
    swapped in and each solve is one root span."""
    from probe import HostSampler, at_reference_speed, probe_sample_us
    from workloads import oracle_key
    rnd = Round(len(solves))
    results = [None] * len(solves)
    own = [None] * len(solves)  # probe samples taken during each solve
    RUN_AREA.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=RUN_AREA)
    os.environ["CFRK_CACHE"] = cache
    try:
        with tracer.patched() if tracer else contextlib.nullcontext(), \
                HostSampler() as host:
            for i, s in enumerate(solves):
                call = s.run if tracer is None \
                    else tracer.wrap("harness", s.run)
                n0 = len(host.samples)
                t0 = time.perf_counter()
                try:
                    results[i] = call(api)
                except Exception as exc:  # counted as a failed solve
                    rnd.failures[i].append(
                        f"{s.label}: {type(exc).__name__}: {exc}")
                rnd.raw[i] = time.perf_counter() - t0
                own[i] = host.samples[n0:]
                rnd.raw[i] -= sum(own[i]) / 1e6
        rnd.probe_us = statistics.fmean(host.samples or [probe_sample_us()])
        for i, samples in enumerate(own):
            speed = (sum(samples) + ROUND_WEIGHT * rnd.probe_us) \
                / (len(samples) + ROUND_WEIGHT)
            rnd.times[i] = at_reference_speed(rnd.raw[i], speed)
        for i, (s, res) in enumerate(zip(solves, results)):
            if res is None:
                continue
            fails, ratio = s.check(res, oracle[oracle_key(s)])
            rnd.failures[i] += fails
            rnd.err_over_tol[i] = ratio
            rnd.fingerprints[i] = s.fingerprint(res)
            if s.direct:
                rnd.attempts[i] = s.attempts(res)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rnd


def layer_metrics(tracer):
    """Per-layer metrics of one traced round (raw times), the count
    identities it breaks, and the share of the traced wall time its layers'
    self times cover."""
    from tracer import LAYERS, layer_totals
    tot = layer_totals(tracer.spans())
    calls, self_ns, incl = tot["calls"], tot["self_ns"], tot["incl_ns"]
    wall_ns = incl["harness"]
    steps = calls["stepper"]
    attempts = tracer.n_accepted + tracer.n_rejected
    m = {}
    for layer in ("actions.exp", "actions.act", "actions.algebra",
                  "problems.f"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.us_per_call"] = self_ns[layer] / 1e3 \
            / max(calls[layer], 1)
        m[f"{layer}.share"] = self_ns[layer] / wall_ns
    m["actions.metric.calls"] = calls["actions.metric"]
    m["actions.metric.share"] = self_ns["actions.metric"] / wall_ns
    m["stepper.steps"] = steps
    m["stepper.self_us_per_step"] = self_ns["stepper"] / 1e3 / max(steps, 1)
    m["stepper.share"] = self_ns["stepper"] / wall_ns
    m["stepper.exp_per_step"] = calls["actions.exp"] / max(steps, 1)
    m["stepper.feval_per_step"] = tot["f_in_stepper"] / max(steps, 1)
    m["stepper.reuse_hits"] = calls["actions.act"] - calls["actions.exp"]
    m["controller.self_us_per_attempt"] = \
        self_ns["controller"] / 1e3 / max(attempts, 1)
    m["controller.share"] = self_ns["controller"] / wall_ns
    m["controller.accept_ratio"] = tracer.n_accepted / max(attempts, 1)
    m["controller.rejected"] = tracer.n_rejected
    m["bench.reference_s"] = incl["bench.reference"] / 1e9
    m["bench.render_s"] = incl["bench.render"] / 1e9

    broken = []
    if calls["actions.exp"] != tracer.n_exp:
        broken.append(f"exp spans {calls['actions.exp']} != Totals.n_exp "
                      f"{tracer.n_exp}")
    if calls["problems.f"] != tracer.n_feval + tracer.n_adaptive:
        broken.append(f"f spans {calls['problems.f']} != Totals.n_feval "
                      f"{tracer.n_feval} + {tracer.n_adaptive} initial steps")
    if steps != attempts:
        broken.append(f"stepper spans {steps} != attempts {attempts}")
    self_sum = sum(self_ns[x] for x in LAYERS if x != "harness") / wall_ns
    if self_sum < SELF_SUM_MIN:
        broken.append(f"layer self times cover {self_sum:.3f} of the "
                      f"traced wall, below {SELF_SUM_MIN}")
    return m, broken, self_sum


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cfrk" / "__init__.py").is_file():
        print(f"cfrk sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    # One BLAS thread, set before numpy loads: the workloads are
    # single-threaded.  The reference cache is set before cfrk loads, so
    # nothing can touch the user's cache; each round gets a fresh one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["CFRK_CACHE"] = str(RUN_AREA / "cache-unused")
    sys.path.insert(0, str(SRC))
    import cfrk
    if Path(cfrk.__file__).resolve().parent != SRC / "cfrk":
        print(f"imported cfrk from {cfrk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np
    import workloads
    from probe import REFERENCE_US, at_reference_speed
    from tracer import LAYERS, Tracer

    solves = workloads.WORKLOADS[args.workload](args.seed)
    setup = measure_setup(sorted({s.problem.name for s in solves}))
    oracle = workloads.oracles(solves)
    api = workloads.plain_api()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}

    plain, traced, layer_runs, broken, self_sums = [], [], [], [], []
    last_spans = None
    t_end = time.perf_counter() + args.seconds
    while not plain or (args.trace and not traced) \
            or time.perf_counter() < t_end:
        plain.append(run_round(solves, api, oracle))
        if args.trace:
            tr = Tracer()
            rnd = run_round(solves, tr.api(), oracle, tr)
            traced.append(rnd)
            m, problems, self_sum = layer_metrics(tr)
            layer_runs.append({
                k: at_reference_speed(v, rnd.probe_us)
                if units.get(k) in ("s", "us") else v
                for k, v in m.items()})
            broken += problems
            self_sums.append(self_sum)
            last_spans = tr.spans()

    rounds = plain + traced
    first = rounds[0]
    attempted = len(solves) * len(rounds)
    failed = 0
    for rnd in rounds:
        for i, s in enumerate(solves):
            if rnd.fingerprints[i] != first.fingerprints[i] \
                    and not rnd.failures[i]:
                rnd.failures[i].append(f"{s.label}: result differs from "
                                       "the first round")
            failed += bool(rnd.failures[i])
            for msg in rnd.failures[i]:
                print("FAIL", msg)

    def solve_medians(rnds, attr="times"):
        return [statistics.median(getattr(r, attr)[i] for r in rnds)
                for i in range(len(solves))]

    wall = solve_medians(plain)
    probe_us = statistics.fmean(r.probe_us for r in rounds)
    if not args.trace:
        direct = [i for i, s in enumerate(solves) if s.direct]
        ratios = [x for x in first.err_over_tol if x is not None]
        metrics = {
            "setup_s": setup["setup_s"],
            "wall_s": sum(wall),
            "attempts_per_s": sum(first.attempts[i] for i in direct)
            / sum(wall[i] for i in direct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "err_over_tol_max": max(ratios),
        }
    else:
        metrics = {}
        for key in layer_runs[0]:
            values = [m[key] for m in layer_runs]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    broken.append(f"{key} differs between rounds: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["catalog.build_s"] = setup["catalog.build_s"]
        metrics["trace.overhead_frac"] = \
            sum(solve_medians(traced)) / sum(wall) - 1.0
        metrics["host.probe_us"] = probe_us
        RUN_AREA.mkdir(exist_ok=True)
        np.savez_compressed(RUN_AREA / f"trace-{args.workload}.npz",
                            layers=np.array(LAYERS), **last_spans)

    if set(units) != set(metrics):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for msg in broken:
        print("FAIL", msg)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced) of {len(solves)} solves")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"raw: wall {sum(solve_medians(plain, 'raw')):.6g} s, set-up "
          f"{setup['raw_s']:.6g} s, host.probe_us {probe_us:.6g} us "
          f"(reference {REFERENCE_US:g} us)")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} "
          "solves)")
    if self_sums:
        print(f"layer self-time sum / traced wall: "
              f"{statistics.median(self_sums):.4f}")
    correct = failed == 0 and not broken
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
