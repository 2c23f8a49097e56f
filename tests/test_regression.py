"""Trajectories pinned against recorded values.

Every run must stay bit-identical.  Each adaptive run is recorded with its
counts, its endpoint and a SHA-256 of its record, times and totals, so a
change that moves one names the runs it moved; the fixed-step runs are
pinned by two digests over all of them.  The recorded values are
regenerated by running this file as a script:

    PYTHONPATH=src python tests/test_regression.py

which rewrites tests/data/adaptive_counts.json and prints the fixed-step
digests to paste into FIXED_DIGEST and EMBEDDED_FIXED_DIGEST.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from cfrk.catalog import catalog
from cfrk.controller import ControllerConfig, IntegrationError, \
    integrate_adaptive, integrate_fixed
from cfrk.problems import heavy_top, rigid_body, van_der_pol

DATA = Path(__file__).parent / "data" / "adaptive_counts.json"
SPANS = {"rigid-body": (rigid_body, 10.0), "heavy-top": (heavy_top, 10.0),
         "van-der-pol": (van_der_pol, 2.0)}
TOLS = (1e-4, 1e-8)
FIXED_STEPS = (50, 400)
# SHA-256 of fixed_runs_digest()
FIXED_DIGEST = ("9b37adf5d60b110c4743276049ac6216"
                "f2d7e33800de45e63629950957ee441c")
# the same over the embedded pairs with advance_embedded=True
EMBEDDED_FIXED_DIGEST = ("b2286fa5e604c554fb80381df8a4603f"
                         "a61f86b89a9485e060f6a140fcdd6a1c")


def adaptive_runs():
    """Counts, endpoint and digest of every embedded pair on every problem
    at each tolerance (atol = rtol = tol): the digest is a SHA-256 over the
    packed record, the packed times and the totals."""
    runs = []
    for tableau in catalog():
        if not tableau.has_embedded:
            continue
        for name, (build, t1) in SPANS.items():
            prob = build()
            for tol in TOLS:
                traj = integrate_adaptive(
                    tableau, prob, prob.default_y0, 0.0, t1,
                    ControllerConfig(atol=tol, rtol=tol))
                t = traj.totals
                digest = hashlib.sha256(traj.record.tobytes())
                digest.update(struct.pack(f"{len(traj.times)}d",
                                          *traj.times))
                digest.update(struct.pack("4q", t.n_exp, t.n_feval,
                                          t.n_accepted, t.n_rejected))
                runs.append({"tableau": tableau.name, "problem": name,
                             "tol": tol, "n_exp": t.n_exp,
                             "n_feval": t.n_feval,
                             "n_accepted": t.n_accepted,
                             "n_rejected": t.n_rejected,
                             "y_end": traj.y_end.tolist(),
                             "sha256": digest.hexdigest()})
    return runs


def fixed_runs_digest(advance_embedded: bool = False) -> str:
    """One SHA-256 over the outcome, times, points, attempts and totals of
    integrate_fixed at each step count, for every catalog tableau (every
    embedded pair when advance_embedded is set) on every problem; a run
    that fails contributes its error type and partial trajectory."""
    digest = hashlib.sha256()
    for tableau in catalog():
        if advance_embedded and not tableau.has_embedded:
            continue
        for build, t1 in SPANS.values():
            prob = build()
            for n in FIXED_STEPS:
                try:
                    traj = integrate_fixed(
                        tableau, prob, prob.default_y0, 0.0, t1, n,
                        advance_embedded=advance_embedded)
                    outcome = "ok"
                except IntegrationError as exc:
                    traj, outcome = exc.trajectory, type(exc).__name__
                digest.update(outcome.encode())
                digest.update(struct.pack(f"{len(traj.times)}d",
                                          *traj.times))
                for point in traj.points:
                    digest.update(np.asarray(point, float).tobytes())
                for a in traj.h_history:
                    digest.update(struct.pack("dd?d", a.t, a.h, a.accepted,
                                              a.err))
                    digest.update(np.asarray(a.y, float).tobytes())
                t = traj.totals
                digest.update(struct.pack("4q", t.n_exp, t.n_feval,
                                          t.n_accepted, t.n_rejected))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_adaptive_counts_and_endpoints_match_the_record(recorded):
    got = adaptive_runs()
    assert len(got) == len(recorded) == 36
    for run, want in zip(got, recorded):
        key = (want["tableau"], want["problem"], want["tol"])
        assert (run["tableau"], run["problem"], run["tol"]) == key
        for count in ("n_exp", "n_feval", "n_accepted", "n_rejected"):
            assert run[count] == want[count], (key, count)
        for a, b in zip(run["y_end"], want["y_end"], strict=True):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b)), key
        assert run["sha256"] == want["sha256"], key


def test_fixed_step_trajectories_are_bit_identical_to_the_record():
    assert fixed_runs_digest() == FIXED_DIGEST


def test_embedded_fixed_step_trajectories_are_bit_identical_to_the_record():
    assert fixed_runs_digest(advance_embedded=True) == EMBEDDED_FIXED_DIGEST


if __name__ == "__main__":
    DATA.write_text(json.dumps(adaptive_runs(), indent=1) + "\n")
    print(fixed_runs_digest())
    print(fixed_runs_digest(advance_embedded=True))
