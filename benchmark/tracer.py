"""Outside-in tracing of cfrk's layers.

Spans are recorded from the benchmark's side, around calls into each layer:
problem.f and the action's methods through a proxy problem, the stepper and
the bench-internal calls through module attributes that are swapped in for
the duration of a solve and restored afterwards.  Nothing in cfrk changes.

A span is (layer, parent, start, end), kept in typed arrays so that a
traced round of ~10^6 spans stays small.  A layer's self time is the
duration of its spans minus the part covered by their child spans.  Each
solve is one root span and every other span has a parent, so the self
times of all layers add up to the roots' duration exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array

import numpy as np

import cfrk
import cfrk.bench
import cfrk.controller
from workloads import Api, render_needle

LAYERS = ("harness", "bench.run", "bench.reference", "bench.render",
          "controller", "stepper", "actions.exp", "actions.act",
          "actions.algebra", "actions.metric", "problems.f")
_CODE = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """Span store and factory of span-recording wrappers for one round."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # Totals of every trajectory returned through a controller wrapper.
        self.n_exp = self.n_feval = self.n_accepted = self.n_rejected = 0
        self.n_adaptive = 0
        self._patches = (
            (cfrk.controller, "cf_step",
             self.wrap("stepper", cfrk.controller.cf_step)),
            (cfrk.bench, "reference_endpoint",
             self.wrap("bench.reference", cfrk.bench.reference_endpoint)),
            (cfrk.bench, "build_problem",
             self._proxied(cfrk.bench.build_problem)),
            (cfrk.bench, "integrate_fixed",
             self._controller(cfrk.bench.integrate_fixed, adaptive=False)),
            (cfrk.bench, "integrate_adaptive",
             self._controller(cfrk.bench.integrate_adaptive, adaptive=True)),
        )

    def wrap(self, layer: str, fn):
        """fn, recording one span of the given layer per call."""
        code = _CODE[layer]
        lay, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(lay)
            lay.append(code)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
        return span

    def problem(self, problem):
        """A copy of problem whose f and action record spans."""
        return dataclasses.replace(
            problem, f=self.wrap("problems.f", problem.f),
            action=TracedAction(problem.action, self))

    def _proxied(self, build):
        def build_traced(*args, **kwargs):
            return self.problem(build(*args, **kwargs))
        return build_traced

    def _controller(self, integrate, adaptive: bool):
        span = self.wrap("controller", integrate)

        def integrate_traced(*args, **kwargs):
            traj = span(*args, **kwargs)
            t = traj.totals
            self.n_exp += t.n_exp
            self.n_feval += t.n_feval
            self.n_accepted += t.n_accepted
            self.n_rejected += t.n_rejected
            self.n_adaptive += adaptive
            return traj
        return integrate_traced

    def api(self) -> Api:
        """The traced entry points."""
        return Api(self._controller(cfrk.integrate_adaptive, adaptive=True),
                   self.wrap("bench.run", cfrk.bench.run_convergence),
                   self.wrap("bench.run", cfrk.bench.run_needle),
                   self.wrap("bench.render", render_needle),
                   self.problem)

    @contextlib.contextmanager
    def patched(self):
        """Swap the traced module attributes in, and restore them after."""
        saved = [(mod, name, getattr(mod, name))
                 for mod, name, _ in self._patches]
        try:
            for mod, name, wrapper in self._patches:
                setattr(mod, name, wrapper)
            yield
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)

    def spans(self) -> dict:
        """The recorded spans as arrays, times in nanoseconds."""
        return {"layer": np.frombuffer(self.layer, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64)}


class TracedAction(cfrk.GroupAction):
    """GroupAction proxy that records a span around every call it forwards.

    The wrapped methods are set per instance in __init__ and shadow the
    class attributes below, which exist only to fill the abstract contract.
    """

    _LAYER_OF = {"algebra_zero": "actions.algebra",
                 "algebra_axpy": "actions.algebra",
                 "exp": "actions.exp",
                 "act": "actions.act",
                 "infinitesimal": "actions.metric",
                 "ambient_norm": "actions.metric",
                 "ambient_distance": "actions.metric"}
    algebra_zero = exp = act = infinitesimal = None

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        for method, layer in self._LAYER_OF.items():
            setattr(self, method, tracer.wrap(layer, getattr(inner, method)))


def layer_totals(spans: dict) -> dict:
    """Per layer: span count, self time and inclusive time (ns); plus the
    number of f calls made from inside the stepper."""
    lay, parent = spans["layer"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    n = len(LAYERS)
    calls = np.bincount(lay, minlength=n)
    self_ns = np.bincount(lay, weights=dur - covered, minlength=n)
    incl_ns = np.bincount(lay, weights=dur, minlength=n)
    f_spans = lay == _CODE["problems.f"]
    f_in_step = int(np.count_nonzero(
        lay[parent[f_spans & has_parent]] == _CODE["stepper"]))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(LAYERS)},
        "self_ns": {name: float(self_ns[i]) for i, name in enumerate(LAYERS)},
        "incl_ns": {name: float(incl_ns[i]) for i, name in enumerate(LAYERS)},
        "f_in_stepper": f_in_step,
    }
