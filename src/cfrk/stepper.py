"""One step of a commutator-free method over a group action.

A step composes exponentials of "frozen" algebra elements: each tableau row
contributes exp(h * sum_k row[k] * f_k), applied to the base point with row
1 innermost (first).  Row reuse is resolved once per tableau: the step
runs the tableau's StepPlan, in which zero rows are dropped and rows
declared identical in the reuse map share one exponential slot.  The step
also counts exponentials and f evaluations, since those dominate the cost.

Inside a step everything is Python floats.  Each f value is flattened to a
list once; each row's algebra element is summed on those lists; exp and
act (called through the action, see actions.py) take and return lists.
numpy appears only at the edges: the point handed to f, and y1 and yhat1.
GroupAction.algebra_zero and algebra_axpy are not called here; they remain
only because the benchmark's tracing proxy forwards them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tableaux import CFTableau


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step.

    f_last is f evaluated at y1 when the tableau is FSAL and the embedded
    update ran; callers pass it back as carried_f on the next step.
    """
    y1: object
    yhat1: object
    f_last: object
    n_exp: int
    n_feval: int


def cf_step(tableau: CFTableau, action, f, y, h: float,
            carried_f=None, *, with_embedded: bool = True,
            use_reuse: bool = True) -> StepResult:
    """Advance one step of size h from the point y.

    carried_f, if given, must equal f(y) (the FSAL carry).  With
    with_embedded=False the embedded rows are skipped entirely: no yhat1,
    no f(y1) evaluation, and their exponentials are not counted.
    use_reuse=False computes every row's exponential, declared reuse
    included (for cost accounting experiments); results change only at
    roundoff level.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    h = float(h)
    plan = tableau.step_plan(with_embedded)
    exp, act = action.exp, action.act
    slots = [None] * plan.n_exp
    n_exp = 0
    n_feval = 0

    if carried_f is None:
        carried_f = f(y)
        n_feval += 1
    fvals = [carried_f.ravel().tolist()]
    base = np.asarray(y, float).ravel().tolist()

    def apply_rows(rows):
        nonlocal n_exp
        point = base
        for terms, slot, reused in rows:
            if reused and use_reuse:
                g = slots[slot]
            else:
                # h * sum of coeff * f_k over the row's nonzero terms (a
                # plan row has at least one), in numpy's order of operations
                k, coeff = terms[0]
                x = h * coeff
                v = [x * a for a in fvals[k]]
                for k, coeff in terms[1:]:
                    x = h * coeff
                    v = [s + x * a for s, a in zip(v, fvals[k])]
                g = exp(v)
                n_exp += 1
                slots[slot] = g
            point = act(g, point)
        return np.array(point)

    for rows in plan.stages:
        fvals.append(f(apply_rows(rows)).ravel().tolist())
        n_feval += 1

    y1 = apply_rows(plan.y)

    yhat1 = None
    f_last = None
    if with_embedded and tableau.has_embedded:
        # FSAL embedded rows have width s+1: the last column is f(y1)
        if tableau.fsal:
            f_last = f(y1)
            n_feval += 1
            fvals.append(f_last.ravel().tolist())
        yhat1 = apply_rows(plan.yhat)

    return StepResult(y1=y1, yhat1=yhat1, f_last=f_last,
                      n_exp=n_exp, n_feval=n_feval)


def count_budget(tableau: CFTableau):
    """Static (exp, feval) cost per step, assuming FSAL carry and all
    declared reuse hits; embedded rows are included when present.

    The exponentials are the slots of the step plan cf_step runs.  With the
    FSAL carry f(y) is free, but the embedded update then spends f(y1).
    """
    n_feval = tableau.s
    if tableau.fsal and not tableau.has_embedded:
        n_feval -= 1
    return tableau.step_plan(with_embedded=True).n_exp, n_feval
