"""One step of a commutator-free method over a group action.

A step composes exponentials of "frozen" algebra elements: each tableau row
contributes exp(h * sum_k row[k] * f_k), applied to the base point with row
1 innermost (first).  Row reuse is resolved once per tableau: the step
runs the tableau's StepPlan, in which zero rows are dropped and rows
declared identical in the reuse map share one exponential slot.  The step
also counts exponentials and f evaluations, since those dominate the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _combine(action, h: float, terms, fvals):
    """h * sum of coeff * f_k over a plan row's nonzero terms."""
    v = action.algebra_zero()
    for k, coeff in terms:
        v = action.algebra_axpy(h * coeff, fvals[k], v)
    return v


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
    plan = tableau.step_plan(with_embedded)
    slots = [None] * plan.n_exp
    n_exp = 0
    n_feval = 0

    if carried_f is None:
        carried_f = f(y)
        n_feval += 1
    fvals = [carried_f]

    def apply_rows(rows, point):
        nonlocal n_exp
        for terms, slot, reused in rows:
            if reused and use_reuse:
                g = slots[slot]
            else:
                g = action.exp(_combine(action, h, terms, fvals))
                n_exp += 1
                slots[slot] = g
            point = action.act(g, point)
        return point

    for rows in plan.stages:
        fvals.append(f(apply_rows(rows, y)))
        n_feval += 1

    y1 = apply_rows(plan.y, y)

    yhat1 = None
    f_last = None
    if with_embedded and tableau.has_embedded:
        # FSAL embedded rows have width s+1: the last column is f(y1)
        if tableau.fsal:
            f_last = f(y1)
            n_feval += 1
            fvals.append(f_last)
        yhat1 = apply_rows(plan.yhat, y)

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
