"""Single-step semantics: row application order, FSAL carry, declared
row reuse, static versus dynamic cost accounting, and the compiled step
kernel against an interpreter of the tableau's rows.  A step with reuse off
is a step of the tableau with no reuse map (see unshared)."""

import ast
import dataclasses
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cfrk.stepper
from cfrk.actions import DomainError, So3SphereAction, so3_exp
from cfrk.catalog import catalog, get_tableau
from cfrk.controller import IntegrationError, integrate_fixed
from cfrk.problems import heavy_top, rigid_body, van_der_pol
from cfrk.stepper import (FieldLengthError, cf_step, count_budget, row_sum,
                          step_kernel)
from cfrk.tableaux import CFTableau, reuse_groups, tableau_from_json

SPHERE = So3SphereAction()
PROBLEMS = [rigid_body, heavy_top, van_der_pol]


def step_rows(tableau, with_embedded):
    """The nonzero rows of one step, read off the tableau and its reuse
    groups: stages[r-2] holds stage r's rows and y and yhat the updates',
    yhat empty when the step skips it, each as (terms, slot, reused) with
    terms the (k, coeff) pairs.  Slots are numbered in order of first use,
    one per reuse group; a row whose group already has one reuses it.
    n_exp counts the slots."""
    embedded = with_embedded and tableau.has_embedded
    group_of = {key: frozenset(group)
                for group in reuse_groups(tableau, embedded) for key in group}
    sequences = [[(("stage", r, j), row) for j, row in enumerate(stage)]
                 for r, stage in enumerate(tableau.alpha, 2)]
    sequences.append([(("y", j), row) for j, row in enumerate(tableau.beta)])
    sequences.append([(("yhat", j), row) for j, row in
                      enumerate(tableau.beta_hat if embedded else ())])
    slots = {}
    steps = []
    for sequence in sequences:
        rows = []
        for key, row in sequence:
            terms = tuple((k, float(c)) for k, c in enumerate(row) if c != 0)
            if terms:
                group = group_of.get(key, key)
                reused = group in slots
                rows.append((terms, slots.setdefault(group, len(slots)),
                             reused))
        steps.append(tuple(rows))
    return SimpleNamespace(stages=tuple(steps[:-2]), y=steps[-2],
                           yhat=steps[-1], n_exp=len(slots),
                           fsal=embedded and tableau.fsal)


def reference_step(tableau, action, f, y, h, carried_f=None, *,
                   with_embedded=True):
    """cf_step as an interpreter of step_rows: the rows of each stage and
    update are walked one by one, each row sum built as a list per term,
    and f called on each point as a list."""
    h = float(h)
    step = step_rows(tableau, with_embedded)
    exp, act = action.exp, action.act
    slots = [None] * step.n_exp
    n_exp = 0
    n_feval = 0

    base = np.asarray(y, float).ravel().tolist()
    if carried_f is None:
        carried_f = f(base)
        n_feval += 1
    fvals = [carried_f]

    def apply_rows(rows):
        nonlocal n_exp
        point = base
        for terms, slot, reused in rows:
            if reused:
                g = slots[slot]
            else:
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
        return point

    for rows in step.stages:
        fvals.append(f(apply_rows(rows)))
        n_feval += 1

    y1 = apply_rows(step.y)

    yhat1 = None
    f_last = None
    if with_embedded and tableau.has_embedded:
        if tableau.fsal:
            f_last = f(y1)
            n_feval += 1
            fvals.append(f_last)
        yhat1 = np.array(apply_rows(step.yhat))

    return SimpleNamespace(y1=np.array(y1), yhat1=yhat1, f_last=f_last,
                           n_exp=n_exp, n_feval=n_feval)


def bits(v):
    """The bytes of v's float entries: a bitwise fingerprint of a list or
    an array."""
    return np.asarray(v, float).tobytes()


def fresh(name):
    """A new copy of a catalog tableau, with no kernel compiled yet."""
    return tableau_from_json(get_tableau(name).to_json())


def unshared(tableau):
    """tableau with no reuse map: every row computes its own exponential."""
    return dataclasses.replace(tableau, reuse_map=())


def with_reuse(name, reuse):
    """The catalog tableau, or its unshared copy when reuse is off."""
    t = get_tableau(name)
    return t if reuse else unshared(t)


def sphere_setup():
    prob = rigid_body()
    return prob.action, prob.f, prob.default_y0


def test_step_rejects_zero_h():
    # and a NaN or infinite h, which would step to a NaN point
    _, f, y0 = sphere_setup()
    for h in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonzero"):
            cf_step(get_tableau("cf4"), SPHERE, f, y0, h)


def test_lie_euler_step():
    t = CFTableau(name="euler", s=1, alpha=(), beta=((1.0,),),
                  beta_hat=(), order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.05
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, so3_exp(h * np.array(f(y0))) @ y0, atol=0)
    assert (res.n_exp, res.n_feval) == (1, 1)
    assert res.yhat1 is None and res.f_last is None
    assert abs(np.linalg.norm(res.y1) - 1.0) < 1e-15


def test_zero_rows_cost_nothing():
    # a zero stage row contributes the identity and is skipped outright
    t = CFTableau(name="skip", s=2, alpha=(((0.0, 0.0),),),
                  beta=((0.0, 0.0), (1.0, 0.0)), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.05
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, so3_exp(h * np.array(f(y0))) @ y0, atol=0)
    assert res.n_exp == 1  # only the single nonzero update row
    assert res.n_feval == 2  # f at y0 and at the (unmoved) stage-2 point


def test_cf4_step_matches_hand_composition():
    t = get_tableau("cf4")
    _, f, y0 = sphere_setup()
    h = 0.02

    f1 = np.array(f(y0))
    g_half = so3_exp(h * 0.5 * f1)
    y2 = g_half @ y0
    f2 = np.array(f(y2))
    y3 = so3_exp(h * 0.5 * f2) @ y0
    f3 = np.array(f(y3))
    # stage 4 applies its first row (shared with stage 2) and then the
    # second row, innermost first
    y4 = so3_exp(h * (-0.5 * f1 + f3)) @ (g_half @ y0)
    f4 = np.array(f(y4))
    b1 = h * (f1 / 4 + f2 / 6 + f3 / 6 - f4 / 12)
    b2 = h * (-f1 / 12 + f2 / 6 + f3 / 6 + f4 / 4)
    expected = so3_exp(b2) @ (so3_exp(b1) @ y0)

    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, expected, atol=1e-16)
    assert (res.n_exp, res.n_feval) == (5, 4)


def test_update_rows_apply_first_row_innermost():
    # asymmetric two-row update distinguishes the application order
    t = CFTableau(name="order-probe", s=2, alpha=(((0.5, 0.0),),),
                  beta=((0.3, 0.1), (0.2, 0.4)), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    h = 0.1
    f1 = np.array(f(y0))
    f2 = np.array(f(so3_exp(h * 0.5 * f1) @ y0))
    inner = so3_exp(h * (0.3 * f1 + 0.1 * f2))
    outer = so3_exp(h * (0.2 * f1 + 0.4 * f2))
    res = cf_step(t, SPHERE, f, y0, h)
    assert_allclose(res.y1, outer @ (inner @ y0), atol=0)
    wrong = inner @ (outer @ y0)
    assert np.max(np.abs(res.y1 - wrong)) > 1e-6


def test_fsal_carry_equivalence():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    h = 0.05
    fresh = cf_step(t, SPHERE, f, y0, h)
    carried = cf_step(t, SPHERE, f, y0, h, carried_f=f(y0))
    assert np.array_equal(fresh.y1, carried.y1)
    assert np.array_equal(fresh.yhat1, carried.yhat1)
    assert carried.n_feval == fresh.n_feval - 1
    assert carried.n_exp == fresh.n_exp


def test_fsal_returns_f_at_accepted_point():
    t = get_tableau("cf43")
    _, f, y0 = sphere_setup()
    res = cf_step(t, SPHERE, f, y0, 0.05)
    assert np.array_equal(res.f_last, f(res.y1))


def test_fsal_chain_matches_fresh_evaluations():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    h = 0.04
    r1 = cf_step(t, SPHERE, f, y0, h)
    chained = cf_step(t, SPHERE, f, r1.y1, h, carried_f=r1.f_last)
    fresh = cf_step(t, SPHERE, f, r1.y1, h)
    assert np.array_equal(chained.y1, fresh.y1)


def test_skipping_embedded_rows():
    t = get_tableau("cf32a")
    _, f, y0 = sphere_setup()
    res = cf_step(t, SPHERE, f, y0, 0.05, carried_f=f(y0),
                  with_embedded=False)
    assert res.yhat1 is None and res.f_last is None
    # rows: stage 2, stage 3, two principal rows; one of them reuses the
    # stage-3 exponential
    assert res.n_exp == 3
    assert res.n_feval == 2


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_static_budget_matches_dynamic_counts(name):
    t = get_tableau(name)
    prob = heavy_top()
    y0 = prob.default_y0
    carried = prob.f(y0) if t.fsal else None
    res = cf_step(t, prob.action, prob.f, y0, 0.01, carried_f=carried)
    assert (res.n_exp, res.n_feval) == count_budget(t)


@pytest.mark.parametrize("name,extra", [
    ("cf32a", 1), ("cf32b", 1), ("cf43", 2), ("cf43_v2", 2),
    ("cf43_decimal", 2), ("cf43_4stage", 2), ("cf4", 1),
])
def test_disabling_reuse_only_changes_counts(name, extra):
    t = get_tableau(name)
    _, f, y0 = sphere_setup()
    h = 0.03
    carried = f(y0) if t.fsal else None
    on = cf_step(t, SPHERE, f, y0, h, carried_f=carried)
    off = cf_step(unshared(t), SPHERE, f, y0, h, carried_f=carried)
    # identical rows produce bitwise-identical exponentials, so disabling
    # the cache cannot change any output
    assert np.array_equal(on.y1, off.y1)
    if t.has_embedded:
        assert np.array_equal(on.yhat1, off.yhat1)
    assert off.n_exp == on.n_exp + extra
    assert off.n_feval == on.n_feval


def test_known_budgets():
    assert count_budget(get_tableau("cf4")) == (5, 4)
    assert count_budget(get_tableau("cf32a")) == (4, 3)
    assert count_budget(get_tableau("cf32b")) == (4, 3)
    assert count_budget(get_tableau("cf43")) == (6, 4)
    assert count_budget(get_tableau("cf43_4stage")) == (6, 4)


def test_undeclared_equal_rows_are_not_coalesced():
    # the stage row and both update rows are equal; only declared reuse
    # shares an exponential
    rows = dict(name="equal-rows", s=2, alpha=(((0.5, 0.0),),),
                beta=((0.5, 0.0), (0.5, 0.0)), beta_hat=(),
                order_p=1, order_phat=0, fsal=False)
    _, f, y0 = sphere_setup()
    plain = cf_step(CFTableau(**rows), SPHERE, f, y0, 0.05)
    assert plain.n_exp == 3
    shared = cf_step(CFTableau(**rows, reuse_map=(
        (("stage", 2, 0), ("y", 0)), (("y", 0), ("y", 1)))),
        SPHERE, f, y0, 0.05)
    assert shared.n_exp == 1
    assert np.array_equal(shared.y1, plain.y1)


def test_heavy_top_step_preserves_casimirs():
    prob = heavy_top()
    y0 = prob.default_y0
    before = prob.invariants(y0)
    res = cf_step(get_tableau("cf4"), prob.action, prob.f, y0, 0.01)
    after = prob.invariants(res.y1)
    assert abs(after["beta2"] - before["beta2"]) < 1e-13
    assert abs(after["mubeta"] - before["mubeta"]) < 1e-13


@pytest.mark.parametrize("build", [rigid_body, heavy_top, van_der_pol],
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", ["cf4", "cf43"])
def test_row_sums_match_numpy_bitwise(build, name):
    # exp receives, as a flat list, the bits of the numpy row sum
    # (h*c0)*f_k0 + (h*c1)*f_k1 + ... over the row's nonzero terms, with
    # each f value as an array
    prob = build()
    t = get_tableau(name)
    fs, vs = [], []

    def f(y):
        fs.append(prob.f(y))
        return fs[-1]

    class Recording(type(prob.action)):
        def exp(self, v):
            vs.append(v)
            return super().exp(v)

    h = 0.01
    cf_step(t, Recording(), f, prob.default_y0, h)
    step = step_rows(t, with_embedded=True)
    rows = [terms for rows in (*step.stages, step.y, step.yhat)
            for terms, _, reused in rows if not reused]
    assert len(vs) == len(rows)
    for terms, v in zip(rows, vs):
        k, c = terms[0]
        ref = (h * c) * np.array(fs[k])
        for k, c in terms[1:]:
            ref = ref + (h * c) * np.array(fs[k])
        assert bits(v) == bits(ref)


@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "noreuse"])
@pytest.mark.parametrize("with_embedded", [True, False],
                         ids=["embedded", "principal"])
@pytest.mark.parametrize("build", PROBLEMS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_kernel_matches_plan_interpreter_bitwise(name, build, with_embedded,
                                                 reuse, carried):
    t = with_reuse(name, reuse)
    prob = build()
    y0 = prob.default_y0
    carried_f = prob.f(y0) if carried else None
    opts = dict(with_embedded=with_embedded)
    got = cf_step(t, prob.action, prob.f, y0, 0.01, carried_f, **opts)
    ref = reference_step(t, prob.action, prob.f, y0, 0.01, carried_f, **opts)
    for field in ("y1", "yhat1", "f_last"):
        a, b = getattr(got, field), getattr(ref, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert bits(a) == bits(b), field
    assert (got.n_exp, got.n_feval) == (ref.n_exp, ref.n_feval)


@pytest.mark.parametrize("build", PROBLEMS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_list_input_and_list_output_match_the_arrays(name, build):
    # the drivers pass the state as a list of floats and the FSAL value as
    # the list f returned
    t = get_tableau(name)
    prob = build()
    y0 = prob.default_y0
    arrays = cf_step(t, prob.action, prob.f, y0, 0.01, prob.f(y0))
    lists = cf_step(t, prob.action, prob.f, y0.tolist(), 0.01,
                    prob.f(y0.tolist()))
    fresh = cf_step(t, prob.action, prob.f, y0.tolist(), 0.01)
    for res in (arrays, lists, fresh):
        assert res.y1.tobytes() == arrays.y1.tobytes()
        assert res.y1_list == res.y1.tolist()
        if t.has_embedded:
            assert res.yhat1_list == res.yhat1.tolist()
            assert res.yhat1.tobytes() == arrays.yhat1.tobytes()
        else:
            assert res.yhat1_list is None and res.yhat1 is None
        if t.fsal:
            assert type(res.f_last) is list
            assert bits(res.f_last) == bits(arrays.f_last)
        else:
            assert res.f_last is None
    assert fresh.n_feval == lists.n_feval + 1


@pytest.mark.parametrize("build", PROBLEMS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", [t.name for t in catalog() if t.has_embedded])
def test_f_is_called_on_lists_only(name, build):
    # y0 as an array and no carried f: cf_step converts y once, and every
    # f call, f(y) and f(y1) included, gets a list
    t = get_tableau(name)
    prob = build()
    received = []

    def f(y):
        received.append(type(y))
        return prob.f(y)
    res = cf_step(t, prob.action, f, prob.default_y0, 0.01)
    assert received == [list] * res.n_feval
    assert res.n_feval == t.s + t.fsal


def calling(action, seen=None):
    """An action whose exp and act override action's with a call to
    super(), so both drivers run their calling loops, which step it
    through cf_step; seen, if given, collects every exp input."""
    class Calling(type(action)):
        def exp(self, v):
            if seen is not None:
                seen.append(v)
            return super().exp(v)

        def act(self, g, p):
            return super().act(g, p)
    return Calling()


def test_kernel_is_compiled_once_per_plan_length_and_reuse(monkeypatch):
    # keyed (length, embedded flag): every action, a built-in geometry's,
    # a subclass overriding exp and act or an instance attribute wrapping
    # exp, steps with the one kernel, which calls the exp and act it is
    # handed
    compiled = []
    lines = cfrk.stepper.kernel_lines

    def counting(tableau, n, embedded, inline):
        compiled.append((tableau.name, n, embedded, inline))
        return lines(tableau, n, embedded, inline)
    monkeypatch.setattr(cfrk.stepper, "kernel_lines", counting)
    t = fresh("cf43")
    assert t._kernels == {}
    _, f, y0 = sphere_setup()
    first = cf_step(t, SPHERE, f, y0, 0.05)
    second = cf_step(t, SPHERE, f, first.y1, 0.05, carried_f=first.f_last)
    assert compiled == [("cf43", 3, True, False)]
    assert second.n_exp == first.n_exp
    off = unshared(t)
    assert off._kernels == {}
    cf_step(off, SPHERE, f, y0, 0.05)
    cf_step(t, SPHERE, f, y0, 0.05, with_embedded=False)
    prob = heavy_top()
    cf_step(t, prob.action, prob.f, prob.default_y0, 0.05)
    # an instance attribute wrapping exp, as the benchmark's tracer sets
    wrapped = So3SphereAction()
    wrapped.exp = lambda v: SPHERE.exp(v)
    for action in (calling(SPHERE), wrapped):
        cf_step(t, action, f, y0, 0.05)
    assert compiled == [("cf43", 3, True, False), ("cf43", 3, True, False),
                        ("cf43", 3, False, False), ("cf43", 6, True, False)]
    assert step_kernel(t, 3, True) is t._kernels[(3, True)]
    assert sorted(t._kernels) == [(3, False), (3, True), (6, True)]
    # a tableau without embedded rows compiles one kernel per length,
    # whichever flag steps it first
    for first in (True, False):
        compiled.clear()
        t = fresh("cf4")
        for action in (SPHERE, calling(SPHERE)):
            a = cf_step(t, action, f, y0, 0.05, with_embedded=first)
            b = cf_step(t, action, f, y0, 0.05, with_embedded=not first)
            assert bits(a.y1) == bits(b.y1)
            assert (a.n_exp, a.n_feval) == (b.n_exp, b.n_feval)
        assert compiled == [("cf4", 3, False, False)]
        assert step_kernel(t, 3, True) is step_kernel(t, 3, False)
        assert len(t._kernels) == 2


def _so3_branch(v):
    t2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    return ("series" if t2 < 1e-8 else "closed" if t2 < np.inf
            else "non-finite")


def _gl2_branch(v):
    a, b, c, d = v
    mu = 0.5 * (a + d)
    D = mu * mu - (a * d - b * c)
    if abs(D) < 1e-6:
        return "series"
    if D > 0.0:
        s = np.sqrt(D)
        return "rearranged" if s > 30.0 or mu + s > 700.0 else "hyperbolic"
    return "elliptic" if D > -np.inf else "non-finite"


# per geometry: its problem, the branch of an exp input, and per branch
# of its exp block (h, V) with the field f(y) = V * (1 + y_0 / 100),
# scaled to reach that branch
BRANCH_CASES = [
    (rigid_body, _so3_branch, {
        "series": (1e-6, [0.3, -0.5, 0.8]),
        "closed": (1.0, [0.3, -0.5, 0.8]),
        "non-finite": (1.0, [1e200, 0.5, 0.0])}),
    (heavy_top, _so3_branch, {
        "series": (1e-6, [0.3, -0.5, 0.8, 0.1, 0.2, -0.3]),
        "closed": (1.0, [0.3, -0.5, 0.8, 0.1, 0.2, -0.3]),
        "non-finite": (1.0, [0.3, np.nan, 0.8, 0.1, 0.2, -0.3])}),
    (van_der_pol, _gl2_branch, {
        "series": (0.1, [0.0, 1.0, 0.0, 0.0]),
        "hyperbolic": (0.5, [1.0, 0.5, 0.2, -1.0]),
        "rearranged": (1.0, [80.0, 0.0, 0.0, -80.0]),
        "elliptic": (0.5, [0.0, 1.0, -1.0, 0.0]),
        "non-finite": (0.5, [np.nan, 1.0, -1.0, 0.0])}),
]


def one_step(tableau, prob, h, advance_embedded):
    """One fixed step of size h from prob.default_y0: the error type and
    message (None on success), the record's bytes, the times' bytes and
    the totals."""
    try:
        traj = integrate_fixed(tableau, prob, prob.default_y0, 0.0, h, 1,
                               advance_embedded=advance_embedded)
        error = None
    except IntegrationError as exc:
        traj, error = exc.trajectory, (type(exc), str(exc))
    return error, traj.record.tobytes(), bits(traj.times), traj.totals


@pytest.mark.parametrize("build,branch,cases", [
    pytest.param(*case, id=case[0].__name__) for case in BRANCH_CASES])
def test_inline_and_calling_kernels_agree_bitwise(build, branch, cases):
    # one fixed step of every catalog tableau, reuse setting and followed
    # solution, on inputs that reach every branch of the geometry's exp
    # block: the built-in action runs its blocks inline in the fixed-step
    # loop, a subclass overriding exp and act calls them through cf_step
    prob = build()
    n = len(next(iter(cases.values()))[1])
    seen = []
    other = dataclasses.replace(prob, action=calling(prob.action, seen))
    for t in catalog():
        for tableau in (t, unshared(t)):
            for advance_embedded in {False, t.has_embedded}:
                for h, V in cases.values():
                    def f(y):
                        return [v * (1.0 + y[0] / 100.0) for v in V]
                    got, ref = (one_step(tableau, dataclasses.replace(p, f=f),
                                         h, advance_embedded)
                                for p in (prob, other))
                    assert got == ref
                inline = tableau._kernels["loop", n, None,
                                          advance_embedded].source
                called = {node.func.id for node in ast.walk(ast.parse(inline))
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)}
                assert not called & {"exp", "act", "cf_step"}
                assert "cf_step(" in tableau._kernels[
                    "loop", None, None, advance_embedded].source
    assert {branch(v) for v in seen} == set(cases)


def literal_values(source):
    """The numeric literals of source, a leading minus included, with
    their text; fails on any other kind of constant."""
    tree = ast.parse(source)
    found = []
    negated = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)):
            negated.add(id(node.operand))
            found.append((-node.operand.value,
                          ast.get_source_segment(source, node)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and id(node) not in negated:
            assert node.value is None or type(node.value) in (int, float), \
                node.value
            found.append((node.value, ast.get_source_segment(source, node)))
    return found


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_kernel_literals_round_trip_to_plan_coefficients(name, reuse):
    t = with_reuse(name, reuse)
    for with_embedded in (True, False):
        step = step_rows(t, with_embedded)
        coeffs = {c for rows in (*step.stages, step.y, step.yhat)
                  for terms, _, _ in rows for _, c in terms}
        source = step_kernel(t, 3, with_embedded).source
        floats = [(v, text) for v, text in literal_values(source)
                  if type(v) is float]
        assert floats
        for value, text in floats:
            assert value in coeffs
            assert float(text) == value and repr(value) == text


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_kernel_counts_are_the_plan_slots(name):
    t = get_tableau(name)
    for with_embedded in (True, False):
        step = step_rows(t, with_embedded)
        kernel = step_kernel(t, 3, with_embedded)
        assert kernel.n_exp == step.n_exp
        assert kernel.n_feval == t.s - 1 + step.fsal
        assert kernel.source.count("exp(") == kernel.n_exp
        assert kernel.source.count(" f(") == kernel.n_feval


def slot_prefixes(step):
    """The distinct sequences of slots that the step's rows apply to the
    base point, each row sequence contributing each of its prefixes."""
    return {tuple(slot for _, slot, _ in rows[:i])
            for rows in (*step.stages, step.y, step.yhat)
            for i in range(1, len(rows) + 1)}


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "noreuse"])
@pytest.mark.parametrize("with_embedded", [True, False],
                         ids=["embedded", "principal"])
@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_each_point_is_formed_once(name, with_embedded, reuse):
    # a row sequence whose prefix an earlier one formed starts from that
    # point: one act per distinct prefix; with no reuse map every row has
    # its own slot, so one per row
    t = with_reuse(name, reuse)
    prob = rigid_body()
    calls = []

    class Counting(So3SphereAction):
        def exp(self, v):
            calls.append("exp")
            return super().exp(v)

        def act(self, g, p):
            calls.append("act")
            return super().act(g, p)

    def f(y):
        calls.append("f")
        return prob.f(y)
    res = cf_step(t, Counting(), f, prob.default_y0, 0.01,
                  with_embedded=with_embedded)
    step = step_rows(t, with_embedded)
    n_rows = sum(len(rows) for rows in (*step.stages, step.y, step.yhat))
    n_act = len(slot_prefixes(step))
    assert calls.count("act") == n_act
    assert calls.count("exp") == res.n_exp == step.n_exp
    assert calls.count("f") == res.n_feval == t.s + step.fsal
    if not reuse:
        assert n_act == step.n_exp == n_rows
    if name == "cf43" and with_embedded and reuse:
        assert (n_act, n_rows, step.n_exp) == (7, 8, 6)


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_kernel_returns_lists_and_step_result_makes_the_arrays(name):
    t = get_tableau(name)
    prob = heavy_top()
    for with_embedded in (True, False):
        for tableau in (t, unshared(t)):
            kernel = step_kernel(tableau, 6, with_embedded)
            assert "array(" not in kernel.source
        res = cf_step(t, prob.action, prob.f, prob.default_y0.tolist(), 0.01,
                      with_embedded=with_embedded)
        assert type(res.y1_list) is list
        assert type(res.y1) is np.ndarray
        assert res.y1.tobytes() == np.array(res.y1_list).tobytes()
        assert res.y1 is not res.y1  # made on each read
        if res.yhat1_list is not None:
            assert type(res.yhat1_list) is list
            assert res.yhat1.tobytes() == np.array(res.yhat1_list).tobytes()


def changing_length(prob, first_wrong, n_entries, events):
    """prob with f returning n_entries entries from call first_wrong on."""
    calls = []

    def f(y):
        calls.append(None)
        events.append("f")
        out = prob.f(y)
        if len(calls) >= first_wrong:
            out = (out + out)[:n_entries]
        return out

    class Recording(type(prob.action)):
        def exp(self, v):
            events.append("exp")
            return super().exp(v)
    return dataclasses.replace(prob, f=f, action=Recording())


@pytest.mark.parametrize("n_entries", [4, 2])
@pytest.mark.parametrize("first_wrong", [2, 3, 4, 5])
def test_f_changing_length_within_a_step_is_an_error(first_wrong, n_entries):
    # cf43 calls f at y, at stages 2..4 and at y1 (FSAL): calls 1..5
    events = []
    prob = changing_length(rigid_body(), first_wrong, n_entries, events)
    with pytest.raises(ValueError, match=f"f returned {n_entries} entries "
                       "within the step, expected 3") as info:
        cf_step(get_tableau("cf43"), prob.action, prob.f, prob.default_y0,
                0.05)
    assert type(info.value) is FieldLengthError
    # no exponential after the f call that changed length
    assert events[-1] == "f" and events.count("f") == first_wrong


def test_domain_error_from_f_passes_through_the_kernel():
    prob = rigid_body()
    failure = DomainError("left the sphere")
    calls = []

    def f(y):
        calls.append(None)
        if len(calls) == 3:
            raise failure
        return prob.f(y)
    with pytest.raises(DomainError) as info:
        cf_step(get_tableau("cf43"), prob.action, f, prob.default_y0, 0.05)
    assert info.value is failure


@pytest.mark.parametrize("coeff", [float("nan"), float("inf")])
def test_kernel_takes_only_finite_float_coefficients(coeff):
    # the tableau rejects a non-finite row, so the row is swapped in after
    t = CFTableau(name="euler", s=1, alpha=(), beta=((1.0,),),
                  beta_hat=(), order_p=1, order_phat=0, fsal=False)
    object.__setattr__(t, "beta", (np.array([coeff]),))
    with pytest.raises(ValueError, match="not a finite float"):
        step_kernel(t, 3, True)


def test_folded_row_sums_keep_every_bit():
    # row_sum writes a row's entry over a run-constant value from the
    # constant: for 1.0, -1.0, 0.0 and another literal it has the bits of
    # the unfolded sum x_0 * v + x_1 * v + ..., x_j = h * c_j, for h from
    # the smallest subnormal to the largest float, of either sign and
    # infinite: signed zeros, underflow, overflow to inf and the NaN of
    # inf * 0.0 or inf - inf included; and so does a 1.0 or -1.0 entry
    # written from its twin, the entry over the opposite constant
    rng = np.random.default_rng(28)
    rows = [rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 0.7, k)
            for k in rng.integers(1, 6, 150)]
    rows += [np.full(k, c) for k in (1, 2, 4) for c in (-0.5, 2.0)]
    rows += [np.array([2.0, -2.0]), np.array([-4.78, 1.0, 4.78]),
             np.array([1e-300, -3.0])]
    hs = [5e-324, 1e-320, 1e-310, 1e-300, 1e-8, 0.1, 1.0, 1e300, 3.7e307,
          1.7e308, math.inf, *rng.uniform(0.0, 2.0, 10).tolist()]
    hs += [-h for h in hs]
    seen = set()
    for row in rows:
        xs = [f"x{j}" for j in range(len(row))]
        terms = [(x, c, "v") for x, c in zip(xs, row.tolist())]
        unfolded = eval(f"lambda {', '.join(xs)}, v: {row_sum(terms)}")
        for constant in ("1.0", "-1.0", "0.0", "2.5"):
            folded = eval(f"lambda {', '.join(xs)}: "
                          f"{row_sum(terms, constant)}")
            opposite = {"1.0": "-1.0", "-1.0": "1.0"}.get(constant)
            if opposite:  # the entry over it, and this one written from it
                twin = eval(f"lambda {', '.join(xs)}: "
                            f"{row_sum(terms, opposite)}")
                from_twin = eval(f"lambda t: {row_sum(terms, constant, 't')}")
            for h in hs:
                x = [h * c for c in row.tolist()]
                want = unfolded(*x, float(constant))
                assert struct.pack("<d", folded(*x)) == struct.pack(
                    "<d", want), (row, constant, h)
                if opposite:
                    assert struct.pack("<d", from_twin(twin(*x))) == \
                        struct.pack("<d", want), (row, constant, h)
                seen.add("nan" if math.isnan(want)
                         else math.copysign(1.0, want) if want == 0.0
                         else "inf" if math.isinf(want) else "finite")
    assert seen == {"nan", 1.0, -1.0, "inf", "finite"}
    # no multiply by 1.0; any other constant keeps the products
    terms = [("x0", 0.5, "f0_1"), ("x1", -2.0, "f1_1"), ("x2", 1.0, "f2_1")]
    assert [row_sum(terms, c) for c in ("1.0", "-1.0", "0.0", "2.5")] == [
        "x0 + x1 + x2", "x0 * -1.0 + x1 * -1.0 + x2 * -1.0",
        "x0 * 0.0 + x1 * 0.0 + x2 * 0.0",
        "x0 * 2.5 + x1 * 2.5 + x2 * 2.5"]
    assert row_sum(terms) == "x0 * f0_1 + x1 * f1_1 + x2 * f2_1"
    assert [row_sum(terms, "-1.0", "a_1"), row_sum(terms[:1], "1.0", "a_2")
            ] == ["0.0 - a_1", "-a_2"]
    assert row_sum(terms[1:2], "0.0") == "x1 * 0.0"
