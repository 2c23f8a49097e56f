"""One step of a commutator-free method over a group action.

A step composes exponentials of "frozen" algebra elements: each tableau row
contributes exp(h * sum_k row[k] * f_k), applied to the base point with row
1 innermost (first).

A step runs straight-line Python compiled from the tableau the first time
it is stepped with an algebra element of a given length, and cached on the
tableau: one kernel per length and embedded flag, one per length for a
tableau without embedded rows.  The generator walks the stage, update and
embedded rows in order, drops zero rows and gives each reuse group one
exponential slot, numbered by first use, so reuse is resolved when the
kernel is compiled, never per step.  Reuse off is a tableau with no reuse
map: every row gets its own slot.  Each point is formed once: a row
sequence whose prefix of slots an earlier one applied to the base point
starts from that point (cf43 makes 7 act calls per embedded step, not 8).
Each row sum is written out per component as x0*a0_i + x1*a1_i + ...
with x_j = h * c_j, numpy's order of operations for
(h*c0)*f0 + (h*c1)*f1 + ..., so it is bit-identical to the array
expression.  Only integer indices and the repr of finite Python floats
enter the source.  The kernel calls the exp, act and f it is handed, so a
wrapper around any of them sees every call; its n_exp and n_feval, the
exponentials and f evaluations in its source, are the step's cost and
count_budget's.

Everything inside the kernel is Python floats: f takes and returns flat
lists (see problems.py), as exp and act do (see actions.py).  The base
point and f(y) go in as lists, every f value is length-checked and
unpacked into local floats once, and y1, yhat1 and f(y1) come out as
lists; StepResult makes its y1 and yhat1 arrays only when they are read.
"""

from __future__ import annotations

import math

import numpy as np

from .tableaux import CFTableau, reuse_groups


class FieldLengthError(ValueError):
    """f returned a different number of entries within a step than at its
    start."""


class StepResult:
    """Outcome of one step.

    y1_list is the new point and yhat1_list the embedded solution, as flat
    lists of Python floats; yhat1_list is None when the step skipped the
    embedded rows.  y1 and yhat1 are the same points as arrays, made each
    time they are read.  f_last is the list f returned at y1 when the
    tableau is FSAL and the embedded update ran, else None; callers pass it
    back as carried_f on the next step.
    """

    __slots__ = ("y1_list", "yhat1_list", "f_last", "n_exp", "n_feval")

    def __init__(self, y1_list: list, yhat1_list, f_last,
                 n_exp: int, n_feval: int):
        self.y1_list = y1_list
        self.yhat1_list = yhat1_list
        self.f_last = f_last
        self.n_exp = n_exp
        self.n_feval = n_feval

    @property
    def y1(self):
        return np.array(self.y1_list)

    @property
    def yhat1(self):
        return None if self.yhat1_list is None else np.array(self.yhat1_list)


def cf_step(tableau: CFTableau, action, f, y, h: float,
            carried_f=None, *, with_embedded: bool = True) -> StepResult:
    """Advance one step of size h from the point y.

    y is a flat list of Python floats or a numpy array, which is converted
    once; f is called on lists only.  carried_f, if given, must equal f(y)
    (the FSAL carry), a flat list as f returns it.  With
    with_embedded=False the embedded rows are skipped entirely: no yhat1,
    no f(y1) evaluation, and their exponentials are not counted.  To
    compute every row's exponential, declared reuse included, step
    dataclasses.replace(tableau, reuse_map=()); the outputs keep their
    bits.  A FieldLengthError (a ValueError) is raised if f returns a
    different number of entries within the step than at its start.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    if type(y) is not list:
        y = np.asarray(y, float).ravel().tolist()
    n_feval = 0
    if carried_f is None:
        carried_f = f(y)
        n_feval = 1
    kernel = tableau._kernels.get((len(carried_f), with_embedded))
    if kernel is None:
        kernel = step_kernel(tableau, len(carried_f), with_embedded)
    return StepResult(*kernel(action.exp, action.act, f, y, float(h),
                              carried_f), kernel.n_exp,
                      n_feval + kernel.n_feval)


def count_budget(tableau: CFTableau):
    """Static (exp, feval) cost per step, assuming FSAL carry and all
    declared reuse hits; embedded rows are included when present.

    Both counts are the step kernel's; they do not depend on the algebra's
    length.  With the FSAL carry f(y) is free, but the embedded update then
    spends f(y1); without it the step evaluates f(y) itself.
    """
    kernel = step_kernel(tableau, 1, True)
    return kernel.n_exp, kernel.n_feval + (not tableau.fsal)


def step_kernel(tableau: CFTableau, n: int, with_embedded: bool):
    """The compiled step of tableau for algebra elements of n entries.

    kernel(exp, act, f, base, h, f0), with the base point y and f0 = f(y)
    as flat lists of floats, returns (y1, yhat1, f_last): y1 and yhat1 as
    lists and f_last = f(y1) as f returned it, with None where the step
    skips the embedded update or the tableau is not FSAL.
    kernel.n_exp and kernel.n_feval count the exponentials and the f
    evaluations after f0, and kernel.source is the generated code.  A
    tableau without embedded rows compiles one kernel, cached under both
    embedded flags.
    """
    kernel = tableau._kernels.get((n, with_embedded))
    if kernel is None:
        kernel = _compile(tableau, n, with_embedded and tableau.has_embedded)
        tableau._kernels[n, with_embedded] = kernel
        if not tableau.has_embedded:  # both flags run this step
            tableau._kernels[n, not with_embedded] = kernel
    return kernel


def _length_error(n: int, v: list) -> FieldLengthError:
    return FieldLengthError(f"f returned {len(v)} entries within the step, "
                            f"expected {n} as at its start")


def _compile(tableau: CFTableau, n: int, embedded: bool):
    fsal = embedded and tableau.fsal
    group_of = {key: i
                for i, group in enumerate(reuse_groups(tableau, embedded))
                for key in group}
    slots = {}  # reuse group (or the key of an unshared row) -> slot
    coeffs = {}  # coefficient -> local holding h * coefficient
    # the slots applied to the base point, in order -> the local holding
    # the point they form
    points = {}
    body = []
    n_feval = 0

    def unpack(k, values):
        # the list values into the locals f{k}_0 ... f{k}_{n-1}
        body.append(f"[{', '.join(f'f{k}_{i}' for i in range(n))}] = {values}")

    def listed(k, values, value):
        # the f value as the list values, checked for length n, unpacked
        body.append(f"{values} = {value}")
        body.append(f"if len({values}) != {n}: "
                    f"raise _length_error({n}, {values})")
        unpack(k, values)

    def apply_rows(kind, rows):
        # the nonzero rows, keyed (*kind, j), applied to the base point;
        # returns the new point's local
        point, prefix = "base", ()
        for j, row in enumerate(rows):
            terms = [(k, float(c)) for k, c in enumerate(row) if c != 0.0]
            if not terms:
                continue
            group = group_of.get((*kind, j), (*kind, j))
            slot = slots.get(group)
            if slot is None:
                slot = slots[group] = len(slots)
                for _, c in terms:
                    if not math.isfinite(c):
                        raise ValueError(f"tableau coefficient {c!r} is not "
                                         f"a finite float")
                    coeffs.setdefault(c, f"x{len(coeffs)}")
                entries = (" + ".join(f"{coeffs[c]} * f{k}_{i}"
                                      for k, c in terms) for i in range(n))
                body.append(f"g{slot} = exp([{', '.join(entries)}])")
            prefix += (slot,)
            if prefix not in points:
                points[prefix] = f"p{len(points)}"
                body.append(f"{points[prefix]} = act(g{slot}, {point})")
            point = points[prefix]
        return point

    unpack(0, "f0")
    for r, rows in enumerate(tableau.alpha, 2):
        listed(r - 1, "v", f"f({apply_rows(('stage', r), rows)})")
        n_feval += 1
    y1 = apply_rows(("y",), tableau.beta)
    if fsal:
        listed(tableau.s, "f_last", f"f({y1})")
        n_feval += 1
    yhat1 = apply_rows(("yhat",), tableau.beta_hat) if embedded else "None"
    f_last = "f_last" if fsal else "None"
    body.append(f"return {y1}, {yhat1}, {f_last}")

    source = "\n    ".join([
        "def kernel(exp, act, f, base, h, f0):",
        *(f"{x} = h * {c!r}" for c, x in coeffs.items()),
        *body]) + "\n"
    namespace = {"_length_error": _length_error}
    exec(compile(source, f"<cf_step kernel n={n}>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source, kernel.n_exp, kernel.n_feval = source, len(slots), n_feval
    return kernel
