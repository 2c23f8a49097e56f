"""One step of a commutator-free method over a group action.

A step composes exponentials of "frozen" algebra elements: each tableau row
contributes exp(h * sum_k row[k] * f_k), applied to the base point with row
1 innermost (first).

A step runs straight-line Python compiled from the tableau the first time
it is stepped with an algebra element of a given length, and cached on the
tableau: one kernel per length and embedded flag, one per length for a
tableau without embedded rows.  The generator (kernel_lines) walks the
stage, update and embedded rows in order, drops zero rows and gives each
reuse group one exponential slot, numbered by first use, so reuse is
resolved when the kernel is compiled, never per step.  Reuse off is a
tableau with no reuse map: every row gets its own slot.  Each point is
formed once: a row sequence whose prefix of slots an earlier one applied
to the base point starts from that point (cf43 makes 7 acts per embedded
step, not 8, for its 6 exponentials and 4 f evaluations).
Each row sum is written out per component as x0*a0_i + x1*a1_i + ...
with x_j = h * c_j, numpy's order of operations for
(h*c0)*f0 + (h*c1)*f1 + ..., so it is bit-identical to the array
expression.  Only integer indices and the repr of finite Python floats
enter the source.  cf_step's kernel calls the exp and act it is handed,
so a wrapper (an override in a subclass, an instance attribute, a
recorder) sees every call; n_exp and n_feval, the exponentials and f
evaluations in the source, are the step's cost and count_budget's.  The
compiled loops (controller.py) run the same kernel_lines in their own
frame in a second form, chosen by inline_length, not by an option: when
the action's exp and act are a built-in geometry's float bodies
(actions.INLINE), its exp and act blocks run inline on float locals,
with a packaged field's block (field_body, inline_field) in place of f;
that form has the same slots, points and output bits, with the field's
run-constant results as constants of its source
(actions.Block.constants), and a 0.0 entry that the exponential reads in
its 0.0 form (actions.Block.zero) not formed.

Everything inside the kernel is Python floats, as numpy's per-call cost,
about 0.5-1 us an operation, would dominate on 2-, 3- and 6-entry arrays:
f takes and returns flat lists (see problems.py), as exp and act do (see
actions.py).  The base point and f(y) go in as lists, every f value is
length-checked and unpacked into local floats once, and y1, yhat1 and
f(y1) come out as lists; StepResult makes its y1 and yhat1 arrays only
when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import FunctionType

import numpy as np

from .actions import BLOCK_GLOBALS, INLINE, _body, compile_function
from .tableaux import CFTableau, reuse_groups


class FieldLengthError(ValueError):
    """f returned a different number of entries within a step than at its
    start, or at its start other than its action's algebra_length."""


def check_length(action, v) -> None:
    """FieldLengthError unless v, a value of f, has as many entries as the
    action's algebra_length; any length passes where it is None."""
    n = getattr(action, "algebra_length", None)
    if n is not None and len(v) != n:
        raise FieldLengthError(f"f returned {len(v)} entries, expected "
                               f"{n} for the action's algebra")


@dataclass(slots=True)
class StepResult:
    """Outcome of one step.

    y1_list is the new point and yhat1_list the embedded solution, as flat
    lists of Python floats; yhat1_list is None when the step skipped the
    embedded rows.  y1 and yhat1 are the same points as arrays, made each
    time they are read.  f_last is the list f returned at y1 when the
    tableau is FSAL and the embedded update ran, else None; callers pass it
    back as carried_f on the next step.
    """
    y1_list: list
    yhat1_list: list | None
    f_last: list | None
    n_exp: int
    n_feval: int

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
    different number of entries within the step than at its start, or at
    its start other than the action's algebra_length.
    """
    if h == 0.0 or h - h != 0.0:  # zero, NaN or infinite
        raise ValueError(f"step size must be finite and nonzero, got {h}")
    if type(y) is not list:
        y = np.asarray(y, float).ravel().tolist()
    fresh = carried_f is None  # f(y) is evaluated here and counted
    if fresh:
        carried_f = f(y)
    check_length(action, carried_f)
    kernel = step_kernel(tableau, len(carried_f), with_embedded)
    return StepResult(*kernel(action.exp, action.act, f, y, float(h),
                              carried_f),
                      kernel.n_exp, fresh + kernel.n_feval)


def inline_length(action):
    """The length n at which the compiled loops step action with the inline
    form: its algebra_length when its exp and act are INLINE[n]'s bodies,
    else None."""
    n = getattr(action, "algebra_length", None)
    geometry = INLINE.get(n)
    return (n if geometry and geometry[0] is action.exp
            and geometry[1] is action.act else None)


_FIELDS = {}  # the code of each body field_body compiled -> its Block


def field_body(block):
    """Compile block, over a point's names and then its parameters', once as
    a field body (actions._body), and return make(*params): the field f(y),
    the body with params as its argument defaults, so building a problem
    compiles nothing and a call runs one frame.  f takes a list as it is
    and converts anything else once, and returns its results as a list."""
    body = _body("f", block, y="_entries(y)")
    _FIELDS[body.__code__] = block
    return lambda *args: FunctionType(body.__code__, body.__globals__, "f",
                                      args)


def inline_field(f, n):
    """(block, params) when the inline form of length n runs f's Block in
    place of calls to f, with the parameter values params: f is made by
    field_body, with n entries.  Else (None, ())."""
    block = _FIELDS.get(getattr(f, "__code__", None))
    return ((block, f.__defaults__) if block and len(block.results) == n
            else (None, ()))


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
    skips the embedded update or the tableau is not FSAL.  It calls the
    exp and act it is handed.  kernel.n_exp and kernel.n_feval count the
    exponentials and the f evaluations after f0, and kernel.source is the
    generated code.  A tableau without embedded rows compiles one kernel,
    cached under both flags.
    """
    kernel = tableau._kernels.get((n, with_embedded))
    if kernel is None:
        embedded = with_embedded and tableau.has_embedded
        coefficients, lines, y1, yhat1, n_exp, n_feval, *_ = kernel_lines(
            tableau, n, embedded, False)
        kernel = compile_function(
            "kernel", "exp, act, f, base, h, f0",
            [f"{_list(_names('f0', n))} = f0", *coefficients, *lines],
            f"{y1}, {yhat1}, {'f_last' if embedded and tableau.fsal else None}",
            KERNEL_GLOBALS)
        kernel.n_exp, kernel.n_feval = n_exp, n_feval
        tableau._kernels[n, with_embedded] = kernel
        if not tableau.has_embedded:  # both flags run this step
            tableau._kernels[n, not with_embedded] = kernel
    return kernel


def _length_error(n: int, v: list) -> FieldLengthError:
    return FieldLengthError(f"f returned {len(v)} entries within the step, "
                            f"expected {n} as at its start")


# What kernel lines read besides their own locals.
KERNEL_GLOBALS = {"_length_error": _length_error, **BLOCK_GLOBALS}


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}_{i}" for i in range(count)]


def _list(point) -> str:
    """A list expression of point: the name of a list, or its entries."""
    return point if type(point) is str else f"[{', '.join(point)}]"


def kernel_lines(tableau: CFTableau, n: int, embedded: bool, inline: bool,
                 field=None):
    """The lines of a step from base (a list in the calling form, the
    locals base_0 ... in the inline form) and f0 = f(base) in f0_0 ...:
    the coefficient lines x_j = h * c_j, which read only h, and the rest;
    y1 and yhat1 (or None), as their list's local or their entries'
    locals alike; n_exp; n_feval; then, for a loop that steps from base
    again, base, the FRESH lines that put f(base) into f0 (in the inline
    form into f0_0 ..., a wrong-length value raising check_length's
    FieldLengthError; cf_step checks the calling form's list), and the
    FSAL carry, the moves (f0_i, f{s}_i) (s = tableau.s; the lists'
    (f0, f_last) in the calling form) that make f(y1) the next step's
    f0, or None for a step that does not form f(y1).  The calling form
    calls exp and act, the inline form runs INLINE[n]'s blocks and
    builds lists only as arguments of f.  With field, a field Block (see
    inline_field), the inline form runs it in place of every f call, on
    parameters in locals of their own names; its run-constant results
    (actions.Block.constants) are neither assigned nor carried, and an
    entry that is the constant 0.0 where the exponential declares a 0.0
    form for that input (actions.Block.zero) is not formed at all: the
    exponential runs that form, which reads it nowhere."""
    fsal = embedded and tableau.fsal
    group_of = {key: i
                for i, group in enumerate(reuse_groups(tableau, embedded))
                for key in group}
    slots = {}  # reuse group (or the key of an unshared row) -> slot
    coeffs = {}  # coefficient -> local holding h * coefficient (h for 1.0)
    constants = ([field.constants.get(r) for r in field.results] if field
                 else [None] * n)  # each entry's run-constant value, if any
    # each 1.0 or -1.0 entry -> an earlier entry over the opposite constant,
    # which sums the same terms (see row_sum)
    opposite = {"1.0": "-1.0", "-1.0": "1.0"}
    twins = {i: constants.index(opposite[c]) for i, c in enumerate(constants)
             if c in opposite and opposite[c] in constants[:i]}
    # the slots applied to the base point, in order -> the local holding
    # the point they form
    points = {}
    body = []
    n_feval = 0
    if inline:
        exp_block, act_block = INLINE[n][2:]
        # the entries of a group element and of a point
        n_g, n_p = (len(params) for params in act_block.params)
        # the inputs over 0.0 that exp reads in its 0.0 form: no row line
        zero = [p for p, c in zip(exp_block.params[0], constants)
                if c == "0.0" and p in exp_block.zero]

    def evaluate(k, point, values="v", error="raise _length_error({n}, {v})"):
        # f at point into the locals f{k}_0 ...: the field block, else a
        # call whose list values is checked for length n and unpacked
        if field is not None:
            return field.inline([_names(point, n_p), field.params[1]],
                                _names(f"f{k}", n))
        arg = _list(_names(point, n_p)) if inline else point
        return [f"{values} = f({arg})",
                f"if len({values}) != {n}: " + error.format(n=n, v=values),
                f"{_list(_names(f'f{k}', n))} = {values}"]

    def exp(slot, terms):
        # the element sum_k h c_k f_k of the row's terms (k, c_k), each
        # entry a row_sum, into slot
        sums = [[(coeffs[c], c, f"f{k}_{i}") for k, c in terms]
                for i in range(n)]
        if not inline:
            body.append(f"g{slot} = exp([{', '.join(map(row_sum, sums))}])")
        else:
            g = _names(f"g{slot}", n_g)
            # the entries, read at once: into the element's own locals
            # where exp passes them through, else into locals shared by all
            # slots
            args = (g[:n] if exp_block.results[:n] == exp_block.params[0]
                    else _names("a", n))
            body.extend(f"{a} = " + row_sum(sums[i], constants[i], args[
                twins[i]] if i in twins else None) for i, a in enumerate(args)
                if exp_block.params[0][i] not in zero)
            body.extend(exp_block.inline([args], g, zero))

    def act(slot, point, new):
        if not inline:
            body.append(f"{new} = act(g{slot}, {point})")
        else:
            body.extend(act_block.inline(
                [_names(f"g{slot}", n_g), _names(point, n_p)],
                _names(new, n_p)))

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
                    coeffs.setdefault(c, "h" if c == 1.0 else
                                      f"x{len(coeffs) - (1.0 in coeffs)}")
                exp(slot, terms)
            prefix += (slot,)
            if prefix not in points:
                points[prefix] = f"p{len(points)}"
                act(slot, point, points[prefix])
            point = points[prefix]
        return point

    for r, rows in enumerate(tableau.alpha, 2):
        body += evaluate(r - 1, apply_rows(("stage", r), rows))
        n_feval += 1
    y1 = apply_rows(("y",), tableau.beta)
    if fsal:
        body += evaluate(tableau.s, y1, "f_last")
        n_feval += 1
    yhat1 = apply_rows(("yhat",), tableau.beta_hat) if embedded else None
    # the calling form holds f(base) and f(y1) as the lists f0 and f_last
    base, fresh, carry = "base", ["f0 = f(base)"], [("f0", "f_last")]
    if inline:  # the locals of their entries
        base, y1 = _names(base, n_p), _names(y1, n_p)
        yhat1 = yhat1 and _names(yhat1, n_p)
        fresh = evaluate(0, "base", "f0", "check_length(action, {v})")
        carry = [(f"f0_{i}", f"f{tableau.s}_{i}") for i in range(n)
                 if constants[i] is None]
    # h * -1.0 is -h, for any h but NaN
    coefficients = [f"{x} = " + ("-h" if c == -1.0 else f"h * {c!r}")
                    for c, x in coeffs.items() if c != 1.0]
    return (coefficients, body, y1, yhat1, len(slots), n_feval, base, fresh,
            carry if fsal else None)


def row_sum(terms, constant=None, twin=None) -> str:
    """The source of one entry of a row's element, sum_j x_j * f_j in
    numpy's order of operations, for terms (x_j, c_j, f_j): x_j holds
    h * c_j, f_j the entry of an f value.  With constant, the source of a
    run-constant entry (actions.Block.constants), every f_j is that
    constant, and the sum is written from it with the same bits for any h
    but NaN: for 1.0 as x_a + x_b + ...; else as the same products, over
    the literal (a 0.0 entry that the exponential reads in its 0.0 form,
    as gl(2)'s a, is not written at all; see kernel_lines).  With twin,
    the local of an entry of the same terms over the opposite constant
    (-1.0 for 1.0, 1.0 for -1.0), a 1.0 or -1.0 entry is written from it,
    with the bits of its written sum for any h but NaN: round-to-nearest
    is symmetric in sign, so the two sums are each other's negation but
    where they are zero, and a zero sum is 0.0 unless every term is a
    zero of one sign.  Where the c_j share one sign, as -twin; where they
    differ, as 0.0 - twin, which is 0.0 for a zero twin and keeps a NaN's
    sign (the inf - inf of terms that overflowed both ways)."""
    if twin:
        signs = {c > 0.0 for _, c, _ in terms}
        return f"-{twin}" if len(signs) == 1 else f"0.0 - {twin}"
    if constant == "1.0":
        return " + ".join(x for x, _, _ in terms)
    return " + ".join(f"{x} * {constant or f}" for x, _, f in terms)
