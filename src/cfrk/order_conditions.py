"""Order-condition evaluation for commutator-free tableaux.

Two families of conditions apply.  The classical Butcher conditions act on
the reduced coefficients (a, b, c) and are necessary for any order.  From
order 3 on, methods whose updates split into two exponential rows must in
addition satisfy non-classical conditions coupling the two rows; these are
evaluated here exactly as stated, with the summation over k applying to
both addends.

Each condition is linear in the weights and is written once, in the
tables below: a classical condition as b . w(a, c) = target, a split
condition as b1 . w(a, c) + sum(b2) / k = target.  The same tables yield
the residuals of a given tableau and, through linear_conditions, the
linear system that the catalog's constructors solve for an unknown row.

The last order-4 non-classical condition is not evaluated algebraically
(no well-formed closed expression for it is adopted here), so certification
relies on the first three plus empirical convergence measurements.  Reports
carry a note to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tableaux import CFTableau, ReducedCoefficients, reduce, reduce_embedded

CONDITION_4_NOTE = ("order-4 non-classical condition 4 is not evaluated "
                    "algebraically; it is covered by empirical convergence "
                    "measurements only")

# (label, w, target) and, for the split conditions, (label, w, k, target),
# grouped by the order at which each condition first appears; b1 is the
# row applied first
_CLASSICAL = {
    1: [("sum(b) = 1", lambda a, c: np.ones(len(c)), 1.0)],
    2: [("b.c = 1/2", lambda a, c: c, 0.5)],
    3: [("b.c^2 = 1/3", lambda a, c: c**2, 1 / 3),
        ("b.A.c = 1/6", lambda a, c: a @ c, 1 / 6)],
    4: [("b.c^3 = 1/4", lambda a, c: c**3, 0.25),
        ("b.(c*A.c) = 1/8", lambda a, c: c * (a @ c), 0.125),
        ("b.A.c^2 = 1/12", lambda a, c: a @ c**2, 1 / 12),
        ("b.A.A.c = 1/24", lambda a, c: a @ (a @ c), 1 / 24)],
}

_SPLIT = {
    3: [("b1.c + (1/2)sum(b2) = 1/3", lambda a, c: c, 2, 1 / 3)],
    4: [("b1.c + (1/3)sum(b2) = 1/4", lambda a, c: c, 3, 0.25),
        ("b1.c^2 + (1/3)sum(b2) = 1/6", lambda a, c: c**2, 3, 1 / 6),
        ("b1.A.c + (1/6)sum(b2) = 1/12", lambda a, c: a @ c, 6, 1 / 12)],
}


def _through(table: dict, up_to: int) -> list:
    """The conditions of table through the given order, in table order."""
    return [cond for order in sorted(table) if order <= up_to
            for cond in table[order]]


def linear_conditions(a, c, known, unknown_first: bool, pinned=None,
                      order: int = 3):
    """The conditions through order 2 or 3 as a system M u = d in the free
    entries of one unknown update row u.

    The update's weights are known + u, with u applied first when
    unknown_first is set.  pinned maps entries of u to fixed values; the
    other entries are solved for, and M has one column for each, in
    order.  Rows follow the tables: classical conditions first, then the
    split one (order 3 only).
    """
    a, c, known = (np.asarray(x, float) for x in (a, c, known))
    pinned = pinned or {}
    fixed = np.zeros(len(c))
    for col, value in pinned.items():
        fixed[col] = value
    cols = [j for j in range(len(c)) if j not in pinned]
    M, d = [], []
    for _, w, target in _through(_CLASSICAL, order):
        w = w(a, c)
        M.append(w[cols])
        d.append(target - known @ w - fixed @ w)
    for _, w, k, target in _through(_SPLIT, order):
        w = w(a, c)
        if unknown_first:
            M.append(w[cols])
            d.append(target - known.sum() / k - fixed @ w)
        else:
            M.append(np.ones(len(c))[cols] / k)
            d.append(target - known @ w - fixed.sum() / k)
    return np.array(M), np.array(d)


class UnsupportedShapeError(ValueError):
    """Update-row layout outside the two-row theory implemented here."""


@dataclass
class OrderReport:
    """Residuals and the order they certify for one side of a tableau."""

    name: str
    which: str
    classical_residuals: dict = field(default_factory=dict)
    nonclassical_residuals: dict = field(default_factory=dict)
    certified_algebraic_order: int = 0
    tolerance: float = 1e-9
    notes: list = field(default_factory=list)

    def residuals_at(self, order: int) -> list:
        """(label, residual) for the evaluated conditions of exactly the
        given order, classical ones first, each in table order."""
        evaluated = {**self.classical_residuals, **self.nonclassical_residuals}
        return [(label, evaluated[label])
                for table in (_CLASSICAL, _SPLIT)
                for label, *_ in table.get(order, []) if label in evaluated]

    def failed(self, order: int, threshold: float | None = None):
        """Conditions of exactly the given order whose residual is not
        within the threshold (the report tolerance by default); a
        non-finite residual always fails."""
        thr = self.tolerance if threshold is None else threshold
        return [(label, r) for label, r in self.residuals_at(order)
                if not abs(r) <= thr]


def check_classical(reduced: ReducedCoefficients, up_to: int = 4) -> dict:
    """Residuals of the standard Butcher conditions through the given order."""
    if up_to not in (1, 2, 3, 4):
        raise ValueError(f"up_to must be in 1..4, got {up_to}")
    a = np.asarray(reduced.a, float)
    b = np.asarray(reduced.b, float)
    c = np.asarray(reduced.c, float)
    return {label: float(b @ w(a, c) - target)
            for label, w, target in _through(_CLASSICAL, up_to)}


def split_residuals(rows, a, c, up_to: int = 4) -> dict:
    """Non-classical residuals for an update given as one or two rows.

    A single row is treated as (b1, 0): the conditions then reduce to
    b1.c = 1/3 etc., which no consistent second-order row can satisfy, so
    single-exponential updates correctly fail certification beyond order 2.
    """
    if len(rows) == 1:
        b1, b2 = np.asarray(rows[0], float), np.zeros(len(rows[0]))
    elif len(rows) == 2:
        b1, b2 = np.asarray(rows[0], float), np.asarray(rows[1], float)
    else:
        raise UnsupportedShapeError(
            f"update with {len(rows)} rows is outside the two-row order theory")
    a = np.asarray(a, float)
    c = np.asarray(c, float)
    return {label: float(b1 @ w(a, c) + b2.sum() / k - target)
            for label, w, k, target in _through(_SPLIT, up_to)}


def certify(tableau: CFTableau, which: str = "principal",
            tol: float = 1e-9) -> OrderReport:
    """Evaluate all conditions for one side of the tableau and certify the
    largest order (up to 4) whose conditions all hold within tol.  An
    update of more than two rows, whose non-classical conditions are not
    evaluated, is certified to at most order 2."""
    if which == "principal":
        red = reduce(tableau)
        rows = tableau.beta
    elif which == "embedded":
        red = reduce_embedded(tableau)
        rows = tableau.beta_hat
    else:
        raise ValueError(f"which must be 'principal' or 'embedded', got {which!r}")

    report = OrderReport(name=tableau.name, which=which, tolerance=tol)
    report.classical_residuals = check_classical(red, up_to=4)
    if len(rows) <= 2:
        report.nonclassical_residuals = split_residuals(rows, red.a, red.c)
        if len(rows) == 1:
            report.notes.append(
                "single-row update: non-classical conditions evaluated with b2 = 0")
    else:
        report.notes.append(
            f"{len(rows)}-row update: non-classical conditions not evaluated, "
            f"so no order above 2 is certified")
    report.notes.append(CONDITION_4_NOTE)

    certified = 0
    # unevaluated non-classical conditions (from order 3) certify nothing
    for order in (1, 2, 3, 4)[:4 if len(rows) <= 2 else 2]:
        if not report.residuals_at(order) or report.failed(order):
            break
        certified = order
    report.certified_algebraic_order = certified
    return report


def certify_pair(tableau: CFTableau, tol: float = 1e-9) -> dict:
    """OrderReports for both members of an embedded pair."""
    out = {"principal": certify(tableau, "principal", tol)}
    if tableau.has_embedded:
        out["embedded"] = certify(tableau, "embedded", tol)
    return out


def is_genuine_pair(tableau: CFTableau) -> tuple:
    """Check that the embedded weights certify order p-1 at certify's
    default tolerance but genuinely fail order p (at least one condition
    residual above 1e-3, far above roundoff).

    Returns (ok, details) where details names the orders found and the
    largest failing residual.
    """
    if not tableau.has_embedded:
        return False, {"reason": "no embedded rows"}
    rep = certify(tableau, "embedded")
    target = tableau.order_phat
    failing = rep.failed(target + 1, threshold=1e-3)
    ok = (rep.certified_algebraic_order == target) and len(failing) > 0
    return ok, {
        "certified": rep.certified_algebraic_order,
        "expected": target,
        "failing_above_threshold": failing,
    }
