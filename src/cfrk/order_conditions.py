"""Order-condition evaluation for commutator-free tableaux.

Two families of conditions apply.  The classical Butcher conditions act on
the reduced coefficients (a, b, c) and are necessary for any order.  From
order 3 on, methods whose updates split into two exponential rows must in
addition satisfy non-classical conditions coupling the two rows; these are
evaluated here exactly as stated, with the summation over k applying to
both addends.

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

# classical conditions grouped by the order at which they first appear
_CLASSICAL = {
    1: [("sum(b) = 1", lambda a, b, c: b.sum() - 1.0)],
    2: [("b.c = 1/2", lambda a, b, c: b @ c - 0.5)],
    3: [("b.c^2 = 1/3", lambda a, b, c: b @ c**2 - 1 / 3),
        ("b.A.c = 1/6", lambda a, b, c: b @ (a @ c) - 1 / 6)],
    4: [("b.c^3 = 1/4", lambda a, b, c: b @ c**3 - 0.25),
        ("b.(c*A.c) = 1/8", lambda a, b, c: b @ (c * (a @ c)) - 0.125),
        ("b.A.c^2 = 1/12", lambda a, b, c: b @ (a @ c**2) - 1 / 12),
        ("b.A.A.c = 1/24", lambda a, b, c: b @ (a @ (a @ c)) - 1 / 24)],
}

# non-classical split-row conditions; b1 is the row applied first
_SPLIT = {
    3: [("b1.c + (1/2)sum(b2) = 1/3",
         lambda b1, b2, a, c: b1 @ c + b2.sum() / 2 - 1 / 3)],
    4: [("b1.c + (1/3)sum(b2) = 1/4",
         lambda b1, b2, a, c: b1 @ c + b2.sum() / 3 - 0.25),
        ("b1.c^2 + (1/3)sum(b2) = 1/6",
         lambda b1, b2, a, c: b1 @ c**2 + b2.sum() / 3 - 1 / 6),
        ("b1.A.c + (1/6)sum(b2) = 1/12",
         lambda b1, b2, a, c: b1 @ (a @ c) + b2.sum() / 6 - 1 / 12)],
}


def residual_vector(table: dict, up_to: int, *args) -> np.ndarray:
    """Residuals of the conditions in table (_CLASSICAL or _SPLIT) through
    the given order, in table order; args are those the table's lambdas
    take."""
    return np.array([fn(*args) for order in sorted(table) if order <= up_to
                     for _, fn in table[order]])


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
                for label, _ in table.get(order, []) if label in evaluated]

    def failed(self, order: int, threshold: float | None = None):
        """Conditions of exactly the given order whose residual exceeds
        the threshold (the report tolerance by default)."""
        thr = self.tolerance if threshold is None else threshold
        return [(label, r) for label, r in self.residuals_at(order)
                if abs(r) > thr]


def check_classical(reduced: ReducedCoefficients, up_to: int = 4) -> dict:
    """Residuals of the standard Butcher conditions through the given order."""
    if up_to not in (1, 2, 3, 4):
        raise ValueError(f"up_to must be in 1..4, got {up_to}")
    a = np.asarray(reduced.a, float)
    b = np.asarray(reduced.b, float)
    c = np.asarray(reduced.c, float)
    out = {}
    for order in range(1, up_to + 1):
        for label, fn in _CLASSICAL[order]:
            out[label] = float(fn(a, b, c))
    return out


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
    out = {}
    for order in range(3, up_to + 1):
        for label, fn in _SPLIT[order]:
            out[label] = float(fn(b1, b2, a, c))
    return out


def check_nonclassical(tableau: CFTableau) -> dict:
    """Non-classical residuals of the principal update (two rows required)."""
    if len(tableau.beta) != 2:
        raise UnsupportedShapeError(
            f"{tableau.name}: principal update has {len(tableau.beta)} rows, "
            "the non-classical conditions apply to exactly 2")
    red = reduce(tableau)
    return split_residuals(tableau.beta, red.a, red.c)


def certify(tableau: CFTableau, which: str = "principal",
            tol: float = 1e-9) -> OrderReport:
    """Evaluate all conditions for one side of the tableau and certify the
    largest order (up to 4) whose conditions all hold within tol."""
    if which == "principal":
        red = reduce(tableau)
        rows = tableau.beta
        a, c = red.a, red.c
    elif which == "embedded":
        red = reduce_embedded(tableau)
        rows = tableau.beta_hat
        a, c = red.a, red.c
    else:
        raise ValueError(f"which must be 'principal' or 'embedded', got {which!r}")

    report = OrderReport(name=tableau.name, which=which, tolerance=tol)
    report.classical_residuals = check_classical(red, up_to=4)
    if len(rows) <= 2:
        report.nonclassical_residuals = split_residuals(rows, a, c)
        if len(rows) == 1:
            report.notes.append(
                "single-row update: non-classical conditions evaluated with b2 = 0")
    else:
        report.notes.append(
            f"{len(rows)}-row update: non-classical conditions not evaluated")
    report.notes.append(CONDITION_4_NOTE)

    certified = 0
    for order in (1, 2, 3, 4):
        residuals = report.residuals_at(order)
        if not residuals or max(abs(r) for _, r in residuals) > tol:
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


def is_genuine_pair(tableau: CFTableau, tol: float = 1e-9,
                    fail_threshold: float = 1e-3) -> tuple:
    """Check that the embedded weights certify order p-1 but genuinely fail
    order p (at least one condition residual above fail_threshold).

    Returns (ok, details) where details names the orders found and the
    largest failing residual.
    """
    if not tableau.has_embedded:
        return False, {"reason": "no embedded rows"}
    rep = certify(tableau, "embedded", tol)
    target = tableau.order_phat
    failing = rep.failed(target + 1, threshold=fail_threshold)
    ok = (rep.certified_algebraic_order == target) and len(failing) > 0
    return ok, {
        "certified": rep.certified_algebraic_order,
        "expected": target,
        "failing_above_threshold": failing,
    }
