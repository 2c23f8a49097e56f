"""Tableau data model for commutator-free Runge-Kutta methods.

A commutator-free method advances the solution by composing exponentials of
linear combinations of the stage values f_k.  Each stage r and each update
(y and the embedded yhat) is therefore described not by a single row of
weights but by an ordered list of rows: one exponential per row, applied to
the current point in listed order (row 0 innermost).

The tableau also carries a reuse map declaring which rows are elementwise
identical, so a stepper can compute the shared exponential once.  Reuse is
always declared explicitly, never inferred from floating-point coincidence.
It is resolved once, when a step kernel is compiled from the tableau (see
stepper.py), never per step; the kernels are cached on the tableau.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# A row key addresses one row of the tableau:
#   ("stage", r, j) : row j (0-based) of stage r, r in 2..s
#   ("y", j)        : row j of the principal update
#   ("yhat", j)     : row j of the embedded update
RowKey = tuple

REUSE_EQ_TOL = 1e-14
CONSISTENCY_TOL = 1e-6


class TableauError(ValueError):
    """Structural problem in a tableau definition."""


def _freeze(row) -> np.ndarray:
    arr = np.array(row, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CFTableau:
    """Coefficients of a commutator-free method or embedded pair.

    alpha[r-2] holds the ordered rows of stage r (each of length s, zero in
    columns k >= r for explicitness).  beta holds the rows of the principal
    update; beta_hat the rows of the embedded update, empty when the method
    has no embedded solution.  When fsal is set, beta_hat rows have length
    s+1 and the extra slot multiplies f evaluated at the accepted point y1.
    A tableau, like each record holding arrays, compares and hashes by
    identity; to_json() compares two by their coefficients.
    """

    name: str
    s: int
    alpha: tuple
    beta: tuple
    beta_hat: tuple
    order_p: int
    order_phat: int
    fsal: bool
    reuse_map: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           tuple(tuple(_freeze(r) for r in stage) for stage in self.alpha))
        object.__setattr__(self, "beta", tuple(_freeze(r) for r in self.beta))
        object.__setattr__(self, "beta_hat", tuple(_freeze(r) for r in self.beta_hat))
        object.__setattr__(self, "reuse_map",
                           tuple((tuple(k1), tuple(k2)) for k1, k2 in self.reuse_map))
        # _rows and _kernels are not dataclass fields, so repr and JSON
        # ignore them; _kernels caches the step kernels (see stepper.py)
        # and the compiled loops (controller.py)
        rows = {("stage", r, j): row for r, stage in enumerate(self.alpha, 2)
                for j, row in enumerate(stage)}
        rows.update({("y", j): row for j, row in enumerate(self.beta)})
        rows.update({("yhat", j): row for j, row in enumerate(self.beta_hat)})
        object.__setattr__(self, "_rows", rows)
        self._validate()
        object.__setattr__(self, "_kernels", {})

    # ---------------------------------------------------------------- access

    @property
    def has_embedded(self) -> bool:
        return len(self.beta_hat) > 0

    @property
    def hat_width(self) -> int:
        """Length of the beta_hat rows (s+1 when they reference f(y1))."""
        return self.s + 1 if (self.fsal and self.has_embedded) else self.s

    def row(self, key: RowKey) -> np.ndarray:
        try:
            return self._rows[tuple(key)]
        except (KeyError, TypeError):
            raise TableauError(f"{self.name}: no row {key!r}") from None

    def row_padded(self, key: RowKey) -> np.ndarray:
        """Row extended with zeros to length s+1, for cross-kind comparison,
        as a new array."""
        r = self.row(key)
        return np.concatenate([r, np.zeros(self.s + 1 - len(r))])

    def all_row_keys(self) -> list:
        """Keys of every row: stages in order, then y, then yhat."""
        return list(self._rows)

    # ------------------------------------------------------------ validation

    def _validate(self):
        if self.s < 1:
            raise TableauError("stage count must be positive")
        if len(self.alpha) != self.s - 1:
            raise TableauError(
                f"{self.name}: expected {self.s - 1} stage groups, got {len(self.alpha)}")
        for r in range(2, self.s + 1):
            stage = self.alpha[r - 2]
            if len(stage) == 0:
                raise TableauError(f"{self.name}: stage {r} has no rows")
            for j, row in enumerate(stage):
                self._check_row(f"stage {r} row {j}", row, self.s)
                if np.any(row[r - 1:] != 0.0):
                    raise TableauError(
                        f"{self.name}: stage {r} row {j} is not explicit (nonzero at k >= {r})")
        if len(self.beta) == 0:
            raise TableauError(f"{self.name}: no update rows")
        for j, row in enumerate(self.beta):
            self._check_row(f"y row {j}", row, self.s)
        for j, row in enumerate(self.beta_hat):
            self._check_row(f"yhat row {j}", row, self.hat_width)
        b = _row_sum(self.beta, self.s)
        if abs(b.sum() - 1.0) > CONSISTENCY_TOL:
            raise TableauError(
                f"{self.name}: update weights sum to {b.sum()!r}, expected 1")
        if self.has_embedded and not (0 < self.order_phat < self.order_p):
            raise TableauError(
                f"{self.name}: embedded order {self.order_phat} inconsistent with order {self.order_p}")
        for k1, k2 in self.reuse_map:
            r1, r2 = self.row_padded(k1), self.row_padded(k2)
            if np.max(np.abs(r1 - r2)) > REUSE_EQ_TOL:
                raise TableauError(
                    f"{self.name}: reuse pair {k1} ~ {k2} is not elementwise equal")

    def _check_row(self, label: str, row: np.ndarray, width: int):
        if len(row) != width:
            raise TableauError(
                f"{self.name}: {label} has length {len(row)}, expected {width}")
        if not np.all(np.isfinite(row)):
            raise TableauError(f"{self.name}: {label} has a non-finite entry")

    # --------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        def fmt_row(row):
            return [format(x, ".17g") for x in row]
        return {
            "name": self.name,
            "s": self.s,
            "alpha": [[fmt_row(r) for r in stage] for stage in self.alpha],
            "beta": [fmt_row(r) for r in self.beta],
            "beta_hat": [fmt_row(r) for r in self.beta_hat],
            "order_p": self.order_p,
            "order_phat": self.order_phat,
            "fsal": self.fsal,
            "reuse_map": [[list(k1), list(k2)] for k1, k2 in self.reuse_map],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def tableau_from_json_dict(data: dict) -> CFTableau:
    if not isinstance(data, dict):
        raise TableauError(
            f"tableau JSON must be an object, got {type(data).__name__}")

    def parse_row(row):
        return [float(x) for x in row]

    def field_of_type(key, kind, what):
        value = data[key]
        if type(value) is not kind:
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return value
    try:
        fields = dict(
            name=data["name"],
            s=field_of_type("s", int, "an integer"),
            alpha=tuple(tuple(parse_row(r) for r in stage) for stage in data["alpha"]),
            beta=tuple(parse_row(r) for r in data["beta"]),
            beta_hat=tuple(parse_row(r) for r in data["beta_hat"]),
            order_p=field_of_type("order_p", int, "an integer"),
            order_phat=field_of_type("order_phat", int, "an integer"),
            fsal=field_of_type("fsal", bool, "true or false"),
            reuse_map=tuple((tuple(k1), tuple(k2)) for k1, k2 in data["reuse_map"]),
        )
    except KeyError as exc:
        raise TableauError(f"tableau JSON is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise TableauError(f"tableau JSON has a malformed field: {exc}") from exc
    return CFTableau(**fields)


def tableau_from_json(text: str) -> CFTableau:
    return tableau_from_json_dict(json.loads(text))


def save_tableau(tableau: CFTableau, path) -> None:
    with open(path, "w") as fh:
        fh.write(tableau.to_json())
        fh.write("\n")


def load_tableau(path) -> CFTableau:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise TableauError(f"cannot read tableau file {path}: {exc}") from exc
    try:
        return tableau_from_json(text)
    except json.JSONDecodeError as exc:
        raise TableauError(
            f"invalid tableau JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


# ------------------------------------------------------------------ reduction

@dataclass(frozen=True, eq=False)
class ReducedCoefficients:
    """Classical Butcher data recovered from a commutator-free tableau.

    a[r, k] = sum_j alpha^k_{r,j} and b[k] = sum_j beta^k_j collapse the row
    structure; c holds the stage abscissae (row sums of a).  The embedded
    method has its own ReducedCoefficients, from reduce_embedded.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _row_sum(rows, width):
    total = np.zeros(width)
    for row in rows:
        total = total + row
    return total


def reduce(tableau: CFTableau) -> ReducedCoefficients:
    """Collapse the multi-row tableau to its classical (a, b, c) data.

    Plain left-to-right summation in the declared row order, so the result
    is deterministic in floating point.
    """
    s = tableau.s
    a = np.zeros((s, s))
    for r in range(2, s + 1):
        a[r - 1] = _row_sum(tableau.alpha[r - 2], s)
    b = _row_sum(tableau.beta, s)
    c = a.sum(axis=1)
    return ReducedCoefficients(a=a, b=b, c=c)


def reduce_embedded(tableau: CFTableau) -> ReducedCoefficients:
    """Reduced coefficients of the embedded method viewed on its own.

    For FSAL pairs the embedded update references f(y1), i.e. the value of f
    at the point reached by the principal update.  That makes y1 an extra
    stage of the embedded method: the extended matrix gains the row b with
    abscissa 1.  For non-FSAL pairs the embedded method shares the stages
    unchanged.
    """
    if not tableau.has_embedded:
        raise TableauError(f"{tableau.name} has no embedded update rows")
    red = reduce(tableau)
    b_hat = _row_sum(tableau.beta_hat, tableau.hat_width)
    s = tableau.s
    if tableau.hat_width == s + 1:
        a_ext = np.zeros((s + 1, s + 1))
        a_ext[:s, :s] = red.a
        a_ext[s, :s] = red.b
        return ReducedCoefficients(a=a_ext, b=b_hat,
                                   c=np.concatenate([red.c, [1.0]]))
    return ReducedCoefficients(a=red.a, b=b_hat, c=red.c)


# ----------------------------------------------------------- reuse structure

def reuse_groups(tableau: CFTableau, include_embedded: bool = True) -> list:
    """Partition of row keys into reuse groups (union of declared pairs).

    Groups come in the order of their first key in the reuse map, and
    singleton groups are omitted.  With include_embedded=False, pairs that
    touch a yhat row are ignored, matching a stepper run that skips the
    embedded update.
    """
    groups = []
    for pair in tableau.reuse_map:
        if not include_embedded and "yhat" in (pair[0][0], pair[1][0]):
            continue
        # the pair joins the first group it touches, which absorbs the others
        touched = [i for i, g in enumerate(groups) if not g.isdisjoint(pair)]
        if not touched:
            groups.append(set(pair))
            continue
        first = groups[touched[0]]
        first.update(pair)
        for i in reversed(touched[1:]):
            first |= groups.pop(i)
    return [g for g in groups if len(g) > 1]


def scan_identical_rows(tableau: CFTableau) -> list:
    """Exhaustive scan for row pairs equal within REUSE_EQ_TOL.

    Returns the partition of keys into equality classes of size > 1.  Used
    to verify that the declared reuse map is maximal: the scan and the
    declared reuse groups must induce the same partition.
    """
    keys = tableau.all_row_keys()
    classes = []
    for key in keys:
        row = tableau.row_padded(key)
        for cls in classes:
            if np.max(np.abs(row - cls[0])) <= REUSE_EQ_TOL:
                cls[1].add(key)
                break
        else:
            classes.append((row, {key}))
    return [members for _, members in classes if len(members) > 1]
