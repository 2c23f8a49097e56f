"""Catalog of commutator-free methods and embedded pairs.

Seven named tableaux are provided:

* ``cf4``          four-stage order-4 method extending classical RK4
* ``cf32a/cf32b``  rational 3(2) FSAL pairs (one reused exponential each)
* ``cf43``         4(3) FSAL pair with coefficients built from the real
                   root of a quintic
* ``cf43_decimal`` the same pair assembled from 10-digit decimal literals
* ``cf43_v2``      a 4(3) pair with an alternative reuse pattern
* ``cf43_4stage``  a non-FSAL true 4-stage 4(3) pair

The decimal tableaux are published as coefficient literals rounded to 10
significant digits.  Rounded coefficients satisfy the order conditions
only to about that rounding (1e-7 .. 1e-9), which is too loose for
certification, so each ships beside its literals the coefficients
projected onto the condition manifold (a damped Gauss-Newton iteration),
stored as exact float literals.  The test suite holds their residuals
below 1e-13 and their drift from the published literals within the
rounding.

The exact constructors solve for their unknown update rows from the
linear systems that order_conditions.linear_conditions reads off the
condition tables, so no condition is written out here.

Beyond the fixed catalog, one-parameter families of 3(2) pairs can be
instantiated for any admissible value of the free parameter, in four reuse
variants.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .order_conditions import linear_conditions
from .tableaux import CFTableau


class RootSelectionError(ValueError):
    """The variant's polynomial has no real root at this parameter."""


class SingularParameterError(ValueError):
    """Parameter choice makes the tableau construction singular."""


# --------------------------------------------------------------------- cf4

def _build_cf4() -> CFTableau:
    return CFTableau(
        name="cf4",
        s=4,
        alpha=(
            ((0.5, 0.0, 0.0, 0.0),),
            ((0.0, 0.5, 0.0, 0.0),),
            ((0.5, 0.0, 0.0, 0.0), (-0.5, 0.0, 1.0, 0.0)),
        ),
        beta=((1 / 4, 1 / 6, 1 / 6, -1 / 12), (-1 / 12, 1 / 6, 1 / 6, 1 / 4)),
        beta_hat=(),
        order_p=4,
        order_phat=0,
        fsal=False,
        reuse_map=((("stage", 2, 0), ("stage", 4, 0)),),
    )


# ------------------------------------------------------------- cf32 family

# Each variant fixes which row of the two-row principal update repeats an
# already-computed stage exponential, and how the stage-3 row depends on the
# root of the variant's polynomial.  The remaining update row is then pinned
# by five linear conditions (four classical order-3 plus the split order-3
# condition) and solved directly; solving that small system is less
# error-prone than transcribing the row's lengthy closed form.
_CF32_VARIANTS = ("row2-of-update", "row1-of-update",
                  "stage2-in-row1", "stage2-in-row2")


def _cf32_variant_data(a: float, variant: str):
    if variant == "row2-of-update":
        if a == 0.0:
            raise SingularParameterError("row2-of-update needs a != 0")
        return {
            "poly": (36.0, 9 * a - 30.0, 3 * a + 1.0),
            "poly_text": "36z^2 + (9a-30)z + (3a+1)",
            "c2": a,
            "stage3": lambda w: ((6 * a * w - 3 * w - a) / (3 * a), w / a),
            "reused_index": 1,
            "reused_row": "stage3",
        }
    if variant == "row1-of-update":
        if a == 0.0:
            raise SingularParameterError("row1-of-update needs a != 0")
        return {
            "poly": (36.0, 9 * a - 6.0, -3 * a + 1.0),
            "poly_text": "36z^2 + (9a-6)z + (-3a+1)",
            "c2": a,
            "stage3": lambda w: ((6 * a * w - 3 * w + a) / (3 * a), w / a),
            "reused_index": 0,
            "reused_row": "stage3",
        }
    if variant == "stage2-in-row1":
        return {
            "poly": (4 * a * (3 * a - 1), 4 * (3 * a - 1), 3.0),
            "poly_text": "4a(3a-1)z^2 + 4(3a-1)z + 3",
            "c2": 1 / 3,
            "stage3": lambda g: (a, 1 / (2 * g)),
            "reused_index": 0,
            "reused_row": "stage2",
        }
    if variant == "stage2-in-row2":
        return {
            "poly": (4 * a, 12 * a - 2.0, 9 * a + 6.0),
            "poly_text": "4az^2 + (12a-2)z + (9a+6)",
            "c2": -1 / 3,
            "stage3": lambda d: (-2 * a * d / 3 - 2 * a, a),
            "reused_index": 1,
            "reused_row": "stage2",
        }
    raise ValueError(f"unknown variant {variant!r}; expected one of {_CF32_VARIANTS}")


def _poly_roots(coeffs, poly_text: str, a: float):
    """Real roots of A z^2 + B z + C, sorted by magnitude."""
    A, B, C = coeffs
    if A == 0.0:
        if B == 0.0:
            raise SingularParameterError(
                f"polynomial {poly_text} degenerates to a constant at a = {a}")
        return [-C / B]
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise RootSelectionError(
            f"discriminant {disc} of {poly_text} at a = {a} is negative; "
            "no real root exists")
    sq = math.sqrt(disc)
    roots = sorted([(-B - sq) / (2 * A), (-B + sq) / (2 * A)], key=abs)
    return roots


def instantiate_cf32_family(a: float, variant: str,
                            hat_params=(0.0, 0.0),
                            root: str = "small") -> CFTableau:
    """Build a 3(2) FSAL pair from its one-parameter family.

    ``variant`` selects the reuse pattern: which already-computed stage row
    repeats inside the principal update.  ``root`` picks between the two
    real roots of the variant's polynomial ("small" is the default, by
    magnitude).  ``hat_params`` fills the two free coefficients (slots 1
    and 3) of the embedded row; the remaining two are solved from the
    order-2 conditions.
    """
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    data = _cf32_variant_data(float(a), variant)
    roots = _poly_roots(data["poly"], data["poly_text"], a)
    if root not in ("small", "large"):
        raise ValueError(f"root must be 'small' or 'large', got {root!r}")
    w = roots[0] if (root == "small" or len(roots) == 1) else roots[-1]

    c2 = data["c2"]
    try:
        t1, t2 = data["stage3"](w)
    except ZeroDivisionError as exc:
        raise SingularParameterError(
            f"{variant}: stage-3 row singular at a = {a}, root {w}") from exc
    stage2 = np.array([c2, 0.0, 0.0])
    stage3 = np.array([t1, t2, 0.0])
    c = np.array([0.0, c2, t1 + t2])
    A = np.zeros((3, 3))
    A[1] = stage2
    A[2] = stage3

    reused = stage3 if data["reused_row"] == "stage3" else stage2
    ri = data["reused_index"]

    # Solve the non-reused update row u from the order-3 conditions; the
    # update rows are (v, u) or (u, v) with v the reused row.
    M, d = linear_conditions(A, c, reused, unknown_first=(ri == 1))
    u, _, _, _ = np.linalg.lstsq(M, d, rcond=None)
    resid = np.max(np.abs(M @ u - d))
    if resid > 1e-9:
        raise SingularParameterError(
            f"{variant} at a = {a}, root {w}: order conditions are "
            f"inconsistent (residual {resid:.2e}); this root does not admit "
            "an order-3 method")

    beta = (reused, u) if ri == 0 else (u, reused)

    # Embedded row: two order-2 conditions on (bh1..bh4) with abscissae
    # (0, c2, c3, 1); hat_params pins bh1 and bh3.
    h1, h3 = hat_params
    c3 = c[2]
    det = c2 - 1.0
    if abs(det) < 1e-12:
        raise SingularParameterError(
            f"{variant} at a = {a}: embedded system is singular (c2 = 1)")
    rhs1 = 1.0 - h1 - h3
    rhs2 = 0.5 - h3 * c3
    bh2 = (rhs1 - rhs2) / (1.0 - c2)
    bh4 = rhs1 - bh2
    beta_hat = (np.array([h1, bh2, h3, bh4]),)

    reused_key = ("stage", 3, 0) if data["reused_row"] == "stage3" else ("stage", 2, 0)
    return CFTableau(
        name=f"cf32[{variant},a={a:g},{root}]",
        s=3,
        alpha=((tuple(stage2),), (tuple(stage3),)),
        beta=tuple(tuple(r) for r in beta),
        beta_hat=(tuple(beta_hat[0]),),
        order_p=3,
        order_phat=2,
        fsal=True,
        reuse_map=((reused_key, ("y", ri)),),
    )


def _build_cf32a() -> CFTableau:
    return CFTableau(
        name="cf32a",
        s=3,
        alpha=(((1 / 3, 0.0, 0.0),), ((-1.0, 2.0, 0.0),)),
        beta=((1.0, -5 / 4, 1 / 4), (-1.0, 2.0, 0.0)),
        beta_hat=((0.0, 3 / 4, 0.0, 1 / 4),),
        order_p=3,
        order_phat=2,
        fsal=True,
        reuse_map=((("stage", 3, 0), ("y", 1)),),
    )


def _build_cf32b() -> CFTableau:
    return CFTableau(
        name="cf32b",
        s=3,
        alpha=(((1 / 3, 0.0, 0.0),), ((-5 / 12, 1 / 4, 0.0),)),
        beta=((-37 / 12, 9 / 4, 2.0), (-5 / 12, 1 / 4, 0.0)),
        beta_hat=((0.0, 3 / 4, 0.0, 1 / 4),),
        order_p=3,
        order_phat=2,
        fsal=True,
        reuse_map=((("stage", 3, 0), ("y", 1)),),
    )


# --------------------------------------------------------------- cf43 exact

_CF43_QUINTIC = (144.0, 90.0, -3.0, -13.0, -5.0, -1.0)


def cf43_root() -> float:
    """The unique real root in (0, 1) of the defining quintic.

    Bisection from p(0) = -1 < 0 < p(1) until the bracket ends are adjacent
    floats; the end with the smaller |p| is returned.
    """
    def poly(z):
        acc = 0.0
        for coeff in _CF43_QUINTIC:
            acc = acc * z + coeff
        return acc
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if poly(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda z: abs(poly(z)))


def _cf43_coeff_polys(w: float) -> dict:
    w2, w3, w4 = w * w, w ** 3, w ** 4
    return {
        "c2": 0.5 * (7 - 288 * w4 - 36 * w3 + 48 * w2 + 17 * w),
        "a31": (-389 + 31824 * w4 + 10962 * w3 - 3651 * w2 - 2027 * w) / 268,
        "a32": (54 - 2880 * w4 - 2520 * w3 + 234 * w2 + 553 * w) / 268,
        "b41": (-51696 * w4 - 13878 * w3 + 7557 * w2 + 2285 * w + 1244) / 804,
        "b42": (-521424 * w4 - 323586 * w3 + 61119 * w2 + 61599 * w + 10976) / 20100,
        "b43": (-5328 * w4 + 558 * w3 + 93 * w2 - 122 * w + 47) / 300,
        "y11": (1008 * w4 - 1530 * w3 + 501 * w2 - 16 * w + 229) / 536,
        "y12": (541872 * w4 + 76158 * w3 - 84207 * w2 - 19972 * w - 2703) / 40200,
        "y13": (-2304 * w4 + 144 * w3 + 174 * w2 + 4 * w + 21) / 150,
        "y22": (256752 * w4 + 67878 * w3 - 170787 * w2 - 10852 * w + 22877) / 40200,
        "y23": (-864 * w4 - 396 * w3 + 684 * w2 + 264 * w + 11) / 150,
    }


def _assemble_5fsal(name: str, x, pin: float, reused_hat_first: bool) -> CFTableau:
    """Common 4-stage FSAL 4(3) layout.

    x packs the free scalars: [a21, a31, a32, b41, b42, b43, y1 (4), y2 (4),
    free-hat-row slots (4)], where the free embedded row has its third slot
    pinned to ``pin``.  Stage 4 starts by repeating the stage-3 row; the
    second embedded row repeats the second stage-4 row.  ``reused_hat_first``
    picks whether the repeated row is applied first or second in the
    embedded update.
    """
    a21 = x[0]
    a31, a32 = x[1], x[2]
    b41, b42, b43 = x[3], x[4], x[5]
    y1 = tuple(x[6:10])
    y2 = tuple(x[10:14])
    free_hat = (x[14], x[15], pin, x[16], x[17])
    reused_hat = (b41, b42, b43, 0.0, 0.0)
    if reused_hat_first:
        beta_hat = (reused_hat, free_hat)
        hat_key = ("yhat", 0)
    else:
        beta_hat = (free_hat, reused_hat)
        hat_key = ("yhat", 1)
    return CFTableau(
        name=name,
        s=4,
        alpha=(
            ((a21, 0.0, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0), (b41, b42, b43, 0.0)),
        ),
        beta=(y1, y2),
        beta_hat=beta_hat,
        order_p=4,
        order_phat=3,
        fsal=True,
        reuse_map=((("stage", 3, 0), ("stage", 4, 0)),
                   (("stage", 4, 1), hat_key)),
    )


def instantiate_cf43(family_param: float = 0.0) -> CFTableau:
    """Build the 4(3) FSAL pair from the quintic root.

    The embedded update's second row is a one-parameter family; its third
    slot is pinned to ``family_param`` (0 reproduces the ``cf43_decimal``
    member) and the remaining four entries are solved from the order-3
    conditions of the embedded method.
    """
    w = cf43_root()
    p = _cf43_coeff_polys(w)

    A = np.zeros((4, 4))
    A[1, 0] = p["c2"]
    A[2, :2] = (p["a31"], p["a32"])
    A[3, :3] = (p["a31"] + p["b41"], p["a32"] + p["b42"], p["b43"])
    b = np.array([p["y11"] - p["y11"] / 3, p["y12"] + p["y22"],
                  p["y13"] + p["y23"], w / 2 - 1.5 * w])
    c = A.sum(axis=1)

    # Embedded weights: first row repeats the second stage-4 row; the free
    # second row is solved from the order-3 conditions with its third slot
    # pinned.
    a_ext = np.zeros((5, 5))
    a_ext[1:4, :4] = A[1:4]
    a_ext[4, :4] = b
    bh1 = np.array([p["b41"], p["b42"], p["b43"], 0.0, 0.0])
    M, d = linear_conditions(a_ext, np.append(c, 1.0), bh1,
                             unknown_first=False, pinned={2: family_param})
    v, _, _, _ = np.linalg.lstsq(M, d, rcond=None)
    resid = np.max(np.abs(M @ v - d))
    if resid > 1e-12:
        raise RuntimeError(
            f"cf43 embedded-row solve inconsistent (residual {resid:.2e})")

    x = np.array([
        p["c2"], p["a31"], p["a32"], p["b41"], p["b42"], p["b43"],
        p["y11"], p["y12"], p["y13"], w / 2,
        -p["y11"] / 3, p["y22"], p["y23"], -1.5 * w,
        v[0], v[1], v[2], v[3],
    ])
    return _assemble_5fsal("cf43", x, pin=family_param, reused_hat_first=True)


# ------------------------------------------------------ decimal tableaux

# All three pack their free scalars alike: [a21, a31, a32, b41, b42, b43,
# y1 (4), y2 (4), free embedded entries (4)].  Each vector of published
# literals is followed by its projection onto the order conditions.
_CF43_DECIMAL_LITERALS = (
    4.785707347, 0.7701000600, 0.03922683443,
    0.6195164818, 0.06934556872, -0.4981889449,
    0.4211354919, -0.005776103764, -0.1381183969, 0.2227590088,
    -0.1403784973, 0.006491728470, 1.302163795, -0.6682770264,
    -0.075415454, -0.082788288, 0.5828295568, 0.3847010797,
)

_CF43_DECIMAL_PROJECTED = (
    4.785707347038485, 0.7701000599898836, 0.03922683443669456,
    0.6195164817555546, 0.0693455687269095, -0.4981889449090423,
    0.4211354918753693, -0.005776103766520807, -0.13811839690593508,
    0.2227590087970866, -0.14037849729178997, 0.006491728472405327,
    1.3021637952106453, -0.6682770263912607, -0.07541545316247728,
    -0.08278828894533499, 0.582829556817274, 0.3847010797171165,
)

_CF43_V2_LITERALS = (
    0.67104050, 2.547687640, -1.355037274,
    -0.21944181, -0.0735967, 0.1003880,
    0.324015249, 0.15832891, -0.21057643, 0.2282322824,
    -0.108005081, 0.84426683, 0.44843513, -0.6846968472,
    0.45603817, 0.93310478, -0.2660264, 0.06953371,
)

_CF43_V2_PROJECTED = (
    0.6710404495786346, 2.547689041847356, -1.355038526518835,
    -0.2194417430188915, -0.07359681112750911, 0.1003880388178797,
    0.32401523041944663, 0.15832897895436726, -0.21057616400630394,
    0.22823195463249019, -0.1080050768064827, 0.8442665152540579,
    0.4484344254498963, -0.6846958638974717, 0.45603809128233586,
    0.9331050965245216, -0.266026316208882, 0.06953364373054552,
)

_CF43_4STAGE_LITERALS = (
    1.351207192, 0.5, 0.097900176,
    7.900943678, 2.989500877, -10.48834473,
    0.301574869, -0.054881885, 0.238291289, 0.01501572796,
    -0.1005249562, 0.1005249562, 0.5450471839, -0.04504718389,
    -0.2989500877, -0.0522571042, 0.783338473, -0.03003145592,
)

_CF43_4STAGE_PROJECTED = (
    1.35120719196447, 0.5000000000004834, 0.09790017532776371,
    7.9009436780033155, 2.989500876736544, -10.488344730068109,
    0.3015748685041772, -0.0548818851348761, 0.23829128866885593,
    0.01501572796184294, -0.10052495616805913, 0.10052495616630139,
    0.5450471838872866, -0.045047183885528835, -0.2989500876643655,
    -0.05225710429633846, 0.7833384725561426, -0.03003145592368588,
)


def _build_cf43_4stage() -> CFTableau:
    x = _CF43_4STAGE_PROJECTED
    a21 = x[0]
    a31, a32 = x[1], x[2]
    b41, b42, b43 = x[3], x[4], x[5]
    return CFTableau(
        name="cf43_4stage",
        s=4,
        alpha=(
            ((a21, 0.0, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0), (b41, b42, b43, 0.0)),
        ),
        beta=(tuple(x[6:10]), tuple(x[10:14])),
        beta_hat=((a31, a32, 0.0, 0.0), tuple(x[14:18])),
        order_p=4,
        order_phat=3,
        fsal=False,
        reuse_map=((("stage", 3, 0), ("stage", 4, 0)),
                   (("stage", 3, 0), ("yhat", 0))),
    )


# ----------------------------------------------------------------- catalog

@lru_cache(maxsize=1)
def _catalog() -> tuple:
    return (
        _build_cf4(),
        _build_cf32a(),
        _build_cf32b(),
        instantiate_cf43(),
        _assemble_5fsal("cf43_decimal", _CF43_DECIMAL_PROJECTED, pin=0.0,
                        reused_hat_first=True),
        # cf43_v2 applies the repeated exponential as the second factor of
        # the embedded update; with the rows taken in that order all
        # conditions hold to the rounding precision
        _assemble_5fsal("cf43_v2", _CF43_V2_PROJECTED, pin=0.0,
                        reused_hat_first=False),
        _build_cf43_4stage(),
    )


def catalog() -> list:
    """The named tableaux shipped with the package (immutable, cached)."""
    return list(_catalog())


def get_tableau(name: str) -> CFTableau:
    for t in _catalog():
        if t.name == name:
            return t
    raise KeyError(
        f"no catalog tableau named {name!r}; available: "
        + ", ".join(t.name for t in _catalog()))
