"""Catalog of commutator-free methods and embedded pairs.

Seven named tableaux are provided:

* ``cf4``          four-stage order-4 method extending classical RK4
* ``cf32a/cf32b``  rational 3(2) FSAL pairs (one reused exponential each)
* ``cf43``         4(3) FSAL pair with coefficients built from the real
                   root of a quintic (stored as the literals of that
                   construction)
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

The exact constructors solve every free row, update or embedded, from
the linear systems that order_conditions.linear_conditions reads off the
condition tables, through one least-squares solve and residual check.
An embedded row is solved over tableaux.reduce_embedded of the tableau
built with that row's free entries at zero; the 3(2) family's update row,
which no tableau can hold at zero (its update must sum to 1), over the
stage rows.  So no condition and no sum of rows is written out here.

Beyond the fixed catalog, one-parameter families of 3(2) pairs can be
instantiated for any admissible value of the free parameter, in four reuse
variants.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .order_conditions import linear_conditions
from .tableaux import CFTableau, reduce_embedded


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
            "reused_stage": 3,
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
            "reused_stage": 3,
        }
    if variant == "stage2-in-row1":
        return {
            "poly": (4 * a * (3 * a - 1), 4 * (3 * a - 1), 3.0),
            "poly_text": "4a(3a-1)z^2 + 4(3a-1)z + 3",
            "c2": 1 / 3,
            "stage3": lambda g: (a, 1 / (2 * g)),
            "reused_index": 0,
            "reused_stage": 2,
        }
    if variant == "stage2-in-row2":
        return {
            "poly": (4 * a, 12 * a - 2.0, 9 * a + 6.0),
            "poly_text": "4az^2 + (12a-2)z + (9a+6)",
            "c2": -1 / 3,
            "stage3": lambda d: (-2 * a * d / 3 - 2 * a, a),
            "reused_index": 1,
            "reused_stage": 2,
        }
    raise ValueError(f"unknown variant {variant!r}; expected one of {_CF32_VARIANTS}")


def _poly_roots(coeffs, poly_text: str, a: float):
    """Real roots of A z^2 + B z + C, sorted by magnitude: q / A and C / q
    for q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2, so that neither root is
    formed by subtracting nearly equal terms."""
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
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return sorted([q / A, C / q], key=abs)


def _layout32(name: str, stage2, stage3, u, beta_hat, reused_stage: int,
              reused_index: int) -> CFTableau:
    """The 3-stage FSAL 3(2) layout: one row per stage, the two update rows
    and the embedded row beta_hat.  Update row reused_index repeats the row
    of stage reused_stage; the other update row is u."""
    reused = (stage2, stage3)[reused_stage - 2]
    return CFTableau(
        name=name,
        s=3,
        alpha=((stage2,), (stage3,)),
        beta=(reused, u) if reused_index == 0 else (u, reused),
        beta_hat=(beta_hat,),
        order_p=3,
        order_phat=2,
        fsal=True,
        reuse_map=((("stage", reused_stage, 0), ("y", reused_index)),),
    )


def _solve(system, tol: float = math.inf, fail=None):
    """The least-squares solution u of a system (M, d) from
    linear_conditions; raises fail(residual) where max |M u - d| exceeds
    tol, as the conditions then admit no such row."""
    M, d = system
    u = np.linalg.lstsq(M, d, rcond=None)[0]
    resid = np.max(np.abs(M @ u - d))
    if resid > tol:
        raise fail(resid)
    return u


def _finite(system, what: str):
    """system, the (M, d) of linear_conditions; SingularParameterError
    naming what where it is not finite: a parameter whose conditions
    overflow (c2 = a squared, a discriminant inf - inf) admits no member,
    and LAPACK fails on such a system."""
    if not all(np.isfinite(x).all() for x in system):
        raise SingularParameterError(f"{what}: order conditions overflow")
    return system


# an overflow is refused where it reaches the conditions (see _finite)
@np.errstate(over="ignore", invalid="ignore")
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
    t1, t2 = data["stage3"](w)
    stage2, stage3 = (c2, 0.0, 0.0), (t1, t2, 0.0)
    rs, ri = data["reused_stage"], data["reused_index"]

    # The update row u beside the reused stage row, from the order-3
    # conditions over the stage rows: no tableau can hold u at zero, as
    # CFTableau rejects an update that does not sum to 1.
    stages = np.array([np.zeros(3), stage2, stage3])
    u = _solve(_finite(linear_conditions(stages, stages.sum(axis=1),
                                         (stage2, stage3)[rs - 2], ri == 1),
                       f"{variant} at a = {a}"),
               1e-9, lambda resid: SingularParameterError(
                   f"{variant} at a = {a}, root {w}: order conditions are "
                   f"inconsistent (residual {resid:.2e}); this root does not "
                   "admit an order-3 method"))

    # The embedded row, a stage longer (f(y1) is its fourth stage), from
    # the order-2 conditions with hat_params in slots 1 and 3.  Its other
    # two columns are (1, 1) and (c2, 1): a square system, singular only
    # at c2 = 1, so its residual is roundoff and is not bounded.  Its
    # condition number is about 4 / |1 - c2|; above 1e8 (|1 - c2| below
    # ~4e-8) the solved entries exceed ~1e7 and keep fewer than half of
    # their 16 digits, so such a member is refused as singular.
    if np.linalg.cond(((1.0, 1.0), (c2, 1.0))) > 1e8:
        raise SingularParameterError(
            f"{variant} at a = {a}: embedded system is singular (c2 = 1)")
    h1, h3 = hat_params
    name = f"cf32[{variant},a={a:g},{root}]"
    red = reduce_embedded(_layout32(name, stage2, stage3, u,
                                    (h1, 0.0, h3, 0.0), rs, ri))
    bh2, bh4 = _solve(_finite(linear_conditions(
        red.a, red.c, np.zeros(4), False, {0: h1, 2: h3}, order=2),
        f"{variant} at a = {a}"))
    return _layout32(name, stage2, stage3, u, (h1, bh2, h3, bh4), rs, ri)


def _build_cf32a() -> CFTableau:
    return _layout32("cf32a", (1 / 3, 0.0, 0.0), (-1.0, 2.0, 0.0),
                     (1.0, -5 / 4, 1 / 4), (0.0, 3 / 4, 0.0, 1 / 4), 3, 1)


def _build_cf32b() -> CFTableau:
    return _layout32("cf32b", (1 / 3, 0.0, 0.0), (-5 / 12, 1 / 4, 0.0),
                     (-37 / 12, 9 / 4, 2.0), (0.0, 3 / 4, 0.0, 1 / 4), 3, 1)


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


def _layout43(name: str, x, beta_hat, hat_reuse, fsal: bool) -> CFTableau:
    """The 4-stage 4(3) layout.

    x packs the free scalars: [a21, a31, a32, b41, b42, b43, y1 (4), y2 (4),
    free embedded entries (4)].  Stage 4 starts by repeating the stage-3
    row; beta_hat holds the embedded rows, and hat_reuse is the pair of
    row keys through which one of them repeats an earlier row.
    """
    a31, a32 = x[1], x[2]
    return CFTableau(
        name=name,
        s=4,
        alpha=(
            ((x[0], 0.0, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0),),
            ((a31, a32, 0.0, 0.0), (x[3], x[4], x[5], 0.0)),
        ),
        beta=(x[6:10], x[10:14]),
        beta_hat=beta_hat,
        order_p=4,
        order_phat=3,
        fsal=fsal,
        reuse_map=((("stage", 3, 0), ("stage", 4, 0)), hat_reuse),
    )


def _assemble_5fsal(name: str, x, pin: float, reused_hat_first: bool) -> CFTableau:
    """The FSAL 4(3) layout, whose free embedded row has its third slot
    pinned to ``pin``; the other embedded row repeats the second stage-4
    row.  ``reused_hat_first`` picks whether the repeated row is applied
    first or second in the embedded update.
    """
    free_hat = (x[14], x[15], pin, x[16], x[17])
    reused_hat = (x[3], x[4], x[5], 0.0, 0.0)
    if reused_hat_first:
        beta_hat, hat_key = (reused_hat, free_hat), ("yhat", 0)
    else:
        beta_hat, hat_key = (free_hat, reused_hat), ("yhat", 1)
    return _layout43(name, x, beta_hat, (("stage", 4, 1), hat_key), True)


def instantiate_cf43(family_param: float = 0.0) -> CFTableau:
    """Build the 4(3) FSAL pair from the quintic root.

    The embedded update's second row is a one-parameter family; its third
    slot is pinned to ``family_param`` (0 reproduces the ``cf43_decimal``
    member) and the remaining four entries are solved from the order-3
    conditions of the embedded method.
    """
    w = cf43_root()
    p = _cf43_coeff_polys(w)
    x = [p["c2"], p["a31"], p["a32"], p["b41"], p["b42"], p["b43"],
         p["y11"], p["y12"], p["y13"], w / 2,
         -p["y11"] / 3, p["y22"], p["y23"], -1.5 * w]

    def build(free_hat):
        return _assemble_5fsal("cf43", x + list(free_hat), pin=family_param,
                               reused_hat_first=True)
    # the free embedded row, applied after the one that repeats the second
    # stage-4 row, solved over the tableau with its free entries at zero
    shell = build([0.0] * 4)
    red = reduce_embedded(shell)
    return build(_solve(
        linear_conditions(red.a, red.c, shell.beta_hat[0], False,
                          {2: family_param}),
        1e-12, lambda resid: RuntimeError(
            f"cf43 embedded-row solve inconsistent (residual {resid:.2e})")))


# instantiate_cf43(0.0)'s free scalars, packed as _layout43 reads them and
# frozen as repr literals, so that the catalog's cf43 has the same bits on
# any BLAS or LAPACK build; a test holds them to the solve at 1e-12.
_CF43_SOLVED = (
    4.785707347829316, 0.7701000599950462, 0.03922683443074535,
    0.6195164817798277, 0.06934556871789851, -0.4981889449235189,
    0.4211354918784002, -0.005776103764327043, -0.1381183969016618,
    0.22275900878758859, -0.14037849729280008, 0.006491728469799504,
    1.3021637951857663, -0.6682770263627658, -0.07541545317570632,
    -0.08278828893143114, 0.5828295568094433, 0.3847010797234864,
)


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
    # non-FSAL: the first embedded row repeats the stage-3 row
    x = _CF43_4STAGE_PROJECTED
    return _layout43("cf43_4stage", x, ((x[1], x[2], 0.0, 0.0), x[14:18]),
                     (("stage", 3, 0), ("yhat", 0)), False)


# ----------------------------------------------------------------- catalog

@lru_cache(maxsize=1)
def _catalog() -> tuple:
    return (
        _build_cf4(),
        _build_cf32a(),
        _build_cf32b(),
        _assemble_5fsal("cf43", _CF43_SOLVED, pin=0.0, reused_hat_first=True),
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
