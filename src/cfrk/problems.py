"""Benchmark problems packaged with their geometry.

Each problem bundles a group action, the algebra-valued coefficient map f
(so that y' is the infinitesimal action of f(y) at y), the same vector
field written out directly on the ambient space, a default initial state,
and evaluators for its conserved quantities.

f takes the point as a flat list of Python floats and returns the algebra
element as a flat list of Python floats, in the layout the action's exp
takes: three entries for so(3), six for se(3) (rotation part first), and
the gl(2) element row-major, so Van der Pol's [[0, 1], [-1, m]] is
[0.0, 1.0, -1.0, m].  The steppers hand f lists only.  A packaged f also
accepts the point as a numpy array, which it converts once, to the same
list bit for bit, so that scipy's solvers can call
action.infinitesimal(f(y), y) on their own arrays.  A field of your own
keeps the same contract: an array or a nested list it returns is not
converted for it.

Each f is a Block over the point's entries and the parameters, compiled
once by stepper.field_body, which the compiled loops run in place of f.
A block assigns at most three results per statement: CPython builds and
unpacks a tuple for an assignment to more than three targets, which the
compiled loops would pay at every inlined f, and stores three or fewer
straight from the stack, so an inlined field builds no tuple.  Van der
Pol's 0, 1 and -1 are written as run-constant results
(actions.Block.constants).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .actions import (Block, Gl2PlaneAction, GroupAction,
                      Se3CoadjointAction, So3SphereAction)
from .controller import ConfigError
from .stepper import field_body


def _require_finite(params, *vectors) -> None:
    """ValueError naming the first field of params with a non-finite entry,
    then the first of the fields named in vectors without 3 entries.  An
    int field (a seed) is finite, and is not passed to np.isfinite, which
    refuses one beyond int64."""
    fields = asdict(params)
    for name, value in fields.items():
        if not isinstance(value, int) and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name in vectors:
        if np.shape(fields[name]) != (3,):
            raise ValueError(f"{name} must have 3 entries, got "
                             f"{fields[name]!r}")


def _derived(name: str, values: list) -> list:
    """values, the constants name (as 1 / inertia) derives from a
    problem's parameters; ValueError naming them unless each is finite, as
    finite parameters may overflow into them."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite, got {tuple(values)!r}")
    return values


def _vector(name: str, value) -> tuple:
    """value's entries as a tuple of floats; ValueError naming the
    parameter for a str, which would be read one character an entry."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a sequence of numbers, got the "
                         f"string {value!r}")
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class RigidBodyParams:
    inertia: tuple = (1.0, 2.0, 5.0)
    m: float = 1.0
    seed: int = 7

    def __post_init__(self):
        _require_finite(self, "inertia")
        if min(self.inertia) <= 0.0:
            raise ValueError("inertia entries must be positive")


@dataclass(frozen=True)
class VdpParams:
    mu: float = 60.0

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class HeavyTopParams:
    inertia: tuple = (2.0, 2.0, 1.0)
    m: float = 1.0
    g: float = 1.0
    chi: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        _require_finite(self, "inertia", "chi")
        if min(self.inertia) <= 0.0:
            raise ValueError("inertia entries must be positive")
        if abs(np.linalg.norm(self.chi) - 1.0) > 1e-12:
            raise ValueError("chi must be a unit vector")


@dataclass(frozen=True, eq=False)
class Problem:
    """A vector field in frozen-coefficient form over a group action.

    ambient_field, if given, is action.infinitesimal(f(y), y) written out
    without f or the action, for reference solutions to integrate.
    """
    name: str
    action: GroupAction
    f: object  # point (list or array) -> algebra element as a flat list
    default_y0: np.ndarray
    use_rtol: bool
    invariants: object  # Point -> dict of named conserved values
    params: object = None
    ambient_field: object = None  # Point -> ambient velocity


def conserved(problem: Problem, point) -> dict:
    """Named invariant values of the problem at a point."""
    return problem.invariants(np.asarray(point, float))


# Each field written once, over the point's entries and the parameters,
# at most three results to an assignment (see the module docstring) and
# each literal result as Block.constants reads one.
_RIGID_BODY = field_body(Block(["y1 y2 y3", "i1 i2 i3 mass"], "v1 v2 v3", """
v1, v2, v3 = -mass * (i1 * y1), -mass * (i2 * y2), -mass * (i3 * y3)
"""))
# x * x on a Python float: a huge state squares to inf without the overflow
# warning of numpy's ** 2
_VAN_DER_POL = field_body(Block(["x v", "mu"], "a b c d", """
if x == 0.0 and v == 0.0:
    raise DomainError("Van der Pol state reached the origin, which is "
                      "outside the GL(2) orbit")
a = 0.0
b = 1.0
c = -1.0
d = mu * (1.0 - x * x)
"""))
_HEAVY_TOP = field_body(Block(["m1 m2 m3 b1 b2 b3", "i1 i2 i3 c1 c2 c3"],
                              "v1 v2 v3 v4 v5 v6", """
v1, v2, v3 = i1 * m1, i2 * m2, i3 * m3
v4, v5, v6 = c1, c2, c3
"""))


def rigid_body(inertia=(1.0, 2.0, 5.0), m: float = 1.0,
               seed: int = 7) -> Problem:
    """Free rigid body: the momentum direction evolves on the unit sphere.

    f(xi) is the rotation generator with axis -m * I^{-1} xi, so the
    induced field is m * xi x I^{-1} xi (the Euler equations).  The default
    initial state is a random unit vector drawn from numpy's default_rng
    with seed, an integer (anything operator.index takes, kept as a Python
    int; ValueError for anything else, None included), which params
    records; relative error control is disabled since the state norm is
    constant at 1.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    p = RigidBodyParams(_vector("inertia", inertia), float(m), seed)
    i1, i2, i3 = _derived("1 / inertia", [1.0 / x for x in p.inertia])
    mass = p.m

    def ambient_field(y):
        y1, y2, y3 = y.tolist()
        w1, w2, w3 = i1 * y1, i2 * y2, i3 * y3
        return np.array([mass * (y2 * w3 - y3 * w2),
                         mass * (y3 * w1 - y1 * w3),
                         mass * (y1 * w2 - y2 * w1)])

    rng = np.random.default_rng(p.seed)
    y0 = rng.standard_normal(3)
    y0 /= np.linalg.norm(y0)

    return Problem(
        name="rigid-body",
        action=So3SphereAction(),
        f=_RIGID_BODY(i1, i2, i3, mass),
        ambient_field=ambient_field,
        default_y0=y0,
        use_rtol=False,
        invariants=lambda y: {"norm2": float(y @ y)},
        params=p,
    )


def van_der_pol(mu: float = 60.0) -> Problem:
    """Van der Pol oscillator in first-order form on the punctured plane.

    f(y) = [[0, 1], [-1, mu (1 - y1^2)]], acting by matrix-vector product,
    returned row-major as [0, 1, -1, mu (1 - y1^2)].  The origin is outside
    the action's domain: f raises DomainError there.
    """
    p = VdpParams(float(mu))
    return Problem(
        name="van-der-pol",
        action=Gl2PlaneAction(),
        f=_VAN_DER_POL(p.mu),
        ambient_field=lambda y: np.array(
            [y[1], p.mu * (1.0 - y[0] ** 2) * y[1] - y[0]]),
        default_y0=np.array([1.0, 1.0]),
        use_rtol=True,
        invariants=lambda y: {},
        params=p,
    )


def heavy_top(inertia=(2.0, 2.0, 1.0), m: float = 1.0, g: float = 1.0,
              chi=(1.0, 0.0, 0.0)) -> Problem:
    """Heavy top as a coadjoint flow on pairs (mu, beta).

    f(mu, beta) = (I^{-1} mu, m g chi), so the induced field is
    (mu x I^{-1} mu + beta x m g chi, beta x I^{-1} mu) (the Euler-Poisson
    equations).  The coadjoint action preserves |beta|^2 and mu . beta,
    so those are reported as invariants.  Defaults
    give a Kovalevskaya configuration (inertia ratio 2:2:1, center of mass
    along the first axis) with mu0 = (0.1, 0.2, 0.3), beta0 = e3.
    """
    p = HeavyTopParams(_vector("inertia", inertia), float(m), float(g),
                       _vector("chi", chi))
    i1, i2, i3 = _derived("1 / inertia", [1.0 / x for x in p.inertia])
    c1, c2, c3 = _derived("m * g * chi", [p.m * p.g * x for x in p.chi])

    def ambient_field(y):
        m1, m2, m3, b1, b2, b3 = y.tolist()
        w1, w2, w3 = i1 * m1, i2 * m2, i3 * m3
        return np.array([(m2 * w3 - m3 * w2) + (b2 * c3 - b3 * c2),
                         (m3 * w1 - m1 * w3) + (b3 * c1 - b1 * c3),
                         (m1 * w2 - m2 * w1) + (b1 * c2 - b2 * c1),
                         b2 * w3 - b3 * w2,
                         b3 * w1 - b1 * w3,
                         b1 * w2 - b2 * w1])

    def invariants(y):
        mu_, beta = y[:3], y[3:]
        return {"beta2": float(beta @ beta), "mubeta": float(mu_ @ beta)}

    return Problem(
        name="heavy-top",
        action=Se3CoadjointAction(),
        f=_HEAVY_TOP(i1, i2, i3, c1, c2, c3),
        ambient_field=ambient_field,
        default_y0=np.array([0.1, 0.2, 0.3, 0.0, 0.0, 1.0]),
        use_rtol=False,
        invariants=invariants,
        params=p,
    )


PROBLEM_BUILDERS = {
    "rigid-body": rigid_body,
    "van-der-pol": van_der_pol,
    "heavy-top": heavy_top,
}


def build_problem(name: str, params: dict | None = None) -> Problem:
    """Look up a problem by id and build it once with parameter overrides.

    A parameter the problem does not take, or a value its builder rejects,
    raises ConfigError naming the problem and the first override that the
    builder rejects alone, or every override where only their combination
    fails (m and g whose product overflows).
    """
    try:
        builder = PROBLEM_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: "
                       + ", ".join(sorted(PROBLEM_BUILDERS))) from None
    params = params or {}
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        error = exc
    # name the first override that fails alone, else all of them
    for key, value in params.items():
        try:
            builder(**{key: value})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem {name!r} rejects parameter "
                              f"{key}={value!r}: {exc}") from None
    given = ", ".join(f"{key}={value!r}" for key, value in params.items())
    raise ConfigError(f"problem {name!r} rejects parameters {given}: "
                      f"{error}") from None
