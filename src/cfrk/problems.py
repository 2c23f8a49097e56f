"""Benchmark problems packaged with their geometry.

Each problem bundles a group action, the algebra-valued coefficient map f
(so that y' is the infinitesimal action of f(y) at y), the same vector
field written out directly on the ambient space, a default initial state,
and evaluators for its conserved quantities.

f takes the point as a flat list of Python floats and returns the algebra
element as a flat list of Python floats, in the layout the action's exp
takes: the gl(2) element row-major [a, b, c, d].  It also accepts the
point as a numpy array, which it converts once, so that scipy's solvers
can call action.infinitesimal(f(y), y) on their own arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .actions import (DomainError, Gl2PlaneAction, GroupAction,
                      Se3CoadjointAction, So3SphereAction, _entries)
from .controller import ConfigError


def _require_finite(params) -> None:
    """ValueError naming the first field of params with a non-finite entry."""
    for name, value in asdict(params).items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RigidBodyParams:
    inertia: tuple = (1.0, 2.0, 5.0)
    m: float = 1.0

    def __post_init__(self):
        _require_finite(self)
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
        _require_finite(self)
        if min(self.inertia) <= 0.0:
            raise ValueError("inertia entries must be positive")
        if abs(np.linalg.norm(self.chi) - 1.0) > 1e-12:
            raise ValueError("chi must be a unit vector")


@dataclass(frozen=True)
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


def rigid_body(inertia=(1.0, 2.0, 5.0), m: float = 1.0,
               seed: int = 7) -> Problem:
    """Free rigid body: the momentum direction evolves on the unit sphere.

    f(xi) is the rotation generator with axis -m * I^{-1} xi, so the
    induced field is m * xi x I^{-1} xi (the Euler equations).  The default
    initial state is a seeded random unit vector; relative error control is
    disabled since the state norm is constant at 1.
    """
    p = RigidBodyParams(tuple(float(v) for v in inertia), float(m))
    inv_inertia = 1.0 / np.asarray(p.inertia, float)
    mass = p.m

    i1, i2, i3 = inv_inertia.tolist()

    def f(y):
        y1, y2, y3 = y if type(y) is list else _entries(y)
        return [-mass * (i1 * y1), -mass * (i2 * y2), -mass * (i3 * y3)]

    def ambient_field(y):
        y1, y2, y3 = y.tolist()
        w1, w2, w3 = i1 * y1, i2 * y2, i3 * y3
        return np.array([mass * (y2 * w3 - y3 * w2),
                         mass * (y3 * w1 - y1 * w3),
                         mass * (y1 * w2 - y2 * w1)])

    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(3)
    y0 /= np.linalg.norm(y0)

    return Problem(
        name="rigid-body",
        action=So3SphereAction(),
        f=f,
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
    mu = p.mu

    def f(y):
        x, v = y if type(y) is list else _entries(y)
        if x == 0.0 and v == 0.0:
            raise DomainError("Van der Pol state reached the origin, "
                              "which is outside the GL(2) orbit")
        # x * x on a Python float: a huge state squares to inf without the
        # overflow warning of numpy's ** 2
        return [0.0, 1.0, -1.0, mu * (1.0 - x * x)]

    return Problem(
        name="van-der-pol",
        action=Gl2PlaneAction(),
        f=f,
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
    p = HeavyTopParams(tuple(float(v) for v in inertia), float(m), float(g),
                       tuple(float(v) for v in chi))
    inv_inertia = 1.0 / np.asarray(p.inertia, float)
    mg_chi = p.m * p.g * np.asarray(p.chi, float)

    i1, i2, i3 = inv_inertia.tolist()
    c1, c2, c3 = mg_chi.tolist()

    def f(y):
        m1, m2, m3, _, _, _ = y if type(y) is list else _entries(y)
        return [i1 * m1, i2 * m2, i3 * m3, c1, c2, c3]

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
        f=f,
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
    """Look up a problem by id and apply parameter overrides.

    A parameter the problem does not take, or a value its builder rejects,
    raises ConfigError naming the problem and the parameter.
    """
    try:
        builder = PROBLEM_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: "
                       + ", ".join(sorted(PROBLEM_BUILDERS))) from None
    params = params or {}
    for key, value in params.items():
        try:
            builder(**{key: value})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem {name!r} rejects parameter "
                              f"{key}={value!r}: {exc}") from None
    return builder(**params)
