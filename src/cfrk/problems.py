"""Benchmark problems packaged with their geometry.

Each problem bundles a group action, the algebra-valued coefficient map f
(so that y' is the infinitesimal action of f(y) at y), the same vector
field written out directly on the ambient space, a default initial state,
and evaluators for its conserved quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import (DomainError, Gl2PlaneAction, GroupAction,
                      Se3CoadjointAction, So3SphereAction)


@dataclass(frozen=True)
class RigidBodyParams:
    inertia: tuple = (1.0, 2.0, 5.0)
    m: float = 1.0

    def __post_init__(self):
        if min(self.inertia) <= 0.0:
            raise ValueError("inertia entries must be positive")


@dataclass(frozen=True)
class VdpParams:
    mu: float = 60.0


@dataclass(frozen=True)
class HeavyTopParams:
    inertia: tuple = (2.0, 2.0, 1.0)
    m: float = 1.0
    g: float = 1.0
    chi: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
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
    f: object  # Point -> AlgebraElement
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

    def f(y):
        return -mass * (inv_inertia * y)

    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(3)
    y0 /= np.linalg.norm(y0)

    return Problem(
        name="rigid-body",
        action=So3SphereAction(),
        f=f,
        ambient_field=lambda y: mass * np.cross(y, inv_inertia * y),
        default_y0=y0,
        use_rtol=False,
        invariants=lambda y: {"norm2": float(y @ y)},
        params=p,
    )


def van_der_pol(mu: float = 60.0) -> Problem:
    """Van der Pol oscillator in first-order form on the punctured plane.

    f(y) = [[0, 1], [-1, mu (1 - y1^2)]], acting by matrix-vector product.
    The origin is outside the action's domain.
    """
    p = VdpParams(float(mu))

    def f(y):
        if y[0] == 0.0 and y[1] == 0.0:
            raise DomainError("Van der Pol state reached the origin, "
                              "which is outside the GL(2) orbit")
        return np.array([[0.0, 1.0], [-1.0, p.mu * (1.0 - y[0] ** 2)]])

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

    def f(y):
        return np.concatenate([inv_inertia * y[:3], mg_chi])

    def ambient_field(y):
        mu_, beta = y[:3], y[3:]
        omega = inv_inertia * mu_
        return np.concatenate([np.cross(mu_, omega) + np.cross(beta, mg_chi),
                               np.cross(beta, omega)])

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
    """Look up a problem by id and apply parameter overrides."""
    try:
        builder = PROBLEM_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: "
                       + ", ".join(sorted(PROBLEM_BUILDERS))) from None
    return builder(**(params or {}))
