"""Homogeneous-space group actions used by the integrators.

Three concrete geometries are provided:

* rotations acting on the unit sphere (rigid body),
* GL(2) acting on the punctured plane by matrix-vector product (Van der Pol
  in first-order form),
* SE(3) acting on the dual of its algebra by the coadjoint action (heavy
  top).

Each geometry packages the same small contract: linear operations on
algebra elements, the group exponential, the action on points, the
infinitesimal action (the vector field generated by an algebra element),
and an ambient Euclidean metric.  Points and algebra elements are plain
numpy arrays; group elements are whatever the geometry finds convenient
(matrices, or a rotation/translation pair).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Input outside the operation's mathematical domain."""


# ------------------------------------------------------------ so(3) basics

def hat(v) -> np.ndarray:
    """Skew matrix of a 3-vector: hat(v) @ w == cross(v, w)."""
    v = np.asarray(v, float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vee(M) -> np.ndarray:
    """Inverse of hat.  Rejects matrices that are not skew within 1e-12."""
    M = np.asarray(M, float)
    if M.shape != (3, 3) or np.max(np.abs(M + M.T)) > 1e-12:
        raise DomainError("vee expects an antisymmetric 3x3 matrix")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _floats(v, *shape: int) -> list:
    """v as (nested) lists of Python floats; ValueError naming the shape
    of v unless it is exactly `shape`."""
    v = np.asarray(v, float)
    if v.shape != shape:
        raise ValueError(f"expected shape {shape}, got shape {v.shape}")
    return v.tolist()


def _rodrigues_coeffs(t2: float) -> tuple:
    """(sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3) at t = sqrt(t2).

    Below theta = 1e-4 the three quotients switch to short Taylor
    expansions; the closed forms lose digits to cancellation there.
    """
    if t2 < 1e-8:  # theta < 1e-4
        A = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 ** 3 / 5040.0
        B = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 ** 3 / 40320.0
        C = 1 / 6 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 ** 3 / 362880.0
    else:
        t = math.sqrt(t2)
        s = math.sin(t)
        A = s / t
        B = (1.0 - math.cos(t)) / t2
        C = (t - s) / (t2 * t)
    return A, B, C


def _rotation(x: float, y: float, z: float, A: float, B: float) -> np.ndarray:
    """I + A hat(v) + B hat(v)^2 for v = (x, y, z), entry by entry
    (hat(v)^2 = v v^T - |v|^2 I)."""
    xx, yy, zz = x * x, y * y, z * z
    bxy, bxz, byz = B * (x * y), B * (x * z), B * (y * z)
    ax, ay, az = A * x, A * y, A * z
    return np.array([1.0 - B * (yy + zz), bxy - az, bxz + ay,
                     bxy + az, 1.0 - B * (xx + zz), byz - ax,
                     bxz - ay, byz + ax, 1.0 - B * (xx + yy)]).reshape(3, 3)


def so3_exp(v) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the Rodrigues formula
    I + (sin t / t) hat(v) + ((1 - cos t) / t^2) hat(v)^2, t = |v|.

    Below theta = 1e-4 the two trigonometric quotients switch to short
    Taylor expansions; the closed forms lose digits to cancellation there.
    Raises ValueError unless v has exactly 3 components.
    """
    x, y, z = _floats(v, 3)
    A, B, _ = _rodrigues_coeffs(x * x + y * y + z * z)
    return _rotation(x, y, z, A, B)


# ------------------------------------------------------------- gl(2) basics

def _np_exp(x: float) -> float:
    """float(np.exp(x)), silent when it overflows to inf.

    np.exp rather than math.exp, whose last bit differs on a few percent
    of inputs; the errstate context costs more than the exponential, so it
    is entered only where np.exp can overflow.
    """
    if x >= 709.0:
        with np.errstate(over="ignore"):
            return float(np.exp(x))
    return float(np.exp(x))


def gl2_exp(A) -> np.ndarray:
    """Exponential of a real 2x2 matrix in closed form.

    Writing A = mu*I + B with tr(B) = 0 and D = mu^2 - det(A) = -det(B),
    exp(A) = e^mu (C(D) I + S(D) B) where C, S are cosh/cos and sinhc/sinc
    depending on the sign of D.  Within 1e-6 of the branch point D = 0 both
    are evaluated by their common power series in D.

    For strongly hyperbolic input (large sqrt(D)) the e^mu cosh/sinh
    products are rearranged into the two eigenvalue exponentials
    e^(mu +- sqrt(D)) so that stiff but contractive matrices do not
    overflow in intermediates; genuinely divergent input yields
    non-finite entries rather than an exception.  Raises ValueError
    unless A is 2x2.
    """
    (a, b), (c, d) = _floats(A, 2, 2)
    mu = 0.5 * (a + d)
    D = mu * mu - (a * d - b * c)
    if abs(D) < 1e-6:
        C = 1.0 + D / 2.0 + D * D / 24.0 + D ** 3 / 720.0 + D ** 4 / 40320.0
        S = 1.0 + D / 6.0 + D * D / 120.0 + D ** 3 / 5040.0 + D ** 4 / 362880.0
    elif D > 0.0:
        s = math.sqrt(D)
        if s > 30.0 or mu + s > 700.0:
            ep = _np_exp(mu + s)
            em = _np_exp(mu - s)
            C = 0.5 * (ep + em)
            S = 0.5 * (ep - em) / s
            # C * 0.0 is the off-diagonal of C*I: NaN once C overflows
            z = C * 0.0
            return np.array([C + S * (a - mu), z + S * b,
                             z + S * c, C + S * (d - mu)]).reshape(2, 2)
        C = math.cosh(s)
        S = math.sinh(s) / s
    else:
        s = math.sqrt(-D)
        C = math.cos(s)
        S = math.sin(s) / s
    E = _np_exp(mu)
    return np.array([E * (C + S * (a - mu)), E * (S * b),
                     E * (S * c), E * (C + S * (d - mu))]).reshape(2, 2)


# ------------------------------------------------------------- se(3) basics

@dataclass(frozen=True)
class Se3Element:
    """Group element (g, u): rotation matrix and translation vector.

    Composition follows (g, u) * (h, v) = (g h, g v + u).
    """
    rot: np.ndarray
    trans: np.ndarray

    def compose(self, other: "Se3Element") -> "Se3Element":
        return Se3Element(self.rot @ other.rot,
                          self.rot @ other.trans + self.trans)

    def inverse(self) -> "Se3Element":
        return Se3Element(self.rot.T, -(self.rot.T @ self.trans))

    @staticmethod
    def identity() -> "Se3Element":
        return Se3Element(np.eye(3), np.zeros(3))


def se3_bracket(a, b) -> np.ndarray:
    """Algebra bracket [(xi,u),(eta,v)] = (xi x eta, xi x v - eta x u).

    The cross products are written out on floats, with the same products
    and differences as numpy's cross.  Raises ValueError unless a and b have
    exactly 6 components.
    """
    x1, x2, x3, u1, u2, u3 = _floats(a, 6)
    e1, e2, e3, v1, v2, v3 = _floats(b, 6)
    return np.array([x2 * e3 - x3 * e2,
                     x3 * e1 - x1 * e3,
                     x1 * e2 - x2 * e1,
                     (x2 * v3 - x3 * v2) - (e2 * u3 - e3 * u2),
                     (x3 * v1 - x1 * v3) - (e3 * u1 - e1 * u3),
                     (x1 * v2 - x2 * v1) - (e1 * u2 - e2 * u1)])


def se3_exp(a) -> Se3Element:
    """Exponential of (xi, u): rotation so3_exp(xi) and translation V(xi) u
    with V the convergent series sum_m hat(xi)^m / (m+1)!, evaluated as
    u + B xi x u + C xi x (xi x u) with B = (1 - cos t) / t^2 and
    C = (t - sin t) / t^3, t = |xi|.

    Below theta = 1e-4 the trigonometric quotients switch to short Taylor
    expansions, as in so3_exp.  Raises ValueError unless a has exactly 6
    components.
    """
    x, y, z, u1, u2, u3 = _floats(a, 6)
    A, B, C = _rodrigues_coeffs(x * x + y * y + z * z)
    w1, w2, w3 = y * u3 - z * u2, z * u1 - x * u3, x * u2 - y * u1
    trans = np.array([u1 + B * w1 + C * (y * w3 - z * w2),
                      u2 + B * w2 + C * (z * w1 - x * w3),
                      u3 + B * w3 + C * (x * w2 - y * w1)])
    return Se3Element(_rotation(x, y, z, A, B), trans)


def coadjoint_act(ge: Se3Element, m) -> np.ndarray:
    """Coadjoint action of (g, u) on (mu, beta):
    (g^T (mu - u x beta), g^T beta).

    With w = mu - u x beta, both halves come from the one row-stacked
    product [w; beta] @ g.  Raises ValueError unless m has exactly 6
    components.
    """
    m1, m2, m3, b1, b2, b3 = _floats(m, 6)
    u1, u2, u3 = ge.trans.tolist()
    w = [m1 - (u2 * b3 - u3 * b2),
         m2 - (u3 * b1 - u1 * b3),
         m3 - (u1 * b2 - u2 * b1)]
    return (np.array([w, [b1, b2, b3]]) @ ge.rot).ravel()


# ----------------------------------------------------------- action contract

class GroupAction(ABC):
    """Contract a geometry implements for the commutator-free stepper."""

    name: str = "abstract"

    @abstractmethod
    def algebra_zero(self):
        """Zero element of the Lie algebra, in the representation f uses.

        cfrk itself does not call this; it remains only because the
        benchmark's tracing proxy forwards it by name.
        """

    def algebra_axpy(self, coeff: float, v, acc):
        """acc + coeff * v (algebra elements are numpy arrays here).

        cf_step forms this sum inline; the method remains only because the
        benchmark's tracing proxy forwards it by name.
        """
        return acc + coeff * v

    @abstractmethod
    def exp(self, v):
        """Group exponential of an algebra element."""

    @abstractmethod
    def act(self, g, p):
        """Apply a group element to a point."""

    @abstractmethod
    def infinitesimal(self, v, p):
        """d/dt at t=0 of act(exp(t v), p), as an ambient vector."""

    def ambient_norm(self, p) -> float:
        """Euclidean norm of the flattened point: the sqrt(x . x) that
        numpy's norm computes for 1-D real input, without its dispatch."""
        x = np.asarray(p, float).ravel()
        return math.sqrt(x.dot(x))

    def ambient_distance(self, p, q) -> float:
        x = (np.asarray(p, float) - np.asarray(q, float)).ravel()
        return math.sqrt(x.dot(x))


class So3SphereAction(GroupAction):
    """Rotations acting on vectors in R^3 (restricting to the sphere)."""

    name = "so3-sphere"

    def algebra_zero(self):
        return np.zeros(3)

    def exp(self, v):
        return so3_exp(v)

    def act(self, g, p):
        return g @ p

    def infinitesimal(self, v, p):
        """v x p, written out on floats as numpy's cross computes it."""
        a1, a2, a3 = _floats(v, 3)
        p1, p2, p3 = _floats(p, 3)
        return np.array([a2 * p3 - a3 * p2,
                         a3 * p1 - a1 * p3,
                         a1 * p2 - a2 * p1])


class Gl2PlaneAction(GroupAction):
    """Invertible 2x2 matrices acting on the punctured plane."""

    name = "gl2-plane"

    def algebra_zero(self):
        return np.zeros((2, 2))

    def exp(self, v):
        return gl2_exp(v)

    def act(self, g, p):
        return g @ p

    def infinitesimal(self, v, p):
        return v @ p


class Se3CoadjointAction(GroupAction):
    """SE(3) acting on (mu, beta) pairs by the coadjoint action.

    This is a right action: act(a.compose(b), m) equals
    act(b, act(a, m)).  Applying group elements in evaluation order
    therefore composes their flows in the same order as for the matrix
    geometries.
    """

    name = "se3-coadjoint"

    def algebra_zero(self):
        return np.zeros(6)

    def exp(self, v):
        return se3_exp(v)

    def act(self, g, p):
        return coadjoint_act(g, p)

    def infinitesimal(self, v, p):
        """(-(xi x mu) - u x beta, -(xi x beta)), written out on floats as
        numpy's cross computes each product."""
        x1, x2, x3, u1, u2, u3 = _floats(v, 6)
        m1, m2, m3, b1, b2, b3 = _floats(p, 6)
        return np.array([-(x2 * m3 - x3 * m2) - (u2 * b3 - u3 * b2),
                         -(x3 * m1 - x1 * m3) - (u3 * b1 - u1 * b3),
                         -(x1 * m2 - x2 * m1) - (u1 * b2 - u2 * b1),
                         -(x2 * b3 - x3 * b2),
                         -(x3 * b1 - x1 * b3),
                         -(x1 * b2 - x2 * b1)])
