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
and an ambient Euclidean metric.

exp and act work on Python floats.  exp takes the algebra element as a
flat list of floats (a 2x2 gl(2) element row-major) and returns the group
element as a flat list too: the nine entries of a rotation, the four
entries of a 2x2 matrix, or for SE(3) the nine rotation entries followed
by the translation.  act takes such an element and a point given as a
list of floats, writes each product out as multiply-adds, and returns the
new point as a list.

Each formula is written once, as a Block: straight-line source over named
float locals.  At import each geometry's exp and act are compiled from
their blocks into module-level float bodies bound as static methods, so a
call runs one Python frame.  The only guard in a body is
`x if type(x) is list else _floats(x, ...)`: a list is unpacked as it is,
and one of the wrong length raises the unpacking's ValueError; numpy input
is checked for shape (a ValueError naming the shape it got) and converted
once: an algebra element or point as an array, and for act a rotation or
2x2 matrix as an array or an SE(3) element as an Se3Element.  se(3)'s exp
runs so(3)'s Rodrigues source, so its rotation has so3_exp's bits; gl(2)'s
takes e^x from math.exp through _exp, inf where math.exp would overflow,
so no body needs numpy.  The public kernels so3_exp, gl2_exp, se3_exp and
coadjoint_act check their input, call the same bodies and return numpy
matrices, an Se3Element or a numpy vector.  A step of an action whose exp
and act are these bodies runs their blocks inline (INLINE; see
stepper.inline_length).  ambient_norm and ambient_distance use a list as
it is and convert anything else once.
"""

from __future__ import annotations

import ast
import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Input outside the operation's mathematical domain."""


# ---------------------------------------------------------- float inputs

def _floats(v, *shape: int) -> list:
    """v's entries as a flat row-major list of Python floats; ValueError
    naming the shape of v unless it is exactly `shape`."""
    v = np.asarray(v, float)
    if v.shape != shape:
        raise ValueError(f"expected shape {shape}, got shape {v.shape}")
    return v.ravel().tolist()


def _entries(p) -> list:
    """The entries of p, any shape, as a flat row-major list of floats."""
    return np.asarray(p, float).ravel().tolist()


# ----------------------------------------------------------- formula blocks

class Block:
    """One formula as straight-line source over named float locals.

    params holds one tuple of input names per argument (one for exp; for
    act the group element's entries, then the point's), and results names
    the outputs.  The source may branch, but every branch assigns every
    result and none returns, so the block can run inside a larger
    function.  It reads no global but builtins and what the code it is
    compiled into provides (BLOCK_GLOBALS for the geometries' blocks).
    """

    def __init__(self, params, results: str, source: str):
        self.params = tuple(tuple(names.split()) for names in params)
        self.results = tuple(results.split())
        self.source = source.strip()
        stored = {node.id for node in ast.walk(ast.parse(self.source))
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        self.temps = stored - set(self.results)

    def inline(self, args, results) -> list:
        """The block's lines with its inputs read from the locals args (one
        sequence of names per argument), its results written to the locals
        results, and every other local it assigns prefixed with '_'."""
        names = {p: a for ps, xs in zip(self.params, args)
                 for p, a in zip(ps, xs, strict=True)}
        names.update(zip(self.results, results, strict=True))
        names.update((t, "_" + t) for t in self.temps)
        code = re.sub(r"[ \t]*#.*", "", self.source)
        return re.sub(r"(?<![\w.])[A-Za-z_]\w*",
                      lambda m: names.get(m[0], m[0]), code).splitlines()


def compile_function(name: str, params: str, lines, result, namespace):
    """The function `def name(params): lines; return result`, compiled
    with namespace as its globals, with its source as .source; without a
    return line when result is None."""
    lines = [f"def {name}({params}):", *lines]
    if result is not None:
        lines.append(f"return {result}")
    source = "\n    ".join(lines) + "\n"
    local = {}
    exec(compile(source, f"<cfrk {name}>", "exec"), namespace, local)
    local[name].source = source
    return local[name]


def _body(name: str, block: Block, **convert: str):
    """block compiled as the float body name(arg, ...): each argument, a
    list unpacked as it is or anything else converted by its expression in
    convert, then the results as a list."""
    lines = [f"{', '.join(ps)} = ({arg} if type({arg}) is list else {conv})"
             for (arg, conv), ps in zip(convert.items(), block.params)]
    return compile_function(name, ", ".join(convert),
                            lines + block.source.splitlines(),
                            f"[{', '.join(block.results)}]", globals())


# --------------------------------------------------------------- so(3)

_ROTATION = "r11 r12 r13 r21 r22 r23 r31 r32 r33"

# The 9 entries of I + A K + B K^2, K w = v x w, K^2 = v v^T - |v|^2 I, at
# v = (x, y, z).  A = sin t / t and B = (1 - cos t) / t^2 at t = |v|.
# Below theta = 1e-4 both switch to short Taylor expansions; the closed
# forms lose digits to cancellation there.  An infinite or NaN t^2 (an
# algebra element that overflowed) gives NaN coefficients, so the state
# turns non-finite instead of math.sin raising a domain error.
_RODRIGUES = """
xx, yy, zz = x * x, y * y, z * z
t2 = xx + yy + zz
if t2 < 1e-8:  # theta < 1e-4
    A = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 ** 3 / 5040.0
    B = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 ** 3 / 40320.0
elif t2 < math.inf:
    t = math.sqrt(t2)
    A = math.sin(t) / t
    B = (1.0 - math.cos(t)) / t2
else:
    A = B = math.nan
bxy, bxz, byz = B * (x * y), B * (x * z), B * (y * z)
ax, ay, az = A * x, A * y, A * z
r11 = 1.0 - B * (yy + zz)
r12 = bxy - az
r13 = bxz + ay
r21 = bxy + az
r22 = 1.0 - B * (xx + zz)
r23 = byz - ax
r31 = bxz - ay
r32 = byz + ax
r33 = 1.0 - B * (xx + yy)
"""
_SO3_EXP = Block(["x y z"], _ROTATION, _RODRIGUES)

# The rotation (row-major) applied to the point (p1, p2, p3).
_SO3_ACT = Block([_ROTATION, "p1 p2 p3"], "q1 q2 q3", """
q1 = r11 * p1 + r12 * p2 + r13 * p3
q2 = r21 * p1 + r22 * p2 + r23 * p3
q3 = r31 * p1 + r32 * p2 + r33 * p3
""")

_so3_exp = _body("_so3_exp", _SO3_EXP, v="_floats(v, 3)")
_so3_act = _body("_so3_act", _SO3_ACT, g="_floats(g, 3, 3)",
                 p="_floats(p, 3)")


def so3_exp(v) -> np.ndarray:
    """Rotation matrix exp(K), K the skew matrix of v (K w = v x w), by the
    Rodrigues formula I + (sin t / t) K + ((1 - cos t) / t^2) K^2, t = |v|.

    Below theta = 1e-4 the two trigonometric quotients switch to short
    Taylor expansions; the closed forms lose digits to cancellation there.
    Raises ValueError unless v has exactly 3 components.
    """
    return np.array(_so3_exp(_floats(v, 3))).reshape(3, 3)


# --------------------------------------------------------------- gl(2)

def _exp(x: float) -> float:
    """math.exp(x), inf where it would overflow; NaN stays NaN.  709.78...
    is log of the largest float, so math.exp never raises OverflowError."""
    return math.inf if x > 709.782712893384 else math.exp(x)


# gl2_exp on the entries of A = [[a, b], [c, d]]; see gl2_exp.  s > 0
# exactly when D > 0 outside the series; a strongly hyperbolic A takes the
# rearranged branch, where C * 0.0 is the off-diagonal of C*I: NaN once C
# overflows.
_GL2_EXP = Block(["a b c d"], "g11 g12 g21 g22", """
mu = 0.5 * (a + d)
D = mu * mu - (a * d - b * c)
s = math.sqrt(D) if D >= 1e-6 else 0.0
if s > 30.0 or (s > 0.0 and mu + s > 700.0):
    ep = _exp(mu + s)
    em = _exp(mu - s)
    C = 0.5 * (ep + em)
    S = 0.5 * (ep - em) / s
    z = C * 0.0
    g11 = C + S * (a - mu)
    g12 = z + S * b
    g21 = z + S * c
    g22 = C + S * (d - mu)
else:
    if abs(D) < 1e-6:
        C = 1.0 + D / 2.0 + D * D / 24.0 + D ** 3 / 720.0 + D ** 4 / 40320.0
        S = 1.0 + D / 6.0 + D * D / 120.0 + D ** 3 / 5040.0 + D ** 4 / 362880.0
    elif s > 0.0:
        C = math.cosh(s)
        S = math.sinh(s) / s
    elif D > -math.inf:
        s = math.sqrt(-D)
        C = math.cos(s)
        S = math.sin(s) / s
    else:  # D = -inf or NaN: non-finite entries, not a math domain error
        C = S = math.nan
    E = _exp(mu)
    g11 = E * (C + S * (a - mu))
    g12 = E * (S * b)
    g21 = E * (S * c)
    g22 = E * (C + S * (d - mu))
""")

# The 2x2 matrix (row-major) applied to the point (x, y).
_GL2_ACT = Block(["g11 g12 g21 g22", "x y"], "q1 q2", """
q1 = g11 * x + g12 * y
q2 = g21 * x + g22 * y
""")

_gl2_exp = _body("_gl2_exp", _GL2_EXP, A="_floats(A, 2, 2)")
_gl2_act = _body("_gl2_act", _GL2_ACT, g="_floats(g, 2, 2)",
                 p="_floats(p, 2)")


def gl2_exp(A) -> np.ndarray:
    """Exponential of a real 2x2 matrix in closed form.

    Writing A = mu*I + B with tr(B) = 0 and D = mu^2 - det(A) = -det(B),
    exp(A) = e^mu (C(D) I + S(D) B) where C, S are cosh/cos and sinhc/sinc
    depending on the sign of D.  Within 1e-6 of the branch point D = 0 both
    are evaluated by their common power series in D.

    For strongly hyperbolic input (large sqrt(D)) the e^mu cosh/sinh
    products are rearranged into the two eigenvalue exponentials
    e^(mu +- sqrt(D)) so that stiff but contractive matrices do not
    overflow in intermediates; genuinely divergent input, and input whose
    D is -inf or NaN, yields non-finite entries rather than an exception.
    Raises ValueError unless A is 2x2.
    """
    return np.array(_gl2_exp(_floats(A, 2, 2))).reshape(2, 2)


# --------------------------------------------------------------- se(3)

@dataclass(frozen=True)
class Se3Element:
    """Group element (g, u): rotation matrix and translation vector.

    Composition follows (g, u) * (h, v) = (g h, g v + u).
    """
    rot: np.ndarray
    trans: np.ndarray


# se3_exp on (xi, u) = (x, y, z, u1, u2, u3): the so(3) rotation of xi,
# then the translation with C = (t - sin t) / t^3 beside its A and B.
_SE3_EXP = Block(["x y z u1 u2 u3"], _ROTATION + " v1 v2 v3",
                 _RODRIGUES + """
if t2 < 1e-8:
    C = 1 / 6 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 ** 3 / 362880.0
elif t2 < math.inf:
    C = (t - math.sin(t)) / (t2 * t)
else:
    C = math.nan
w1, w2, w3 = y * u3 - z * u2, z * u1 - x * u3, x * u2 - y * u1
v1 = u1 + B * w1 + C * (y * w3 - z * w2)
v2 = u2 + B * w2 + C * (z * w1 - x * w3)
v3 = u3 + B * w3 + C * (x * w2 - y * w1)
""")

# The coadjoint action of (g, u), g row-major, on (mu, beta):
# g^T w and g^T beta with w = mu - u x beta.
_SE3_ACT = Block([_ROTATION + " u1 u2 u3", "m1 m2 m3 b1 b2 b3"],
                 "q1 q2 q3 q4 q5 q6", """
w1 = m1 - (u2 * b3 - u3 * b2)
w2 = m2 - (u3 * b1 - u1 * b3)
w3 = m3 - (u1 * b2 - u2 * b1)
q1 = w1 * r11 + w2 * r21 + w3 * r31
q2 = w1 * r12 + w2 * r22 + w3 * r32
q3 = w1 * r13 + w2 * r23 + w3 * r33
q4 = b1 * r11 + b2 * r21 + b3 * r31
q5 = b1 * r12 + b2 * r22 + b3 * r32
q6 = b1 * r13 + b2 * r23 + b3 * r33
""")


def _se3_floats(ge: Se3Element) -> list:
    """The rotation entries, row-major, then the translation of ge."""
    return _floats(ge.rot, 3, 3) + _floats(ge.trans, 3)


_se3_exp = _body("_se3_exp", _SE3_EXP, a="_floats(a, 6)")
_se3_act = _body("_se3_act", _SE3_ACT, g="_se3_floats(g)",
                 m="_floats(m, 6)")


def se3_exp(a) -> Se3Element:
    """Exponential of (xi, u): rotation so3_exp(xi) and translation V(xi) u
    with V = sum_m K^m / (m+1)!, K the skew matrix of xi, evaluated as
    u + B xi x u + C xi x (xi x u) with B = (1 - cos t) / t^2 and
    C = (t - sin t) / t^3, t = |xi|.

    Below theta = 1e-4 the trigonometric quotients switch to short Taylor
    expansions, as in so3_exp.  Raises ValueError unless a has exactly 6
    components.
    """
    g = _se3_exp(_floats(a, 6))
    return Se3Element(np.array(g[:9]).reshape(3, 3), np.array(g[9:]))


def coadjoint_act(ge: Se3Element, m) -> np.ndarray:
    """Coadjoint action of (g, u) on (mu, beta):
    (g^T (mu - u x beta), g^T beta).

    With w = mu - u x beta, each entry of g^T w and g^T beta is written out
    as three products summed left to right.  Raises ValueError unless m has
    exactly 6 components.
    """
    return np.array(_se3_act(_se3_floats(ge), _floats(m, 6)))


# What the blocks read besides their own locals.
BLOCK_GLOBALS = {"math": math, "_exp": _exp}

# Algebra length -> (exp body, act body, exp block, act block) of the
# geometry with that length: a step kernel whose action's exp and act are
# these bodies runs their blocks inline (see stepper.py).
INLINE = {3: (_so3_exp, _so3_act, _SO3_EXP, _SO3_ACT),
          4: (_gl2_exp, _gl2_act, _GL2_EXP, _GL2_ACT),
          6: (_se3_exp, _se3_act, _SE3_EXP, _SE3_ACT)}


# ----------------------------------------------------------- action contract

class GroupAction(ABC):
    """Contract a geometry implements for the commutator-free stepper."""

    name: str = "abstract"
    # The length of every f value; None where the geometry does not fix it.
    algebra_length: int | None = None

    @abstractmethod
    def algebra_zero(self):
        """Zero element of the Lie algebra as a numpy array (2x2 for
        gl(2)), not the flat list f returns.

        cfrk itself does not call this; it remains only because the
        benchmark's tracing proxy forwards it by name.
        """

    def algebra_axpy(self, coeff: float, v, acc):
        """acc + coeff * v on numpy arrays; the flat lists f returns do not
        support it.

        cf_step forms this sum inline; the method remains only because the
        benchmark's tracing proxy forwards it by name.
        """
        return acc + coeff * v

    @abstractmethod
    def exp(self, v):
        """Group exponential of an algebra element, returned as a flat list
        of Python floats.  v is a flat list of floats (what f returns and
        cf_step passes) or a numpy array, 2x2 for gl(2)."""

    @abstractmethod
    def act(self, g, p):
        """Apply a group element to a point; the new point is returned as a
        list of Python floats.  g is what exp returns or the public
        kernel's numpy form; p is a list of floats or a numpy array."""

    @abstractmethod
    def infinitesimal(self, v, p):
        """d/dt at t=0 of act(exp(t v), p), as an ambient vector."""

    def ambient_norm(self, p) -> float:
        """Euclidean norm of the point, a flat list of floats or an array
        (flattened): math.hypot of its entries."""
        return math.hypot(*(p if type(p) is list else _entries(p)))

    def ambient_distance(self, p, q) -> float:
        """Euclidean distance between two points, each a flat list of
        floats or an array (flattened): math.dist of their entries.

        Both metrics are correctly rounded in practice (math guarantees
        under 1 ulp) and scale by the largest entry, so finite input never
        overflows an intermediate sum of squares; a list is used as it is,
        an array converted once.
        """
        return math.dist(p if type(p) is list else _entries(p),
                         q if type(q) is list else _entries(q))


class So3SphereAction(GroupAction):
    """Rotations acting on vectors in R^3 (restricting to the sphere)."""

    name = "so3-sphere"
    algebra_length = 3

    def algebra_zero(self):
        return np.zeros(3)

    exp = staticmethod(_so3_exp)
    act = staticmethod(_so3_act)

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
    algebra_length = 4

    def algebra_zero(self):
        return np.zeros((2, 2))

    exp = staticmethod(_gl2_exp)
    act = staticmethod(_gl2_act)

    def infinitesimal(self, v, p):
        """v p, written out on floats; v is a flat row-major list of 4
        floats or a 2x2 array."""
        a, b, c, d = v if type(v) is list else _floats(v, 2, 2)
        x, y = p if type(p) is list else _floats(p, 2)
        return np.array([a * x + b * y, c * x + d * y])


class Se3CoadjointAction(GroupAction):
    """SE(3) acting on (mu, beta) pairs by the coadjoint action.

    This is a right action: act(ab, m) equals act(b, act(a, m)) for the
    product ab of Se3Element.  Applying group elements in evaluation order
    therefore composes their flows in the same order as for the matrix
    geometries.
    """

    name = "se3-coadjoint"
    algebra_length = 6

    def algebra_zero(self):
        return np.zeros(6)

    exp = staticmethod(_se3_exp)
    act = staticmethod(_se3_act)

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
