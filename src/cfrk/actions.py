"""Homogeneous-space group actions used by the integrators.

Three concrete geometries are provided:

* rotations acting on the unit sphere (rigid body),
* GL(2) acting on the punctured plane by matrix-vector product (Van der Pol
  in first-order form),
* SE(3) acting on the dual of its algebra by the coadjoint action (heavy
  top).

Each geometry packages the same small contract, GroupAction: the group
exponential, the action on points and the infinitesimal action (the vector
field an algebra element generates), with an ambient Euclidean metric by
default; the step combines algebra elements itself, on lists.  Every
exponential is closed-form (Rodrigues for so(3), the eigenvalue form for
gl(2), the screw form for se(3)): no general matrix exponential is called
on the integration path.

exp and act work on Python floats.  exp takes the algebra element as a
flat list of floats (a 2x2 gl(2) element row-major) and returns the group
element as a flat list too: for so(3) the action-only (x, y, z, A, B),
a vector and the Rodrigues coefficients of the rotation about it, never
the rotation's entries; the four entries of a 2x2 matrix; or for SE(3)
the nine rotation entries followed by the translation.  act takes such
an element and a point given as a list of floats, writes each product
out as multiply-adds, and returns the new point as a list.  The sums run
left to right with no fused multiply-add, so against BLAS's dgemv, which
fuses, the gl(2) and se(3) products differ in the last bit on many inputs,
within n eps (|G| @ |p|) for an n-term product.

Each formula is written once, as a Block: straight-line source over named
float locals, which may reassign its inputs.  One compiler, _body, turns a
Block into a float function: at import each geometry's exp and act become
module-level float bodies bound as static methods, so a call runs one
Python frame (it compiles the packaged fields and the controller's
formulas too).  The only guard in a body is `x if type(x) is list else
_floats(x, ...)`: a list is unpacked as it is, and one of the wrong length
raises the unpacking's ValueError; numpy input is checked for shape (a
ValueError naming the shape it got) and converted once: an algebra element
or point as an array, and for act an so(3) element of five entries or a
2x2 matrix as an array or an SE(3) element as an Se3Element.  There is one
so(3) exponential, _SO3_EXP's element (w, A, B): so3_exp and se(3)'s exp
continue its source to the rotation's entries I + A K_w + B K_w^2, so
their rotations have the same bits; gl(2)'s exp picks its branch by one
test on D and takes each e^x from math.exp (not np.exp, whose float64
loop numpy picks by CPU), behind a guard written in
its block, `x = math.inf if x > 709.782712893384 else math.exp(x)` (inf
where math.exp would raise OverflowError, NaN kept), wherever x can
overflow (e^mu of the cosh/sinh branch cannot), so no body needs numpy
and an inlined exponential calls no Python-level function.  The public
kernels so3_exp, gl2_exp, se3_exp and coadjoint_act check their input,
call bodies of the same blocks and return numpy matrices, an Se3Element
or a numpy vector.  The compiled loops of an action whose exp and act
are these bodies run their blocks inline (INLINE; see
stepper.inline_length); where the packaged field's entry a is the run
constant 0.0 (Van der Pol), the inlined gl(2) exponential takes the 0.0
form it declares for a (Block.zero), so that entry is never formed.
ambient_norm and ambient_distance use a list as it is and convert
anything else once.
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

# a string literal on one line: Block's comment stripping and inline's
# renames leave it as it is
_STRING = r"""("|')(?:\\.|(?!\1).)*\1"""
# a name, not a string's prefix, not an attribute
_NAME = re.compile(_STRING + r"""|(?<![\w.])[A-Za-z_]\w*\b(?!["'])""")


class Block:
    """One formula as straight-line source over named float locals.

    params holds one tuple of input names per argument (one for exp; for
    act the group element's entries, then the point's), and results names
    the outputs.  The source may branch, but every branch assigns every
    result and none returns, so the block can run inside a larger
    function; a result named as an input passes that input through, and
    inline then needs one local for both.  A block may reassign an input:
    inlined, it then writes to that argument's own local.  It reads no
    global but builtins and what the code it is compiled into provides
    (BLOCK_GLOBALS).  temps names the other locals it assigns.  Its string
    literals are plain, each on one line: inline renames no word inside
    one, so an f-string's fields would not be renamed.

    constants maps each run-constant result to the source of its value: a
    result the block assigns by a statement that is a whole line, `name =
    value`, with value a float literal written with a point (as -1.0 or
    2.5e-3), and names nowhere else.  This is the one statement of the
    rule: inline leaves those lines out, so a compiled loop that runs the
    block in place of f neither stores nor carries such a result, and
    writes each row sum over it from the constant (stepper.row_sum).

    zero maps an input to its 0.0 form: each fragment of the source to
    what it becomes where that input is the run constant 0.0, with the
    same results (ValueError when the block is built if a fragment is not
    in its code).  A compiled loop whose field makes that input the
    constant 0.0 then forms no entry for it: inline rewrites the lines,
    and the input is read nowhere.
    """

    def __init__(self, params, results: str, source: str, zero=None):
        self.params = tuple(tuple(names.split()) for names in params)
        self.results = tuple(results.split())
        self.source = source.strip()
        tree = ast.parse(self.source)
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
        self.temps = {node.id for node in nodes
                      if isinstance(node.ctx, ast.Store)}.difference(
                          self.results, *self.params)
        self._code = re.sub(_STRING + r"|[ \t]*#.*",
                            lambda m: m[0] if m[1] else "",
                            self.source).splitlines()
        lines = self.source.encode().splitlines()  # offsets count bytes
        whole = {lines[s.lineno - 1][s.col_offset:s.end_col_offset].decode()
                 for s in tree.body if s.lineno == s.end_lineno}
        named = [node.id for node in nodes]
        self.constants = {  # from the statements that are whole lines
            name: value for name, _, value in
            (line.partition(" = ") for line in self._code if line in whole)
            if name in self.results and named.count(name) == 1
            and re.fullmatch(r"-?\d+\.\d+(e[-+]?\d+)?", value)}
        self.zero = zero or {}
        missing = [old for rewrites in self.zero.values() for old in rewrites
                   if old not in "\n".join(self._code)]
        if missing:
            raise ValueError(f"the block has no {missing[0]!r} to rewrite")

    def inline(self, args, results, zero=()) -> list:
        """The block's lines with its inputs read from (and reassigned in)
        the locals args, one sequence of names per argument (an input it
        only reads may be any expression), its results written to the
        locals results, and every temp prefixed with '_'.  The lines of
        the constants are left out: those results are not assigned.  The
        inputs named in zero are 0.0: the lines take their 0.0 forms, and
        a ValueError is raised if one of them is still read."""
        names = {p: a for ps, xs in zip(self.params, args)
                 for p, a in zip(ps, xs, strict=True)}
        names.update(zip(self.results, results, strict=True))
        names.update((t, "_" + t) for t in self.temps)
        code = self._code
        for p in zero:
            for old, new in self.zero[p].items():
                code = [line.replace(old, new) for line in code]
            if any(m[0] == p for line in code for m in _NAME.finditer(line)):
                raise ValueError(f"{p} is still read in its 0.0 form")
        # a constant's name is on its own line only
        return [_NAME.sub(lambda m: names.get(m[0], m[0]), line)
                for line in code
                if line.partition(" = ")[0] not in self.constants]


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


def _body(name: str, block: Block, namespace=None, **convert: str):
    """block compiled as the float body name(arg, ..., *rest) returning
    its results as a list, with namespace (this module's by default) as its
    globals.  Each arg in convert is one input tuple, a list unpacked as it
    is or anything else converted by its expression; rest are the inputs
    of the remaining tuples."""
    lines = [f"{', '.join(ps)} = ({arg} if type({arg}) is list else {conv})"
             for (arg, conv), ps in zip(convert.items(), block.params)]
    rest = [p for ps in block.params[len(convert):] for p in ps]
    return compile_function(name, ", ".join([*convert, *rest]),
                            lines + block.source.splitlines(),
                            f"[{', '.join(block.results)}]",
                            globals() if namespace is None else namespace)


# --------------------------------------------------------------- so(3)

_ROTATION = "r11 r12 r13 r21 r22 r23 r31 r32 r33"

# A step's so(3) element is action-only: the five floats (x, y, z, A, B)
# of the rotation I + A K + B K^2, K w = (x, y, z) x w, never its nine
# entries.  Below theta = |v| = 1e-4, (x, y, z) is v itself with
# A = sin t / t and B = (1 - cos t) / t^2 as short Taylor expansions (the
# closed forms lose digits to cancellation there); above it, the unit axis
# v / t with A = sin t and B = 1 - cos t, so that act's products stay
# within 2 |p| (with w = v, v x (v x p) would overflow once |v|^2 |p|
# passes 1e308, where the rotation stays finite).  An infinite or NaN t^2
# (an algebra element that overflowed) gives NaN coefficients, so the
# state turns non-finite instead of math.sin raising a domain error.
_SO3_EXP = Block(["x y z"], "x y z A B", """
t2 = x * x + y * y + z * z
if t2 < 1e-8:  # theta < 1e-4
    A = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 ** 3 / 5040.0
    B = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 ** 3 / 40320.0
elif t2 < math.inf:
    t = math.sqrt(t2)
    A, B = math.sin(t), 1.0 - math.cos(t)
    x, y, z = x / t, y / t, z / t
else:
    A = B = math.nan
""")

# The element applied to the point p = (p1, p2, p3): with w = (x, y, z),
# p + A w x p + B w x (w x p), the rotation's product without its entries.
_SO3_ACT = Block(["x y z A B", "p1 p2 p3"], "q1 q2 q3", """
c1 = y * p3 - z * p2
c2 = z * p1 - x * p3
c3 = x * p2 - y * p1
q1 = p1 + A * c1 + B * (y * c3 - z * c2)
q2 = p2 + A * c2 + B * (z * c1 - x * c3)
q3 = p3 + A * c3 + B * (x * c2 - y * c1)
""")

_so3_exp = _body("_so3_exp", _SO3_EXP, v="_floats(v, 3)")
_so3_act = _body("_so3_act", _SO3_ACT, g="_floats(g, 5)",
                 p="_floats(p, 3)")
# The 9 entries of that rotation, I + A K + B K^2 with
# K^2 = w w^T - |w|^2 I: the one so(3) exponential, continued.
_SO3_ROTATION = Block(["x y z"], _ROTATION, _SO3_EXP.source + """
xx, yy, zz = x * x, y * y, z * z
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
""")
_so3_rotation = _body("_so3_rotation", _SO3_ROTATION, v="_floats(v, 3)")


def so3_exp(v) -> np.ndarray:
    """Rotation matrix exp(K), K the skew matrix of v (K w = v x w), by the
    Rodrigues formula I + (sin t / t) K + ((1 - cos t) / t^2) K^2, t = |v|.

    Its entries are I + A K_w + B K_w^2 from the one so(3) element
    (w, A, B) that a step's exp returns (see _SO3_EXP), series below
    theta = 1e-4.  Raises ValueError unless v has exactly 3 components.
    """
    return np.array(_so3_rotation(_floats(v, 3))).reshape(3, 3)


# --------------------------------------------------------------- gl(2)

# gl2_exp on the entries of A = [[a, b], [c, d]]; see gl2_exp.  One test
# on D picks the branch.  From D >= 1e-6, s = sqrt(D) > 0: a strongly
# hyperbolic A takes the rearranged branch, where C * 0.0 is the
# off-diagonal of C*I: NaN once C overflows; any other takes cosh/sinh,
# where mu <= 700 - s (and mu is finite, as D is), so e^mu cannot
# overflow and is taken unguarded.  Below 1e-6 come the series, the
# trigonometric branch and, for D = -inf or NaN, NaN entries.  Every
# other e^x is guarded in place, with no helper call: inf above
# 709.78..., the log of the largest float, so math.exp never raises
# OverflowError; NaN stays NaN.  The 0.0 form of a (Block.zero; Van der
# Pol's a is 0.0) has the same results: for finite d, a * d is a zero and
# a + d is d but for the sign of a zero d, and no result reads mu's sign
# of zero; for infinite d, every entry is NaN either way.
_GL2_EXP = Block(["a b c d"], "g11 g12 g21 g22", """
mu = 0.5 * (a + d)
D = mu * mu - (a * d - b * c)
if D >= 1e-6:
    s = math.sqrt(D)
    if s > 30.0 or mu + s > 700.0:
        ep, em = mu + s, mu - s
        ep = math.inf if ep > 709.782712893384 else math.exp(ep)
        em = math.inf if em > 709.782712893384 else math.exp(em)
        C = 0.5 * (ep + em)
        S = 0.5 * (ep - em) / s
        z = C * 0.0
        g11 = C + S * (a - mu)
        g12 = z + S * b
        g21 = z + S * c
        g22 = C + S * (d - mu)
    else:
        C = math.cosh(s)
        S = math.sinh(s) / s
        E = math.exp(mu)
        g11 = E * (C + S * (a - mu))
        g12 = E * (S * b)
        g21 = E * (S * c)
        g22 = E * (C + S * (d - mu))
else:
    if D > -1e-6:
        C = 1.0 + D / 2.0 + D * D / 24.0 + D ** 3 / 720.0 + D ** 4 / 40320.0
        S = 1.0 + D / 6.0 + D * D / 120.0 + D ** 3 / 5040.0 + D ** 4 / 362880.0
    elif D > -math.inf:
        s = math.sqrt(-D)
        C = math.cos(s)
        S = math.sin(s) / s
    else:  # D = -inf or NaN: non-finite entries, not a math domain error
        C = S = math.nan
    E = math.inf if mu > 709.782712893384 else math.exp(mu)
    g11 = E * (C + S * (a - mu))
    g12 = E * (S * b)
    g21 = E * (S * c)
    g22 = E * (C + S * (d - mu))
""", zero={"a": {"0.5 * (a + d)": "0.5 * d",
                 "mu * mu - (a * d - b * c)": "mu * mu + b * c",
                 "C + S * (a - mu)": "C - S * mu"}})

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

@dataclass(frozen=True, eq=False)
class Se3Element:
    """Group element (g, u): rotation matrix and translation vector.

    Composition follows (g, u) * (h, v) = (g h, g v + u).
    """
    rot: np.ndarray
    trans: np.ndarray


# se3_exp on (xi, u) = (x, y, z, u1, u2, u3): the so(3) rotation of xi,
# then the translation V u = u + P w x u + Q w x (w x u) on the same w:
# P = B and the series of Q = (t - sin t) / t^3 below theta = 1e-4, else
# P = (1 - cos t) / t = B / t and Q = (t - sin t) / t = 1 - A / t, so
# se(3) calls math.sin once, as so(3) does.  The block reassigns its
# inputs x, y, z (w = v / t), so inlined it writes to the locals it reads
# them from.
_SE3_EXP = Block(["x y z u1 u2 u3"], _ROTATION + " v1 v2 v3",
                 _SO3_ROTATION.source + """
if t2 < 1e-8:
    C = 1 / 6 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 ** 3 / 362880.0
elif t2 < math.inf:
    B, C = B / t, 1.0 - A / t
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


# An Se3Element is read as its rotation entries, then its translation.
_se3_exp = _body("_se3_exp", _SE3_EXP, a="_floats(a, 6)")
_se3_act = _body("_se3_act", _SE3_ACT,
                 g="_floats(g.rot, 3, 3) + _floats(g.trans, 3)",
                 m="_floats(m, 6)")


def se3_exp(a) -> Se3Element:
    """Exponential of (xi, u): rotation so3_exp(xi) and translation V(xi) u
    with V = sum_m K^m / (m+1)!, K the skew matrix of xi, that is
    u + ((1 - cos t) / t^2) xi x u + ((t - sin t) / t^3) xi x (xi x u),
    t = |xi|.

    Both continue the so(3) element (w, A, B) of xi (see so3_exp and
    _SE3_EXP): the rotation's entries are I + A K_w + B K_w^2, and the
    translation's coefficients are B and the series of (t - sin t) / t^3
    below theta = 1e-4 (w = xi), else B / t and 1 - A / t (w = xi / t).
    Raises ValueError unless a has exactly 6 components.
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
    return np.array(_se3_act(ge, _floats(m, 6)))


# What the blocks read besides their own locals.
BLOCK_GLOBALS = {"math": math, "DomainError": DomainError}

# Algebra length -> (exp body, act body, exp block, act block) of the
# geometry with that length: a compiled loop whose action's exp and act
# are these bodies runs their blocks inline (see stepper.inline_length).
INLINE = {3: (_so3_exp, _so3_act, _SO3_EXP, _SO3_ACT),
          4: (_gl2_exp, _gl2_act, _GL2_EXP, _GL2_ACT),
          6: (_se3_exp, _se3_act, _SE3_EXP, _SE3_ACT)}


# ----------------------------------------------------------- action contract

class GroupAction(ABC):
    """Contract a geometry implements for the commutator-free stepper:
    exp, act and infinitesimal; the ambient metric has defaults."""

    name: str = "abstract"
    # The length of every f value; None where the geometry does not fix it.
    algebra_length: int | None = None

    # No step calls these; benchmark/tracer.py's TracedAction forwards them.
    algebra_zero = algebra_axpy = None

    @abstractmethod
    def exp(self, v):
        """Group exponential of an algebra element, returned as a flat list
        of Python floats in the layout act reads: for so(3) the five
        floats (x, y, z, A, B) of the rotation I + A K + B K^2, K the skew
        matrix of w = (x, y, z): w = v with A = sin t / t and
        B = (1 - cos t) / t^2 below t = |v| = 1e-4, else w = v / t with
        A = sin t and B = 1 - cos t; for gl(2) the 2x2 matrix row-major;
        for se(3) the rotation row-major, then the translation.  v is a
        flat list of floats (what f returns and cf_step passes) or a numpy
        array, 2x2 for gl(2)."""

    @abstractmethod
    def act(self, g, p):
        """Apply a group element to a point; the new point is returned as a
        list of Python floats.  g is what exp returns, or the same entries
        as a numpy array (a 2x2 matrix for gl(2)) or, for se(3), an
        Se3Element; p is a list of floats or a numpy array."""

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

    exp = staticmethod(_so3_exp)
    act = staticmethod(_so3_act)

    def infinitesimal(self, v, p):
        """v x p, written out on floats as numpy's cross computes it, with
        its bits; np.cross itself costs about 40 us a call on 3-vectors
        (numpy 2.4), mostly in its Python-level axis handling."""
        a1, a2, a3 = _floats(v, 3)
        p1, p2, p3 = _floats(p, 3)
        return np.array([a2 * p3 - a3 * p2,
                         a3 * p1 - a1 * p3,
                         a1 * p2 - a2 * p1])


class Gl2PlaneAction(GroupAction):
    """Invertible 2x2 matrices acting on the punctured plane."""

    name = "gl2-plane"
    algebra_length = 4

    exp = staticmethod(_gl2_exp)
    act = staticmethod(_gl2_act)

    def infinitesimal(self, v, p):
        """v p, written out on floats; v is a flat row-major list of 4
        floats or a 2x2 array.  Against numpy's matmul, which BLAS may fuse,
        each entry agrees within 2 eps (|a x| + |b y|); a huge state
        overflows it to inf with no numpy warning, so initial_step needs no
        np.errstate."""
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
