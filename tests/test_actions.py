"""Geometry tests: exponentials against power-series oracles, action
axioms, and the infinitesimal maps against finite differences."""

import struct
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.actions import (Gl2PlaneAction, Se3CoadjointAction, Se3Element,
                          So3SphereAction, coadjoint_act, gl2_exp, se3_exp,
                          so3_exp)


def series_expm(M, terms=40):
    """Plain truncated power series; the independent oracle for the
    closed-form exponentials."""
    M = np.asarray(M, float)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def skew(v):
    """Skew matrix of a 3-vector: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def se3_matrix(v):
    """(xi, u) embedded as the standard 4x4 homogeneous generator."""
    v = np.asarray(v, float)
    M = np.zeros((4, 4))
    M[:3, :3] = skew(v[:3])
    M[:3, 3] = v[3:]
    return M


def random_ball(rng, n, radius=2.0):
    v = rng.standard_normal(n)
    return v * (radius * rng.uniform(0.0, 1.0) / np.linalg.norm(v))


# -------------------------------------------------------- so(3) exponential

def test_so3_exp_matches_series():
    rng = np.random.default_rng(42)
    for _ in range(300):
        v = random_ball(rng, 3)
        assert_allclose(so3_exp(v), series_expm(skew(v)), atol=1e-12)


def test_so3_exp_small_angle_branch():
    rng = np.random.default_rng(43)
    inputs = [scale * rng.standard_normal(3)
              for scale in (1e-5, 1e-7, 1e-10, 0.0)]
    axis = rng.standard_normal(3)
    # either side of the series switch at theta = 1e-4
    inputs += [theta * axis / np.linalg.norm(axis)
               for theta in (0.999999e-4, 1.000001e-4)]
    inputs += [[3e-5, -2e-5, 1e-6], np.zeros(3, dtype=int)]
    for v in inputs:
        assert_allclose(so3_exp(v), series_expm(skew(v)), atol=1e-14)


def test_so3_exp_quarter_turn():
    R = so3_exp([np.pi / 2, 0.0, 0.0])
    assert_allclose(R @ [0, 1, 0], [0, 0, 1], atol=1e-15)
    assert_allclose(R @ [0, 0, 1], [0, -1, 0], atol=1e-15)
    assert_allclose(R @ [1, 0, 0], [1, 0, 0], atol=1e-15)


def test_so3_exp_is_rotation():
    rng = np.random.default_rng(44)
    for _ in range(100):
        R = so3_exp(random_ball(rng, 3))
        assert_allclose(R.T @ R, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(R) - 1.0) < 1e-14


def test_so3_one_parameter_subgroup():
    rng = np.random.default_rng(45)
    v = rng.standard_normal(3)
    for s, t in [(0.3, 0.4), (1.0, -0.7), (0.05, 0.05)]:
        assert_allclose(so3_exp((s + t) * v),
                        so3_exp(s * v) @ so3_exp(t * v), atol=1e-12)


# -------------------------------------------------------- gl(2) exponential

def test_gl2_exp_matches_series():
    rng = np.random.default_rng(46)
    for _ in range(300):
        A = rng.standard_normal((2, 2))
        A *= 2.0 * rng.uniform(0.0, 1.0) / np.linalg.norm(A)
        assert_allclose(gl2_exp(A), series_expm(A), atol=1e-12)


def test_gl2_exp_branches():
    # hyperbolic (D > 0), elliptic (D < 0) and the series branch near D = 0
    assert_allclose(gl2_exp(np.diag([0.3, -1.1])),
                    np.diag([np.exp(0.3), np.exp(-1.1)]), atol=1e-14)
    t = 0.8
    rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert_allclose(gl2_exp([[0.0, t], [-t, 0.0]]), rot, atol=1e-14)
    for d in (1e-7, -1e-7, 0.0):
        A = np.array([[0.2, 1.0], [d + 0.0, 0.2]])  # D = d
        assert_allclose(gl2_exp(A), series_expm(A), atol=1e-13)
    # the same branches with both off-diagonal entries nonzero
    for A in ([[0.3, 1.0], [0.5, -0.2]],  # hyperbolic, D = 0.5625
              [[0.1, 1.0], [-2.0, 0.3]]):  # elliptic, D = -1.99
        assert_allclose(gl2_exp(A), series_expm(A), atol=1e-14)
    for d in (5e-7, -5e-7):
        A = [[0.2, 1.0], [d, 0.2]]
        assert_allclose(gl2_exp(A), series_expm(A), atol=1e-13)
    # rearranged into e^(mu +- s): s > 30, and mu + s > 700 with s = 1;
    # B = [[0, s], [s, 0]], so exp(A) = e^mu (cosh s I + sinh s B / s)
    for mu, s in ((0.0, 40.0), (700.0, 1.0)):
        expect = np.exp(mu) * np.array([[np.cosh(s), np.sinh(s)],
                                        [np.sinh(s), np.cosh(s)]])
        assert_allclose(gl2_exp([[mu, s], [s, mu]]), expect, rtol=1e-13)


def test_gl2_exp_zero_is_identity():
    assert_allclose(gl2_exp(np.zeros((2, 2))), np.eye(2), atol=0)


def test_gl2_exp_strongly_hyperbolic_input():
    # both evaluation paths around the rearrangement threshold agree with
    # the exact diagonal exponential (the decaying entry is only accurate
    # in an absolute sense on the cosh/sinh side of the threshold)
    for s in (25.0, 35.0):
        assert_allclose(gl2_exp(np.diag([s, -s])),
                        np.diag([np.exp(s), np.exp(-s)]),
                        rtol=1e-13, atol=2e-11)
    assert gl2_exp(np.diag([35.0, -35.0]))[1, 1] == \
        pytest.approx(np.exp(-35.0), rel=1e-12)
    # a stiff contractive matrix must not overflow in intermediates even
    # though cosh of its half-spread would, nor warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = gl2_exp(np.array([[0.0, 0.01], [-0.01, -1e9]]))
    assert np.all(np.isfinite(E))
    assert np.linalg.norm(E, 2) <= 1.0 + 1e-12
    assert E[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert abs(E[1, 1]) < 1e-200


def test_gl2_exp_divergent_input_yields_non_finite_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(gl2_exp(np.diag([800.0, 800.0]))))
    assert not np.all(np.isfinite(gl2_exp(np.diag([800.0, 900.0]))))
    # e^(mu + s) overflows, so C = S = inf in C I + S B: the diagonal is
    # inf + inf (a - mu), NaN where a - mu < 0, and the off-diagonal
    # inf * 0 + S b is NaN, not +-inf
    expect = np.array([[np.inf, np.nan], [np.nan, np.nan]])
    for A in ([[800.0, 1.0], [2.0, 700.0]], [[1e3, 0.0], [0.0, -1e3]]):
        assert np.array_equal(gl2_exp(A), expect, equal_nan=True)


# -------------------------------------------------------- se(3) exponential

def test_se3_exp_matches_homogeneous_series():
    rng = np.random.default_rng(47)
    for _ in range(300):
        v = random_ball(rng, 6)
        ref = series_expm(se3_matrix(v))
        ge = se3_exp(v)
        assert_allclose(ge.rot, ref[:3, :3], atol=1e-12)
        assert_allclose(ge.trans, ref[:3, 3], atol=1e-12)


def test_se3_exp_small_rotation_branch():
    rng = np.random.default_rng(48)
    inputs = [np.concatenate([scale * rng.standard_normal(3),
                              rng.standard_normal(3)])
              for scale in (1e-5, 1e-8, 0.0)]
    axis = rng.standard_normal(3)
    # either side of the series switch at theta = 1e-4
    inputs += [np.concatenate([theta * axis / np.linalg.norm(axis),
                               rng.standard_normal(3)])
               for theta in (0.999999e-4, 1.000001e-4)]
    inputs += [[3e-5, -2e-5, 1e-6, 0.5, -1.0, 2.0],
               np.array([0, 0, 0, 1, -2, 3])]
    for v in inputs:
        ref = series_expm(se3_matrix(v))
        ge = se3_exp(v)
        assert_allclose(ge.rot, ref[:3, :3], atol=1e-14)
        assert_allclose(ge.trans, ref[:3, 3], atol=1e-14)


@pytest.mark.parametrize("call", [
    lambda: so3_exp(np.ones(4)),
    lambda: so3_exp([1.0, 2.0]),
    lambda: se3_exp(np.ones(5)),
    lambda: se3_exp(np.ones((2, 3))),
    lambda: coadjoint_act(Se3Element.identity(), np.ones(7)),
    lambda: gl2_exp(np.ones(4)),
    lambda: gl2_exp(np.ones((3, 3))),
    lambda: gl2_exp(np.ones((2, 3))),
    lambda: gl2_exp(np.ones((1, 2, 2))),
    lambda: So3SphereAction().infinitesimal(np.ones(3), np.ones(4)),
    lambda: Se3CoadjointAction().infinitesimal(np.ones(5), np.ones(6)),
])
def test_kernels_reject_wrong_length_input(call):
    with pytest.raises(ValueError, match=r"got shape \("):
        call()


@pytest.mark.parametrize("action,algebra,element", [
    (So3SphereAction(), (3,), np.eye(2)),
    (Gl2PlaneAction(), (2, 2), np.eye(3)),
    (Se3CoadjointAction(), (6,), Se3Element(np.eye(2), np.zeros(3))),
], ids=lambda x: getattr(x, "name", None))
def test_exp_and_act_reject_wrong_length_lists_and_wrong_shape_arrays(
        action, algebra, element):
    # a list is unpacked as it is; an array is checked for its shape
    n = int(np.prod(algebra))
    m = n // 2 if n == 4 else n  # the point's length
    g = action.exp([0.1] * n)
    p = [1.0] * m
    for bad in ([0.1] * (n - 1), [0.1] * (n + 1)):
        with pytest.raises(ValueError):
            action.exp(bad)
    for bad in (g[:-1], g + [0.0]):
        with pytest.raises(ValueError):
            action.act(bad, p)
    for bad in (p[:-1], p + [1.0]):
        with pytest.raises(ValueError):
            action.act(g, bad)
    for call in (lambda: action.exp(np.zeros(n + 1)),
                 lambda: action.exp(np.zeros((1, n))),
                 lambda: action.act(element, p),
                 lambda: action.act(g, np.zeros(m + 1))):
        with pytest.raises(ValueError, match=r"got shape \("):
            call()


def float_bits(values) -> bytes:
    """The float64 bytes of a list of floats, NaN payloads included."""
    return struct.pack(f"{len(values)}d", *values)


def test_se3_rotation_is_so3_exp_bitwise():
    # _se3_exp writes out _so3_exp's Rodrigues block again; both copies
    # must give the same bits on either side of the series switch at
    # theta = 1e-4 and on overflowed input
    rng = np.random.default_rng(62)
    so3, se3 = So3SphereAction(), Se3CoadjointAction()
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    vs = [_scaled(rng, 3, -7, 1.5).tolist() for _ in range(1000)]
    vs += [(theta * axis).tolist()
           for theta in (0.999999e-4, np.nextafter(1e-4, 0.0), 1e-4,
                         np.nextafter(1e-4, 1.0), 1.000001e-4)]
    vs += [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [np.inf, 0.0, 0.0],
           [0.0, -np.inf, 1.0], [np.nan, 0.0, 0.0], [1.0, np.nan, np.inf]]
    for v in vs:
        u = rng.standard_normal(3).tolist()
        assert float_bits(se3.exp(v + u)[:9]) == float_bits(so3.exp(v))
        assert se3_exp(v + u).rot.tobytes() == so3_exp(v).tobytes()


def test_se3_pure_translation():
    ge = se3_exp([0, 0, 0, 1.0, -2.0, 0.5])
    assert_allclose(ge.rot, np.eye(3), atol=0)
    assert_allclose(ge.trans, [1.0, -2.0, 0.5], atol=0)


def test_se3_element_group_structure():
    rng = np.random.default_rng(49)
    for _ in range(30):
        a = se3_exp(rng.standard_normal(6))
        b = se3_exp(rng.standard_normal(6))
        e = Se3Element.identity()
        ab = a.compose(b)
        assert_allclose(ab.rot, a.rot @ b.rot, atol=1e-15)
        assert_allclose(ab.trans, a.rot @ b.trans + a.trans, atol=1e-15)
        assert_allclose(e.compose(a).rot, a.rot, atol=0)


def _spread(rng, n, dim):
    """n random dim-vectors with magnitudes spread over twelve decades."""
    return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))


def test_cross_products_match_numpy_cross_bitwise():
    # the float forms must give the bits of the np.cross expressions they
    # replaced, not just agree to roundoff
    rng = np.random.default_rng(52)
    a, b = _spread(rng, 10_000, 6), _spread(rng, 10_000, 6)
    xi, u, eta, v = a[:, :3], a[:, 3:], b[:, :3], b[:, 3:]
    so3_ref = np.cross(xi, eta)
    se3_ref = np.concatenate([-np.cross(xi, eta) - np.cross(u, v),
                              -np.cross(xi, v)], axis=1)
    so3, se3 = So3SphereAction(), Se3CoadjointAction()
    assert np.array_equal(
        np.array([so3.infinitesimal(x, y) for x, y in zip(xi, eta)]), so3_ref)
    assert np.array_equal(
        np.array([se3.infinitesimal(x, y) for x, y in zip(a, b)]), se3_ref)


# --------------------------------------------- float exp and act vs numpy

EPS = np.finfo(float).eps


def _act_bound(G, p):
    """n eps (|G| @ |p|): twice the classical bound gamma_n |G| |p| on the
    error of an n-term dot product, so it holds between any two orderings
    of it, with or without fused multiply-adds."""
    G = np.asarray(G, float)
    return G.shape[1] * EPS * (np.abs(G) @ np.abs(np.asarray(p, float)))


def _scaled(rng, n, lo, hi):
    """A random n-vector of norm 10^u, u uniform in [lo, hi]."""
    v = rng.standard_normal(n)
    return v * (10.0 ** rng.uniform(lo, hi) / np.linalg.norm(v))


def _float_exp_act(action, v, p):
    """action.act(action.exp(v), p) from flat lists, checked to give the
    same bits as from numpy input."""
    g = action.exp(np.ravel(v).tolist())
    assert type(g) is list
    assert g == action.exp(v)
    q = action.act(g, p.tolist())
    assert type(q) is list
    assert q == action.act(g, p)
    return g, q


def test_so3_float_act_matches_numpy_kernel():
    rng = np.random.default_rng(60)
    action = So3SphereAction()
    series = 0
    for _ in range(10_000):
        v = _scaled(rng, 3, -7, 1.5)  # about a third below theta = 1e-4
        series += np.linalg.norm(v) < 1e-4
        p = _scaled(rng, 3, -3, 3)
        R = so3_exp(v)
        g, q = _float_exp_act(action, v, p)
        assert g == R.ravel().tolist()
        assert np.all(np.abs(np.array(q) - R @ p) <= _act_bound(R, p))
        assert action.act(R, p) == action.act(g, p)
    assert series > 2000


def test_se3_float_act_matches_numpy_kernel():
    rng = np.random.default_rng(61)
    action = Se3CoadjointAction()
    n = 10_000
    xi = np.array([_scaled(rng, 3, -7, 1.5) for _ in range(n)])
    u = np.array([_scaled(rng, 3, -3, 3) for _ in range(n)])
    M = np.array([_scaled(rng, 6, -3, 3) for _ in range(n)])
    assert np.count_nonzero(np.linalg.norm(xi, axis=1) < 1e-4) > 2000
    rot, trans, Q = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 6))
    for i, (v, m) in enumerate(zip(np.hstack([xi, u]), M)):
        ge = se3_exp(v)
        g, q = _float_exp_act(action, v, m)
        assert g == ge.rot.ravel().tolist() + ge.trans.tolist()
        assert q == coadjoint_act(ge, m).tolist()
        assert action.act(ge, m) == q
        rot[i], trans[i], Q[i] = ge.rot, ge.trans, q
    # against numpy: w = mu - u x beta, then g^T w and g^T beta by matmul
    W = M[:, :3] - np.cross(trans, M[:, 3:])
    gt = rot.transpose(0, 2, 1)
    for half, x in ((Q[:, :3], W), (Q[:, 3:], M[:, 3:])):
        ref = (gt @ x[:, :, None])[:, :, 0]
        bound = 3 * EPS * (np.abs(gt) @ np.abs(x)[:, :, None])[:, :, 0]
        assert np.all(np.abs(half - ref) <= bound)


def test_gl2_float_act_matches_numpy_kernel():
    rng = np.random.default_rng(62)
    action = Gl2PlaneAction()
    branches = dict(series=0, elliptic=0, hyperbolic=0, rearranged=0,
                    divergent=0)
    for _ in range(10_000):
        V = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-4, 3)
        p = _scaled(rng, 2, -3, 3)
        a, b, c, d = V.ravel()
        mu = 0.5 * (a + d)
        D = mu * mu - (a * d - b * c)
        s = np.sqrt(abs(D))
        E = gl2_exp(V)
        if not np.all(np.isfinite(E)):
            branches["divergent"] += 1
            g = action.exp(V.ravel().tolist())
            assert np.array_equal(g, E.ravel(), equal_nan=True)
            q = np.array(action.act(g, p.tolist()))
            with np.errstate(all="ignore"):
                ref = E @ p
            assert np.array_equal(np.isfinite(q), np.isfinite(ref))
            continue
        branches["series" if abs(D) < 1e-6 else
                 "elliptic" if D < 0.0 else
                 "rearranged" if s > 30.0 or mu + s > 700.0 else
                 "hyperbolic"] += 1
        g, q = _float_exp_act(action, V, p)
        assert g == E.ravel().tolist()
        assert np.all(np.abs(np.array(q) - E @ p) <= _act_bound(E, p))
        assert action.act(E, p) == action.act(g, p)
    assert min(branches.values()) > 100, branches


def test_gl2_float_infinitesimal_matches_numpy_matmul():
    # [a x + b y, c x + d y] on floats against v @ p, which BLAS may
    # evaluate with a fused multiply-add
    rng = np.random.default_rng(63)
    action = Gl2PlaneAction()
    for _ in range(1000):
        V = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-4, 3)
        p = _scaled(rng, 2, -3, 3)
        got = action.infinitesimal(V.ravel().tolist(), p.tolist())
        assert got.tobytes() == action.infinitesimal(V, p).tobytes()
        bound = 2 * EPS * (np.abs(V) @ np.abs(p))
        assert np.all(np.abs(got - V @ p) <= bound)


def test_gl2_infinitesimal_overflows_to_inf_without_a_warning():
    action = Gl2PlaneAction()
    with np.errstate(all="raise"):
        vel = action.infinitesimal([0.0, 1.0, -1.0, -6e301], [1e150, 1e150])
    assert vel[0] == 1e150 and vel[1] == -np.inf


def test_float_kernels_give_nan_for_overflowed_input():
    # an algebra element whose squared norm or D overflows yields NaN
    # entries, not a math domain error from sin or cos of inf
    for v in ([1e200, 0.0, 0.0], [0.0, -1e160, 1e160]):
        assert np.all(np.isnan(so3_exp(v)))
        ge = se3_exp(v + [1.0, 2.0, 3.0])
        assert np.all(np.isnan(ge.rot)) and np.all(np.isnan(ge.trans))
    # det = +inf, D = -inf: the elliptic branch would take cos(inf)
    assert np.all(np.isnan(gl2_exp([[0.0, 1e200], [-1e200, 0.0]])))


# ---------------------------------------------------------- action contract

def test_sphere_action_composes_left_to_right():
    act = So3SphereAction()
    rng = np.random.default_rng(51)
    for _ in range(50):
        g1 = so3_exp(rng.standard_normal(3))
        g2 = so3_exp(rng.standard_normal(3))
        p = random_ball(rng, 3, 1.0)
        assert_allclose(act.act(g1 @ g2, p),
                        act.act(g1, act.act(g2, p)), atol=1e-13)


def test_sphere_action_preserves_norm():
    act = So3SphereAction()
    rng = np.random.default_rng(52)
    for _ in range(100):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q = act.act(so3_exp(rng.standard_normal(3)), p)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-13


def test_gl2_action_composes_left_to_right():
    act = Gl2PlaneAction()
    rng = np.random.default_rng(53)
    for _ in range(50):
        g1 = gl2_exp(rng.standard_normal((2, 2)))
        g2 = gl2_exp(rng.standard_normal((2, 2)))
        p = rng.standard_normal(2)
        assert_allclose(act.act(g1 @ g2, p),
                        act.act(g1, act.act(g2, p)), atol=1e-12)


def test_coadjoint_is_right_action():
    # act(a compose b, m) must equal act(b, act(a, m)); applying elements
    # in evaluation order then composes flows in the same order as for the
    # matrix geometries.
    act = Se3CoadjointAction()
    rng = np.random.default_rng(54)
    for _ in range(100):
        a = se3_exp(rng.standard_normal(6))
        b = se3_exp(rng.standard_normal(6))
        m = rng.standard_normal(6)
        assert_allclose(act.act(a.compose(b), m),
                        act.act(b, act.act(a, m)), atol=1e-13)


def test_coadjoint_action_formula():
    rng = np.random.default_rng(55)
    for _ in range(50):
        ge = se3_exp(rng.standard_normal(6))
        m = rng.standard_normal(6)
        mu, beta = m[:3], m[3:]
        expected = np.concatenate([
            ge.rot.T @ (mu - np.cross(ge.trans, beta)),
            ge.rot.T @ beta,
        ])
        assert_allclose(coadjoint_act(ge, m), expected, atol=1e-14)


def test_coadjoint_preserves_casimirs():
    act = Se3CoadjointAction()
    rng = np.random.default_rng(56)
    for _ in range(100):
        g = se3_exp(rng.standard_normal(6))
        m = rng.standard_normal(6)
        m2 = np.asarray(act.act(g, m))
        assert abs(m2[3:] @ m2[3:] - m[3:] @ m[3:]) < 1e-12
        assert abs(m2[:3] @ m2[3:] - m[:3] @ m[3:]) < 1e-12


@pytest.mark.parametrize("action,nv,make_point", [
    (So3SphereAction(), 3, lambda rng: rng.standard_normal(3)),
    (Gl2PlaneAction(), (2, 2), lambda rng: rng.standard_normal(2) + 2.0),
    (Se3CoadjointAction(), 6, lambda rng: rng.standard_normal(6)),
])
def test_infinitesimal_matches_finite_difference(action, nv, make_point):
    rng = np.random.default_rng(57)
    t = 1e-5
    for _ in range(50):
        v = rng.standard_normal(nv)
        p = make_point(rng)
        plus = action.act(action.exp(t * v), p)
        minus = action.act(action.exp(-t * v), p)
        fd = (np.asarray(plus, float) - np.asarray(minus, float)) / (2 * t)
        assert_allclose(action.infinitesimal(v, p), fd, atol=1e-8)


def test_ambient_metric_defaults():
    act = So3SphereAction()
    assert act.ambient_norm([3.0, 4.0, 0.0]) == 5.0
    assert act.ambient_distance([1.0, 0, 0], [0, 1.0, 0]) == pytest.approx(
        np.sqrt(2.0))


def rounded_norm(x) -> float:
    """The float nearest the Euclidean norm of a list of floats: the exact
    sum of squares as a Fraction, then a 60-digit square root."""
    s = sum(Fraction(a) ** 2 for a in x)
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(s.numerator) / Decimal(s.denominator)).sqrt())


@pytest.mark.parametrize("action", [So3SphereAction(), Gl2PlaneAction(),
                                    Se3CoadjointAction()],
                         ids=lambda action: action.name)
def test_ambient_metric_is_correctly_rounded(action):
    # a stronger check than equality with np.linalg.norm, whose dot product
    # misses the correctly rounded result on about one sample in six; the
    # distance is the norm of the float differences p - q
    rng = np.random.default_rng(53)
    for shape in ((2,), (3,), (6,), (2, 2)):
        for _ in range(300):
            p = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
            q = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
            pl, ql = p.ravel().tolist(), q.ravel().tolist()
            norm = rounded_norm(pl)
            distance = rounded_norm((p - q).ravel().tolist())
            for a, b in ((p, q), (pl, ql)):
                got = action.ambient_norm(a)
                assert type(got) is float and got == norm
                got = action.ambient_distance(a, b)
                assert type(got) is float and got == distance


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_ambient_metric_does_not_overflow_on_finite_points(scale):
    act = So3SphereAction()
    p = np.array([3.0, 4.0, 0.0]) * scale
    assert act.ambient_norm(p) == 5.0 * scale
    assert act.ambient_distance(p, -p) == 10.0 * scale


def test_algebra_linear_ops():
    act = Se3CoadjointAction()
    z = act.algebra_zero()
    assert z.shape == (6,)
    v = np.arange(6.0)
    assert_allclose(act.algebra_axpy(2.0, v, z), 2.0 * v, atol=0)
