"""Benchmark problem definitions: field formulas, parameter validation,
default states, and the invariants each geometry is supposed to keep."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.actions import (DomainError, Gl2PlaneAction, Se3CoadjointAction,
                          So3SphereAction, gl2_exp)
from cfrk.catalog import get_tableau
from cfrk.controller import ConfigError, integrate_fixed
from cfrk.problems import (PROBLEM_BUILDERS, build_problem, conserved,
                           heavy_top, rigid_body, van_der_pol)


def test_registry_contents():
    assert set(PROBLEM_BUILDERS) == {"rigid-body", "van-der-pol", "heavy-top"}
    for name in PROBLEM_BUILDERS:
        assert build_problem(name).name == name


def test_unknown_problem_lists_available():
    with pytest.raises(KeyError, match="van-der-pol"):
        build_problem("pendulum")


def test_build_problem_forwards_params():
    prob = build_problem("van-der-pol", {"mu": 5.0})
    assert prob.params.mu == 5.0
    assert build_problem("rigid-body", {"seed": 3}).default_y0 is not None


@pytest.mark.parametrize("name,params,message", [
    ("rigid-body", {"seed": 3, "foo": 1}, "rejects parameter foo=1"),
    # a seed is an integer: None would draw a fresh state each run
    ("rigid-body", {"seed": None},
     "rejects parameter seed=None: seed must be an integer, got None"),
    ("rigid-body", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("van-der-pol", {"mu": "abc"}, "rejects parameter mu='abc'"),
    ("rigid-body", {"inertia": [1, 2]}, r"rejects parameter inertia=\[1, 2\]"),
    ("heavy-top", {"chi": [1, 1, 0]}, "chi must be a unit vector"),
    ("heavy-top", {"inertia": [1, -1, 1]}, "inertia entries must be positive"),
    # a NaN would otherwise slip past the positivity and unit-norm checks
    ("heavy-top", {"chi": [math.nan, 0, 0]}, "chi must be finite"),
    ("heavy-top", {"inertia": [2, 2, math.inf]}, "inertia must be finite"),
    ("heavy-top", {"m": -math.inf}, "m must be finite"),
    ("van-der-pol", {"mu": math.inf}, "mu must be finite"),
    # a vector of the wrong length is named, not left to fail unpacking
    ("rigid-body", {"inertia": (1.0, 2.0)},
     r"inertia must have 3 entries, got \(1.0, 2.0\)"),
    ("heavy-top", {"chi": (1.0, 0.0)},
     r"chi must have 3 entries, got \(1.0, 0.0\)"),
    ("heavy-top", {"inertia": (2.0, 2.0, 1.0, 1.0)},
     "inertia must have 3 entries"),
    # a string is not read one character an entry
    ("rigid-body", {"inertia": "125"},
     "inertia must be a sequence of numbers, got the string '125'"),
    ("heavy-top", {"chi": "100"},
     "chi must be a sequence of numbers, got the string '100'"),
    ("heavy-top", {"inertia": "221"}, "inertia must be a sequence"),
    # finite parameters whose derived constants overflow, named when the
    # problem is built
    ("rigid-body", {"inertia": [1e-320, 1, 1]},
     r"inertia=\[1e-320, 1, 1\]: 1 / inertia must be finite, got "
     r"\(inf, 1.0, 1.0\)"),
    ("heavy-top", {"inertia": [2, 5e-324, 1]},
     r"1 / inertia must be finite, got \(0.5, inf, 1.0\)"),
    ("heavy-top", {"m": 1e300, "chi": [0, 0.6, 0.8], "g": 1e10},
     r"parameters m=1e\+300, chi=\[0, 0.6, 0.8\], g=10000000000.0: "
     r"m \* g \* chi must be finite, got \(nan, inf, inf\)"),
    # only the combination fails: every override is named
    ("heavy-top", {"m": 1e200, "g": 1e200},
     r"^problem 'heavy-top' rejects parameters m=1e\+200, g=1e\+200: "
     r"m \* g \* chi must be finite, got \(inf, nan, nan\)$"),
])
def test_build_problem_names_a_rejected_parameter(name, params, message):
    with pytest.raises(ConfigError, match=message) as info:
        build_problem(name, params)
    assert str(info.value).startswith(f"problem {name!r} rejects parameter")


def test_build_problem_builds_once(monkeypatch):
    # the overrides are tried one at a time only once the build failed
    calls = []

    def counted(**params):
        calls.append(params)
        return van_der_pol(**params)
    monkeypatch.setitem(PROBLEM_BUILDERS, "van-der-pol", counted)
    assert build_problem("van-der-pol", {"mu": 5.0}).params.mu == 5.0
    assert calls == [{"mu": 5.0}]


@pytest.mark.parametrize("prob", [
    rigid_body(inertia=(1.5, 0.7, 3.0), m=2.0),
    van_der_pol(mu=7.0),
    heavy_top(inertia=(3.0, 1.0, 0.5), m=2.0, g=9.81, chi=(0.6, 0.0, 0.8)),
], ids=lambda prob: prob.name)
def test_ambient_field_is_the_induced_field(prob):
    # the reference solutions integrate ambient_field, so it must be the
    # field the integrators see through f and the action
    rng = np.random.default_rng(11)
    for y in rng.standard_normal((20, len(prob.default_y0))):
        assert_allclose(prob.ambient_field(y),
                        prob.action.infinitesimal(prob.f(y), y),
                        rtol=1e-14, atol=1e-14)


def _states(rng, n, dim):
    return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))


def test_rigid_body_fields_match_numpy_cross_bitwise():
    inertia, m = (1.5, 0.7, 3.0), 1.3  # m not a power of two
    prob = rigid_body(inertia=inertia, m=m)
    Y = _states(np.random.default_rng(12), 10_000, 3)
    inv = 1.0 / np.asarray(inertia)
    field_ref = m * np.cross(Y, inv * Y)
    induced_ref = np.cross(-m * (inv * Y), Y)
    assert np.array_equal(np.array([prob.ambient_field(y) for y in Y]),
                          field_ref)
    assert np.array_equal(
        np.array([prob.action.infinitesimal(prob.f(y), y) for y in Y]),
        induced_ref)


def test_heavy_top_fields_match_numpy_cross_bitwise():
    inertia, m, g, chi = (3.0, 1.0, 0.5), 2.0, 9.81, (0.6, 0.0, 0.8)
    prob = heavy_top(inertia=inertia, m=m, g=g, chi=chi)
    Y = _states(np.random.default_rng(13), 10_000, 6)
    mu, beta = Y[:, :3], Y[:, 3:]
    omega = (1.0 / np.asarray(inertia)) * mu
    mg_chi = m * g * np.asarray(chi)
    field_ref = np.concatenate([np.cross(mu, omega) + np.cross(beta, mg_chi),
                                np.cross(beta, omega)], axis=1)
    induced_ref = np.concatenate([-np.cross(omega, mu) - np.cross(mg_chi, beta),
                                  -np.cross(omega, beta)], axis=1)
    assert np.array_equal(np.array([prob.ambient_field(y) for y in Y]),
                          field_ref)
    assert np.array_equal(
        np.array([prob.action.infinitesimal(prob.f(y), y) for y in Y]),
        induced_ref)


@pytest.mark.parametrize("build", [rigid_body, van_der_pol, heavy_top],
                         ids=lambda build: build.__name__)
def test_f_returns_a_list_of_floats_from_list_and_array_input(build):
    # the steppers hand f lists; scipy's solvers hand it arrays
    prob = build()
    rng = np.random.default_rng(14)
    n = len(prob.default_y0)
    for y in [prob.default_y0, *_states(rng, 200, n)]:
        from_list, from_array = prob.f(y.tolist()), prob.f(y)
        for out in (from_list, from_array):
            assert type(out) is list
            assert all(type(x) is float for x in out)
        assert np.array(from_list).tobytes() == np.array(from_array).tobytes()


# ---------------------------------------------------------------- rigid body

def test_rigid_body_initial_state_is_unit_and_seeded():
    prob = rigid_body()
    assert abs(np.linalg.norm(prob.default_y0) - 1.0) < 1e-15
    again = rigid_body()
    assert np.array_equal(prob.default_y0, again.default_y0)
    other = rigid_body(seed=12)
    assert np.linalg.norm(prob.default_y0 - other.default_y0) > 1e-3


def test_rigid_body_field_formula():
    prob = rigid_body(inertia=(1.0, 2.0, 5.0), m=2.0)
    y = np.array([0.3, -0.5, 0.8])
    inv_inertia = 1.0 / np.array([1.0, 2.0, 5.0])
    assert_allclose(prob.f(y), -2.0 * (inv_inertia * y), rtol=0, atol=0)
    # induced velocity is the Euler field m * y x I^{-1} y
    vel = prob.action.infinitesimal(prob.f(y), y)
    assert_allclose(vel, 2.0 * np.cross(y, y / np.array([1.0, 2.0, 5.0])),
                    atol=1e-15)


def test_rigid_body_equilibria():
    # isotropic inertia: f(y) is parallel to y, so the induced field vanishes
    prob = rigid_body(inertia=(2.0, 2.0, 2.0))
    y = prob.default_y0
    assert_allclose(prob.action.infinitesimal(prob.f(y), y),
                    np.zeros(3), atol=1e-16)
    # momentum along a principal axis is stationary as well
    prob = rigid_body()
    e3 = np.array([0.0, 0.0, 1.0])
    assert_allclose(prob.action.infinitesimal(prob.f(e3), e3),
                    np.zeros(3), atol=1e-16)


def test_rigid_body_setup():
    prob = rigid_body()
    assert isinstance(prob.action, So3SphereAction)
    assert prob.use_rtol is False
    inv = conserved(prob, prob.default_y0)
    assert set(inv) == {"norm2"}
    assert inv["norm2"] == pytest.approx(1.0, abs=1e-14)


def test_rigid_body_rejects_bad_inertia():
    with pytest.raises(ValueError, match="positive"):
        rigid_body(inertia=(1.0, -2.0, 5.0))


# --------------------------------------------------------------- Van der Pol

def test_van_der_pol_field_formula():
    # the gl(2) element row-major: [[0, 1], [-1, mu (1 - x^2)]]
    prob = van_der_pol()
    assert prob.f(np.array([1.0, 1.0])) == [0.0, 1.0, -1.0, 0.0]
    assert prob.f([2.0, 0.0]) == [0.0, 1.0, -1.0, -180.0]


def test_van_der_pol_origin_is_excluded():
    prob = van_der_pol()
    with pytest.raises(DomainError):
        prob.f(np.zeros(2))


def test_van_der_pol_setup():
    prob = van_der_pol(mu=5.0)
    assert isinstance(prob.action, Gl2PlaneAction)
    assert prob.use_rtol is True
    assert prob.params.mu == 5.0
    assert_allclose(prob.default_y0, [1.0, 1.0], atol=0)
    assert conserved(prob, prob.default_y0) == {}


def test_van_der_pol_mu_zero_is_a_harmonic_oscillator():
    # with mu = 0 the frozen coefficient matrix is constant and skew, so the
    # integrator reproduces the rotation exactly up to roundoff
    prob = van_der_pol(mu=0.0)
    y0 = np.array([1.0, 0.0])
    traj = integrate_fixed(get_tableau("cf4"), prob, y0, 0.0, 2.0 * np.pi, 50)
    assert_allclose(traj.y_end, y0, atol=1e-12)
    for pt in traj.points:
        assert abs(np.linalg.norm(pt) - 1.0) < 1e-13


def test_van_der_pol_flow_is_contractive_outside_unit_band():
    # for |x| > 1 the symmetric part of f is negative semidefinite, so each
    # frozen flow map has spectral norm at most one; this is what keeps the
    # stiff relaxation phase stable
    prob = van_der_pol(mu=60.0)
    for x in (1.1, -1.1, 2.0, -3.0):
        A = np.reshape(prob.f([x, 0.7]), (2, 2))
        for h in (1e-3, 1e-2, 0.1):
            assert np.linalg.norm(gl2_exp(h * A), 2) <= 1.0 + 1e-12


# ----------------------------------------------------------------- heavy top

def test_heavy_top_field_formula():
    prob = heavy_top(inertia=(2.0, 2.0, 1.0), m=3.0, g=0.5,
                     chi=(0.0, 1.0, 0.0))
    y = np.array([0.2, -0.4, 0.6, 0.1, 0.0, 0.9])
    out = prob.f(y)
    assert_allclose(out[:3], y[:3] / np.array([2.0, 2.0, 1.0]), atol=0)
    assert_allclose(out[3:], [0.0, 1.5, 0.0], atol=0)


def test_heavy_top_setup():
    prob = heavy_top()
    assert isinstance(prob.action, Se3CoadjointAction)
    assert prob.use_rtol is False
    assert_allclose(prob.default_y0, [0.1, 0.2, 0.3, 0.0, 0.0, 1.0], atol=0)
    inv = conserved(prob, prob.default_y0)
    assert inv["beta2"] == pytest.approx(1.0)
    assert inv["mubeta"] == pytest.approx(0.3)


def test_heavy_top_induced_field_matches_cross_products():
    prob = heavy_top()
    y = prob.default_y0
    xi = prob.f(y)
    mu_, beta = y[:3], y[3:]
    omega, u = xi[:3], xi[3:]
    vel = prob.action.infinitesimal(xi, y)
    assert_allclose(vel[:3], -np.cross(omega, mu_) - np.cross(u, beta),
                    atol=1e-15)
    assert_allclose(vel[3:], -np.cross(omega, beta), atol=1e-15)


def test_heavy_top_without_gravity_also_conserves_momentum_norm():
    prob = heavy_top(g=0.0)
    y0 = prob.default_y0
    traj = integrate_fixed(get_tableau("cf4"), prob, y0, 0.0, 2.0, 100)
    norms = [np.linalg.norm(pt[:3]) for pt in traj.points]
    assert max(abs(n - norms[0]) for n in norms) < 1e-13


def test_heavy_top_parameter_validation():
    with pytest.raises(ValueError, match="positive"):
        heavy_top(inertia=(0.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="unit"):
        heavy_top(chi=(1.0, 1.0, 0.0))
