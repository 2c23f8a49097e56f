"""Catalog construction: the shipped tableaux, the one-parameter 3(2)
family with its root selection and failure modes, and the 4(3) builders."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cfrk
from cfrk.catalog import (RootSelectionError, SingularParameterError,
                          catalog, cf43_root, get_tableau,
                          instantiate_cf32_family, instantiate_cf43)
from cfrk.order_conditions import certify
from cfrk.tableaux import TableauError, reduce, reduce_embedded

catalog_module = sys.modules["cfrk.catalog"]

EXPECTED_NAMES = ["cf4", "cf32a", "cf32b", "cf43", "cf43_decimal",
                  "cf43_v2", "cf43_4stage"]


def max_row_diff(t1, t2):
    return max(np.max(np.abs(t1.row_padded(k) - t2.row_padded(k)))
               for k in t1.all_row_keys())


# ----------------------------------------------------------------- catalog

def test_catalog_contents():
    assert [t.name for t in catalog()] == EXPECTED_NAMES


def test_catalog_returns_fresh_list():
    first = catalog()
    first.clear()
    assert [t.name for t in catalog()] == EXPECTED_NAMES


def test_get_tableau_unknown_name():
    with pytest.raises(KeyError, match="cf32a"):
        get_tableau("cf99")


def test_cf4_layout():
    t = get_tableau("cf4")
    assert (t.s, t.order_p, t.fsal, t.has_embedded) == (4, 4, False, False)
    assert len(t.alpha[2]) == 2  # stage 4 splits into two exponentials
    assert t.reuse_map == ((("stage", 2, 0), ("stage", 4, 0)),)


def test_cf32a_exact_coefficients():
    t = get_tableau("cf32a")
    assert_allclose(t.alpha[0][0], [1 / 3, 0, 0], atol=0)
    assert_allclose(t.alpha[1][0], [-1.0, 2.0, 0.0], atol=0)
    assert_allclose(t.beta[0], [1.0, -5 / 4, 1 / 4], atol=0)
    assert_allclose(t.beta[1], [-1.0, 2.0, 0.0], atol=0)
    assert_allclose(t.beta_hat[0], [0.0, 3 / 4, 0.0, 1 / 4], atol=0)
    assert t.fsal and t.order_p == 3 and t.order_phat == 2
    assert t.reuse_map == ((("stage", 3, 0), ("y", 1)),)


def test_cf32b_exact_coefficients():
    t = get_tableau("cf32b")
    assert_allclose(t.alpha[1][0], [-5 / 12, 1 / 4, 0.0], atol=0)
    assert_allclose(t.beta[0], [-37 / 12, 9 / 4, 2.0], atol=0)
    assert_allclose(t.beta[1], [-5 / 12, 1 / 4, 0.0], atol=0)


# -------------------------------------------------------------- cf43 exact

def test_cf43_root_solves_quintic():
    w = cf43_root()
    assert 0.0 < w < 1.0
    poly = ((((144 * w + 90) * w - 3) * w - 13) * w - 5) * w - 1
    assert abs(poly) < 1e-13
    assert w / 2 == pytest.approx(0.2227590088, abs=1e-8)
    # every cf43 coefficient is a polynomial in w, so pin its last bit
    assert w == 0.44551801757517717


def test_import_of_package_and_cli_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cfrk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfrk, cfrk.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cf43_marker_coefficients():
    t = get_tableau("cf43")
    w = cf43_root()
    assert reduce(t).c[1] == pytest.approx(4.785707347, abs=1e-8)
    assert t.beta[0][3] == pytest.approx(w / 2, abs=0)
    assert t.beta[1][3] == pytest.approx(-0.6682770264, abs=1e-9)
    # first slot of the second update row is tied to the first row
    assert t.beta[1][0] == pytest.approx(-t.beta[0][0] / 3, abs=1e-15)
    assert t.reuse_map == ((("stage", 3, 0), ("stage", 4, 0)),
                           (("stage", 4, 1), ("yhat", 0)))


def test_cf43_family_parameter():
    base = instantiate_cf43(0.0)
    assert max_row_diff(base, get_tableau("cf43")) == 0.0
    other = instantiate_cf43(0.3)
    assert other.beta_hat[1][2] == 0.3
    rep = certify(other, "embedded", tol=1e-10)
    assert rep.certified_algebraic_order == 3
    assert max_row_diff(other, base) > 0.01


# ------------------------------------------------------- decimal rebuilds

def test_cf43_decimal_matches_exact_construction():
    # the projected decimal tableau and the root-based one describe the
    # same method; agreement is limited by the 10-digit rounding
    assert max_row_diff(get_tableau("cf43"), get_tableau("cf43_decimal")) < 1e-8


def test_cf43_decimal_markers():
    t = get_tableau("cf43_decimal")
    assert t.alpha[0][0][0] == pytest.approx(4.785707347, abs=1e-8)
    assert t.beta[0][3] == pytest.approx(0.2227590088, abs=1e-8)
    assert t.beta[1][3] == pytest.approx(-0.6682770264, abs=1e-9)


@pytest.mark.parametrize("name,bound", [
    ("CF43_DECIMAL", 1e-8), ("CF43_V2", 5e-6), ("CF43_4STAGE", 1e-8)])
def test_projected_coefficients_stay_near_their_literals(name, bound):
    # the shipped coefficients are the published 10-digit literals projected
    # onto the order conditions; the projection moves none of them by more
    # than the rounding allows, and keeps the last abscissa at 1
    literals = np.array(getattr(catalog_module, f"_{name}_LITERALS"))
    projected = np.array(getattr(catalog_module, f"_{name}_PROJECTED"))
    assert literals.shape == projected.shape == (18,)
    assert np.max(np.abs(projected - literals)) <= bound
    t = get_tableau(name.lower())
    assert reduce(t).c[3] == pytest.approx(1.0, abs=1e-13)


def test_cf43_v2_layout():
    t = get_tableau("cf43_v2")
    assert t.fsal and (t.order_p, t.order_phat) == (4, 3)
    # the repeated exponential sits second in the embedded update here
    assert t.reuse_map == ((("stage", 3, 0), ("stage", 4, 0)),
                           (("stage", 4, 1), ("yhat", 1)))
    assert t.alpha[0][0][0] == pytest.approx(0.67104050, abs=5e-6)
    assert_allclose(t.beta[1], [-0.108005081, 0.84426683, 0.44843513,
                                -0.6846968472], atol=5e-6)
    # genuinely a different method, not cf43 re-rounded
    assert max_row_diff(t, get_tableau("cf43")) > 0.5


def test_cf43_4stage_layout():
    t = get_tableau("cf43_4stage")
    assert not t.fsal
    assert t.has_embedded and t.hat_width == 4
    assert_allclose(t.beta_hat[0], [0.5, 0.097900176, 0.0, 0.0], atol=1e-8)
    assert_allclose(t.beta_hat[1],
                    [-0.2989500877, -0.0522571042, 0.783338473,
                     -0.03003145592], atol=1e-7)
    assert t.reuse_map == ((("stage", 3, 0), ("stage", 4, 0)),
                           (("stage", 3, 0), ("yhat", 0)))


# ------------------------------------------------------------ cf32 family

def test_family_reproduces_cf32a_and_cf32b():
    large = instantiate_cf32_family(1 / 3, "row2-of-update", root="large")
    small = instantiate_cf32_family(1 / 3, "row2-of-update", root="small")
    assert max_row_diff(large, get_tableau("cf32a")) < 1e-14
    assert max_row_diff(small, get_tableau("cf32b")) < 1e-14


@pytest.mark.parametrize("a,root", [
    (1 / 3, "small"), (1 / 3, "large"), (2 / 3, "small"),
    (7 / 9, "small"), (-1 / 3, "large"),
])
def test_family_members_are_rational(a, root):
    t = instantiate_cf32_family(a, "row2-of-update", root=root)
    for key in t.all_row_keys():
        for x in t.row(key):
            frac = Fraction(float(x)).limit_denominator(10**6)
            assert abs(float(x) - float(frac)) < 1e-12, (key, x)


# each variant's quadratic only has real roots on part of the parameter
# line, so the sample points differ per variant
@pytest.mark.parametrize("variant,a", [
    ("row2-of-update", 0.4), ("row1-of-update", 0.4),
    ("stage2-in-row1", 0.2), ("stage2-in-row2", 0.02),
])
def test_family_members_certify_their_orders(variant, a):
    t = instantiate_cf32_family(a, variant)
    assert certify(t, "principal", tol=1e-9).certified_algebraic_order == 3
    assert certify(t, "embedded", tol=1e-9).certified_algebraic_order == 2


def test_family_reuse_pattern_follows_variant():
    in_row1 = instantiate_cf32_family(0.2, "stage2-in-row1")
    in_row2 = instantiate_cf32_family(0.02, "stage2-in-row2")
    assert in_row1.reuse_map == ((("stage", 2, 0), ("y", 0)),)
    assert in_row2.reuse_map == ((("stage", 2, 0), ("y", 1)),)


def test_family_embedded_rows_meet_the_order_2_conditions():
    # every cf32 member built from the stored inputs: its embedded row,
    # over the abscissae (0, c2, c3, 1), has sum 1 and first moment 1/2
    for entry in json.loads(FAMILY_MEMBERS.read_text()):
        if "tableau" not in entry or "cf32" not in entry:
            continue
        variant, a, root, hat_params = entry["cf32"]
        red = reduce_embedded(instantiate_cf32_family(
            a, variant, hat_params=tuple(hat_params), root=root))
        assert abs(red.b.sum() - 1.0) <= 1e-14, entry["cf32"]
        assert abs(red.b @ red.c - 0.5) <= 1e-14, entry["cf32"]


def test_family_hat_params_are_pinned():
    t = instantiate_cf32_family(1 / 3, "row2-of-update",
                                hat_params=(0.1, -0.2), root="large")
    assert t.beta_hat[0][0] == 0.1
    assert t.beta_hat[0][2] == -0.2
    assert certify(t, "embedded").certified_algebraic_order == 2


def test_family_discriminant_at_seven_ninths_is_square():
    # 36 z^2 + (9a - 30) z + (3a + 1) at a = 7/9: (-23)^2 - 4*36*10/3 = 49
    a = 7 / 9
    disc = (9 * a - 30) ** 2 - 4 * 36 * (3 * a + 1)
    assert disc == pytest.approx(49.0, abs=1e-12)
    roots = sorted([Fraction(2, 9), Fraction(5, 12)])
    t_small = instantiate_cf32_family(a, "row2-of-update", root="small")
    assert t_small.alpha[1][0][1] * a == pytest.approx(float(roots[0]),
                                                       abs=1e-13)


def test_family_variant_names_appear_in_tableau_name():
    t = instantiate_cf32_family(0.2, "stage2-in-row1")
    assert "stage2-in-row1" in t.name and "a=0.2" in t.name


def test_family_complex_root_window():
    # the stage2-in-row1 quadratic has discriminant -16(3a - 1): real roots
    # only up to a = 1/3
    with pytest.raises(RootSelectionError, match="discriminant"):
        instantiate_cf32_family(0.4, "stage2-in-row1")
    with pytest.raises(RootSelectionError):
        instantiate_cf32_family(0.05, "stage2-in-row2")


def test_family_complex_root_raises():
    with pytest.raises(RootSelectionError, match="discriminant"):
        instantiate_cf32_family(2.0, "row2-of-update")


def test_family_singular_parameters_raise():
    with pytest.raises(SingularParameterError):
        instantiate_cf32_family(0.0, "row2-of-update")
    with pytest.raises(SingularParameterError):
        instantiate_cf32_family(0.0, "row1-of-update")
    # polynomial collapses to a constant
    with pytest.raises(SingularParameterError, match="degenerates"):
        instantiate_cf32_family(1 / 3, "stage2-in-row1")
    # c2 = 1 makes the embedded 2x2 system singular; c2 within ~4e-8 of 1
    # gives it a condition number above 1e8 and entries of ~1e7 and more
    for a in (1.0, 1 + 1e-10, 1 - 1e-10, 1 + 3e-8):
        with pytest.raises(SingularParameterError, match="c2 = 1"):
            instantiate_cf32_family(a, "row1-of-update")
    # the zero root at a = -1/3 collides the abscissae
    with pytest.raises(SingularParameterError, match="does not admit"):
        instantiate_cf32_family(-1 / 3, "row2-of-update", root="small")


def test_family_builds_an_embedded_row_well_clear_of_c2_1():
    # at |1 - c2| = 1e-6 the condition number is ~4e6, under the bound
    tableau = instantiate_cf32_family(1 + 1e-6, "row1-of-update")
    assert 1e5 < np.abs(tableau.beta_hat).max() < 1e7


def test_family_rejects_non_finite_parameter(capfd):
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="a must be finite"):
            instantiate_cf32_family(a, "row2-of-update")
    # rejected before any root or least-squares work reaches LAPACK
    assert capfd.readouterr().err == ""


def test_non_finite_coefficients_are_rejected():
    for value in (math.nan, math.inf):
        with pytest.raises(TableauError, match="yhat row 1 has a non-finite"):
            instantiate_cf43(value)
    with pytest.raises(TableauError, match="yhat row 0 has a non-finite"):
        instantiate_cf32_family(0.5, "row1-of-update",
                                hat_params=(math.nan, 0.0))


def test_family_unknown_variant_and_root():
    with pytest.raises(ValueError, match="variant"):
        instantiate_cf32_family(0.5, "no-such-variant")
    with pytest.raises(ValueError, match="root"):
        instantiate_cf32_family(0.5, "row2-of-update", root="medium")


def test_construction_is_fast():
    # building and certifying the whole catalog is interactive-speed work
    import sys
    import time
    sys.modules["cfrk.catalog"]._catalog.cache_clear()
    start = time.perf_counter()
    for t in catalog():
        certify(t, "principal")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"catalog build + certification took {elapsed:.2f}s"


# ------------------------------------------------------------ bit pinning

FAMILY_MEMBERS = Path(__file__).parent / "data" / "family_members.json"


def test_literal_catalog_tableaux_are_pinned_bit_for_bit():
    # SHA-256 of the JSON (shortest round-trip decimals) of the catalog
    # tableaux, every one built from float literals and exact quotients,
    # which no BLAS or LAPACK build can move; moving any coefficient by one
    # bit changes the digest
    names = ("cf4", "cf32a", "cf32b", "cf43", "cf43_decimal", "cf43_v2",
             "cf43_4stage")
    text = "\n".join(get_tableau(name).to_json() for name in names)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "312c16e5f6dbd56076ecf51608f6b5fabf73e7b40c050f99f87fe637872db92c")


def test_catalog_cf43_literals_are_the_solved_pair():
    # the catalog's cf43 freezes instantiate_cf43(0.0), which LAPACK solves
    # and whose last bits depend on the build, to 1e-12 of max(1, |x|)
    rest, values = _split_coefficients(
        json.loads(get_tableau("cf43").to_json()))
    solved_rest, solved = _split_coefficients(
        json.loads(instantiate_cf43(0.0).to_json()))
    assert rest == solved_rest
    assert_allclose(values, solved, rtol=1e-12, atol=1e-12)


def _split_coefficients(doc):
    """A tableau document's coefficients as floats, and the rest of the
    document with every coefficient replaced by 0."""
    values = []

    def strip(x):
        if isinstance(x, list):
            return [strip(y) for y in x]
        values.append(float(x))
        return 0
    rest = {key: strip(value) if key in ("alpha", "beta", "beta_hat")
            else value for key, value in doc.items()}
    return rest, np.array(values)


def test_solved_tableaux_match_stored_coefficients():
    # the cf32 family grid and the cf43 family against their JSON documents
    # (or error texts) stored in tests/data.  Their coefficients come from
    # BLAS products and LAPACK lstsq, whose last bits depend on the build
    # and the CPU, so they are held to 1e-12 of max(1, |x|): perturbing M
    # and d by two ulps moves them by at most ~50 ulps of that scale.
    # Names, shapes, flags, reuse maps and error texts are pinned exactly.
    for entry in json.loads(FAMILY_MEMBERS.read_text()):
        if "cf43" in entry:
            label = f"cf43 at {entry['cf43']}"
            build = lambda e=entry: instantiate_cf43(e["cf43"])
        else:
            variant, a, root, hat_params = entry["cf32"]
            label = f"{variant} at a = {a}, {root}, {hat_params}"
            build = lambda: instantiate_cf32_family(
                a, variant, hat_params=tuple(hat_params), root=root)
        try:
            doc = json.loads(build().to_json())
        except ValueError as exc:
            assert f"{type(exc).__name__}: {exc}" == entry["error"], label
            continue
        assert "tableau" in entry, f"{label} built, stored as an error"
        rest, values = _split_coefficients(doc)
        stored_rest, stored_values = _split_coefficients(entry["tableau"])
        assert rest == stored_rest, label
        assert_allclose(values, stored_values, rtol=1e-12, atol=1e-12,
                        err_msg=label)
