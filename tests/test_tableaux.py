"""Tableau data model: validation, reduction to classical coefficients,
JSON round trips, and the declared-reuse census."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cfrk.catalog import catalog, get_tableau
from cfrk.tableaux import (CFTableau, TableauError, load_tableau, reduce,
                           reduce_embedded, reuse_groups, save_tableau,
                           scan_identical_rows, tableau_from_json)


def lie_euler():
    return CFTableau(name="euler", s=1, alpha=(), beta=((1.0,),),
                     beta_hat=(), order_p=1, order_phat=0, fsal=False)


# -------------------------------------------------------------- validation

def test_single_stage_tableau_is_valid():
    t = lie_euler()
    assert t.s == 1
    assert not t.has_embedded
    assert t.hat_width == 1


def test_rejects_wrong_stage_group_count():
    kw = dict(name="bad", beta_hat=(), order_p=1, order_phat=0, fsal=False)
    with pytest.raises(TableauError, match="stage groups"):
        CFTableau(s=3, alpha=(((1.0, 0.0, 0.0),),),
                  beta=((1.0, 0.0, 0.0),), **kw)
    with pytest.raises(TableauError, match="stage count must be positive"):
        CFTableau(s=0, alpha=(), beta=((1.0,),), **kw)
    with pytest.raises(TableauError, match="bad: stage 2 has no rows"):
        CFTableau(s=2, alpha=((),), beta=((1.0, 0.0),), **kw)


def test_rejects_wrong_row_length():
    kw = dict(name="bad", s=2, beta_hat=(), order_p=1, order_phat=0,
              fsal=False)
    with pytest.raises(TableauError, match="length"):
        CFTableau(alpha=(((0.5, 0.0, 0.0),),), beta=((1.0, 0.0),), **kw)
    with pytest.raises(TableauError, match="bad: no update rows"):
        CFTableau(alpha=(((0.5, 0.0),),), beta=(), **kw)


def test_rejects_implicit_stage():
    # stage 2 may only reference f_1
    with pytest.raises(TableauError, match="not explicit"):
        CFTableau(name="bad", s=2, alpha=(((0.5, 0.1),),),
                  beta=((1.0, 0.0),), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)


def test_rejects_inconsistent_weights():
    with pytest.raises(TableauError, match="sum"):
        CFTableau(name="bad", s=2, alpha=(((0.5, 0.0),),),
                  beta=((0.4, 0.4),), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False)


def test_rejects_bad_embedded_order():
    kw = dict(name="bad", s=2, alpha=(((0.5, 0.0),),),
              beta=((0.5, 0.5),), fsal=True)
    with pytest.raises(TableauError, match="embedded order"):
        CFTableau(beta_hat=((0.0, 0.5, 0.5),), order_p=2, order_phat=2, **kw)
    with pytest.raises(TableauError, match="embedded order"):
        CFTableau(beta_hat=((0.0, 0.5, 0.5),), order_p=2, order_phat=0, **kw)


def test_rejects_wrong_hat_width():
    # fsal pair: hat rows must have length s + 1
    with pytest.raises(TableauError, match="yhat row"):
        CFTableau(name="bad", s=2, alpha=(((0.5, 0.0),),),
                  beta=((0.5, 0.5),), beta_hat=((1.0, 0.0),),
                  order_p=2, order_phat=1, fsal=True)


def test_rejects_unequal_reuse_pair():
    with pytest.raises(TableauError, match="reuse"):
        CFTableau(name="bad", s=2, alpha=(((0.5, 0.0),),),
                  beta=((0.4, 0.6),), beta_hat=(),
                  order_p=1, order_phat=0, fsal=False,
                  reuse_map=((("stage", 2, 0), ("y", 0)),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_coefficients(bad):
    kw = dict(name="bad", s=2, order_p=2, order_phat=1, fsal=True)
    with pytest.raises(TableauError, match="stage 2 row 0 has a non-finite"):
        CFTableau(alpha=(((bad, 0.0),),), beta=((0.5, 0.5),),
                  beta_hat=((0.0, 0.5, 0.5),), **kw)
    with pytest.raises(TableauError, match="y row 1 has a non-finite"):
        CFTableau(alpha=(((0.5, 0.0),),), beta=((0.5, 0.5), (bad, 0.0)),
                  beta_hat=((0.0, 0.5, 0.5),), **kw)
    with pytest.raises(TableauError, match="yhat row 0 has a non-finite"):
        CFTableau(alpha=(((0.5, 0.0),),), beta=((0.5, 0.5),),
                  beta_hat=((0.0, 0.5, bad),), **kw)


def test_rows_are_read_only():
    t = get_tableau("cf4")
    with pytest.raises(ValueError):
        t.beta[0][0] = 99.0


def test_row_lookup():
    t = get_tableau("cf4")
    assert_allclose(t.row(("stage", 2, 0)), [0.5, 0, 0, 0], atol=0)
    assert_allclose(t.row(("stage", 4, 1)), [-0.5, 0, 1.0, 0], atol=0)
    assert_allclose(t.row(("y", 1)), [-1 / 12, 1 / 6, 1 / 6, 1 / 4], atol=0)
    with pytest.raises(TableauError):
        t.row(("nope", 0))
    # out of range, negative indices and stage 1 (which has no rows) included
    for key in (("y", 2), ("y", -1), ("stage", 5, 0), ("stage", 1, 0),
                ("stage", 4, 2), ("stage", 2)):
        with pytest.raises(TableauError, match="no row"):
            t.row(key)


# --------------------------------------------------------------- reduction

def test_reduce_cf4_recovers_classical_rk4():
    red = reduce(get_tableau("cf4"))
    assert_allclose(red.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-16)
    assert_allclose(red.c, [0.0, 0.5, 0.5, 1.0], atol=1e-16)
    assert_allclose(red.a[1], [0.5, 0, 0, 0], atol=0)
    assert_allclose(red.a[2], [0.0, 0.5, 0, 0], atol=0)
    assert_allclose(red.a[3], [0.0, 0.0, 1.0, 0], atol=1e-16)


def test_reduce_cf32a():
    t = get_tableau("cf32a")
    red = reduce(t)
    assert_allclose(red.c, [0.0, 1 / 3, 1.0], atol=1e-16)
    assert_allclose(red.b, [0.0, 3 / 4, 1 / 4], atol=1e-16)
    # the embedded rows reference f at the accepted point, so the embedded
    # method's c gains the abscissa 1
    ext = reduce_embedded(t)
    assert_allclose(ext.b, [0.0, 3 / 4, 0.0, 1 / 4], atol=0)
    assert_allclose(ext.c, [0.0, 1 / 3, 1.0, 1.0], atol=1e-16)


def test_reduce_embedded_extends_fsal_system():
    t = get_tableau("cf32a")
    red = reduce(t)
    ext = reduce_embedded(t)
    assert ext.a.shape == (4, 4)
    assert_allclose(ext.a[:3, :3], red.a, atol=0)
    assert_allclose(ext.a[3, :3], red.b, atol=0)
    assert ext.a[3, 3] == 0.0
    assert_allclose(ext.b, sum(t.beta_hat), atol=0)
    assert_allclose(ext.c, [0.0, 1 / 3, 1.0, 1.0], atol=1e-16)


def test_reduce_embedded_non_fsal_keeps_size():
    t = get_tableau("cf43_4stage")
    ext = reduce_embedded(t)
    assert ext.a.shape == (4, 4)
    assert_allclose(ext.a, reduce(t).a, atol=0)
    assert len(ext.b) == 4


def test_reduce_embedded_requires_embedded_rows():
    with pytest.raises(TableauError):
        reduce_embedded(get_tableau("cf4"))


# ------------------------------------------------------------------- JSON

@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_json_round_trip_is_lossless(name):
    t = get_tableau(name)
    back = tableau_from_json(t.to_json())
    assert back.name == t.name
    assert back.s == t.s
    assert (back.order_p, back.order_phat, back.fsal) == \
        (t.order_p, t.order_phat, t.fsal)
    assert back.reuse_map == t.reuse_map
    for key in t.all_row_keys():
        assert np.array_equal(back.row(key), t.row(key)), key


def test_save_and_load(tmp_path):
    t = get_tableau("cf43")
    path = tmp_path / "cf43.json"
    save_tableau(t, path)
    back = load_tableau(path)
    for key in t.all_row_keys():
        assert np.array_equal(back.row(key), t.row(key))


def test_load_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "s": oops\n}\n')
    with pytest.raises(TableauError, match="line 2"):
        load_tableau(path)


def test_load_missing_file():
    with pytest.raises(TableauError, match="cannot read"):
        load_tableau("/no/such/file.json")


def test_json_missing_field():
    doc = get_tableau("cf4").to_json_dict()
    del doc["beta"]
    with pytest.raises(TableauError, match="missing field"):
        tableau_from_json(json.dumps(doc))


@pytest.mark.parametrize("doc", ["[]", '"cf4"', "3", "null"])
def test_json_must_be_an_object(doc):
    with pytest.raises(TableauError, match="must be an object"):
        tableau_from_json(doc)


@pytest.mark.parametrize("field,value", [
    ("s", "four"), ("s", None), ("beta", [["0.5", "x", "0", "0.5"]]),
    ("alpha", [[[0.5, [0], 0, 0]]]), ("reuse_map", [[["y", 0]]]),
    ("s", "4"), ("s", 4.0), ("order_p", 4.7), ("order_phat", True),
    ("fsal", "false"), ("fsal", 0),
])
def test_json_malformed_field(field, value):
    doc = get_tableau("cf4").to_json_dict()
    doc[field] = value
    with pytest.raises(TableauError, match="malformed field"):
        tableau_from_json(json.dumps(doc))


@pytest.mark.parametrize("key", [["y", 2], ["y", -1], ["stage", 9, 0],
                                 ["yhat", 0], ["stage", 2]])
def test_json_reuse_key_out_of_range(key):
    doc = get_tableau("cf4").to_json_dict()
    doc["reuse_map"] = [[["stage", 2, 0], key]]
    with pytest.raises(TableauError, match="no row"):
        tableau_from_json(json.dumps(doc))


def test_json_non_finite_coefficient():
    doc = get_tableau("cf32a").to_json_dict()
    doc["beta_hat"][0][1] = "nan"
    with pytest.raises(TableauError, match="yhat row 0 has a non-finite"):
        tableau_from_json(json.dumps(doc))


def test_json_stores_full_precision_strings():
    doc = get_tableau("cf43").to_json_dict()
    # coefficients are serialized as shortest-exact decimal strings
    val = doc["beta"][0][3]
    assert isinstance(val, str)
    assert float(val) == get_tableau("cf43").beta[0][3]


# ------------------------------------------------------------------ reuse

def test_reuse_groups_cf4():
    groups = reuse_groups(get_tableau("cf4"))
    assert groups == [{("stage", 2, 0), ("stage", 4, 0)}]


def test_reuse_groups_cf43():
    groups = sorted(map(sorted, reuse_groups(get_tableau("cf43"))))
    assert groups == [
        sorted({("stage", 3, 0), ("stage", 4, 0)}),
        sorted({("stage", 4, 1), ("yhat", 0)}),
    ]


def test_reuse_groups_skip_embedded():
    groups = reuse_groups(get_tableau("cf43"), include_embedded=False)
    assert groups == [{("stage", 3, 0), ("stage", 4, 0)}]
    # cf32a's only tie is between a stage and a principal row, so it stays
    assert reuse_groups(get_tableau("cf32a"), include_embedded=False) == \
        [{("stage", 3, 0), ("y", 1)}]


@pytest.mark.parametrize("pairs,groups", [
    # a~b, c~d, b~c: the third pair joins the two groups into the first
    ("ab cd bc", ["abcd"]),
    # a~b, c~d, e~f, a~e: the last pair folds the third group into the first
    ("ab cd ef ae", ["abef", "cd"]),
    # c~d, a~b, d~a: the merged group keeps the first group's place
    ("cd ab ef da", ["abcd", "ef"]),
    # a~a alone is a singleton and omitted; b~a then makes a group
    ("aa cd ba", ["ab", "cd"]),
    ("aa", []),
])
def test_reuse_groups_merge_chained_pairs_in_first_key_order(pairs, groups):
    key = {x: ("stage", 2, j) for j, x in enumerate("abcdef")}
    t = SimpleNamespace(reuse_map=tuple((key[p[0]], key[p[1]])
                                        for p in pairs.split()))
    assert reuse_groups(t) == [{key[x] for x in g} for g in groups]


@pytest.mark.parametrize("name", [t.name for t in catalog()])
def test_declared_reuse_is_maximal(name):
    t = get_tableau(name)
    declared = sorted(map(sorted, reuse_groups(t)))
    observed = sorted(map(sorted, scan_identical_rows(t)))
    assert declared == observed


def test_scan_links_transitive_groups():
    t = get_tableau("cf43_4stage")
    # the stage-3 row reappears both as the first stage-4 row and as the
    # first embedded row; all three must land in one class
    classes = scan_identical_rows(t)
    big = [c for c in classes if ("stage", 3, 0) in c]
    assert big and big[0] == {("stage", 3, 0), ("stage", 4, 0), ("yhat", 0)}
