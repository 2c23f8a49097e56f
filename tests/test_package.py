"""The package's public surface: every name cfrk.__all__ lists exists."""

import cfrk


def test_star_import_and_every_public_name_resolve():
    # a star import raises AttributeError on an __all__ entry left behind
    # by a deletion
    namespace = {}
    exec("from cfrk import *", namespace)
    assert len(cfrk.__all__) == len(set(cfrk.__all__))
    for name in cfrk.__all__:
        assert namespace[name] is getattr(cfrk, name)
