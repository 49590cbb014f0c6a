"""The package's star-import surface is its ``__all__``."""

import stoclim


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stoclim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(stoclim.__all__)
    assert len(set(stoclim.__all__)) == len(stoclim.__all__)


def test_every_entry_of_all_resolves():
    for name in stoclim.__all__:
        assert getattr(stoclim, name) is not None, name
