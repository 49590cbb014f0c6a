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


def test_library_functions_and_classes_are_reexported():
    # module constants are exempt; the command-line module is the entry
    # point, not library surface, and the package does not import it
    import inspect

    from stoclim import bath, config, evolution, generator, glauber, operators

    for module in (bath, config, evolution, generator, glauber, operators):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert name in stoclim.__all__, f"{module.__name__}.{name}"
                assert getattr(stoclim, name) is obj, name
