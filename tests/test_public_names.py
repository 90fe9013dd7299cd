"""The package's public names: each module's ``__all__`` is their one list."""

import specact
from specact import bounds, divdiff, errors, functions, operator_model, spectral_action

MODULES = (bounds, divdiff, errors, functions, operator_model, spectral_action)


def test_each_name_is_listed_once():
    assert len(specact.__all__) == len(set(specact.__all__))
    listed = [name for module in MODULES for name in module.__all__]
    assert sorted(listed) == specact.__all__


def test_each_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert value.__module__ == module.__name__, name
            assert getattr(specact, name) is value, name


def test_internal_names_are_not_exported():
    for name in ("as_nodes", "DEFAULT_TUPLE_BUDGET", "make_rng", "simplex_uniform"):
        assert name not in specact.__all__
        assert not hasattr(specact, name)
