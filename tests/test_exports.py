"""Each export list names objects its module provides, each once."""

import importlib

import pytest

import commutant


@pytest.mark.parametrize(
    "module", ["commutant", "commutant.gallery", "commutant.serialize", "commutant.suites"]
)
def test_every_export_resolves_and_is_listed_once(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from commutant import *", namespace)
    assert set(commutant.__all__) <= set(namespace)
