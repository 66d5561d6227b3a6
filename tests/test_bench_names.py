"""The benchmark's traced runs patch program functions by name
(``perfbench/tracing.WRAPPED``).  An untraced run never looks them up,
so a rename would otherwise surface only under ``--trace 1``."""

import importlib

import pytest

from conftest import load_perfbench


@pytest.mark.parametrize("module_name,attr,span",
                         load_perfbench("tracing").WRAPPED)
def test_traced_name_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), \
            f"{module_name}.{attr} (span {span}) is gone"
        owner = getattr(owner, part)
    assert callable(owner)
