"""The benchmark's traced runs patch program functions by name
(``perfbench/tracing.WRAPPED``).  An untraced run never looks them up,
so a rename would otherwise surface only under ``--trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name,attr,span", _wrapped())
def test_traced_name_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), \
            f"{module_name}.{attr} (span {span}) is gone"
        owner = getattr(owner, part)
    assert callable(owner)
