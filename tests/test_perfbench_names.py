"""The traced benchmark run wraps library functions and SdpProblem methods
by name (perfbench/layers.py); a renamed or removed one would leave its
per-layer metrics absent.  These checks catch such a rename here."""

import importlib.util
from pathlib import Path

import pytest

from sparse_sdp.problem import SdpProblem

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("name, module, attr", layers.FUNCTIONS)
def test_wrapped_function_exists(name, module, attr):
    lib = importlib.import_module(f"{layers.PACKAGE}.{module}")
    assert callable(getattr(lib, attr, None)), f"{name}: {module}.{attr} is gone"


@pytest.mark.parametrize("name, attr", layers.PROBLEM_METHODS)
def test_wrapped_problem_method_exists(name, attr):
    assert callable(getattr(SdpProblem, attr, None)), f"{name}: SdpProblem.{attr} is gone"
