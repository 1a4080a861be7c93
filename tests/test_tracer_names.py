"""The bench tracer wraps package functions by name: each must exist."""

import importlib

import pytest

from conftest import PKG_ROOT

TRACER = PKG_ROOT.parent.parent / "perfbench" / "tracer.py"


def tracer_wrapped():
    # run the tracer's source in a fresh namespace: no import machinery,
    # so nothing is cached or written next to it
    namespace: dict = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["WRAPPED"]


@pytest.mark.parametrize("module, attr",
                         [(m, a) for m, a, _ in tracer_wrapped()])
def test_every_traced_name_exists(module, attr):
    # `perfbench/run.py --trace 1` replaces these in the module's __dict__
    owner = importlib.import_module(f"rv32x.{module}")
    assert callable(owner.__dict__.get(attr)), f"rv32x.{module}.{attr}"
