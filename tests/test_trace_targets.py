"""The benchmark's layer tracer wraps graphopt functions by the names
their callers look up; a renamed target would silently drop a layer."""

import importlib

import pytest

from perfbench.trace import TARGETS


@pytest.mark.parametrize(
    "module_name, cls, attr", [t[1:] for t in TARGETS],
    ids=[".".join(p for p in t[1:] if p) for t in TARGETS])
def test_trace_target_resolves(module_name, cls, attr):
    owner = importlib.import_module(module_name)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner)
