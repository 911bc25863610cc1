"""The benchmark's tracer wraps swanson functions by name; these tests
fail when a rename or a signature change would break it."""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import swanson.checks
import swanson.grids

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


@pytest.fixture
def trace_child(monkeypatch):
    """perfbench/trace_child.py loaded as a module; it prepends the
    source directory to sys.path, which is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(trace_child):
    targets = trace_child.FUNCTIONS + trace_child.METHODS
    assert targets
    for owner, name, _ in targets:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_eigs_takes_kind_second():
    # the tracer names each eigensolve by its positional or keyword kind
    assert list(inspect.signature(swanson.grids.eigs).parameters)[1] == "kind"


def test_report_keeps_its_timings():
    # the tracer collects each suite's timings from the returned Report
    assert "timings" in {f.name for f in dataclasses.fields(swanson.checks.Report)}
