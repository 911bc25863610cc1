"""The benchmark's tracer wraps swanson functions by name; these tests
fail when a rename or a signature change would break it, and when a
traced benchmark run fails its own output check or self-test."""

import dataclasses
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import swanson.checks
import swanson.grids

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACE_CHILD = PERFBENCH / "trace_child.py"


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


def test_result_types_are_classes():
    # the tracer sorts each wrapped call's result with isinstance
    assert inspect.isclass(swanson.grids.MatrixOp)
    assert inspect.isclass(swanson.checks.Report)


@pytest.mark.parametrize("workload",
                         ("verify-flat", "verify-deformed", "sweep-small-n"))
def test_traced_benchmark_run_is_correct(workload):
    # the smallest traced run: two untraced and two traced invocations,
    # each report checked and compared, and the tracer's self-test
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout + done.stderr
