"""tools/compare_reports.py compares two trees on fixed argvs and their
demos; these tests fail when a renamed or removed flag would turn one of
them into a usage error, which both trees would then report alike, check
that every demo of either tree is compared, and check how it names a
difference between two outputs."""

import importlib.util
from pathlib import Path

import pytest

from swanson.cli import parse

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL_MODULE = _tool()
ARGVS = TOOL_MODULE.ARGVS


def test_every_case_is_listed():
    # three benchmark workloads (two verify, one sweep), twenty-three
    # verify, nine spectrum, one sweep
    commands = [argv[0] for argv in ARGVS]
    assert commands.count("verify") == 2 + 23
    assert commands.count("spectrum") == 9
    assert len(ARGVS) == 36


@pytest.mark.parametrize("argv", ARGVS)
def test_argv_parses(argv):
    assert parse(argv).command == argv[0]


def test_every_demo_of_either_tree_is_compared(tmp_path):
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "05_new.py").write_text("print('new')\n")
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    cases = TOOL_MODULE.cases(ROOT, tmp_path)
    assert cases[:len(ARGVS)] == [(" ".join(argv), ["-m", "swanson", *argv])
                                  for argv in ARGVS]
    assert cases[len(ARGVS):] == [(f"demos/{name}", [f"demos/{name}"])
                                  for name in [*demos, "05_new.py"]]


def test_a_demo_runs_in_its_tree(tmp_path):
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "warn.py").write_text(
        "import warnings\nprint('out')\nwarnings.warn('w', RuntimeWarning)\n")
    code, out, err = TOOL_MODULE.run(tmp_path, ["demos/warn.py"])
    assert (code, out) == (1, b"out\n")
    assert b"RuntimeWarning: w" in err


REPORT = b"""{"checks": [{"name": "spectrum", "details": {"re": [0.5, 1.5],
 "im": [0.0, 0.0], "solver": "shift-invert"}}], "passed": true}"""
CSV = b"k,re,im,oracle,error\n0,0.5,0.0,,\n1,1.5,0.0,,\n"


def test_numbers_only_difference_is_located():
    classify = TOOL_MODULE.classify
    moved = REPORT.replace(b"1.5]", b"1.5000000000015]")
    assert classify(REPORT, moved) == (
        "numbers only, max rel 1.0e-12 at checks[0].details.re[1]")
    moved_csv = CSV.replace(b"1,1.5,", b"1,1.5000000000015,")
    assert classify(CSV, moved_csv) == (
        "numbers only, max rel 1.0e-12 at [1].re")


@pytest.mark.parametrize("old, new", [
    (REPORT, REPORT.replace(b'"shift-invert"', b'"dense-fallback"')),
    (REPORT, REPORT.replace(b'"passed": true', b'"passed": false')),
    (REPORT, REPORT.replace(b"[0.5, 1.5]", b"[0.5]")),
    (CSV, CSV + b"2,2.5,0.0,,\n"),
    (CSV, CSV.replace(b"0,0.5,0.0,,", b"0,0.5,0.0,0.5,")),
    (REPORT, REPORT.replace(b"{", b"", 1)),
    (REPORT, REPORT),
])
def test_other_differences_are_not_numbers_only(old, new):
    assert TOOL_MODULE.classify(old, new) is None
