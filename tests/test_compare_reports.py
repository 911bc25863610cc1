"""tools/compare_reports.py compares two trees on fixed argvs; these tests
fail when a renamed or removed flag would turn one of them into a usage
error, which both trees would then report alike."""

import importlib.util
from pathlib import Path

import pytest

from swanson.cli import parse

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"


def _argvs() -> list:
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ARGVS


ARGVS = _argvs()


def test_every_case_is_listed():
    # three benchmark workloads, eleven verify, five spectrum, one sweep
    assert [argv[0] for argv in ARGVS].count("spectrum") == 5
    assert len(ARGVS) == 20


@pytest.mark.parametrize("argv", ARGVS)
def test_argv_parses(argv):
    assert parse(argv).command == argv[0]
