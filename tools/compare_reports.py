"""Compare the output of two source trees on fixed argvs and the demos.

    python tools/compare_reports.py PARENT_TREE [CHANGE_TREE]

Each tree is a checkout holding ``src/swanson`` and ``demos``;
CHANGE_TREE defaults to the checkout this script sits in.  Each case runs
once per tree, in that tree with its ``src`` on ``PYTHONPATH``, one BLAS
thread and a fixed hash seed: every argv of ``ARGVS`` as ``python -W
error::RuntimeWarning -m swanson ...``, then every ``demos/*.py`` file
name of either tree as ``python -W error::RuntimeWarning demos/NAME``.
Its stdout (with ``"generated_at"`` masked), stderr and exit code must be
byte-identical between the trees.  One line is printed per case, and the
exit code is 1 if any case differs.  A stdout difference is named by its
first differing line, or as ``numbers only, max rel <x> at <path>`` when
both outputs parse (a JSON report or a CSV with a header) and differ in
numbers alone: <x> is the largest relative difference and <path> where
it is, such as ``checks[3].details.re[0]`` or ``[0].re`` (row, column).

The argvs are the benchmark workloads (from ``perfbench/run.py``, at
seed 1) and runs that reach the other solver paths, failure records and
edge cases of the report.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

P1 = ["--omega", "1", "--lambda", "-0.5", "--delta", "0.5"]


def _model(omega: str, lam: str, delta: str) -> list[str]:
    return ["--omega", omega, "--lambda", lam, "--delta", delta]


def _workload_argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return [workload.argv + ["--seed", "1"]
            for workload in run.WORKLOADS.values()]


ARGVS = _workload_argvs() + [
    ["verify", *P1, "--n", "301", "--exponent-override", "3"],
    ["verify", *P1, "--n", "11", "--pmax", "1e150"],
    ["verify", *P1, "--n", "51", "--pmax", "1e-300"],
    ["verify", *P1, "--n", "7"],
    ["verify", *P1, "--n", "501", "--fd-order", "2"],
    ["verify", *P1, "--beta", "0.1", "--n", "401"],
    ["verify", *P1, "--beta", "0.01", "--pmax", "20", "--n", "301"],
    ["verify", *_model("1", "0.8", "0.3"), "--n", "301"],
    ["verify", *_model("1", "1.2", "-0.1"), "--n", "301"],
    ["verify", *_model("1", "0.2", "0.2")],
    ["verify", *_model("1", "-0.6", "-0.6"), "--beta", "0.5", "--pmax", "20",
     "--n", "1001"],
    ["verify", *_model("1.3", "0.2", "-0.4"), "--m", "2", "--hbar", "0.5",
     "--n", "401"],
    ["verify", *_model("1", "-0.0", "0.0"), "--n", "101"],
    ["verify", *P1, "--beta", "1e-308", "--n", "51"],
    ["verify", *_model("1", "0.6", "0.399"), "--beta", "0.5", "--n", "101"],
    ["verify", *P1, "--m", "1e-300"],
    ["verify", *P1, "--m", "1e300"],
    ["verify", *_model("1", "0.8", "0.3"), "--n", "301", "--m", "1e-300"],
    ["verify", *_model("7e-309", "-1.11", "-0.31"), "--beta", "10", "--n",
     "101"],
    ["verify", *P1, "--n", "51", "--pmax", "1e-150"],
    ["verify", *_model("1e166", "-7.8", "0.16"), "--m", "7e-309", "--hbar",
     "70", "--n", "11"],
    ["verify", *_model("6.66e-113", "3.7e14", "6.8e79"), "--beta", "1e150",
     "--n", "11", "--levels", "1", "--fd-order", "2"],
    ["verify", *P1, "--n", "301", "--levels", "150"],
    ["spectrum", *P1, "--n", "301"],
    ["spectrum", *P1, "--n", "261", "--levels", "255"],
    ["spectrum", *P1, "--n", "261", "--levels", "251"],
    ["spectrum", *P1, "--beta", "0.1", "--pmax", "20", "--n", "401"],
    ["spectrum", *P1, "--beta", "1", "--pmax", "20", "--n", "201"],
    ["spectrum", *_model("1", "0.8", "0.3"), "--n", "301"],
    ["spectrum", *_model("1", "0.8", "0.3"), "--n", "301", "--m", "1e-300"],
    ["spectrum", *_model("1", "1.2", "-0.1"), "--n", "201"],
    ["spectrum", *_model("7e-309", "-2.3", "-2.8"), "--m", "0.5", "--hbar",
     "2", "--n", "51", "--pmax", "5"],
    ["sweep", *_model("1", "0.8", "0.3"), "--pmax", "20", "--n", "201",
     "--beta-grid", "0,0.1"],
]

_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def cases(parent: Path, change: Path) -> list[tuple[str, list[str]]]:
    """(label, interpreter arguments) of every case: the argvs, then the
    demo file names of either tree."""
    demos = sorted({path.name for tree in (parent, change)
                    for path in (tree / "demos").glob("*.py")})
    return ([(" ".join(argv), ["-m", "swanson", *argv]) for argv in ARGVS]
            + [(f"demos/{name}", [f"demos/{name}"]) for name in demos])


def run(tree: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, masked stdout and stderr of one case on one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    command = [sys.executable, "-W", "error::RuntimeWarning", *args]
    done = subprocess.run(command, capture_output=True, env=env, cwd=tree)
    return (done.returncode, _STAMP.sub(b'"generated_at": ""', done.stdout),
            done.stderr)


def _parse(text: bytes):
    """The JSON document, or the CSV as one dict per row keyed by its
    header with numeric cells as floats; None when it is neither."""
    try:
        return json.loads(text)
    except ValueError:  # includes undecodable bytes
        pass
    header, *lines = text.decode(errors="replace").splitlines() or [""]
    names = header.split(",")
    rows = [line.split(",") for line in lines]
    if len(names) < 2 or any(len(row) != len(names) for row in rows):
        return None
    return [{name: _number_or_text(cell) for name, cell in zip(names, row)}
            for row in rows]


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale, gap = max(abs(old), abs(new)), abs(old - new)
    return gap / scale if math.isfinite(gap) and scale > 0 else math.inf


def _number_differences(old, new, path: str, found: list) -> bool:
    """Append (relative difference, path) for every number that differs
    between the documents; False when anything else differs."""
    if _is_number(old) and _is_number(new):
        if rel := _relative(old, new):
            found.append((rel, path))
        return True
    if isinstance(old, dict) and isinstance(new, dict):
        return list(old) == list(new) and all(
            _number_differences(old[key], new[key], f"{path}.{key}", found)
            for key in old)
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(
            _number_differences(a, b, f"{path}[{i}]", found)
            for i, (a, b) in enumerate(zip(old, new)))
    return old == new


def classify(old: bytes, new: bytes) -> str | None:
    """"numbers only, max rel <x> at <path>" when both outputs parse and
    differ in numbers alone, else None."""
    old_doc, new_doc = _parse(old), _parse(new)
    found: list = []
    if old_doc is None or new_doc is None:
        return None
    if not _number_differences(old_doc, new_doc, "", found) or not found:
        return None
    rel, path = max(found)
    return f"numbers only, max rel {rel:.1e} at {path.lstrip('.')}"


def _first_difference(old: bytes, new: bytes) -> int:
    """1-based number of the first line where ``old`` and ``new`` differ."""
    pairs = zip(old.splitlines(), new.splitlines())
    return next((k for k, (a, b) in enumerate(pairs, 1) if a != b),
                min(len(old.splitlines()), len(new.splitlines())) + 1)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        sys.stderr.write(__doc__)
        return 2
    parent = Path(args[0]).resolve()
    change = Path(args[1]).resolve() if len(args) == 2 else ROOT
    differs = False
    for label, case in cases(parent, change):
        old, new = run(parent, case), run(change, case)
        parts = []
        if old[0] != new[0]:
            parts.append(f"exit {old[0]} -> {new[0]}")
        if old[1] != new[1]:
            parts.append(classify(old[1], new[1]) or "stdout from line "
                         f"{_first_difference(old[1], new[1])}")
        if old[2] != new[2]:
            parts.append("stderr")
        differs = differs or bool(parts)
        verdict = "DIFF (" + ", ".join(parts) + ")" if parts else "same"
        print(f"{verdict:<28} {label}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
