"""Run ``swanson.cli.main(argv)`` once in this process, optionally traced.

    python3 perfbench/trace_child.py RESULT_JSON {plain|traced} -- ARGV...

``plain`` only times the call.  ``traced`` first wraps the public
functions of every layer (cli, checks, model, algebra, grids) in spans.
A wrapper is installed under every name that refers to the function in
any ``swanson`` module, because the modules import each other's
functions by name (``checks`` does ``from .grids import eigs``), so
patching only the defining module would miss those calls.  Spans are
kept in memory as ``[name, start, end, parent]`` and written once, with
the exit code, the wall time and the counts taken at the same
boundaries, to RESULT_JSON when the call returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import swanson.algebra  # noqa: E402
import swanson.checks  # noqa: E402
import swanson.cli  # noqa: E402
import swanson.grids  # noqa: E402
import swanson.model  # noqa: E402

# (module, function, span name); the span name is "<layer>.<function>".
FUNCTIONS = [
    (swanson.cli, name, f"cli.{name}")
    for name in ("main", "parse", "cmd_verify", "cmd_spectrum", "cmd_sweep")
] + [
    (swanson.checks, "run_suite", "checks.run_suite"),
] + [
    (swanson.model, name, f"model.{name}")
    for name in ("h_ladder", "h_quadratic", "h_deformed", "h_reduced",
                 "h_variant", "reduced_variant_difference", "h0_momentum",
                 "h0_adjoint_expected", "metric_exponent", "gaussian_alpha")
] + [
    (swanson.algebra, "operators_equal", "algebra.operators_equal"),
] + [
    (swanson.grids, name, f"grids.{name}")
    for name in ("derivative_matrix", "assemble_matrix", "weighted_adjoint",
                 "similarity_transform", "eigs")
]

# DiffOp methods are looked up on the class, so patching it reaches
# every caller.  ``_compose`` is the DiffOp-by-DiffOp product.
METHODS = [(swanson.algebra.DiffOp, name, f"algebra.{name}")
           for name in ("_compose", "adjoint", "conjugate_gaussian",
                        "conjugate_power_metric")]


def _eigs_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "general")
    return f"grids.eigs.{kind}"


class Tracer:
    """In-memory span recorder with counts taken at the span boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.matrix_bytes = 0
        self.suite_timings: list[dict] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _eigs_name(args, kwargs) if name == "grids.eigs" else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if isinstance(result, swanson.grids.MatrixOp):
                self.matrix_bytes += result.matrix.nbytes
            elif isinstance(result, swanson.checks.Report):
                self.suite_timings.append(dict(result.timings))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a swanson module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "swanson" or key.startswith("swanson.")]
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for target in modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))


def main(argv: list[str]) -> int:
    result_path, mode, separator, *cli_argv = argv
    if mode not in ("plain", "traced") or separator != "--":
        sys.stderr.write(__doc__)
        return 2
    tracer = Tracer()
    if mode == "traced":
        tracer.install()
    entry = swanson.cli.main  # looked up after install: the wrapped one
    start = time.perf_counter()
    code = entry(cli_argv)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "wall_s": wall,
                   "spans": tracer.spans,
                   "matrix_bytes": tracer.matrix_bytes,
                   "suite_timings": tracer.suite_timings}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
