"""End-to-end and per-layer benchmark of the swanson command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Every measured process is a fresh child with BLAS
threads pinned to ``THREADS`` and ``PYTHONHASHSEED`` fixed (with a random
hash seed, peak RSS is bimodal, e.g. 95 or 102 MB for ``sweep-small-n``).
The benchmark seed reaches the program only as ``--seed``, which drives
the randomized symbolic checks.

``--trace 0`` is a closed loop with one client: sequential
``python -m swanson ...`` processes, each paying interpreter start-up and
imports as a user does, for ``--seconds`` (at least two, so that their
reports can be compared).  It reports

* ``wall_s``: median wall time of one invocation;
* ``setup_s``: median wall time of a fresh ``python -c "import swanson.cli"``;
* ``peak_rss_mb``: median peak RSS of one invocation, from ``os.wait4``
  (``RUSAGE_CHILDREN`` would give the maximum over all children reaped).

``--trace 1`` runs ``swanson.cli.main(argv)`` in child processes
(``trace_child.py``), alternately untraced and traced, at least twice
each, and reports per-layer self times (span duration minus the time
covered by child spans), call counts, the ``Report.timings`` sums and
the tracing overhead.  The traced runs are also a self-test: every
boundary that all workloads cross records calls, the counts repeat
exactly between runs, and the self times sum to the traced wall time
within ``SELF_TIME_SLACK``.

Every invocation fails unless it exits 0 and its report passes the
workload's output check, and unless its report is byte-identical, apart
from ``generated_at``, to the first report of the run.  Failed
invocations are counted in ``failed``; ``failed_share`` is printed with
the metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

THREADS = 1  # verify-flat spread over 5 runs: 4% with one BLAS thread, 15% with two
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a whole run, set-up included, must end within 180 s
SELF_TIME_SLACK = 0.01  # share of the traced wall time

FLAT_LEVEL_TOL = 1e-4
# Relative to max(1, |E|).  Thread count alone moves these levels by
# about 1e-9, and a different solver should agree far better than this.
DEFORMED_LEVEL_TOL = 1e-7


# -- output checks ------------------------------------------------------------


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _all_passed(report: dict) -> str | None:
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return f"checks failed: {failed}" if failed else None


def check_flat(argv: list[str], doc: dict) -> str | None:
    """Spectrum within FLAT_LEVEL_TOL of (k+1/2)*sqrt(omega^2-4*lam*delta)."""
    omega, lam, delta = (float(_flag(argv, f)) for f in
                         ("--omega", "--lambda", "--delta"))
    quantum = math.sqrt(omega * omega - 4.0 * lam * delta)
    spectrum = doc["spectra"]["spectrum"]
    got = [complex(r, i) for r, i in zip(spectrum["re"], spectrum["im"])]
    if len(got) != int(_flag(argv, "--levels", "6")):
        return f"wrong number of levels: {len(got)}"
    misses = [k for k, value in enumerate(got)
              if abs(value - (k + 0.5) * quantum) > FLAT_LEVEL_TOL]
    if misses:
        return f"levels {misses} miss the oscillator ladder by > {FLAT_LEVEL_TOL}"
    return _all_passed(doc)


def check_deformed(argv: list[str], doc: dict) -> str | None:
    """Spectrum within DEFORMED_LEVEL_TOL of the recorded reference."""
    with open(HERE / "deformed_reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["argv"] != argv[:argv.index("--seed")]:
        return "the reference was recorded for another command"
    spectrum = doc["spectra"]["spectrum"]
    got = [complex(r, i) for r, i in zip(spectrum["re"], spectrum["im"])]
    want = [complex(r, i) for r, i in zip(reference["re"], reference["im"])]
    if len(got) != len(want):
        return f"wrong number of levels: {len(got)}"
    misses = [k for k, (g, w) in enumerate(zip(got, want))
              if abs(g - w) > DEFORMED_LEVEL_TOL * max(1.0, abs(w))]
    if misses:
        return f"levels {misses} differ from the reference by > {DEFORMED_LEVEL_TOL}"
    return _all_passed(doc)


def check_sweep(argv: list[str], doc: dict) -> str | None:
    """One passing report per beta of the grid, in order."""
    grid = [float(b) for b in _flag(argv, "--beta-grid").split(",")]
    betas = [report["params"]["beta"] for report in doc["reports"]]
    if betas != grid or doc["summary"]["beta"] != grid:
        return f"reports cover beta {betas}, not {grid}"
    for report in doc["reports"]:
        problem = _all_passed(report)
        if problem:
            return problem
    return None


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    argv: list[str]
    check: Callable[[list[str], dict], str | None]


WORKLOADS = {
    # Reduced regime: every flat check runs, including the hermitized
    # self-adjoint eigensolve and two convergence studies on n=501/1001/2001;
    # dense grid work dominates time and memory.
    "verify-flat": Workload(
        ["verify", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
         "--n", "2001"], check_flat),
    # Off the reduced regime (metric exponent about -6.15): general
    # non-symmetric eigensolves on n=501/1001/1501, and 24 levels.
    "verify-deformed": Workload(
        ["verify", "--omega", "1.3", "--lambda", "0.2", "--delta", "-0.4",
         "--beta", "0.05", "--pmax", "40", "--n", "1501", "--levels", "24"],
        check_deformed),
    # Six suites on small grids: the beta-independent randomized symbolic
    # checks dominate, and per-call solver set-up is not hidden.
    "sweep-small-n": Workload(
        ["sweep", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
         "--pmax", "20", "--n", "201",
         "--beta-grid", "0.01,0.03,0.1,0.3,1,3"], check_sweep),
}


# -- child processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=str(THREADS), OMP_NUM_THREADS=str(THREADS),
               PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p))
    return env


def spawn(argv: list[str], timeout: float) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall s, peak RSS MB).

    ``os.wait4`` gives this child's own peak RSS.  A child still running
    after ``timeout`` seconds is killed and reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


_STAMP = re.compile(rb'"generated_at": "[^"]*"')


class Verifier:
    """Output check of one run: each report must pass the workload's check
    and be byte-identical, apart from ``generated_at``, to the first."""

    def __init__(self, workload: Workload, cli_argv: list[str]):
        self.workload = workload
        self.cli_argv = cli_argv
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def record(self, code: int, report: Path) -> None:
        self.attempted += 1
        problem = self._problem(code, report)
        if problem:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {problem}", file=sys.stderr)

    def _problem(self, code: int, report: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            data = report.read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        finally:
            report.unlink(missing_ok=True)
        try:
            problem = self.workload.check(self.cli_argv, doc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed report: {type(exc).__name__}: {exc}"
        if problem:
            return problem
        stripped = _STAMP.sub(b'"generated_at": ""', data)
        if self.first is None:
            self.first = stripped
        elif stripped != self.first:
            return "report differs from the first of this run"
        return None


class Clock:
    """Run-time budget: ``--seconds`` of measurement inside RUN_LIMIT_S."""

    def __init__(self):
        self.started = time.perf_counter()

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)


def keep_going(durations: list[float], since: float, seconds: float,
               clock: Clock) -> bool:
    """At least two samples; then another only if it ends within both
    ``seconds`` of measurement and the run limit."""
    if len(durations) < 2:
        return True
    typical = statistics.median(durations)
    return (time.perf_counter() - since + typical <= seconds
            and clock.left() > 1.5 * typical)


# -- set-up and environment --------------------------------------------------------

ENV_SCRIPT = """
import json, os, platform
import numpy, scipy, swanson.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "nproc": os.cpu_count()}))
"""


def environment() -> dict:
    """Versions, thread pinning and core count, read in a child with the
    same environment as the measured ones; this first import also warms
    the file cache before ``setup_s`` is timed."""
    done = subprocess.run([sys.executable, "-c", ENV_SCRIPT], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("error: cannot import swanson from src/")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(clock: Clock) -> float:
    walls = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = spawn([sys.executable, "-c", "import swanson.cli"],
                              clock.left())
        if code != 0:
            raise SystemExit("error: importing swanson.cli failed")
        walls.append(wall)
    return statistics.median(walls)


# -- end-to-end run -----------------------------------------------------------------


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   clock: Clock) -> tuple[dict, Verifier]:
    setup = measure_setup(clock)
    cli_argv = workload.argv + ["--seed", str(seed)]
    verifier = Verifier(workload, cli_argv)
    walls, rss = [], []
    since = time.perf_counter()
    while keep_going(walls, since, seconds, clock):
        report = WORK / f"report-{len(walls)}.json"
        code, wall, peak = spawn(
            [sys.executable, "-m", "swanson", *cli_argv, "--out", str(report)],
            clock.left())
        verifier.record(code, report)
        walls.append(wall)
        rss.append(peak)
    print(f"invocations: {len(walls)}", file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }, verifier


# -- traced run ------------------------------------------------------------------------

# The constructors' self time includes the DiffOp sums and scalar products
# they perform, which are not spans; only DiffOp-by-DiffOp products are.
MODEL_SPANS = ("model.h_ladder", "model.h_quadratic", "model.h_deformed",
               "model.h_reduced", "model.h_variant",
               "model.reduced_variant_difference", "model.h0_momentum",
               "model.h0_adjoint_expected", "model.metric_exponent",
               "model.gaussian_alpha")
EIG_SELFADJOINT = "grids.eigs.selfadjoint-weighted"
EIG_GENERAL = "grids.eigs.general"

# Which end-to-end metric a change to each layer should move, and where:
# cli.self_s (report serialisation), checks.symbolic_s and every algebra.*
# metric move wall_s on sweep-small-n, where the seed spends most of its
# time in algebra; on verify-* they are a few percent, so expect no change.
# grids.assemble_s, grids.transform_s and grids.eig_s move wall_s on
# verify-flat (eig_s on verify-deformed too: general solver), together with
# checks.numeric_s and checks.convergence_s; grids.matrix_bytes moves
# peak_rss_mb on both verify-* workloads.  Import-time changes move
# setup_s on every workload.

# metric -> spans whose self times it sums
SELF_TIMES = {
    "cli.parse_s": ("cli.parse",),
    "cli.self_s": ("cli.main", "cli.cmd_verify", "cli.cmd_spectrum",
                   "cli.cmd_sweep"),
    "checks.self_s": ("checks.run_suite",),
    "model.build_s": MODEL_SPANS,
    "algebra.compose_s": ("algebra._compose",),
    "algebra.adjoint_s": ("algebra.adjoint",),
    "algebra.conjugate_s": ("algebra.conjugate_gaussian",
                            "algebra.conjugate_power_metric"),
    "algebra.compare_s": ("algebra.operators_equal",),
    "grids.assemble_s": ("grids.assemble_matrix", "grids.derivative_matrix"),
    "grids.transform_s": ("grids.similarity_transform", "grids.weighted_adjoint"),
    "grids.eig_s": (EIG_SELFADJOINT, EIG_GENERAL),
}
# metric -> spans it counts
CALLS = {
    "checks.suite_calls": ("checks.run_suite",),
    "model.build_calls": MODEL_SPANS,
    "algebra.compose_calls": ("algebra._compose",),
    "algebra.adjoint_calls": ("algebra.adjoint",),
    "algebra.conjugate_calls": ("algebra.conjugate_gaussian",
                                "algebra.conjugate_power_metric"),
    "algebra.compare_calls": ("algebra.operators_equal",),
    "grids.assemble_calls": ("grids.assemble_matrix",),
    "grids.eig_selfadjoint_calls": (EIG_SELFADJOINT,),
    "grids.eig_general_calls": (EIG_GENERAL,),
}
LAYERS = ("cli", "checks", "model", "algebra", "grids")
NUMERIC_CHECKS = ("numeric_residual", "spectrum")


def check_category(name: str) -> str:
    if name.startswith("convergence_"):
        return "checks.convergence_s"
    return "checks.numeric_s" if name in NUMERIC_CHECKS else "checks.symbolic_s"


def summarize(trace: dict) -> dict:
    """Per-metric self times and counts of one traced run, plus what the
    self-test needs: per-layer self times, the number of root spans and
    the smallest self time."""
    spans = trace["spans"]
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), seconds in zip(spans, own):
        self_time[name] += seconds
        calls[name] += 1
    times = {m: sum(self_time[n] for n in names) for m, names in SELF_TIMES.items()}
    for key in ("checks.symbolic_s", "checks.numeric_s", "checks.convergence_s"):
        times[key] = 0.0
    for timings in trace["suite_timings"]:
        for name, seconds in timings.items():
            times[check_category(name)] += seconds
    counts = {m: sum(calls[n] for n in names) for m, names in CALLS.items()}
    counts["grids.matrix_bytes"] = trace["matrix_bytes"]
    layer_time: dict = defaultdict(float)
    for name, seconds in self_time.items():
        layer_time[name.split(".")[0]] += seconds
    return {"times": times, "counts": counts, "wall": trace["wall_s"],
            "layer_time": layer_time,
            "roots": sum(1 for span in spans if span[3] < 0),
            "min_self": min(own, default=0.0)}


def self_test(summaries: list[dict]) -> list[str]:
    """Problems with the traced runs of one workload: a boundary every
    workload crosses that recorded no call (a wrapper was missed), counts
    that differ between runs, or self times that do not add up to the
    traced wall time."""
    first = summaries[0]
    counts = dict(first["counts"])
    counts["grids.eig_calls"] = (counts.pop("grids.eig_selfadjoint_calls")
                                 + counts.pop("grids.eig_general_calls"))
    problems = [f"no calls recorded for {m}" for m, c in counts.items() if not c]
    for k, summary in enumerate(summaries):
        if summary["counts"] != first["counts"]:
            problems.append(f"traced run {k}: counts differ from run 0")
        total = sum(summary["layer_time"].values())
        if (summary["roots"] != 1 or summary["min_self"] < -1e-9
                or abs(total - summary["wall"]) > SELF_TIME_SLACK * summary["wall"]):
            problems.append(f"traced run {k}: self times sum to {total:.6f} s "
                            f"against a wall time of {summary['wall']:.6f} s")
    return problems


def in_process(cli_argv: list[str], mode: str, verifier: Verifier,
               clock: Clock) -> dict | None:
    """One ``trace_child.py`` run; None when it did not produce a trace."""
    index = verifier.attempted
    report, result = WORK / f"report-{index}.json", WORK / f"trace-{index}.json"
    code, _, _ = spawn([sys.executable, str(HERE / "trace_child.py"), str(result),
                        mode, "--", *cli_argv, "--out", str(report)], clock.left())
    try:
        trace = json.loads(result.read_text(encoding="utf-8")) if code == 0 else None
    except (OSError, ValueError):
        trace = None
    result.unlink(missing_ok=True)
    verifier.record(code if trace is None else trace["exit_code"], report)
    return trace


def run_traced(workload: Workload, seed: int, seconds: float,
               clock: Clock) -> tuple[dict, Verifier, list[str]]:
    """Alternate untraced and traced in-process runs, at least two pairs."""
    cli_argv = workload.argv + ["--seed", str(seed)]
    verifier = Verifier(workload, cli_argv)
    since = time.perf_counter()
    plain, summaries, pairs = [], [], []
    while keep_going(pairs, since, seconds, clock):
        start = time.perf_counter()
        untraced = in_process(cli_argv, "plain", verifier, clock)
        traced = in_process(cli_argv, "traced", verifier, clock)
        if untraced is None or traced is None:
            break
        plain.append(untraced["wall_s"])
        summaries.append(summarize(traced))
        pairs.append(time.perf_counter() - start)
    if len(summaries) < 2:
        return {}, verifier, ["fewer than two traced runs completed"]
    problems = self_test(summaries)
    metrics = {m: (statistics.median(s["times"][m] for s in summaries), "s")
               for m in summaries[0]["times"]}
    metrics.update((m, (v, "count")) for m, v in summaries[0]["counts"].items())
    metrics["grids.matrix_bytes"] = (summaries[0]["counts"]["grids.matrix_bytes"],
                                     "bytes")
    metrics["trace.overhead_s"] = (statistics.median(s["wall"] for s in summaries)
                                   - statistics.median(plain), "s")
    shares = {layer: statistics.median(s["layer_time"][layer] / s["wall"]
                                       for s in summaries) for layer in LAYERS}
    print("layer self-time shares: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()))
    print(f"traced runs: {len(summaries)}; self-test: "
          + ("; ".join(problems) if problems else "passed"))
    return metrics, verifier, problems


# -- entry point ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swanson" / "cli.py").is_file():
        print(f"error: no swanson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    clock = Clock()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, verifier, problems = run_traced(workload, args.seed,
                                                     args.seconds, clock)
        else:
            metrics, verifier = run_end_to_end(workload, args.seed,
                                               args.seconds, clock)
            problems = []
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {verifier.failed / verifier.attempted:.6g} ratio "
          f"({verifier.failed} of {verifier.attempted} invocations)")
    result = {
        "correct": verifier.failed == 0 and not problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
