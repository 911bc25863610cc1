"""Command-line front end: verify / spectrum / sweep.

Configuration comes from flags, optionally seeded by a flat JSON config
file (same keys as the flags with dashes turned into underscores; any
other key or a boolean value is an error); flags override the file.
Reports are JSON, spectra are CSV with 17 significant digits so that
64-bit floats round-trip.  Exit codes: 0 all checks passed, 1 at least
one verification failure, 2 usage/config/I-O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from .checks import NUMERIC_ERRORS, SuiteConfig, check_spectrum, run_suite
from .grids import build_grid, peak_bytes
from .model import ModelParams, make_params, with_beta

class UsageError(Exception):
    """Bad flags, bad config values, or I/O trouble; exits with code 2."""


@dataclass(frozen=True)
class JobConfig:
    command: str
    params: ModelParams
    suite: SuiteConfig
    out: str | None
    beta_grid: tuple | None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega", type=float)
    common.add_argument("--lambda", dest="lam", type=float)
    common.add_argument("--delta", type=float)
    common.add_argument("--m", type=float)
    common.add_argument("--hbar", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--n", type=int)
    common.add_argument("--pmax", type=float)
    common.add_argument("--fd-order", dest="fd_order", type=int)
    common.add_argument("--levels", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=str)
    common.add_argument("--config", type=str)
    common.add_argument("--beta-grid", dest="beta_grid", type=str)
    common.add_argument("--exponent-override", dest="exponent_override",
                        type=float)
    parser = argparse.ArgumentParser(
        prog="swanson",
        description="Verify the operator identities of the Swanson model, "
                    "with or without minimal-length deformation.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("verify", parents=[common],
                          help="run the verification suite, emit a JSON report")
    subparsers.add_parser("spectrum", parents=[common],
                          help="emit the low-lying spectrum as CSV")
    subparsers.add_parser("sweep", parents=[common],
                          help="run the suite over a list of beta values")
    # argparse reads only plain decimals such as -0.5 as negative values;
    # the subcommands read every negative float literal (-5e-1, -inf) as one
    for command in subparsers.choices.values():
        command._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)
    return parser


def _parse_beta_grid(value) -> tuple:
    chunks = value if isinstance(value, (list, tuple)) else [
        chunk for chunk in str(value).split(",") if chunk.strip()]
    try:
        return tuple(float(v) for v in chunks)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad beta-grid value: {exc}")


def _integer(key: str, value) -> int:
    """An integral flag or config-file value; int() would truncate 11.9."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{key} must be an integer: {exc}")
    if not isinstance(value, str) and number != value:
        raise UsageError(f"{key} must be an integer, not {value!r}")
    return number


def _host_bytes(cgroup: str = "/proc/self/cgroup",
                root: str = "/sys/fs/cgroup") -> int:
    """The memory the host can give a run: its physical memory, or where
    smaller the limit of the memory cgroup each hierarchy:controllers:path
    line of ``cgroup`` names, v2 memory.max or v1 memory.limit_in_bytes."""
    limits = [os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")]
    try:
        with open(cgroup, encoding="ascii") as handle:
            entries = [line.rstrip("\n").split(":", 2) for line in handle]
    except OSError:
        entries = []
    files = [f"{root}/memory{path}/memory.limit_in_bytes" if controllers
             else f"{root}{path}/memory.max"
             for _, controllers, path in entries
             if not controllers or "memory" in controllers.split(",")]
    for name in files:
        try:
            with open(name, encoding="ascii") as handle:
                limits.append(int(handle.read()))
        except (OSError, ValueError):  # no such file, or "max"
            pass
    return min(limits)


def parse(argv) -> JobConfig:
    """Merge flags over an optional flat JSON config file into a validated
    JobConfig; every validation problem raises UsageError."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    flags = {key: value for key, value in vars(namespace).items()
             if key != "command" and value is not None}
    keys = vars(namespace).keys() - {"command", "config"}

    merged = {}
    config_path = flags.pop("config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a flat JSON object")
        for raw_key, value in file_values.items():
            key = raw_key.replace("-", "_")
            if key == "lambda":
                key = "lam"
            if key not in keys:
                raise UsageError(f"unknown config-file key {raw_key!r}")
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, bool) for v in values):  # float(True) is 1.0
                raise UsageError(f"config-file key {raw_key!r} takes no boolean")
            merged[key] = value
    merged.update(flags)

    for name in ("omega", "lam", "delta"):
        if name not in merged:
            flag = "lambda" if name == "lam" else name
            raise UsageError(f"missing required parameter --{flag}")

    beta_grid = merged.get("beta_grid")
    if beta_grid is not None:
        beta_grid = _parse_beta_grid(beta_grid)

    override = merged.get("exponent_override")
    # an unset key takes its default from SuiteConfig or make_params
    n, fd_order, levels, seed = (_integer(key, merged.get(key, getattr(
        SuiteConfig, key))) for key in ("n", "fd_order", "levels", "seed"))
    try:
        params = make_params(merged["omega"], merged["lam"], merged["delta"],
                             **{key: merged[key] for key in ("m", "hbar", "beta")
                                if key in merged})
        for beta in beta_grid or ():  # each sweep point validates its beta
            with_beta(params, beta)
        # an overcommitting kernel kills a run that outgrows the host
        # instead of raising MemoryError, so the grid is refused up front
        need, have = peak_bytes(n, levels), _host_bytes()
        if need > have:
            raise MemoryError(f"a run needs up to {need} bytes, and the host "
                              f"has {have}")
        # the largest beta the command runs bounds the grid's coefficients
        runs = beta_grid if namespace.command == "sweep" else None
        grid = build_grid(n, float(merged.get("pmax", SuiteConfig.p_max)),
                          max(runs or (params.beta,)))
        suite = SuiteConfig(
            n=grid.n, p_max=grid.p_max, fd_order=fd_order, levels=levels,
            seed=seed,
            exponent_override=None if override is None else float(override))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(str(exc))
    except MemoryError as exc:
        raise UsageError(f"n = {n} is too large: {exc}")
    if suite.exponent_override is not None and not math.isfinite(
            suite.exponent_override):
        raise UsageError("exponent-override must be finite")
    if suite.fd_order not in (2, 4):
        raise UsageError("fd-order must be 2 or 4")
    if not 1 <= suite.levels <= suite.n:
        raise UsageError("levels must be between 1 and n")
    if suite.seed < 0:
        raise UsageError("seed must be >= 0")
    if not isinstance(merged.get("out", ""), str):
        raise UsageError("out must be a path")

    return JobConfig(command=namespace.command, params=params, suite=suite,
                     out=merged.get("out"), beta_grid=beta_grid)


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}")


def _fmt17(value: float) -> str:
    return format(value, ".17g")


def cmd_verify(config: JobConfig) -> int:
    report = run_suite(config.params, config.suite)
    payload = report.to_json_dict(_timestamp())
    _write_text(config.out, json.dumps(payload, indent=2) + "\n")
    return 0 if report.passed else 1


def cmd_spectrum(config: JobConfig) -> int:
    suite = config.suite
    grid = build_grid(suite.n, suite.p_max, config.params.beta)
    try:
        result = check_spectrum(config.params, grid, suite.fd_order,
                                suite.levels)
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(
            f"spectrum check failed: {type(exc).__name__}: {exc}\n")
        return 1
    details = result.details
    # only a spectrum with a closed-form oracle carries per-level errors
    errors = details.get("errors")
    lines = ["n,re,im,oracle,abs_err"]
    for index, (real, imag) in enumerate(zip(details["re"], details["im"])):
        oracle = abs_err = ""
        if errors is not None:
            oracle = _fmt17(details["oracle"][index])
            abs_err = _fmt17(errors[index])
        lines.append(",".join([str(index), _fmt17(real), _fmt17(imag), oracle,
                               abs_err]))
    _write_text(config.out, "\n".join(lines) + "\n")
    return 0 if result.passed else 1


def cmd_sweep(config: JobConfig) -> int:
    if config.beta_grid is None or len(config.beta_grid) < 2:
        raise UsageError("sweep needs --beta-grid with at least 2 values")
    reports = [run_suite(with_beta(config.params, beta), config.suite)
               for beta in config.beta_grid]
    rows = []
    for report in reports:
        residual = {check.name: check.residual for check in report.checks}
        rows.append((report.params.beta, residual["metric_limit"],
                     residual.get("pseudo_hermiticity_deformed",
                                  residual["pseudo_hermiticity_gaussian"]),
                     residual["numeric_residual"], report.passed))
    columns = ("beta", "metric_limit_deviation", "pseudo_hermiticity_residual",
               "numeric_residual", "passed")
    summary = {key: list(column) for key, column in zip(columns, zip(*rows))}
    stamp = _timestamp()
    payload = {
        "reports": [r.to_json_dict(stamp) for r in reports],
        "summary": summary,
        "generated_at": stamp,
        "seed": config.suite.seed,
    }
    _write_text(config.out, json.dumps(payload, indent=2) + "\n")
    return 0 if all(summary["passed"]) else 1


def main(argv=None) -> int:
    try:
        config = parse(argv if argv is not None else sys.argv[1:])
        if config.command == "verify":
            return cmd_verify(config)
        if config.command == "spectrum":
            return cmd_spectrum(config)
        return cmd_sweep(config)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
