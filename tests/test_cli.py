"""Tests for the command-line interface: parsing, outputs, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import swanson.cli
from swanson.checks import SuiteConfig
from swanson.cli import UsageError, main, parse

P1_FLAGS = ["--omega", "1", "--lambda", "-0.5", "--delta", "0.5"]
FAST = ["--n", "301"]


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestParse:
    def test_verify_example(self):
        config = parse(["verify", *P1_FLAGS])
        assert config.command == "verify"
        assert config.params.omega == 1.0
        assert config.params.lam == -0.5
        assert config.params.mu == 1.0
        assert (config.suite.n, config.suite.p_max,
                config.suite.fd_order) == (1001, 10.0, 4)
        assert (config.suite.levels, config.suite.seed) == (6, 42)

    def test_defaults_are_the_suite_defaults(self):
        assert parse(["verify", *P1_FLAGS]).suite == SuiteConfig()

    def test_parity_rejected(self):
        with pytest.raises(UsageError, match="odd"):
            parse(["verify", *P1_FLAGS, "--n", "1000"])

    def test_flag_overrides_config_file(self, tmp_path):
        config_file = tmp_path / "job.json"
        config_file.write_text(json.dumps({"omega": 1.0, "lambda": -0.5,
                                           "delta": 0.5, "beta": 0.1}))
        config = parse(["verify", "--config", str(config_file), "--beta", "0"])
        assert config.params.beta == 0.0
        without_flag = parse(["verify", "--config", str(config_file)])
        assert without_flag.params.beta == 0.1

    def test_config_file_probes_key(self, tmp_path, capsys):
        # probes is fixed, so like any other unknown key it is rejected
        config_file = tmp_path / "job.json"
        for key in ("probes", "levls"):
            config_file.write_text(json.dumps({"omega": 1.0, "lambda": -0.5,
                                               "delta": 0.5, key: 3}))
            with pytest.raises(UsageError, match=key):
                parse(["verify", "--config", str(config_file)])
            assert main(["verify", "--config", str(config_file)]) == 2
            assert key in capsys.readouterr().err

    def test_config_file_values_are_checked(self, tmp_path):
        config_file = tmp_path / "job.json"
        for bad in ({"out": 1}, {"n": float("inf")},
                    {"exponent_override": "steep"},
                    {"exponent_override": math.nan}):
            config_file.write_text(json.dumps({"omega": 1.0, "lambda": -0.5,
                                               "delta": 0.5, **bad}))
            assert main(["verify", "--config", str(config_file)]) == 2

    @pytest.mark.parametrize("key, value", [("n", 11.9), ("levels", 2.7),
                                            ("fd_order", 4.5), ("seed", 1.5)])
    def test_config_file_integers_are_not_truncated(self, key, value,
                                                     tmp_path, capsys):
        config_file = tmp_path / "job.json"
        config_file.write_text(json.dumps({"omega": 1.0, "lambda": -0.5,
                                           "delta": 0.5, "n": 11, key: value}))
        assert main(["spectrum", "--config", str(config_file)]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("omega", True), ("seed", True),
                                            ("beta_grid", [True, 0.1])])
    def test_config_file_booleans_rejected(self, key, value, tmp_path, capsys):
        # float(True) and int(True) would read a JSON boolean as 1
        config_file = tmp_path / "job.json"
        config_file.write_text(json.dumps({"omega": 1.0, "lambda": -0.5,
                                           "delta": 0.5, "n": 11, key: value}))
        assert main(["verify", "--config", str(config_file)]) == 2
        assert f"config-file key {key!r} takes no boolean" in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        config_file = tmp_path / "job.json"
        config_file.write_text("[1, 2]")
        assert main(["verify", "--config", str(config_file)]) == 2
        assert capsys.readouterr().err == (
            "error: config file must hold a flat JSON object\n")

    def test_missing_parameter(self):
        with pytest.raises(UsageError, match="omega"):
            parse(["verify", "--lambda", "-0.5", "--delta", "0.5"])

    def test_invalid_parameters(self):
        with pytest.raises(UsageError, match="omega - lambda - delta"):
            parse(["verify", "--omega", "1", "--lambda", "0.5", "--delta", "0.5"])
        with pytest.raises(UsageError, match="fd-order"):
            parse(["verify", *P1_FLAGS, "--fd-order", "3"])

    def test_beta_grid_parsing(self):
        config = parse(["sweep", *P1_FLAGS, "--beta-grid", "1e-6,1e-4,1e-2"])
        assert config.beta_grid == (1e-6, 1e-4, 1e-2)

    def test_unknown_flag_exit_code(self):
        assert main(["verify", *P1_FLAGS, "--frequency", "2"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--levels", "100000"],
        ["--lambda", "nan"],
        ["--beta", "nan"],
        ["--pmax", "inf"],
        ["--beta", "inf"],
        ["--beta-grid", "0.1,nan"],
        ["--seed", "-1"],
        ["--pmax", "1e200"],
        ["--pmax", "1e100", "--beta", "1"],
        ["--m", "1e-200", "--hbar", "1e-200"],
        ["--m", "1e-160", "--hbar", "1e-160"],
        ["--m", "1e-310"],
        ["--exponent-override", "nan"],
        ["--exponent-override", "inf"],
        ["--exponent-override", "-inf"],
        ["--beta", "1e-320"],                 # alpha/beta overflows
        ["--beta", "1e-309"],
        ["--beta-grid", "1e-320,1e-300"],
    ])
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_values_exit_two(self, command, flags, capsys):
        assert main([command, *P1_FLAGS, "--n", "101", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", *P1_FLAGS, "--beta-grid", "0,1"],
        ["spectrum", *P1_FLAGS, "--beta-grid", "0,1"],
        ["sweep", *P1_FLAGS, "--beta", "1", "--beta-grid", "0,0"],
    ])
    def test_grid_is_bounded_by_the_betas_the_command_runs(self, argv,
                                                           capsys):
        # (1 + beta*p^2)^2 overflows at p_max = 1e100 for beta = 1 but not
        # for beta = 0, the only beta each of these commands runs
        assert main([*argv, "--n", "51", "--pmax", "1e100"]) != 2
        assert not capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", [("--delta", "-5e-1"),
                                             ("--exponent-override", "-1e-3"),
                                             ("--exponent-override", "-2.5e+1")])
    def test_negative_values_in_exponent_form(self, flag, value):
        # argparse alone reads only plain decimals such as -0.5 as values
        argv = ["verify", "--omega", "1", "--lambda", "5e-1", "--delta", "0.2"]
        spaced = parse([*argv, flag, value])
        assert spaced == parse([*argv, f"{flag}={value}"])
        assert float(value) in (spaced.params.delta,
                                spaced.suite.exponent_override)

    @pytest.mark.parametrize("command", ["verify", "spectrum", "sweep"])
    def test_unallocatable_grid_exits_two(self, command, capsys):
        # 2**56 + 1 points need 512 PiB, more than any 64-bit address space
        n = 2 ** 56 + 1
        argv = [command, *P1_FLAGS, "--n", str(n), "--beta-grid", "0,0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: n = {n} is too large")

    @pytest.mark.parametrize("flags", [["--n", "20001"],
                                       ["--n", "4001", "--levels", "400"]])
    def test_run_beyond_host_memory_exits_two(self, flags, monkeypatch,
                                              capsys):
        # an overcommitting kernel kills such a run instead of raising
        # MemoryError, so parse refuses it before it builds a grid
        def unbuilt(*args, **kwargs):
            raise AssertionError("build_grid was called")

        monkeypatch.setattr(swanson.cli, "_host_bytes", lambda: 4 << 20)
        monkeypatch.setattr(swanson.cli, "build_grid", unbuilt)
        assert main(["spectrum", *P1_FLAGS, *flags]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: n = {flags[1]} is too large")

    @pytest.mark.parametrize("lines, files, limit", [
        ("0::/job\n", {"job/memory.max": "1048576\n"}, 1 << 20),
        ("0::/job\n", {"job/memory.max": "max\n"}, None),
        ("4:memory:/job\n0::/\n",
         {"memory/job/memory.limit_in_bytes": "2097152\n"}, 2 << 20),
        ("4:memory:/job\n",
         {"memory/job/memory.limit_in_bytes": "9223372036854771712\n"}, None),
        ("3:cpu:/job\n4:cpu,memory:/\n",
         {"cpu/job/memory.limit_in_bytes": "1048576\n",
          "memory/memory.limit_in_bytes": "3145728\n"}, 3 << 20),
        ("4:memory:/job\n0::/job\n", {}, None),
        (None, {}, None),
    ], ids=["v2", "v2-max", "v1", "v1-unlimited", "v1-cpu-only",
            "missing-limit", "missing-proc"])
    def test_host_bytes_reads_the_memory_cgroup(self, tmp_path, lines, files,
                                                limit):
        cgroup = tmp_path / "cgroup"
        if lines is not None:
            cgroup.write_text(lines)
        for name, text in files.items():
            path = tmp_path / "fs" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert swanson.cli._host_bytes(str(cgroup), str(tmp_path / "fs")) == (
            physical if limit is None else limit)

    def test_run_within_host_memory_is_parsed(self, monkeypatch):
        monkeypatch.setattr(swanson.cli, "_host_bytes", lambda: 4 << 20)
        assert parse(["spectrum", *P1_FLAGS, "--n", "301"]).suite.n == 301

    def test_missing_config_file(self):
        with pytest.raises(UsageError, match="config"):
            parse(["verify", *P1_FLAGS, "--config", "/nonexistent.json"])


class TestVerify:
    def test_p1_defaults_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", *P1_FLAGS, *FAST, "--pmax", "8", "--out", str(out)])
        report = read_json(out)
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == [] and code == 0
        assert len(report["checks"]) >= 6
        assert set(report.keys()) == {"params", "grid", "checks", "spectra",
                                      "generated_at", "seed"}

    def test_negative_control_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", *P1_FLAGS, *FAST, "--exponent-override", "3.0",
                     "--out", str(out)])
        assert code == 1
        failing = [c["name"] for c in read_json(out)["checks"] if not c["passed"]]
        assert "pseudo_hermiticity_gaussian" in failing

    def test_identity_metric_exit_zero(self, tmp_path):
        # lam = delta: every probe residual is exactly 0.0, which passes
        out = tmp_path / "report.json"
        flags = ["--omega", "1", "--lambda", "0.2", "--delta", "0.2", *FAST,
                 "--pmax", "8", "--out", str(out)]
        assert main(["verify", *flags]) == 0
        assert main(["verify", *flags, "--exponent-override", "0.3"]) == 1

    def test_zero_exponent_reported_as_positive_zero(self, tmp_path):
        # lam = delta > omega/2 gives 0.0/negative = -0.0 before normalising
        out = tmp_path / "report.json"
        for flags in (["--omega", "1", "--lambda", "0.6", "--delta", "0.6"],
                      ["--omega", "1", "--lambda", "0.6", "--delta", "0.6",
                       "--beta", "0.1"],
                      [*P1_FLAGS, "--exponent-override", "-0"],
                      [*P1_FLAGS, "--beta", "0.1", "--exponent-override", "-0"]):
            main(["verify", *flags, "--n", "101", "--out", str(out)])
            checks = {c["name"]: c for c in read_json(out)["checks"]}
            exponents = [checks["pseudo_hermiticity_gaussian"]["details"]["alpha"]]
            if "--beta" in flags:
                exponents.append(
                    checks["pseudo_hermiticity_deformed"]["details"]["exponent"])
            for exponent in exponents:
                assert exponent == 0.0 and math.copysign(1.0, exponent) == 1.0

    @pytest.mark.parametrize("flags", [["--pmax", "1e150"],
                                       ["--exponent-override", "1e300"]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_steep_metric_fails_without_warnings(self, flags, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", *P1_FLAGS, "--n", "11", *flags,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in read_json(out)["checks"]}
        assert ("non-finite transformed entries"
                in checks["numeric_residual"]["details"]["error"])

    @pytest.mark.parametrize("flags", [["--delta", "0.399", "--beta", "0.5",
                                        "--n", "101"],
                                       ["--delta", "0.39999999", "--n", "11"]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_steep_metric_limit_fails_without_warnings(self, flags, tmp_path,
                                                       capsys):
        # alpha < 0 of a few hundred: expm1 of the metrics' log ratio overflows
        out = tmp_path / "report.json"
        assert main(["verify", "--omega", "1", "--lambda", "0.6", *flags,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in read_json(out)["checks"]}
        assert checks["metric_limit"]["residual"] == math.inf

    @pytest.mark.parametrize("flags", [["--m", "1e-300"], ["--m", "1e-200"],
                                       ["--hbar", "1e-300"], ["--pmax", "1e-100"]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_scales_fail_without_warnings(self, flags, tmp_path, capsys):
        # a tiny m*hbar or grid spacing makes |A psi|^2 overflow in a probe
        # norm, although the norm itself is finite
        out = tmp_path / "report.json"
        assert main(["verify", *P1_FLAGS, "--n", "51", *flags,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [
        ["--beta", "1e-18", "--pmax", "20", "--n", "401"],
        ["--n", "51", "--beta", "1e-300"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_metric_limit_at_tiny_beta_passes(self, flags, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", *P1_FLAGS, *flags, "--out", str(out)]) == 0
        limit = {c["name"]: c for c in read_json(out)["checks"]}["metric_limit"]
        # the deviation there is round-off, above three times the estimate
        assert (3.0 * limit["details"]["estimate"] < limit["residual"]
                <= limit["tolerance"])

    @pytest.mark.parametrize("beta", ["1e-308", "7e-309"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_metric_at_tiniest_beta_passes(self, beta, tmp_path):
        # the exponent alpha/beta is near the float maximum, and
        # 2*exponent would overflow before the product with beta
        out = tmp_path / "report.json"
        assert main(["verify", *P1_FLAGS, "--beta", beta, "--n", "51",
                     "--out", str(out)]) == 0
        checks = {c["name"]: c for c in read_json(out)["checks"]}
        assert checks["pseudo_hermiticity_deformed"]["residual"] == 0.0

    def test_deformed_adds_power_metric_check(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", *P1_FLAGS, *FAST, "--beta", "0.1",
                     "--pmax", "20", "--out", str(out)])
        assert code == 0
        names = [c["name"] for c in read_json(out)["checks"]]
        assert "pseudo_hermiticity_deformed" in names

    def test_report_roundtrip_recomputes_flags(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", *P1_FLAGS, *FAST, "--pmax", "8", "--out", str(out)])
        for check in read_json(out)["checks"]:
            if check["tolerance"] is not None:
                assert check["passed"] == (check["residual"] <= check["tolerance"])

    def test_byte_identical_modulo_timestamp(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", *P1_FLAGS, *FAST, "--out", str(first)])
        main(["verify", *P1_FLAGS, *FAST, "--out", str(second)])
        strip = lambda path: [line for line in path.read_text().splitlines()
                              if "generated_at" not in line]
        assert strip(first) == strip(second)

    def test_overflowing_omega_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--omega", "1e200", "--lambda", "0",
                     "--delta", "0.5", "--n", "11", "--out", str(out)])
        assert code in (0, 1, 2)
        assert read_json(out)["params"]["omega"] == 1e200

    def test_unwritable_output_exit_two(self):
        assert main(["verify", *P1_FLAGS, *FAST,
                     "--out", "/nonexistent-dir/report.json"]) == 2


class TestSpectrumCommand:
    def test_oracle_column(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", *P1_FLAGS, "--n", "501", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,re,im,oracle,abs_err"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(0.7071067811865476, abs=1e-15)
        assert float(first[4]) < 1e-3
        # 17 significant digits round-trip
        assert float(first[1]) == float(repr(float(first[1])))

    def test_plain_oscillator_oracle(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--omega", "1", "--lambda", "0", "--delta", "0",
              "--n", "501", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        oracle = [float(row[3]) for row in rows]
        assert oracle == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    def test_deformed_has_empty_oracle(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", *P1_FLAGS, "--beta", "0.1", "--n", "301",
                     "--pmax", "20", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[3] == "" and row[4] == "" for row in rows)
        assert all(row[2] != "" for row in rows)  # im column populated

    def test_failing_check_exit_one(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", *P1_FLAGS, "--n", "11", "--out", str(out)]) == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert max(float(row[4]) for row in rows) > 1e-4

    def test_unconverged_shift_invert_takes_dense_fallback(self, tmp_path,
                                                           monkeypatch):
        flags = ["spectrum", *P1_FLAGS, "--beta", "0.1", "--n", "301",
                 "--pmax", "20"]
        certified, fallback = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*flags, "--out", str(certified)]) == 0

        # no Ritz value meets a zero tolerance, so the basis reaches its cap
        monkeypatch.setattr("swanson.grids.KRYLOV_RTOL", 0.0)
        assert main([*flags, "--out", str(fallback)]) == 0
        read = lambda path: np.loadtxt(path, delimiter=",", skiprows=1,
                                       usecols=(1, 2))
        np.testing.assert_allclose(read(fallback), read(certified),
                                   rtol=1e-8, atol=1e-10)

    def test_only_numeric_errors_are_verification_failures(self, monkeypatch):
        def raiser(error):
            def check_spectrum(*args, **kwargs):
                raise error
            return check_spectrum

        monkeypatch.setattr(swanson.cli, "check_spectrum",
                            raiser(np.linalg.LinAlgError("singular")))
        assert main(["spectrum", *P1_FLAGS, "--n", "11"]) == 1
        monkeypatch.setattr(swanson.cli, "check_spectrum",
                            raiser(TypeError("programming error")))
        with pytest.raises(TypeError):
            main(["spectrum", *P1_FLAGS, "--n", "11"])

    def test_failure_names_its_error(self, capsys):
        # h^2 underflows to 0 in the stencil, before any eigensolve
        assert main(["spectrum", *P1_FLAGS, "--n", "51", "--pmax", "1e-300"]) == 1
        assert capsys.readouterr().err == (
            "spectrum check failed: ZeroDivisionError: float division by zero\n")


class TestSweep:
    def test_deviation_grows_with_beta(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", *P1_FLAGS, *FAST, "--pmax", "8",
                     "--beta-grid", "1e-6,1e-4,1e-2", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        deviations = payload["summary"]["metric_limit_deviation"]
        assert deviations[0] < deviations[1] < deviations[2]
        assert len(payload["reports"]) == 3

    @pytest.mark.parametrize("beta_grid, message", [
        ("1e-320,1e-300", "(metric exponent undefined)"),
        ("0.1,abc", "bad beta-grid value"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_beta_grid_exits_two(self, beta_grid, message, capsys):
        argv = ["sweep", *P1_FLAGS, "--n", "51", "--beta-grid", beta_grid]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_single_beta_rejected(self):
        assert main(["sweep", *P1_FLAGS, "--beta-grid", "0"]) == 2
        assert main(["sweep", *P1_FLAGS]) == 2

    def test_family_dispatch(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", *P1_FLAGS, *FAST, "--pmax", "8",
                     "--beta-grid", "0,0.1", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        names_flat = [c["name"] for c in payload["reports"][0]["checks"]]
        names_deformed = [c["name"] for c in payload["reports"][1]["checks"]]
        assert "pseudo_hermiticity_deformed" not in names_flat
        assert "pseudo_hermiticity_deformed" in names_deformed


# Valid inputs whose operators leave float range on the grid: coefficients
# past it, a Krylov basis whose squares underflow, a band product or a
# Hermitian part whose sums pass float max, or a reality ratio that
# overflows.  The failing checks of each report, in order; the spectrum
# command names its error instead.
# At beta = 0 numeric_residual, and the convergence study built on it,
# assemble H0 from its printed coefficients.  Where m*hbar is tiny, alpha
# is huge and the metric's ratios overflow on the off-diagonal entries of
# the printed R*p*D term, so both fail; the composed form has lost that
# term and is diagonal there.  Where m*hbar is huge the composed D^2
# coefficient is NaN (m^2*omega^2 overflows), while the printed Q is
# finite and both pass.
FAILS_WITHOUT_WARNINGS = [
    # numeric_residual, convergence_residual: non-finite transformed entries
    (["verify", *P1_FLAGS, "--m", "1e-300"],
     [{"momentum_adjoint", "pseudo_hermiticity_gaussian", "numeric_residual",
       "spectrum", "convergence_residual", "convergence_spectrum"}]),
    # numeric_residual, convergence_residual: finite printed Q, both pass
    (["verify", *P1_FLAGS, "--m", "1e300"],
     [{"expansion", "momentum_adjoint", "pseudo_hermiticity_gaussian",
       "spectrum", "convergence_spectrum"}]),
    # numeric_residual, convergence_residual: non-finite transformed entries
    (["verify", *P1_FLAGS, "--hbar", "1e-300"],
     [{"momentum_adjoint", "pseudo_hermiticity_gaussian", "numeric_residual",
       "spectrum", "convergence_residual", "convergence_spectrum"}]),
    (["verify", "--omega", "1", "--lambda", "1e300", "--delta", "2.5",
      "--n", "301"],
     [{"expansion", "spectrum"}]),
    (["verify", "--omega", "7e-309", "--lambda", "-1.11", "--delta", "-0.31",
      "--beta", "10", "--n", "101"],
     [{"expansion", "momentum_adjoint", "pseudo_hermiticity_gaussian",
       "numeric_residual", "spectrum", "convergence_reality"}]),
    (["sweep", "--omega", "1", "--lambda", "2.23", "--delta", "1e300",
      "--beta-grid", "0.01,0.1", "--n", "101", "--pmax", "1000",
      "--levels", "20"],
     2 * [{"expansion", "pseudo_hermiticity_deformed", "metric_limit",
           "numeric_residual", "spectrum", "convergence_reality"}]),
    (["verify", *P1_FLAGS, "--n", "51", "--pmax", "1e-150"],
     [{"numeric_residual", "spectrum", "convergence_residual",
       "convergence_spectrum"}]),
    (["verify", "--omega", "1e166", "--lambda", "-7.8", "--delta", "0.16",
      "--m", "7e-309", "--hbar", "70", "--n", "11"],
     [{"expansion", "momentum_adjoint", "pseudo_hermiticity_gaussian",
       "spectrum", "convergence_spectrum"}]),
    (["verify", "--omega", "6.66e-113", "--lambda", "3.7e14", "--delta",
      "6.8e79", "--beta", "1e150", "--n", "11", "--levels", "1",
      "--fd-order", "2"],
     [{"expansion", "momentum_adjoint", "pseudo_hermiticity_gaussian",
       "pseudo_hermiticity_deformed", "metric_limit", "convergence_reality"}]),
    (["spectrum", "--omega", "7e-309", "--lambda", "-2.3", "--delta", "-2.8",
      "--m", "0.5", "--hbar", "2", "--n", "51", "--pmax", "5"],
     "spectrum check failed: ValueError: non-finite operator entries at "),
    # H0 from its printed coefficients keeps R = 0.5 and T = 0.25 at
    # m = 1e-300; the composed quadratic form has lost its p*D term there
    # and would print a finite spectrum
    (["spectrum", "--omega", "1", "--lambda", "0.8", "--delta", "0.3",
      "--n", "301", "--m", "1e-300"],
     "spectrum check failed: ValueError: non-finite transformed entries at "),
    # no room for shift-invert, and the fallback's two parity sectors
    # would take 8*(2002^2 + 2001^2) bytes
    (["spectrum", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
      "--n", "4003", "--levels", "4003"],
     "spectrum check failed: LinAlgError: dense eigensolver refused at "
     "n = 4003: it needs 64096040 bytes, and n may be at most 4001"),
    # beta = 0: numeric_residual and convergence_residual pass on the finite
    # printed Q, where the composed D^2 coefficient is NaN
    (["sweep", "--omega", "0.96", "--lambda", "1e300", "--delta", "-2.7",
      "--m", "1e5", "--beta-grid", "0,3", "--n", "301", "--pmax", "10",
      "--levels", "3", "--fd-order", "2"],
     [{"expansion", "momentum_adjoint", "spectrum"},
      {"expansion", "momentum_adjoint", "pseudo_hermiticity_deformed",
       "numeric_residual", "spectrum", "convergence_reality"}]),
]


@pytest.mark.parametrize("argv, failing", FAILS_WITHOUT_WARNINGS,
                         ids=["_".join(argv) for argv, _ in FAILS_WITHOUT_WARNINGS])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_numerics_fail_by_name(argv, failing, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if isinstance(failing, str):
        assert err.startswith(failing) and err.count("\n") == 1
        return
    assert err == ""
    payload = read_json(out)
    reports = payload.get("reports", [payload])
    assert [{c["name"] for c in report["checks"] if not c["passed"]}
            for report in reports] == failing


class TestProcessInterface:
    def test_console_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "swanson", "spectrum", *P1_FLAGS,
             "--n", "301", "--pmax", "8"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("n,re,im,oracle,abs_err")

    def test_exit_code_contract(self):
        # only 0, 1, 2 are ever returned
        assert main(["verify", *P1_FLAGS, "--n", "151", "--pmax", "8"]) in (0, 1)
        assert main(["verify", *P1_FLAGS, "--n", "150"]) == 2
        assert main(["verify"]) == 2


# Valid values of every flag (None: flag left out), and edge values of
# which each argv gets at most one: non-finite, huge, zero, negative, an
# fd-order that does not exist and levels above n.
FLAGS = {
    "--omega": st.floats(0.5, 2.0),
    "--lambda": st.floats(-0.9, 0.9),
    "--delta": st.floats(-0.9, 0.9),
    "--m": st.none() | st.floats(0.5, 2.0),
    "--hbar": st.none() | st.floats(0.5, 2.0),
    "--beta": st.none() | st.floats(0.0, 1.0),
    "--pmax": st.none() | st.floats(3.0, 20.0),
    "--exponent-override": st.none() | st.floats(-3.0, 3.0),
    # n <= 61, so that no draw allocates a large grid
    "--n": st.integers(2, 30).map(lambda k: 2 * k + 1),
    "--levels": st.none() | st.integers(1, 8),
    "--fd-order": st.none() | st.sampled_from([2, 4]),
    # the randomized symbolic checks run once per seed and process
    "--seed": st.none() | st.sampled_from([0, 1]),
    "--beta-grid": st.none() | st.lists(st.floats(0.0, 1.0).map(repr),
                                        min_size=2, max_size=3).map(",".join),
}
EDGE = st.sampled_from(["nan", "inf", "-inf", "1e200", "-1e200", "1e-300", "0",
                        "-1", "3", "70"])
CONFIG = st.none() | st.dictionaries(
    st.sampled_from(["omega", "lambda", "delta", "beta", "pmax", "levels",
                     "probes", "levls", "p_max"]),
    st.floats(-1.0, 2.0) | EDGE.map(float), max_size=3)


@st.composite
def argvs(draw):
    """An argv from the flag grammar and an optional config-file object."""
    edge = draw(st.none() | st.sampled_from(sorted(FLAGS)))
    argv = [draw(st.sampled_from(["verify", "spectrum", "sweep"]))]
    for flag, values in FLAGS.items():
        value = draw(EDGE if flag == edge else values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv, draw(CONFIG)


class TestExitCodeProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=argvs())
    def test_main_returns_contract_code(self, drawn, tmp_path_factory):
        argv, config = drawn
        work = tmp_path_factory.mktemp("property")
        if config is not None:
            (work / "job.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(work / "job.json")]
        assert main([*argv, "--out", str(work / "out")]) in (0, 1, 2)
