import csv
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

import aoiq.cli as cli_mod
import aoiq.sim as sim_mod
from aoiq import Exponential, Policy, SimConfig, SystemConfig, run
from aoiq.cli import main
from aoiq.sweep import format_number
from test_service import NON_FINITE_SPECS
from test_sweep import count_pools

POINT_SPEC = """
[system]
arrival_rates = 1, 2
theta = 0.5
service = exponential(rate=1.5)

[sweep]
policies = probabilistic
mode = both

[simulation]
horizon = 2000
seed = 7

[output]
path = {out}
"""

SWEEP_SPEC = """
[system]
arrival_rates = 2, 6
theta = 0.28
service = exponential(rate=1.2)

[sweep]
axis = theta
start = 0.0
stop = 1.0
points = 3
policies = probabilistic, non_preemptive
mode = analytic

[output]
path = {out}
"""

HEAVY_SPEC = """
[system]
arrival_rates = 2, 6
theta = 0.28
service = deterministic(value=4)

[sweep]
policies = probabilistic, non_preemptive, self_preemptive, globally_preemptive
mode = analytic

[output]
path = {out}
"""


def write_spec(tmp_path, template, name="spec.ini"):
    out = tmp_path / "results.csv"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return str(path), out


class TestSubcommands:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        spec, out = write_spec(tmp_path, SWEEP_SPEC)
        assert main(["sweep", "-c", spec]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 2 * 2
        assert "wrote" in capsys.readouterr().out

    def test_analytic_forces_mode(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["analytic", "-c", spec]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        mode_idx = header.index("mode")
        assert {r[mode_idx] for r in rows[1:]} == {"analytic"}

    def test_simulate_with_dump(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        dump = tmp_path / "samples.csv"
        assert main(["simulate", "-c", spec, "--dump-samples", str(dump)]) == 0
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "source", "generation_time", "delivery_time", "system_time",
            "interdeparture", "paoi",
        ]
        assert len(rows) > 100
        assert {r[0] for r in rows[1:]} <= {"1", "2"}

    @pytest.mark.parametrize(
        "policies, runs",
        [("probabilistic", 1), ("probabilistic, non_preemptive", 2)],
    )
    def test_dump_reuses_its_run_for_the_table(self, tmp_path, monkeypatch, policies, runs):
        import aoiq.cli as cli_mod
        import aoiq.sweep as sweep_mod

        spec, out = write_spec(tmp_path, POINT_SPEC)
        plain = tmp_path / "plain.csv"
        assert main(["simulate", "-c", spec, "--policies", policies, "-o", str(plain)]) == 0
        calls = []
        for mod in (cli_mod, sweep_mod):
            def counting(*args, _original=mod.run, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, "run", counting)
        dump = tmp_path / "samples.csv"
        argv = ["simulate", "-c", spec, "--policies", policies, "--dump-samples", str(dump)]
        assert main(argv) == 0
        assert len(calls) == runs
        assert out.read_bytes() == plain.read_bytes()

    def test_one_pool_per_command(self, tmp_path, monkeypatch):
        # the dump's run and the table's other policy share the command's pool
        spec, out = write_spec(tmp_path, POINT_SPEC)
        argv = ["simulate", "-c", spec, "--policies", "probabilistic, non_preemptive",
                "--replications", "3"]
        plain = tmp_path / "plain.csv"
        assert main(argv + ["-o", str(plain)]) == 0
        pools = count_pools(monkeypatch, cli_mod, sim_mod)
        dump = str(tmp_path / "samples.csv")
        assert main(argv + ["--workers", "2", "--dump-samples", dump]) == 0
        assert len(pools) == 1
        assert out.read_bytes() == plain.read_bytes()

    def test_dump_bytes_match_per_cell_format(self, tmp_path):
        cfg = SystemConfig((1.0, 2.0), 0.5, Exponential(1.5))
        sim = SimConfig(seed=7, horizon=2000.0, replications=2)
        deliveries = run(cfg, Policy.probabilistic(0.5), sim, collect_deliveries=True).deliveries
        assert np.isnan(deliveries).any()  # each replication's first delivery per source
        path = tmp_path / "samples.csv"
        cli_mod._dump_deliveries(str(path), deliveries)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["source", "generation_time", "delivery_time", "system_time",
                         "interdeparture", "paoi"])
        for row in deliveries:
            writer.writerow([str(int(row[0]) + 1)] + [format_number(v) for v in row[1:]])
        assert path.read_bytes() == want.getvalue().encode()

    def test_validate_passes(self, tmp_path, capsys):
        spec, _ = write_spec(tmp_path, POINT_SPEC)
        code = main(["validate", "-c", spec, "--horizon", "20000", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "checks passed" in out
        passed = sum(line.startswith("PASS ") for line in out.splitlines())
        skipped = sum(line.startswith("SKIP ") for line in out.splitlines())
        total = passed + skipped
        assert f"{passed}/{total} checks passed, {skipped} skipped, 0 failed" in out


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["sweep"]) == 1  # missing -c
        assert main(["unknown-command"]) == 1

    def test_missing_config(self):
        assert main(["sweep", "-c", "/nonexistent/spec.ini"]) == 1

    def test_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\narrival_rates = 2, 6\nservice = exponential(rate=1)\ntheta = 3\n")
        assert main(["analytic", "-c", str(path)]) == 1

    def test_infinite_horizon_rejected(self, tmp_path):
        # a run that could never stop is a configuration error, not a hang
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["simulate", "-c", spec, "--horizon", "inf"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("service", NON_FINITE_SPECS)
    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_non_finite_service_parameter_rejected(self, tmp_path, capsys, command, service):
        spec, out = write_spec(tmp_path, POINT_SPEC.replace("exponential(rate=1.5)", service))
        assert main([command, "-c", spec]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_failure_exit_two(self, tmp_path, monkeypatch):
        import aoiq.cli as cli_mod
        from aoiq.sim import CheckResult
        from aoiq.validate import ValidationReport

        spec, _ = write_spec(tmp_path, POINT_SPEC)
        fake = ValidationReport((CheckResult("always_bad", "fail", 1.0, 0.0),))
        monkeypatch.setattr(cli_mod, "validation_suite", lambda s, workers=1: fake)
        assert main(["validate", "-c", spec]) == 2

    def test_summary_counts_skips_apart(self, tmp_path, monkeypatch, capsys):
        import aoiq.cli as cli_mod
        from aoiq.sim import CheckResult
        from aoiq.validate import ValidationReport

        spec, _ = write_spec(tmp_path, POINT_SPEC)
        fake = ValidationReport(
            (
                CheckResult("good", "pass", 0.0, 1.0),
                CheckResult("too_few_samples", "skip", float("nan"), float("nan")),
            )
        )
        monkeypatch.setattr(cli_mod, "validation_suite", lambda s, workers=1: fake)
        assert main(["validate", "-c", spec]) == 0
        assert "1/2 checks passed, 1 skipped, 0 failed" in capsys.readouterr().out

    def test_validate_lines(self, tmp_path, monkeypatch, capsys):
        # a NaN discrepancy prints no numbers; a detail follows in parentheses
        import aoiq.cli as cli_mod
        from aoiq.sim import CheckResult, verdict
        from aoiq.validate import ValidationReport

        spec, _ = write_spec(tmp_path, POINT_SPEC)
        fake = ValidationReport(
            (
                verdict("moment_routes:source0", 2.5e-13, 1e-8, "orders 1..4"),
                CheckResult("distribution_fit", "skip", float("nan"), float("nan"), "too few"),
                verdict("gap", float("nan"), 1.0),
                verdict("peak", 0.1234567, 0.01),
            )
        )
        monkeypatch.setattr(cli_mod, "validation_suite", lambda s, workers=1: fake)
        assert main(["validate", "-c", spec]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "PASS moment_routes:source0  discrepancy=2.5e-13 tol=1e-08  (orders 1..4)",
            "SKIP distribution_fit       (too few)",
            "FAIL gap" + " " * 18,  # the name padded to the longest one
            "FAIL peak                   discrepancy=0.123 tol=0.01",
            "1/4 checks passed, 1 skipped, 2 failed",
        ]

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch):
        import aoiq.sweep as sweep_mod
        from aoiq.service import ConvergenceError

        spec, _ = write_spec(tmp_path, POINT_SPEC)

        def blow_up(cfg, policy):
            raise ConvergenceError("quadrature stuck")

        monkeypatch.setattr(sweep_mod, "_analytic_block", blow_up)
        assert main(["analytic", "-c", spec]) == 3

    def test_near_singular_global_rows_are_finite(self, tmp_path):
        # M_U(-8) = e^-32 makes the global denominators' constant terms about
        # 1e-14: legitimate, so the run exits 0 with finite numbers
        spec, out = write_spec(tmp_path, HEAVY_SPEC)
        assert main(["analytic", "-c", spec]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        glob = [r for r in rows if r["policy"] == "globally_preemptive"]
        assert len(rows) == 8 and len(glob) == 2
        for r in glob:
            for col in ("mean_aoi", "mean_paoi", "aoi_m2", "paoi_m2", "sum_mean_aoi"):
                assert np.isfinite(float(r[col])) and float(r[col]) > 0

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["simulate", "-c", spec, "--seed", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_output_path(self, tmp_path, capsys):
        spec, _ = write_spec(tmp_path, POINT_SPEC)
        bad = tmp_path / "missing" / "x.csv"
        assert main(["analytic", "-c", spec, "-o", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"

    def test_unwritable_dump_path_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        bad = tmp_path / "missing" / "d.csv"
        monkeypatch.setattr(cli_mod, "run", lambda *args, **kwargs: pytest.fail("ran"))
        assert main(["simulate", "-c", spec, "--dump-samples", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"
        assert not out.exists()

    def test_os_error_without_a_path_propagates(self, tmp_path, monkeypatch):
        spec, _ = write_spec(tmp_path, POINT_SPEC)

        def broken_pipe(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli_mod, "_cmd_table", broken_pipe)
        with pytest.raises(BrokenPipeError):
            main(["analytic", "-c", spec])

    def test_dump_samples_needs_single_point(self, tmp_path, capsys):
        spec, _ = write_spec(tmp_path, SWEEP_SPEC)
        dump = tmp_path / "d.csv"
        assert main(["simulate", "-c", spec, "--dump-samples", str(dump)]) == 1
        assert "single-point" in capsys.readouterr().err


class TestOverridesAndReproducibility:
    def test_flag_overrides_file(self, tmp_path):
        spec, out = write_spec(tmp_path, SWEEP_SPEC)
        assert main(["sweep", "-c", spec, "--points", "2"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2 * 2

    def test_output_override(self, tmp_path):
        spec, _ = write_spec(tmp_path, SWEEP_SPEC)
        alt = tmp_path / "alt.csv"
        assert main(["sweep", "-c", spec, "-o", str(alt)]) == 0
        assert alt.exists()

    def test_system_overrides(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert (
            main(
                ["analytic", "-c", spec, "--arrival-rates", "1, 1, 1",
                 "--service", "exponential(rate=2)", "--theta", "0.3"]
            )
            == 0
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        src = header.index("source")
        assert {r[src] for r in rows[1:]} == {"1", "2", "3"}

    def test_rerun_byte_identical(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["sweep", "-c", spec]) == 0
        first = out.read_bytes()
        assert main(["sweep", "-c", spec]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("dest", cli_mod._OVERRIDES)
    def test_each_flag_lands_in_its_key(self, tmp_path, monkeypatch, dest):
        spec, _ = write_spec(tmp_path, POINT_SPEC)
        flag = "-o" if dest == "output" else "--" + dest.replace("_", "-")
        args = cli_mod._build_parser().parse_args(["sweep", "-c", spec, flag, "1e3"])
        monkeypatch.setattr(cli_mod, "build_spec", lambda raw: raw)
        raw = cli_mod._spec_from_args(args)
        section, key = cli_mod._OVERRIDES[dest]
        assert raw[section][key] == "1e3"
        others = [(sec, k) for sec, keys in raw.items() for k, v in keys.items() if v == "1e3"]
        assert others == [(section, key)]

    def test_seed_override_changes_bytes(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["sweep", "-c", spec]) == 0
        first = out.read_bytes()
        assert main(["sweep", "-c", spec, "--seed", "8"]) == 0
        assert out.read_bytes() != first


# sha256 of `aoiq analytic -c configs/<name>.ini`: a refactor of the closed
# forms must leave every shipped analytic CSV byte-identical; a change that
# moves a cell on purpose updates the digest and says which cells moved.
# Last moved: the globally preemptive rows' closed-form cells filled in and
# their remark emptied; every other row is unchanged
SHIPPED_ANALYTIC_SHA256 = {
    "sweep_lambda1_theta_02": "556227c6640864f52d86b4397bf21bd993c5c7d038908414027205aa7ece0a55",
    "sweep_lambda1_theta_06": "74d6ad9e9533c1862bb7af7feb1be878ab00681b6bceb7051e1b920ab6a3cf52",
    "sweep_lambda1_theta_09": "07d6f9893a62c8dbd10a01c1bb261931fccda70451ebca45c05d9191497cae3a",
    "sweep_theta_lambda1_2": "d173d4c43eec40ffdd09e97547450688842cb2abbd49420e9730d6439ad962f0",
    "sweep_theta_lambda1_4": "ddb7ebcae166775b911092678b5d60154f0f13cac74386c90e63f061f40dc826",
    "sweep_theta_lambda1_5": "a66d7b8ee67b69a292f56e6821152623175b5397ba7a9b8e7f6e4f11f62137d4",
}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.ini")) == sorted(SHIPPED_ANALYTIC_SHA256)


@pytest.mark.parametrize("name", sorted(SHIPPED_ANALYTIC_SHA256))
def test_shipped_analytic_csv_is_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["analytic", "-c", str(CONFIGS / f"{name}.ini"), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_ANALYTIC_SHA256[name]
