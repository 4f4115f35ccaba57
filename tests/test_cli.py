import csv

import pytest

from aoiq.cli import main

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

    def test_validation_failure_exit_two(self, tmp_path, monkeypatch):
        import aoiq.cli as cli_mod
        from aoiq.validate import ValidationCheck, ValidationReport

        spec, _ = write_spec(tmp_path, POINT_SPEC)
        fake = ValidationReport(
            (ValidationCheck("always_bad", "fail", 1.0, 0.0, ""),)
        )
        monkeypatch.setattr(cli_mod, "validation_suite", lambda s, workers=1: fake)
        assert main(["validate", "-c", spec]) == 2

    def test_summary_counts_skips_apart(self, tmp_path, monkeypatch, capsys):
        import aoiq.cli as cli_mod
        from aoiq.validate import ValidationCheck, ValidationReport

        spec, _ = write_spec(tmp_path, POINT_SPEC)
        fake = ValidationReport(
            (
                ValidationCheck("good", "pass", 0.0, 1.0, ""),
                ValidationCheck("too_few_samples", "skip", float("nan"), float("nan"), ""),
            )
        )
        monkeypatch.setattr(cli_mod, "validation_suite", lambda s, workers=1: fake)
        assert main(["validate", "-c", spec]) == 0
        assert "1/2 checks passed, 1 skipped, 0 failed" in capsys.readouterr().out

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch):
        import aoiq.sweep as sweep_mod
        from aoiq.service import ConvergenceError

        spec, _ = write_spec(tmp_path, POINT_SPEC)

        def blow_up(cfg, policies):
            raise ConvergenceError("quadrature stuck")

        monkeypatch.setattr(sweep_mod, "_analytic_block", blow_up)
        assert main(["analytic", "-c", spec]) == 3

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

    def test_seed_override_changes_bytes(self, tmp_path):
        spec, out = write_spec(tmp_path, POINT_SPEC)
        assert main(["sweep", "-c", spec]) == 0
        first = out.read_bytes()
        assert main(["sweep", "-c", spec, "--seed", "8"]) == 0
        assert out.read_bytes() != first
