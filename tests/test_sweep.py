import csv
from concurrent.futures import ProcessPoolExecutor

import pytest

import aoiq.sim as sim_mod
import aoiq.sweep as sweep_mod
from aoiq import LogNormal, Policy, PolicyKind, SystemConfig, moments, run
from aoiq.analytic import GloballyPreemptiveConfig
from aoiq.config import parse_spec
from aoiq.sweep import CSV_COLUMNS, format_number, grid_values, run_sweep, write_rows

ANALYTIC_SWEEP = """
[system]
arrival_rates = 2, 6
theta = 0.28
service = exponential(rate=1.2)

[sweep]
axis = theta
start = 0.0
stop = 1.0
points = 5
policies = probabilistic, non_preemptive, self_preemptive, globally_preemptive
mode = analytic
"""

BOTH_POINT = """
[system]
arrival_rates = 1, 2
theta = 0.5
service = exponential(rate=1.5)

[sweep]
policies = probabilistic, non_preemptive
mode = both

[simulation]
horizon = 3000
seed = 5
"""

SIM_SWEEP = """
[system]
arrival_rates = 1, 2
theta = 0.5
service = exponential(rate=1.5)

[sweep]
axis = theta
start = 0.0
stop = 1.0
points = 3
policies = probabilistic, non_preemptive, globally_preemptive
mode = simulate

[simulation]
horizon = 500
replications = 3
seed = 5
"""


def count_pools(monkeypatch, *modules) -> list:
    """Every ProcessPoolExecutor that ``modules`` create from now on."""
    pools = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, "ProcessPoolExecutor", Counting)
    return pools


class TestAnalyticSweep:
    def test_row_shape_and_order(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        rows = run_sweep(spec)
        # 5 grid points x 4 policies x 2 sources
        assert len(rows) == 40
        assert [r["axis_value"] for r in rows[:8]] == [0.0] * 8
        assert rows[0]["policy"] == "probabilistic"
        assert rows[0]["source"] == 1
        assert rows[1]["source"] == 2

    def test_sum_equals_per_source_sum(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        rows = run_sweep(spec)
        by_key = {}
        for r in rows:
            by_key.setdefault((r["axis_value"], r["policy"]), []).append(r)
        for group in by_key.values():
            total = sum(r["mean_aoi"] for r in group)
            for r in group:
                assert abs(r["sum_mean_aoi"] - total) <= 1e-12 * max(1.0, total)

    def test_probabilistic_diff_ratio_zero(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        for r in run_sweep(spec):
            if r["policy"] == "probabilistic":
                assert r["diff_ratio_pct"] == 0.0

    def test_diff_ratio_prints_only_the_digits_the_sums_keep(self):
        # at (4, 4), theta 0.5 the self-preemptive sum is 5e-5 below the
        # probabilistic one; the exact ratio is -0.00530321639481552 %. Sums
        # good to 1e-14 relative fix it to about 2e-12 percentage points, so
        # it is printed to 11 decimals, not to 12 significant digits
        law = LogNormal(-1.0, 1.0)
        prob, self_pre = (
            sum(moments(SystemConfig((4.0, 4.0), theta, law), c, 2).mean_aoi for c in range(2))
            for theta in (0.5, 1.0)
        )
        assert format_number(sweep_mod._diff_ratio_pct(self_pre, prob)) == "-0.00530321639"
        # where 12 significant digits end above that place the ratio is left as it is
        assert sweep_mod._diff_ratio_pct(13.0, 10.0) == (13.0 - 10.0) / 10.0 * 100.0

    def test_baseline_policies_flat_across_theta(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        rows = run_sweep(spec)
        for policy in ("non_preemptive", "self_preemptive"):
            vals = {
                r["axis_value"]: r["sum_mean_aoi"]
                for r in rows
                if r["policy"] == policy
            }
            ref = next(iter(vals.values()))
            assert all(v == pytest.approx(ref, rel=1e-12) for v in vals.values())

    def test_theta_limits_match_baselines(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        rows = run_sweep(spec)
        prob = {
            (r["axis_value"], r["source"]): r["mean_aoi"]
            for r in rows
            if r["policy"] == "probabilistic"
        }
        for r in rows:
            if r["policy"] == "non_preemptive":
                assert r["mean_aoi"] == pytest.approx(prob[(0.0, r["source"])], rel=1e-10)
            if r["policy"] == "self_preemptive":
                assert r["mean_aoi"] == pytest.approx(prob[(1.0, r["source"])], rel=1e-10)

    def test_globally_preemptive_analytic_is_global_closed_form(self):
        spec = parse_spec(ANALYTIC_SWEEP)
        glob = GloballyPreemptiveConfig(spec.system.arrival_rates, spec.system.service)
        want = [moments(glob, c, 2) for c in range(2)]
        rows = [r for r in run_sweep(spec) if r["policy"] == "globally_preemptive"]
        assert len(rows) == 10
        for r in rows:
            m = want[r["source"] - 1]
            assert (r["mean_aoi"], r["mean_paoi"]) == (m.aoi_moments[0], m.paoi_moments[0])
            assert (r["aoi_m2"], r["paoi_m2"]) == (m.aoi_moments[1], m.paoi_moments[1])
            assert r["sum_mean_aoi"] == want[0].mean_aoi + want[1].mean_aoi
            assert r["remark"] == ""


class TestLambdaSweep:
    def test_grid_excludes_degenerate_endpoints(self):
        spec = parse_spec(
            """
            [system]
            arrival_rates = 2, 6
            service = exponential(rate=1)
            [sweep]
            axis = lambda1
            start = 0.0
            stop = 8.0
            points = 9
            """
        )
        values = grid_values(spec)
        assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_total_rate_fixed(self):
        spec = parse_spec(
            """
            [system]
            arrival_rates = 2, 6
            theta = 0.2
            service = exponential(rate=1)
            [sweep]
            axis = lambda1
            start = 1.0
            stop = 7.0
            points = 4
            """
        )
        from aoiq.sweep import _config_at

        for v in grid_values(spec):
            cfg = _config_at(spec, v)
            assert cfg.total_rate == pytest.approx(8.0, rel=1e-12)
            assert cfg.arrival_rates[0] == v


class TestModeBoth:
    def test_analytic_and_simulated_rows(self):
        spec = parse_spec(BOTH_POINT)
        rows = run_sweep(spec)
        # 1 point x 2 policies x 2 sources x 2 modes
        assert len(rows) == 8
        modes = [r["mode"] for r in rows]
        assert modes == ["analytic"] * 4 + ["simulate"] * 4
        for r in rows:
            if r["mode"] == "simulate":
                assert r["ci_halfwidth"] is not None and r["ci_halfwidth"] > 0
            else:
                assert r["ci_halfwidth"] is None


class TestSharedPool:
    def test_one_pool_serves_every_run(self, monkeypatch):
        # four distinct systems: probabilistic at theta 0 (= non-preemptive),
        # 0.5 and 1, and the globally preemptive one; each used to open a pool
        spec = parse_spec(SIM_SWEEP)
        serial = run_sweep(spec)
        pools = count_pools(monkeypatch, sweep_mod, sim_mod)
        assert repr(run_sweep(spec, workers=2)) == repr(serial)
        assert len(pools) == 1


class TestCsv:
    def test_write_and_read_back(self, tmp_path):
        spec = parse_spec(ANALYTIC_SWEEP)
        rows = run_sweep(spec)
        path = tmp_path / "out.csv"
        n = write_rows(str(path), iter(rows))
        assert n == len(rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == CSV_COLUMNS
        assert len(got) == len(rows) + 1
        assert got[1:] == [[format_number(r[col]) for col in CSV_COLUMNS] for r in rows]
        # every policy's analytic rows carry their numbers and an empty remark
        glob_rows = [r for r in got[1:] if r[1] == "globally_preemptive"]
        assert len(glob_rows) == 10
        assert all(float(r[3]) > 0 and r[-1] == "" for r in got[1:])

    def test_twelve_significant_digits(self):
        assert format_number(2.0 / 3.0) == "0.666666666667"
        assert format_number(123456789.123456) == "123456789.123"
        assert format_number(None) == ""
        assert format_number(float("nan")) == ""

    def test_rerun_byte_identical(self, tmp_path):
        spec = parse_spec(BOTH_POINT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(str(a), iter(run_sweep(spec)))
        write_rows(str(b), iter(run_sweep(spec)))
        assert a.read_bytes() == b.read_bytes()

    def test_partial_rows_flushed_on_abort(self, tmp_path):
        spec = parse_spec(ANALYTIC_SWEEP)
        path = tmp_path / "partial.csv"

        def failing_rows():
            for i, row in enumerate(run_sweep(spec)):
                if i == 10:
                    raise RuntimeError("midway failure")
                yield row

        with pytest.raises(RuntimeError):
            write_rows(str(path), failing_rows())
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == CSV_COLUMNS
        assert len(got) == 11  # header plus the ten rows written before the abort


THETA_BOTH = """
[system]
arrival_rates = 1, 2
theta = 0.5
service = exponential(rate=1.5)

[sweep]
axis = theta
start = 0.0
stop = 1.0
points = 4
policies = probabilistic, non_preemptive, self_preemptive, globally_preemptive
mode = both

[simulation]
horizon = 400
seed = 11
replications = 2
"""

LAMBDA_BOTH = """
[system]
arrival_rates = 2, 6
theta = 0.3
service = exponential(rate=1.2)

[sweep]
axis = lambda1
start = 1.0
stop = 7.0
points = 4
policies = probabilistic, non_preemptive
mode = both

[simulation]
horizon = 400
seed = 11
replications = 2
"""


@pytest.fixture
def calls(monkeypatch):
    """Arguments of every run / moments call the sweep makes."""
    seen = {"run": [], "moments": []}
    for name in seen:
        original = getattr(sweep_mod, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            seen[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, name, counting)
    return seen


def _as_simulated(policy):
    """What the simulator sees: theta 0 and 1 are the two baselines."""
    if policy.kind is PolicyKind.PROBABILISTIC and policy.theta in (0.0, 1.0):
        return Policy(
            PolicyKind.NON_PREEMPTIVE if policy.theta == 0.0 else PolicyKind.SELF_PREEMPTIVE
        )
    return policy


def _direct_rows(spec):
    """Reference rows from one run / moments call per grid point and policy."""
    theta_of = {PolicyKind.NON_PREEMPTIVE: 0.0, PolicyKind.SELF_PREEMPTIVE: 1.0}
    rows = []
    for value in grid_values(spec):
        if spec.axis == "theta":
            cfg = SystemConfig(spec.system.arrival_rates, value, spec.system.service)
        else:
            total = spec.system.total_rate
            cfg = SystemConfig((value, total - value), spec.system.theta, spec.system.service)
        for mode in ("analytic", "simulate"):
            per_policy = {}
            for kind in spec.policies:
                if mode == "simulate":
                    policy = (
                        Policy.probabilistic(cfg.theta)
                        if kind is PolicyKind.PROBABILISTIC
                        else Policy(kind)
                    )
                    report = run(cfg, policy, spec.sim)
                    per_policy[kind] = (
                        [
                            (s.time_avg_aoi, s.paoi_moments[0], s.time_avg_aoi_sq,
                             s.paoi_moments[1], s.aoi_ci_halfwidth)
                            for s in report.per_source
                        ],
                        report.sum_time_avg_aoi,
                    )
                else:
                    if kind is PolicyKind.GLOBALLY_PREEMPTIVE:
                        eff = GloballyPreemptiveConfig(cfg.arrival_rates, cfg.service)
                    else:
                        eff = SystemConfig(
                            cfg.arrival_rates, theta_of.get(kind, cfg.theta), cfg.service
                        )
                    ms = [moments(eff, c, 2) for c in range(cfg.num_sources)]
                    per_policy[kind] = (
                        [(m.aoi_moments[0], m.paoi_moments[0], m.aoi_moments[1],
                          m.paoi_moments[1], None) for m in ms],
                        sum(m.mean_aoi for m in ms),
                    )
            prob_sum = per_policy[PolicyKind.PROBABILISTIC][1]
            for kind in spec.policies:
                values, total = per_policy[kind]
                ratio = (total - prob_sum) / prob_sum * 100.0
                for c, v in enumerate(values):
                    rows.append({
                        "axis_value": value,
                        "policy": kind.value,
                        "source": c + 1,
                        "mean_aoi": v[0],
                        "mean_paoi": v[1],
                        "aoi_m2": v[2],
                        "paoi_m2": v[3],
                        "ci_halfwidth": v[4],
                        "sum_mean_aoi": total,
                        "diff_ratio_pct": ratio,
                        "mode": mode,
                        "remark": "",
                    })
    return rows


class TestEachSystemOnce:
    def test_one_run_per_simulation_key(self, calls):
        spec = parse_spec(THETA_BOTH)
        assert grid_values(spec)[0] == 0.0 and grid_values(spec)[-1] == 1.0
        run_sweep(spec)
        keys = [
            (cfg.arrival_rates, cfg.service, _as_simulated(policy))
            for cfg, policy, _ in calls["run"]
        ]
        # theta 1/3 and 2/3 for the probabilistic policy, each baseline once
        assert len(keys) == len(set(keys)) == 5

    def test_one_closed_form_per_system(self, calls):
        spec = parse_spec(THETA_BOTH)
        run_sweep(spec)
        # 4 distinct effective theta values (0 and 1 shared with the
        # baselines) and the globally preemptive system, times 2 sources
        assert len(calls["moments"]) == len(set(calls["moments"])) == 10

    def test_one_service_jet_per_shift(self, monkeypatch):
        from aoiq import Exponential
        from aoiq.analytic import _system_terms

        _system_terms.cache_clear()  # systems solved by earlier tests would request nothing
        requested = []
        original = Exponential.mgf_jet

        def counted(self, t0, order):
            requested.append((t0, order))
            return original(self, t0, order)

        monkeypatch.setattr(Exponential, "mgf_jet", counted)
        run_sweep(parse_spec(THETA_BOTH.replace("mode = both", "mode = analytic")))
        # theta 1/3 at rate 2 and theta 2/3 at rate 1 share the shift -2/3
        assert (-2.0 / 3.0, 2) in requested
        assert len(requested) == len(set(requested))

    @pytest.mark.parametrize("text", [THETA_BOTH, LAMBDA_BOTH], ids=["theta", "lambda1"])
    def test_rows_match_direct_calls(self, text):
        spec = parse_spec(text)
        assert run_sweep(spec) == _direct_rows(spec)

    def test_rate_sweep_points_not_aliased(self, calls):
        spec = parse_spec(LAMBDA_BOTH)
        run_sweep(spec)
        points = len(grid_values(spec))
        assert len(calls["run"]) == points * 2
        assert len(calls["moments"]) == points * 2 * 2
        assert {cfg.arrival_rates[0] for cfg, _, _ in calls["run"]} == set(grid_values(spec))
