"""Parameter sweeps over theta or the first source's rate, to CSV rows.

One row per (grid point, mode, policy, source). The preemption-probability
sweep varies theta with rates fixed; the rate sweep varies the first
source's rate while keeping the total fixed by adjusting the second
(grid points where the second rate would be nonpositive are dropped).

The difference-ratio column compares each policy's sum average AoI against
the probabilistic policy at the same grid point and mode:
(sum - sum_prob) / sum_prob * 100, so the probabilistic rows read 0.
"""

from __future__ import annotations

import contextlib
import csv
import math
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .analytic import GloballyPreemptiveConfig, SystemConfig, moments, sharing_service_jets
from .config import ExperimentSpec
from .sim import Policy, PolicyKind, SimReport, run

__all__ = ["CSV_COLUMNS", "grid_values", "iter_sweep_rows", "run_sweep", "write_rows", "format_number"]

CSV_COLUMNS = [
    "axis_value",
    "policy",
    "source",
    "mean_aoi",
    "mean_paoi",
    "aoi_m2",
    "paoi_m2",
    "ci_halfwidth",
    "sum_mean_aoi",
    "diff_ratio_pct",
    "mode",
    "remark",  # always empty since every policy has a closed form; kept for the layout
]


def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def grid_values(spec: ExperimentSpec) -> list[float | None]:
    """Grid points of the sweep axis; [None] when not sweeping."""
    if spec.axis == "none" or spec.grid is None:
        return [None]
    start, stop, points = spec.grid
    values = [float(v) for v in np.linspace(start, stop, points)]
    if spec.axis == "lambda1":
        total = spec.system.total_rate
        values = [v for v in values if 0.0 < v < total]
    return values


def _config_at(spec: ExperimentSpec, value: float | None) -> SystemConfig:
    base = spec.system
    if value is None:
        return base
    if spec.axis == "theta":
        return SystemConfig(base.arrival_rates, value, base.service)
    total = base.total_rate
    return SystemConfig((value, total - value), base.theta, base.service)


def _system_key(cfg: SystemConfig, policy: Policy) -> tuple:
    """Equal keys mean equal closed forms and bit-identical simulations:
    the probabilistic policy at theta 0 or 1 acts as the non-preemptive or
    self-preemptive one (see ``aoiq.sim``)."""
    return cfg.arrival_rates, cfg.service, policy.effective_theta


_METRICS = ("mean_aoi", "mean_paoi", "aoi_m2", "paoi_m2", "ci_halfwidth")


class _Block(NamedTuple):
    """The numbers one policy's rows print at one grid point: per source,
    the values of ``_METRICS``; and the sum of the mean AoIs."""

    per_source: tuple[tuple, ...]
    sum_mean_aoi: float


def _analytic_block(cfg: SystemConfig, policy: Policy) -> _Block:
    """One policy's closed-form numbers at one grid point."""
    if policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE:
        cfg = GloballyPreemptiveConfig(cfg.arrival_rates, cfg.service)
    else:
        cfg = SystemConfig(cfg.arrival_rates, policy.effective_theta, cfg.service)
    metrics = [moments(cfg, c, 2) for c in range(cfg.num_sources)]
    return _Block(
        tuple(
            (m.aoi_moments[0], m.paoi_moments[0], m.aoi_moments[1], m.paoi_moments[1], None)
            for m in metrics
        ),
        sum(m.mean_aoi for m in metrics),
    )


def _simulated_block(report: SimReport) -> _Block:
    return _Block(
        tuple(
            (s.time_avg_aoi, s.paoi_moments[0], s.time_avg_aoi_sq, s.paoi_moments[1], s.aoi_ci_halfwidth)
            for s in report.per_source
        ),
        report.sum_time_avg_aoi,
    )


def _unseen(keys: dict, memo: dict) -> list[PolicyKind]:
    """Policies whose key is not in ``memo`` yet, the first one per key."""
    first: dict = {}
    for kind, key in keys.items():
        if key not in memo:
            first.setdefault(key, kind)
    return list(first.values())


# relative precision of a summed mean AoI: that pinned for the closed forms
_SUM_RTOL = 1e-14


def _diff_ratio_pct(total: float, prob_sum: float) -> float:
    """(total - prob_sum) / prob_sum * 100, rounded to the decimal place at or
    above 100 * _SUM_RTOL * (|total| + |prob_sum|) / |prob_sum|, the error the
    subtraction can carry: digits below it are noise. Where the CSV's 12
    significant digits end above that place, it is left as it is, so that it
    is not rounded twice."""
    ratio = (total - prob_sum) / prob_sum * 100.0
    noise = 100.0 * _SUM_RTOL * (abs(total) + abs(prob_sum)) / abs(prob_sum)
    if ratio == 0.0 or not (math.isfinite(ratio) and math.isfinite(noise)):
        return ratio
    decimals = -math.ceil(math.log10(noise))
    if decimals >= 11 - math.floor(math.log10(abs(ratio))):
        return ratio
    return round(ratio, decimals)


def _rows(axis_value, mode: str, blocks: dict[PolicyKind, _Block]) -> Iterator[dict]:
    """The rows of one grid point and mode, in policy/source order."""
    baseline = blocks.get(PolicyKind.PROBABILISTIC)
    for kind, (per_source, total) in blocks.items():
        ratio = None if baseline is None else _diff_ratio_pct(total, baseline.sum_mean_aoi)
        for c, values in enumerate(per_source):
            yield {
                "axis_value": axis_value,
                "policy": kind.value,
                "source": c + 1,
                **dict(zip(_METRICS, values)),
                "sum_mean_aoi": total,
                "diff_ratio_pct": ratio,
                "mode": mode,
                "remark": "",
            }


def iter_sweep_rows(
    spec: ExperimentSpec, workers: int = 1, *, reports: Iterable[SimReport] = (),
    executor: Executor | None = None,
) -> Iterator[dict]:
    """Yield CSV rows in deterministic grid/mode/policy/source order.

    Each distinct system is solved and simulated once per call: a policy
    whose ``_system_key`` matches that of a policy already computed, at
    this grid point or an earlier one, reuses its numbers. In a theta sweep
    that covers the theta-independent policies and the probabilistic
    policy at theta 0 and 1. ``reports`` are runs already made with the
    spec's simulation settings (say, with deliveries collected); their
    systems are not simulated again. ``workers`` and ``executor`` go to
    ``run`` as they are.
    """
    do_analytic = spec.mode in ("analytic", "both")
    do_simulate = spec.mode in ("simulate", "both")
    solved: dict[tuple, _Block] = {}
    service_jets: dict = {}  # systems at different grid points share shifts
    simulated: dict[tuple, _Block] = {
        _system_key(r.system, r.policy): _simulated_block(r)
        for r in reports
        if r.sim == spec.sim
    }

    for value in grid_values(spec):
        cfg = _config_at(spec, value)
        axis_value = "" if value is None else value
        policies = {kind: Policy.of(kind, cfg.theta) for kind in spec.policies}
        keys = {kind: _system_key(cfg, policy) for kind, policy in policies.items()}

        if do_analytic:
            with sharing_service_jets(service_jets):
                for kind in _unseen(keys, solved):
                    solved[keys[kind]] = _analytic_block(cfg, policies[kind])
            blocks = {kind: solved[key] for kind, key in keys.items()}
            yield from _rows(axis_value, "analytic", blocks)

        if do_simulate:
            for kind in _unseen(keys, simulated):
                simulated[keys[kind]] = _simulated_block(
                    run(cfg, policies[kind], spec.sim, workers=workers, executor=executor)
                )
            blocks = {kind: simulated[key] for kind, key in keys.items()}
            yield from _rows(axis_value, "simulate", blocks)


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """All sweep rows as a list (see iter_sweep_rows for streaming); with
    ``workers`` > 1 every simulation runs on one shared pool."""
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        return list(iter_sweep_rows(spec, workers=workers, executor=pool))


def write_rows(path: str, rows: Iterable[dict]) -> int:
    """Stream rows to CSV, flushing each so aborts keep partial results."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        fh.flush()
        for row in rows:
            writer.writerow([format_number(row[col]) for col in CSV_COLUMNS])
            fh.flush()
            count += 1
    return count
