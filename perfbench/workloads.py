"""The benchmark's workloads: closed-forms, simulate and cli.

Each workload builds its inputs from the seed, runs one pass of work per
``run_pass`` call and checks every output it can. An operation is one
``moments`` call, one ``sim.run`` call or one CLI command; it fails on an
exception, a nonzero exit code or a failed output check. Outputs of later
passes must match the first pass bit for bit, since the inputs repeat.

``smoke=True`` shrinks every workload so the harness runs in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    work: float = 0.0  # source results or arrivals, per workload
    wall: float = 0.0  # set by the harness
    steps: dict = field(default_factory=dict)  # wall time of named sub-steps


MAX_ERRORS = 5


def _record_error(errors: list, what: str) -> None:
    """Keep the first few failures, with their tracebacks, for the run record."""
    if len(errors) < MAX_ERRORS:
        errors.append(f"{what}\n{traceback.format_exc()}")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rel_gap(a, b) -> float:
    return max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(a, b))


class ClosedForms:
    """Exact moments of every source of a seed-generated configuration grid."""

    name = "closed-forms"
    work_name = "sources_per_s"
    first_call = (
        "from aoiq import SystemConfig, LogNormal, moments\n"
        "moments(SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0)), 0, 2)\n"
    )
    GRAPH_RTOL = 1e-9
    GRAPH_ORDER = 4
    TOTAL_RATE = 6.0

    def __init__(self, root: Path, seed: int, smoke: bool, scratch: Path):
        from aoiq import Deterministic, Exponential, Gamma, LogNormal, SystemConfig

        laws = (Exponential(2.0), Gamma(2.0, 4.0), Deterministic(0.5), LogNormal(-1.0, 1.0))
        counts = (2, 3) if smoke else (2, 8, 32)
        rng = np.random.default_rng(seed)
        self.configs = []
        for li, law in enumerate(laws):
            for ci, n in enumerate(counts):
                for ti, theta in enumerate((0.0, 0.28, 1.0)):
                    # the parity split gives half the configurations equal
                    # rates (repeated service-jet requests) and half distinct
                    # rates drawn from the seed; the total stays fixed, since
                    # it moves the log-normal quadrature cost
                    if (li + ci + ti) % 2 == 0:
                        rates = (self.TOTAL_RATE / n,) * n
                    else:
                        weights = rng.uniform(0.5, 1.5, n)
                        rates = tuple(float(r) for r in self.TOTAL_RATE * weights / weights.sum())
                    self.configs.append(SystemConfig(rates, theta, law))
        self.sources = sum(cfg.num_sources for cfg in self.configs)
        self.graph_gap_max = 0.0
        self.errors: list = []
        self.first = None
        self.first_digest = None

    def warm(self) -> None:
        from aoiq import moments

        moments(self.configs[-1], 0, 2)

    def run_pass(self) -> PassResult:
        from aoiq import moments

        result = PassResult()
        outputs = []
        for cfg in self.configs:
            for c in range(cfg.num_sources):
                result.attempted += 1
                try:
                    m = moments(cfg, c, 2)
                except Exception:  # a failed operation, counted and reported
                    _record_error(self.errors, f"moments(source {c}) of {cfg}")
                    result.failed += 1
                    m = None
                else:
                    if not all(math.isfinite(v) and v > 0 for v in m.aoi_moments + m.paoi_moments):
                        result.failed += 1
                outputs.append(m)
        result.work = result.attempted
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        if self.first is None:
            self.first, self.first_digest = outputs, digest
        elif digest != self.first_digest:
            result.failed = result.attempted
        return result

    def verify(self) -> int:
        """Cross-check the first pass against the graph solver.

        Every configuration is checked: all sources up to 8 sources, and
        sources 0, 8, 16, 24 and the last one of the 32-source systems.
        A source fails when the interdeparture jets of the closed form and
        of the graph differ in orders 0..4, or when the pass's mean
        interdeparture time differs from the graph's, by more than 1e-9
        relative.
        """
        from aoiq import build_interdeparture_graph, interdeparture_mgf_jet, transfer_functions

        failed = 0
        self.graph_gap_max = 0.0
        index = 0
        for cfg in self.configs:
            n = cfg.num_sources
            checked = range(n) if n <= 8 else sorted({*range(0, n, 8), n - 1})
            for c in checked:
                graph = transfer_functions(build_interdeparture_graph(cfg, c, self.GRAPH_ORDER))
                solved = graph["delivered"]
                closed = interdeparture_mgf_jet(cfg, c, self.GRAPH_ORDER)
                gap = _rel_gap(closed.coeffs, solved.coeffs)
                m = self.first[index + c]
                if m is not None:
                    gap = max(gap, _rel_gap([m.mean_interdeparture], [solved.coeffs[1]]))
                self.graph_gap_max = max(self.graph_gap_max, gap)
                failed += m is None or not gap <= self.GRAPH_RTOL
            index += n
        return failed

    def report(self) -> dict:
        return {
            "configurations": len(self.configs),
            "sources": self.sources,
            "graph_gap_max": self.graph_gap_max,
            "moments_sha256": self.first_digest,
            "errors": self.errors,
        }


class Simulate:
    """Single-process simulation of three systems, about 0.8M arrivals each."""

    name = "simulate"
    work_name = "arrivals_per_s"
    first_call = (
        "from aoiq import SystemConfig, LogNormal, Policy, SimConfig, run\n"
        "run(SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0)),"
        " Policy.probabilistic(0.28), SimConfig(seed=1, horizon=1e3))\n"
    )

    def __init__(self, root: Path, seed: int, smoke: bool, scratch: Path):
        from aoiq import Gamma, LogNormal, Policy, SimConfig, SystemConfig

        paper = SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0))
        many = SystemConfig((0.5,) * 16, 0.28, Gamma(2.0, 8.0))
        self.systems = (
            ("paper-probabilistic", paper, Policy.probabilistic(0.28)),
            ("paper-globally-preemptive", paper, Policy.globally_preemptive()),
            ("16-equal-gamma", many, Policy.probabilistic(0.28)),
        )
        # total arrival rate 8 in every system: horizon 1e5 is ~0.8M arrivals
        self.sim = SimConfig(seed=seed, horizon=2e3 if smoke else 1e5)
        self.first_digests = None
        self.checks = {"pass": 0, "skip": 0, "fail": 0}
        self.errors: list = []

    def warm(self) -> None:
        from aoiq import SimConfig, run

        label, cfg, policy = self.systems[0]
        run(cfg, policy, SimConfig(seed=self.sim.seed, horizon=1e3))

    @staticmethod
    def _digest(report) -> str:
        h = hashlib.sha256()
        for s in report.per_source:
            for value in vars(s).values():
                h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
        return h.hexdigest()

    def run_pass(self) -> PassResult:
        from aoiq import InsufficientSamples, PolicyKind, empirical_checks, run

        result = PassResult()
        digests = []
        self.checks = {"pass": 0, "skip": 0, "fail": 0}
        for label, cfg, policy in self.systems:
            result.attempted += 1
            try:
                report = run(cfg, policy, self.sim, workers=1)
            except Exception:  # a failed operation, counted and reported
                _record_error(self.errors, f"run of {label}")
                result.failed += 1
                digests.append(None)
                continue
            result.work += sum(s.arrivals for s in report.per_source)
            ok = all(
                s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight
                and math.isfinite(s.time_avg_aoi) and s.time_avg_aoi > 0
                for s in report.per_source
            )
            digests.append(self._digest(report))
            if self.first_digests is not None and digests[-1] != self.first_digests[len(digests) - 1]:
                ok = False
            result.failed += not ok
            if policy.kind is PolicyKind.PROBABILISTIC:
                # statistical verdicts with a known false-alarm rate: reported
                # as counts, not as failed operations
                try:
                    summary = empirical_checks(report, cfg, policy)
                except InsufficientSamples:
                    self.checks["skip"] += 1
                else:
                    for r in summary.results:
                        self.checks[r.status] += 1
        if self.first_digests is None:
            self.first_digests = digests
        return result

    def verify(self) -> int:
        return 0

    def report(self) -> dict:
        return {
            "systems": [label for label, _, _ in self.systems],
            "horizon": self.sim.horizon,
            "empirical_checks_last_pass": self.checks,
            "report_sha256": self.first_digests,
            "errors": self.errors,
        }


class Cli:
    """The commands users run, through ``aoiq.cli.main`` in this process."""

    name = "cli"
    work_name = None
    SWEEP_CONFIG = "configs/sweep_theta_lambda1_2.ini"

    def __init__(self, root: Path, seed: int, smoke: bool, scratch: Path):
        sweep_cfg = str(root / self.SWEEP_CONFIG)
        configs = sorted((root / "configs").glob("*.ini"))
        if not configs:
            raise FileNotFoundError(f"no shipped configs under {root / 'configs'}")
        seed_arg = ["--seed", str(seed)]
        if smoke:
            configs = configs[:2]
            analytic_extra = ["--points", "3"]
            sweep = ["--points", "2", "--horizon", "500", "--replications", "2"]
            validate = ["--horizon", "2e3", "--replications", "2"]
            dump = ["--horizon", "1e3"]
        else:
            analytic_extra = []
            sweep = ["--points", "6", "--horizon", "1e4", "--replications", "4"]
            validate = ["--horizon", "2e4"]
            dump = ["--horizon", "2e4"]
        # (step, argv, output CSVs written by the command)
        self.commands = []
        for cfg in configs:
            csv_path = str(scratch / f"analytic-{cfg.stem}.csv")
            self.commands.append(
                ("analytic_s", ["analytic", "-c", str(cfg), "-o", csv_path, *analytic_extra],
                 [csv_path])
            )
        sweep_csv = str(scratch / "sweep.csv")
        self.commands.append(
            ("sweep_s", ["sweep", "-c", sweep_cfg, *sweep, "--workers", "2", *seed_arg,
                         "-o", sweep_csv], [sweep_csv])
        )
        self.commands.append(
            ("validate_s", ["validate", "-c", sweep_cfg, *validate, "--workers", "2", *seed_arg],
             [])
        )
        sim_csv, dump_csv = str(scratch / "simulate.csv"), str(scratch / "samples.csv")
        self.commands.append(
            ("dump_s", ["simulate", "-c", sweep_cfg, "--axis", "none", "--policies",
                        "probabilistic", *dump, "--replications", "1", *seed_arg,
                        "--dump-samples", dump_csv, "-o", sim_csv], [sim_csv, dump_csv])
        )
        self.first_call = (
            "from aoiq.cli import main\n"
            f"main(['analytic', '-c', {str(configs[0])!r}, '-o', "
            f"{str(scratch / 'setup.csv')!r}])\n"
        )
        self.hashes = None
        self.verdicts = {}
        self.errors: list = []

    def warm(self) -> None:
        from aoiq.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(list(self.commands[0][1]))

    @staticmethod
    def _table_ok(stdout: str, path: str) -> bool:
        from aoiq.sweep import CSV_COLUMNS

        m = re.search(r"wrote (\d+) rows to ", stdout)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if m is None or rows[0] != CSV_COLUMNS or len(rows) - 1 != int(m.group(1)) or len(rows) < 2:
            return False
        aoi, remark = CSV_COLUMNS.index("mean_aoi"), CSV_COLUMNS.index("remark")
        return all(r[remark] or (math.isfinite(float(r[aoi])) and float(r[aoi]) > 0) for r in rows[1:])

    @staticmethod
    def _samples_ok(path: str) -> bool:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return len(rows) > 1 and rows[0][0] == "source" and all(len(r) == 6 for r in rows)

    def run_pass(self) -> PassResult:
        from time import perf_counter

        from aoiq.cli import main

        result = PassResult()
        hashes = {}
        for step in dict.fromkeys(step for step, _, _ in self.commands):
            result.steps[step] = 0.0
        for step, argv, outputs in self.commands:
            result.attempted += 1
            for path in outputs:
                Path(path).unlink(missing_ok=True)
            captured = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    rc = main(list(argv))
            except Exception:  # a failed operation, counted and reported
                _record_error(self.errors, " ".join(argv))
                rc = None
            result.steps[step] += perf_counter() - start
            text = captured.getvalue()
            ok = rc == 0
            if argv[0] == "validate":
                for status in ("PASS", "SKIP", "FAIL"):
                    self.verdicts[status.lower()] = len(re.findall(rf"^{status} ", text, re.M))
            try:
                if ok and outputs:
                    ok = self._table_ok(text, outputs[0])
                    if len(outputs) > 1:
                        ok = ok and self._samples_ok(outputs[1])
                for path in outputs:
                    name = Path(path).name
                    hashes[name] = _sha256(path)
                    if self.hashes is not None and hashes[name] != self.hashes.get(name):
                        ok = False
            except (OSError, ValueError, IndexError):
                ok = False
            if not ok and rc is not None:
                _record_error(self.errors, f"{' '.join(argv)} exited {rc}; output:\n{text[-2000:]}")
            result.failed += not ok
        if self.hashes is None:
            self.hashes = hashes
        return result

    def verify(self) -> int:
        return 0

    def report(self) -> dict:
        return {
            "commands": [" ".join(argv) for _, argv, _ in self.commands],
            "csv_sha256": self.hashes,
            "validate_verdicts_last_pass": self.verdicts,
            "errors": self.errors,
        }


WORKLOADS = {w.name: w for w in (ClosedForms, Simulate, Cli)}
