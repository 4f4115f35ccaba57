"""Benchmark harness for aoiq: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke    # every workload at a tiny size, both trace modes

The workloads (closed-forms, simulate, cli) are described in
``BENCHMARK.json`` and ``workloads.py``. A run:

1. measures ``setup_s``: in a fresh interpreter, ``import aoiq`` plus the
   workload's first call, repeated ``SETUP_REPEATS`` times (median);
2. repeats passes of the workload for ``--seconds`` seconds with tracing
   off (half of them with ``--trace 1``);
3. with ``--trace 1``, spends the other half on up to ``TRACED_PASSES``
   traced passes (``tracer.py``), writes their spans as JSON lines and
   reports the per-layer metrics as medians over the traced passes; a
   traced pass also runs the workload's output cross-check, outside its
   wall time, so the checking layers show in the per-layer figures;
4. checks the outputs and prints, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``): ``setup_s``, ``wall_s`` (median pass
wall time) and ``rss_peak_mb`` (peak resident set of this process and its
children). The workload-specific figures ``sources_per_s``
(closed-forms), ``arrivals_per_s`` (simulate) and the CLI step times
``analytic_s``, ``sweep_s``, ``validate_s`` and ``dump_s`` (cli) come from
the untraced passes; they are printed by every run and reported among the
per-layer metrics of ``--trace 1``, where they read 0 on the workloads
that have no such step.

Every run writes ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``
with the provenance (git SHA, core count, Python, numpy and scipy
versions, seed, argv, load average at start), all metrics, the pass wall
times and the output hashes; traced runs also write the spans to
``.perfbench_out/<workload>-seed<seed>-spans.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TRACED_PASSES = 3  # spans of one closed-forms pass take about 5 MB of JSON

END_TO_END = {"setup_s": "s", "wall_s": "s", "rss_peak_mb": "MB"}

# Figures of whole workload steps, measured with tracing off.
STEP_METRICS = {
    "sources_per_s": "results/s",
    "arrivals_per_s": "arrivals/s",
    "analytic_s": "s",
    "sweep_s": "s",
    "validate_s": "s",
    "dump_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def per_layer_unit(name: str) -> str:
    if name in STEP_METRICS:
        return STEP_METRICS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("share", "gap_max")):
        return "ratio"
    return "count"


def _import_program():
    init = ROOT / "src" / "aoiq" / "__init__.py"
    if not init.is_file():
        raise HarnessError(f"no aoiq sources at {init.parent}; run from a checkout of the repository")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import aoiq
    import aoiq.cli  # noqa: F401  (traced; not imported by the package itself)

    if Path(aoiq.__file__).resolve() != init.resolve():
        raise HarnessError(f"imported aoiq from {aoiq.__file__}, not from {init}")


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv,
        "loadavg_start": os.getloadavg(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def fresh_setup(first_call: str, cwd: Path) -> float:
    """Seconds to ``import aoiq`` and make the first call in a new interpreter."""
    code = (
        "import time\nt0 = time.perf_counter()\nimport aoiq\n"
        f"{first_call}print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("set-up interpreter did not finish in 120 s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, budget: float, first_id: int, tracer=None, verify_log=None,
               limit=None) -> list:
    """Passes until the next one would end after ``budget`` seconds (at
    least one, at most ``limit``).

    Traced passes also cross-check their outputs inside the pass, outside
    its wall time, so the checking layers appear in the traced figures.
    """
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass(first_id + len(passes))
        t0 = perf_counter()
        result = workload.run_pass()
        result.wall = perf_counter() - t0
        if tracer is not None:
            verify_log.append(workload.verify())
            tracer.end_pass()
        passes.append(result)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > budget or len(passes) == limit:
            return passes


def step_metrics(workload, passes) -> dict:
    out = dict.fromkeys(STEP_METRICS, 0.0)
    if workload.work_name is not None:
        out[workload.work_name] = statistics.median(p.work / p.wall for p in passes)
    for step in passes[0].steps:
        out[step] = statistics.median(p.steps[step] for p in passes)
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    _import_program()
    from tracer import Tracer, median_metrics
    from workloads import WORKLOADS

    record = {"provenance": provenance(name, seed, seconds, trace)}
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[name](ROOT, seed, smoke, scratch)
        setups = [fresh_setup(workload.first_call, scratch) for _ in range(1 if smoke else SETUP_REPEATS)]
        workload.warm()
        passes = run_passes(workload, seconds / 2 if trace else seconds, 0)
        verify_log = []
        traced = []
        if trace:
            tracer = Tracer()
            with tracer:
                traced = run_passes(workload, seconds - sum(p.wall for p in passes), len(passes),
                                    tracer, verify_log, limit=TRACED_PASSES)
            spans_path = OUT / f"{name}-seed{seed}-spans.jsonl.gz"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            verify_log.append(workload.verify())
        record["workload"] = workload.report()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    # a failed output cross-check is one failed operation, whichever pass it ran in
    failed = sum(p.failed for p in everything) + max(verify_log)
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "rss_peak_mb": peak_rss_mb(),
        **step_metrics(workload, passes),
    }
    if trace:
        per_pass = [tracer.pass_metrics(len(passes) + i) for i in range(len(traced))]
        if name == "cli":
            # the runs inside CLI commands are visible to the tracer only
            failed += sum(p["sim.counter_identity_violations"] for p in per_pass)
        metrics.update(median_metrics(per_pass))
        # the closed-forms graph cross-check is the harness's own, not a span
        metrics["semimarkov.graph_gap_max"] = max(
            metrics["semimarkov.graph_gap_max"], getattr(workload, "graph_gap_max", 0.0)
        )
        metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - metrics["wall_s"]
    record.update(
        setup_runs_s=setups,
        pass_walls_s=walls,
        traced_pass_walls_s=[p.wall for p in traced],
        attempted=attempted,
        failed=failed,
        metrics=metrics,
    )
    return record


def contract_metrics(record: dict, trace: int) -> dict:
    """The metrics the last output line carries: the end-to-end ones with
    tracing off, the per-layer ones with tracing on."""
    units = {n: per_layer_unit(n) for n in per_layer_names()} if trace else END_TO_END
    return {n: {"value": record["metrics"][n], "unit": unit} for n, unit in units.items()}


def per_layer_names() -> list:
    from tracer import layer_metrics

    return [*layer_metrics([], {}), "trace.overhead_s", *STEP_METRICS]


def emit(record: dict, trace: int) -> dict:
    name = record["provenance"]["workload"]
    seed = record["provenance"]["seed"]
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print("workload " + json.dumps(record["workload"]))
    for key, value in record["metrics"].items():
        unit = END_TO_END.get(key) or per_layer_unit(key)
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"operations attempted {record['attempted']} failed {record['failed']}; record {path.relative_to(ROOT)}")
    final = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": contract_metrics(record, trace),
    }
    print(json.dumps(final), flush=True)
    return final


def smoke() -> int:
    """Every workload at a tiny size, both trace modes, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            final = emit(measure(workload, 1, 1.0, trace, smoke=True), trace)
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in final["metrics"].values()):
                problems.append(f"{workload} trace {trace}: non-finite metric")
            if final["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: nothing attempted")
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        emit(measure(args.workload, args.seed, args.seconds, args.trace), args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
