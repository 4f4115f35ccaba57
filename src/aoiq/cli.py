"""Command-line front end.

Subcommands::

    aoiq analytic -c spec.ini [overrides]   closed-form metrics to CSV
    aoiq simulate -c spec.ini [overrides]   simulation to CSV
    aoiq sweep    -c spec.ini [overrides]   sweep per the config's mode
    aoiq validate -c spec.ini [overrides]   full cross-validation suite

Flags override config-file keys (flag > file > default). Exit codes:
0 success, 1 usage/config error, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache

from .config import SPEC_KEYS, ParseError, ValidationError, build_spec, load_raw
from .sim import InvalidConfig, Policy, process_pool, run
from .sweep import iter_sweep_rows, write_rows
from .validate import NUMERICAL_ERRORS, validation_suite

# flag dest -> (section, key); the dest is the key, "output" for [output] path,
# and the flag is --dest with "-" for "_"
_OVERRIDES = {
    "output" if key == "path" else key: (section, key)
    for section, keys in SPEC_KEYS.items()
    for key in keys
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--config", required=True, help="spec file (INI sections)")
    sub.add_argument("--workers", type=int, default=1, help="parallel replication workers")
    for dest in _OVERRIDES:
        short = ("-o",) if dest == "output" else ()
        sub.add_argument(*short, "--" + dest.replace("_", "-"), dest=dest)


@cache  # built once per process: parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoiq",
        description="AoI/PAoI analysis of multi-source M/G/1/1 update queues",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analytic", "closed-form metrics (forces mode=analytic)"),
        ("simulate", "simulation metrics (forces mode=simulate)"),
        ("sweep", "sweep per the config's mode"),
        ("validate", "run the cross-validation suite"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        if name == "simulate":
            sub.add_argument(
                "--dump-samples",
                help="also write one CSV row per delivered packet to this path",
            )
    return parser


def _spec_from_args(args) -> "ExperimentSpec":
    try:
        with open(args.config) as fh:
            raw = load_raw(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    for dest, (section, key) in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            raw.setdefault(section, {})[key] = str(value)
    if args.command == "analytic":
        raw.setdefault("sweep", {})["mode"] = "analytic"
    elif args.command == "simulate":
        raw.setdefault("sweep", {})["mode"] = "simulate"
    # an explicit stop-rule flag replaces the file's rule instead of clashing
    sim_raw = raw.get("simulation", {})
    if getattr(args, "horizon", None) is not None:
        sim_raw.pop("delivered", None)
    elif getattr(args, "delivered", None) is not None:
        sim_raw.pop("horizon", None)
    return build_spec(raw)


def _dump_deliveries(path: str, deliveries) -> None:
    # cells as format_number prints them: a NaN (no earlier delivery) is empty
    with open(path, "w", newline="") as fh:
        fh.write("source,generation_time,delivery_time,system_time,interdeparture,paoi\n")
        fh.writelines(
            f"{int(c) + 1},{g:.12g},{d:.12g},{t:.12g},{y:.12g},{a:.12g}\n".replace("nan", "")
            for c, g, d, t, y, a in deliveries.tolist()
        )


def _cmd_table(args) -> int:
    spec = _spec_from_args(args)
    reports = []
    dump = args.command == "simulate" and getattr(args, "dump_samples", None)
    if dump and spec.axis != "none":
        print("--dump-samples needs a single-point spec (axis = none)", file=sys.stderr)
        return 1
    # one pool serves every run of the command; it starts no process until used
    with process_pool(args.workers) as pool:
        if dump:
            open(args.dump_samples, "w").close()  # an unwritable path fails before the run
            policy = Policy.of(spec.policies[0], spec.system.theta)
            report = run(spec.system, policy, spec.sim, args.workers, True, executor=pool)
            _dump_deliveries(args.dump_samples, report.deliveries)
            # collecting deliveries leaves the statistics unchanged: the table reuses them
            reports.append(report)
        rows = iter_sweep_rows(spec, args.workers, reports=reports, executor=pool)
        n = write_rows(spec.output_path, rows)
    print(f"wrote {n} rows to {spec.output_path}")
    return 0


def _cmd_validate(args) -> int:
    spec = _spec_from_args(args)
    report = validation_suite(spec, workers=args.workers)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        line = f"{c.status.upper():4s} {c.name:<{width}s}"
        if not math.isnan(c.discrepancy):
            line += f"  discrepancy={c.discrepancy:.3g} tol={c.tolerance:.3g}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    count = {s: sum(c.status == s for c in report.checks) for s in ("pass", "skip", "fail")}
    print(
        f"{count['pass']}/{len(report.checks)} checks passed, "
        f"{count['skip']} skipped, {count['fail']} failed"
    )
    return 0 if report.all_passed else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_table(args)
    except (ParseError, ValidationError, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the config is read by then, so a path is an output path
        if exc.filename is None:  # a broken pipe or a failed fork
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
