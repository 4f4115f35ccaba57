"""Pass counts of the seed-fixed statistical gates, rerun over seeds 1..N.

Each gate is the body of a test that the suite runs at one fixed seed;
here it runs at every seed from 1 to N, one line per run, and a count
closes each gate, so a gate's false-alarm rate on correct code can be
read off rather than assumed. pytest does not collect this file::

    PYTHONPATH=src python tests/gate_rates.py --seeds 50
    PYTHONPATH=src python tests/gate_rates.py --seeds 20 criterion_4 criterion_7
"""

import argparse
import functools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import test_acceptance as acceptance  # noqa: E402
import test_sim  # noqa: E402

GATES = {
    "criterion_4": acceptance.criterion_4,
    "criterion_6": acceptance.criterion_6,
    "criterion_7": acceptance.criterion_7,
    "analytic_anchor": test_sim.anchor_gate,
    "analytic_grid": test_sim.grid_gate,
    "analytic_m2_two_exp": functools.partial(test_sim.second_moment_gate, test_sim.TWO_EXP),
    "analytic_m2_paper": functools.partial(test_sim.second_moment_gate, test_sim.PAPER),
    "analytic_system_time_mgf": test_sim.system_time_mgf_gate,
    "analytic_aoi_mgf": test_sim.aoi_mgf_gate,
    "analytic_global": test_sim.global_gate,
    "empirical_checks_baselines": test_sim.policy_checks_gate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 1..N (default 20)")
    parser.add_argument("gates", nargs="*", help=f"gates to run (default: all of {', '.join(GATES)})")
    args = parser.parse_args(argv)
    unknown = set(args.gates) - set(GATES)
    if unknown:
        parser.error(f"unknown gates: {', '.join(sorted(unknown))}")
    for name in args.gates or GATES:
        passed = 0
        for seed in range(1, args.seeds + 1):
            ok, detail = GATES[name](seed)
            passed += ok
            print(f"{name} seed {seed}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
        print(f"{name}: {passed}/{args.seeds} passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
