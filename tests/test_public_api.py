"""Every name the benchmark harness and the README import from ``aoiq``
must resolve, so trimming the package's re-exports cannot break them."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aoiq

ROOT = Path(__file__).resolve().parents[1]
# ``from aoiq import a, b`` or ``from aoiq import (a, b)``, also inside the
# code strings that the harness runs in a fresh interpreter
IMPORT = re.compile(r"from aoiq import\s+(\([^)]*\)|[\w ,]+)")


def _imported_names(path: Path) -> list[str]:
    names = []
    for group in IMPORT.findall(path.read_text()):
        names += [piece.split()[0] for piece in group.strip("()").split(",") if piece.strip()]
    return names


def _resolves(name: str) -> bool:
    """What ``from aoiq import name`` finds: an attribute or a submodule."""
    if hasattr(aoiq, name):
        return True
    try:
        importlib.import_module(f"aoiq.{name}")
    except ImportError:
        return False
    return True


SOURCES = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_imported_names_resolve(path):
    names = _imported_names(path)
    missing = [n for n in names if not _resolves(n)]
    assert not missing, f"{path.name} imports {missing} from aoiq"


def test_imports_found():
    # the harness and the quickstart do import from the package root
    assert {"moments", "run", "SimConfig"} <= set(_imported_names(ROOT / "README.md"))
    bench = {n for p in SOURCES[:-1] for n in _imported_names(p)}
    assert {"empirical_checks", "transfer_functions", "PolicyKind", "jets"} <= bench


def test_all_names_exist():
    # the package and each of its modules: a name removed from a module but
    # left in its __all__ would break ``from aoiq.<module> import *``
    stems = sorted(p.stem for p in (ROOT / "src" / "aoiq").glob("*.py") if p.stem != "__init__")
    assert {"sim", "analytic", "service", "_special"} <= set(stems)
    for name in ["aoiq"] + [f"aoiq.{stem}" for stem in stems]:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists {missing}"


def test_import_loads_no_scipy():
    # scipy.special alone cost more than half of every run's start-up; the
    # package's special functions are numpy and math, so no call loads it
    code = """
import sys, aoiq, aoiq.cli
from aoiq import Deterministic, Gamma, LogNormal, Policy, SimConfig, SystemConfig
from aoiq import empirical_checks, moments, run
for law in (LogNormal(-1.0, 1.0), Gamma(2.0, 4.0), Deterministic(0.5)):
    moments(SystemConfig((1.0, 1.5), 0.5, law), 0, 2)
for law in (Gamma(2.0, 4.0), LogNormal(-1.0, 1.0)):
    cfg = SystemConfig((1.0, 1.5), 0.5, law)
    policy = Policy.probabilistic(0.5)
    report = run(cfg, policy, SimConfig(seed=3, horizon=1e4, batches=10))
    empirical_checks(report, cfg, policy, min_samples=1000)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
