"""AoI/PAoI analysis of multi-source M/G/1/1 status-update queues.

Closed-form transforms and exact moments under a probabilistically
preemptive packet management policy, cross-validated three ways: a
semi-Markov transfer-function solver, a discrete-event simulator, and
binomial moment identities.

``import aoiq`` loads no submodule: each name below, and each submodule
(``aoiq.sim``, ``aoiq.cli``, ...), is imported on its first use, so a
closed-form caller never loads the simulator, the graph solver or the
process pool.
"""

import importlib

__version__ = "0.1.0"

# the names the README documents and the benchmark imports, by module;
# everything else is imported from its module (aoiq.analytic, aoiq.sim, ...)
_HOME = {
    "SystemConfig": "analytic",
    "Exponential": "service",
    "Gamma": "service",
    "Deterministic": "service",
    "LogNormal": "service",
    "moments": "analytic",
    "interdeparture_mgf_jet": "analytic",
    "build_interdeparture_graph": "semimarkov",
    "transfer_functions": "semimarkov",
    "Policy": "sim",
    "PolicyKind": "sim",
    "SimConfig": "sim",
    "run": "sim",
    "InsufficientSamples": "sim",
    "empirical_checks": "sim",
}
__all__ = list(_HOME)


def __getattr__(name):
    # the value is looked up on every access, not kept here: whoever rebinds
    # it in its module (a tracer, a test's monkeypatch) is seen through ``aoiq``
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if not name.startswith("__"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
