"""AoI/PAoI analysis of multi-source M/G/1/1 status-update queues.

Closed-form transforms and exact moments under a probabilistically
preemptive packet management policy, cross-validated three ways: a
semi-Markov transfer-function solver, a discrete-event simulator, and
binomial moment identities.
"""

from .service import Deterministic, Exponential, Gamma, LogNormal
from .analytic import SystemConfig, interdeparture_mgf_jet, moments
from .semimarkov import build_interdeparture_graph, transfer_functions
from .sim import InsufficientSamples, Policy, PolicyKind, SimConfig, empirical_checks, run

__version__ = "0.1.0"

# the names the README documents and the benchmark imports; everything
# else is imported from its module (aoiq.analytic, aoiq.sim, ...)
__all__ = [
    "SystemConfig",
    "Exponential",
    "Gamma",
    "Deterministic",
    "LogNormal",
    "moments",
    "interdeparture_mgf_jet",
    "build_interdeparture_graph",
    "transfer_functions",
    "Policy",
    "PolicyKind",
    "SimConfig",
    "run",
    "InsufficientSamples",
    "empirical_checks",
]
