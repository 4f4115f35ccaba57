"""AoI/PAoI analysis of multi-source M/G/1/1 status-update queues.

Closed-form transforms and exact moments under a probabilistically
preemptive packet management policy, cross-validated three ways: a
semi-Markov transfer-function solver, a discrete-event simulator, and
binomial moment identities.
"""

from .jets import (
    DEFAULT_ORDER,
    DivisionBySingularJet,
    Jet,
    JetMismatchError,
)
from .service import (
    ConvergenceError,
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MgfDomainError,
    ServiceDistribution,
    UnsupportedDensity,
    parse_distribution,
    substream,
)
from .analytic import (
    AoiMetrics,
    ConsistencyError,
    OutsideConvergenceRegion,
    SystemConfig,
    Transform,
    aoi_mgf_jet,
    interdeparture_mgf_jet,
    mgf_point_eval,
    moments,
    moments_both_routes,
    paoi_mgf_jet,
    system_time_mgf_jet,
)
from .semimarkov import (
    LabeledDigraph,
    SingularSystem,
    SojournKit,
    build_interdeparture_graph,
    sojourn_kit,
    transfer_functions,
)
from .sim import (
    CheckResult,
    CheckSummary,
    InsufficientSamples,
    InvalidConfig,
    Policy,
    PolicyKind,
    PositiveExponentRejected,
    SimConfig,
    SimReport,
    SourceStats,
    empirical_aoi_mgf,
    empirical_checks,
    empirical_mgf,
    run,
)
from .config import ExperimentSpec, ParseError, ValidationError, parse_spec
from .sweep import CSV_COLUMNS, grid_values, iter_sweep_rows, run_sweep, write_rows
from .validate import ValidationCheck, ValidationReport, validation_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "Jet",
    "JetMismatchError",
    "DivisionBySingularJet",
    "ServiceDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "LogNormal",
    "MgfDomainError",
    "UnsupportedDensity",
    "ConvergenceError",
    "parse_distribution",
    "substream",
    "SystemConfig",
    "AoiMetrics",
    "Transform",
    "ConsistencyError",
    "OutsideConvergenceRegion",
    "system_time_mgf_jet",
    "interdeparture_mgf_jet",
    "paoi_mgf_jet",
    "aoi_mgf_jet",
    "moments",
    "moments_both_routes",
    "mgf_point_eval",
    "LabeledDigraph",
    "SojournKit",
    "SingularSystem",
    "transfer_functions",
    "sojourn_kit",
    "build_interdeparture_graph",
    "Policy",
    "PolicyKind",
    "SimConfig",
    "SimReport",
    "SourceStats",
    "InvalidConfig",
    "InsufficientSamples",
    "PositiveExponentRejected",
    "run",
    "empirical_checks",
    "empirical_mgf",
    "empirical_aoi_mgf",
    "CheckResult",
    "CheckSummary",
    "ExperimentSpec",
    "ParseError",
    "ValidationError",
    "parse_spec",
    "CSV_COLUMNS",
    "grid_values",
    "iter_sweep_rows",
    "run_sweep",
    "write_rows",
    "ValidationCheck",
    "ValidationReport",
    "validation_suite",
]
