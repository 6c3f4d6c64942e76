"""Stability certificates for nonautonomous delay systems.

The package turns bounds on a delayed system (decay brackets, delay
bounds, Lipschitz constants of the couplings) into checkable certificates:
a comparison matrix is built from the bounds and stability follows when it
is a nonsingular M-matrix.  On top of that sit closed-form special cases,
exponential decay-rate certification, a fixed-point equilibrium solver for
two-layer networks, a method-of-steps integrator to observe trajectories,
and a JSON-document CLI.
"""

from .linalg import (
    DEFAULT_TOL,
    LinalgInputError,
    MMatrixReport,
    is_m_matrix,
    spectral_radius,
)
from .systems import (
    ACTIVATION_CATALOG,
    COEFF_CATALOG,
    LAG_CATALOG,
    BamConcrete,
    BamSpec,
    ConcreteSystem,
    DelayBoundError,
    FamilyError,
    GeneralConcrete,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearConcrete,
    LinearSystemSpec,
    bam_to_general,
)
from .criteria import (
    ALL_TAGS,
    STATUS_INCONCLUSIVE,
    STATUS_STABLE,
    Check,
    DecayCertificate,
    NotCertifiedError,
    StabilityVerdict,
    certify_decay_rate,
    comparison_matrix,
    stability_verdict,
    test_matrix_at_rate,
    two_neuron_comparison,
)
from .equilibrium import (
    DivergenceError,
    Equilibrium,
    ExistenceReport,
    build_existence_matrices,
    equilibrium_exists,
    solve_equilibrium,
)
from .simulate import (
    DecayFit,
    FitInapplicableError,
    SimConfig,
    SimulationError,
    Trajectory,
    fit_decay,
    simulate,
    write_csv,
)
from .specio import (
    DocumentError,
    ParsedInput,
    parse_document,
    parse_file,
    point_parser,
    resolve_parameters,
    set_parameter,
)
from .sweep import SweepRow, Threshold, find_failure_threshold, sweep

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION_CATALOG",
    "ALL_TAGS",
    "BamConcrete",
    "BamSpec",
    "COEFF_CATALOG",
    "Check",
    "ConcreteSystem",
    "DEFAULT_TOL",
    "DecayCertificate",
    "DecayFit",
    "DelayBoundError",
    "DivergenceError",
    "DocumentError",
    "Equilibrium",
    "ExistenceReport",
    "FamilyError",
    "FitInapplicableError",
    "GeneralConcrete",
    "GeneralSystemSpec",
    "InvalidSpecError",
    "LAG_CATALOG",
    "LinalgInputError",
    "LinearConcrete",
    "LinearSystemSpec",
    "MMatrixReport",
    "NotCertifiedError",
    "ParsedInput",
    "STATUS_INCONCLUSIVE",
    "STATUS_STABLE",
    "SimConfig",
    "SimulationError",
    "StabilityVerdict",
    "SweepRow",
    "Threshold",
    "Trajectory",
    "bam_to_general",
    "build_existence_matrices",
    "certify_decay_rate",
    "comparison_matrix",
    "equilibrium_exists",
    "find_failure_threshold",
    "fit_decay",
    "is_m_matrix",
    "parse_document",
    "parse_file",
    "point_parser",
    "resolve_parameters",
    "set_parameter",
    "simulate",
    "solve_equilibrium",
    "spectral_radius",
    "stability_verdict",
    "sweep",
    "test_matrix_at_rate",
    "two_neuron_comparison",
    "write_csv",
]
