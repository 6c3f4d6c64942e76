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
