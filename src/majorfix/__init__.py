"""Certified fixed-point analysis via radius-dependent Lipschitz majorants."""

from .errors import (
    BoundViolationError,
    ConfigError,
    InadmissibleStartError,
    MajorfixError,
    NoExistenceError,
)
from .moduli import (
    ConstantModulus,
    LipschitzModulus,
    PowerSumModulus,
    TabulatedModulus,
    combine_moduli,
    modulus_from_samples,
    recenter_modulus,
)
from .majorant import (
    Interval,
    MajorantProfile,
    ZoneReport,
    analyze,
    eval_majorants,
    find_contraction_radius,
    find_convergence_radius,
    find_inner_radius,
    find_uniqueness_radius,
)
from .discretize import (
    Grid,
    KernelTable,
    lp_norm,
    zaanen_norm_estimate,
    zaanen_sweep_objectives,
)
from .iteration import (
    CertificationRecord,
    IterationTrace,
    OperatorHandle,
    StepRecord,
    StoppingRule,
    certify_trace,
    check_admissible_start,
    iterate,
    make_operator,
)
from .operators import (
    CompositionSpec,
    HammersteinSpec,
    HammersteinTerm,
    LipschitzPairSet,
    MultilinearSpec,
    UrysohnSpec,
    build_composition,
    build_hammerstein_lp,
    build_hammerstein_sup,
    build_multilinear,
    build_self_majorizing,
    build_superposition_modulus,
    build_urysohn,
    multilinear_critical_shift,
)

__version__ = "0.1.0"
