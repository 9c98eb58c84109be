"""Structure-preserving time integration for semilinear Hamiltonian PDEs
on the circle: Fourier band truncation, A-stable symplectic Runge-Kutta
collocation methods, exact step-map jets, and executable backward error
analysis (modified fields, modified energies, coupled truncation policies).
"""

from .bea import (
    ModifiedField,
    ResolvedPolicy,
    TruncationPolicy,
    gradient_consistency,
    modified_flow,
    modified_hamiltonian_eval,
    modified_hamiltonian_terms,
    resolve_policy,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    HambeaError,
    OrderCapError,
    PoleError,
)
from .hjet import (
    HJet,
    expand_step_map,
    fd_directional,
)
from .models import (
    NlsModel,
    NonlocalNlsModel,
    PdeModel,
    PolyPotential,
    RealChart,
    SineGordonPotential,
    WaveModel,
    make_model,
    reference_flow,
)
from .rk import (
    ButcherTableau,
    StageResult,
    StageSolveConfig,
    Stepper,
    gauss_legendre,
    make_tableau,
    stability_function,
    symplecticity_residual,
)
from .spectral import (
    FourierGrid,
    FourierState,
    GevreyIndex,
    gevrey_norm,
    mode_eigenvalues,
    operator_power_bound,
    project,
    tail_bound_check,
    y_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ButcherTableau",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "FourierGrid",
    "FourierState",
    "GevreyIndex",
    "HJet",
    "HambeaError",
    "ModifiedField",
    "NlsModel",
    "NonlocalNlsModel",
    "OrderCapError",
    "PdeModel",
    "PoleError",
    "PolyPotential",
    "RealChart",
    "ResolvedPolicy",
    "SineGordonPotential",
    "StageResult",
    "StageSolveConfig",
    "Stepper",
    "TruncationPolicy",
    "WaveModel",
    "expand_step_map",
    "fd_directional",
    "gauss_legendre",
    "gevrey_norm",
    "gradient_consistency",
    "make_model",
    "make_tableau",
    "mode_eigenvalues",
    "modified_flow",
    "modified_hamiltonian_eval",
    "modified_hamiltonian_terms",
    "operator_power_bound",
    "project",
    "reference_flow",
    "resolve_policy",
    "stability_function",
    "symplecticity_residual",
    "tail_bound_check",
    "y_norm",
]
