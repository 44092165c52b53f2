"""Matrix and spectral geometric means, weighted spectral fidelities,
and a seeded property-verification harness.

The weighted spectral fidelity of two density matrices is
Tr[rho (rho^{-1} # sigma)^{2t}], where # is the matrix geometric mean.
It equals the Uhlmann fidelity at t = 1/2 and the trivial value 1 at
the endpoints for full-rank states.  The verify module checks every
structural property of the family on seeded random ensembles and
searches for the data-processing violations the family exhibits away
from the midpoint.
"""

from __future__ import annotations

from .config import TOL, Tolerances
from .errors import (
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NormalizationError,
    NormError,
    ParamError,
    SpecfidError,
    SupportError,
    ToleranceError,
    UnknownProperty,
    ZeroVector,
)
from .fidelity import (
    FidelityValue,
    FvgBounds,
    diagonal_spectral_fidelity,
    fvg_bounds,
    matsumoto_fidelity,
    sandwiched_renyi,
    spectral_fidelity,
    spectral_fidelity_curve,
    uhlmann_fidelity,
)
from .linalg import (
    as_hermitian,
    block_psd,
    frac_power,
    hermitize,
    trace_norm,
)
from .means import (
    geometric_mean,
    riccati_solution,
    variational_objective,
    weighted_spectral_mean,
)
from .serialize import (
    dumps,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
)
from .states import (
    Channel,
    DensityMatrix,
    apply,
    from_bloch,
    orthogonal_pair,
    pinching,
    pure_state,
    random_density,
    random_unitary,
    tensor,
    trial_rng,
)
from .verify import (
    DPIWitness,
    PropertyReport,
    list_properties,
    replay_reference_counterexample,
    run_suite,
    search_dpi_violation,
    second_fvg_failure,
    t_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "SpecfidError",
    "NonConvergence",
    "DomainError",
    "DimensionMismatch",
    "ParamError",
    "NormError",
    "ZeroVector",
    "SupportError",
    "NormalizationError",
    "ToleranceError",
    "UnknownProperty",
    "FidelityValue",
    "FvgBounds",
    "spectral_fidelity",
    "spectral_fidelity_curve",
    "uhlmann_fidelity",
    "matsumoto_fidelity",
    "sandwiched_renyi",
    "diagonal_spectral_fidelity",
    "fvg_bounds",
    "as_hermitian",
    "hermitize",
    "frac_power",
    "block_psd",
    "trace_norm",
    "geometric_mean",
    "riccati_solution",
    "weighted_spectral_mean",
    "variational_objective",
    "DensityMatrix",
    "Channel",
    "from_bloch",
    "pure_state",
    "random_density",
    "random_unitary",
    "orthogonal_pair",
    "pinching",
    "apply",
    "tensor",
    "trial_rng",
    "dumps",
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "PropertyReport",
    "DPIWitness",
    "run_suite",
    "list_properties",
    "replay_reference_counterexample",
    "search_dpi_violation",
    "second_fvg_failure",
    "t_sweep",
    "__version__",
]
