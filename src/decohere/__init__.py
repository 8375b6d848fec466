"""Markovian decoherence models for open quantum systems.

Three model families share a small numerical core (hbar = 1 throughout):

* ``gksl`` — generators in Gorini-Kossakowski-Sudarshan-Lindblad form,
  their superoperator/Choi representations, complete-positivity
  certification and semigroup or time-dependent propagation;
* ``dephasing`` — the exactly solvable two-level dephasing model driven by
  Ohmic-family bath spectral densities;
* ``collisional`` — position-space decoherence by momentum kicks, with the
  ideal-gas dynamic structure factor, detailed balance, and the
  fluctuation-dissipation conversion.

The ``decohere`` command line runs declarative JSON scenarios and emits
CSV time series plus a JSON invariant report; see the README.
"""

from . import errors
from .collisional import (
    GasSpec,
    GaussianMomentumLaw,
    MomentumTransferLaw,
    PositionDensityMatrix,
    TwoPointMomentumLaw,
    build_discretized_generator,
    decoherence_factor,
    detailed_balance_ratio,
    evolve_exact,
    fdt_response,
    log_mb_structure_factor,
    mb_structure_factor,
)
from .dephasing import BathSpec, DephasingModel, SpectralDensity
from .gksl import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ChoiMatrix,
    CpCheckResult,
    DensityMatrix,
    GkslGenerator,
    Superoperator,
    apply_generator,
    canonical_form,
    choi_of_propagator,
    integrate_constant,
    integrate_time_dependent,
    is_completely_positive,
    propagate_semigroup,
    semigroup_channel,
    semigroup_propagator,
    semigroup_trajectory,
    to_superoperator,
    unvec,
    vec,
)
from .numcore import (
    OdeSpec,
    QuadratureSpec,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    matrix_exp,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ChoiMatrix",
    "CpCheckResult",
    "DensityMatrix",
    "DephasingModel",
    "GasSpec",
    "GaussianMomentumLaw",
    "GkslGenerator",
    "MomentumTransferLaw",
    "OdeSpec",
    "PositionDensityMatrix",
    "QuadratureSpec",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SpectralDensity",
    "Superoperator",
    "TwoPointMomentumLaw",
    "apply_generator",
    "build_discretized_generator",
    "canonical_form",
    "choi_of_propagator",
    "decoherence_factor",
    "detailed_balance_ratio",
    "errors",
    "evolve_exact",
    "fdt_response",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "integrate_constant",
    "integrate_time_dependent",
    "is_completely_positive",
    "log_mb_structure_factor",
    "matrix_exp",
    "mb_structure_factor",
    "propagate_semigroup",
    "semigroup_channel",
    "semigroup_propagator",
    "semigroup_trajectory",
    "to_superoperator",
    "unvec",
    "vec",
]
