"""Deterministic models behind quantum evolution: permutation dynamics and
their exact unitary representation, slow states driven by fast clock
variables, ground-state effective Hamiltonians with exact rational couplings,
and Bell/CHSH correlation analysis."""

from .ontodyn import (
    CycleDecomposition,
    Cycles,
    CycleSpectrum,
    InternalCheckError,
    MalformedLawError,
    PermutationLaw,
    SizeCapError,
    cycle_spectrum,
    decompose,
    evolve_basis_state,
    law_power,
    permutation_matrix,
    spectral_decomposition,
)
from .fastslow import (
    ClassicalConfig,
    ConflictingSwapError,
    FastPeriodWarning,
    ModelValidationError,
    OntologicalModel,
    SpecialPoint,
    check_bijectivity,
    enumerate_exact,
    load_model,
    run_ensemble,
    step,
)
from .quantize import (
    EffectiveHamiltonian,
    InterchangeHamiltonian,
    NotRepresentableError,
    UnreachableToleranceError,
    build_full_hamiltonian,
    build_interchange,
    compare_dynamics,
    compile_target,
    ground_project,
    koopman_step_operator,
    schrodinger_evolve,
)
from .bellkit import (
    ChshResult,
    FactorizedModel,
    STANDARD_SETTINGS,
    chsh_score,
    correlated_expectation,
    factorized_correlation,
    malus_deterministic_model,
    marginal_flatness,
    quantum_correlation,
    sample_triples,
)

__version__ = "0.1.0"
