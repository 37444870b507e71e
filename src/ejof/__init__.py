"""Effective Lindbladians for perturbed open systems with a DFS.

The package computes the second-order effective generator governing dynamics
inside a decoherence-free subspace, by an exact resolvent formula and by a
closed effective-operator form, and provides scenario constructions, a
continuous-error-correction robustness suite, and dynamics validation.
"""

from .operators import (
    Corners,
    DfsProjector,
    dagger,
    four_corners,
    frob,
)
from .lindblad import (
    SingularBlockError,
    SpectralGapWarning,
    StructureError,
    StructuredLindbladian,
    StructureReport,
    assemble_lindbladian,
    asymptotic_projection_analytic,
    asymptotic_projection_limit,
    decay_rates,
    min_decay_rate,
    nh_hamiltonian_inverse,
    nh_superop_inverse_lr,
    structured_lindbladian,
)
from .effective import (
    EffectiveGenerator,
    EquivalenceReport,
    IdentityReport,
    CornerSensitivityReport,
    Perturbation,
    Study,
    corner_sensitivity,
    effective_coupling,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    identity_suite,
    perturbed_superop,
    random_structured_instance,
    verify_equivalence,
)
from .scenarios import (
    CancellationReport,
    ThreeLevelParams,
    cancellation_check,
    coherent_cancellation_drive,
    orthogonality_residual,
    pauli_lowering_targets,
    random_orthogonal_family,
    surjectivity_residual,
    three_level_system,
    universal_dissipation,
)
from .qec import (
    MiscalibrationEntry,
    ObstructionTable,
    RobustnessReport,
    check_recovery_conditions,
    classify_miscalibration,
    correctability_check,
    hamiltonian_obstruction_demo,
    pauli_miscalibration,
    pauli_on_qubit,
    repetition_code_recovery,
    robustness_check,
)
from .dynamics import (
    ConvergenceFit,
    SweepConfig,
    SweepTable,
    convergence_order,
    drift_constants,
    evolve_and_compare,
    validate_initial_state,
)

__version__ = "0.1.0"
