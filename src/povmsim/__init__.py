"""Joint measurability of noisy qubit POVMs.

A single Haar-random projective parent measurement plus classical
post-processing simulates every qubit POVM at visibility 1/2, and the same
machinery yields a local hidden state model for two-qubit Werner states of
that visibility.  This package builds the construction, verifies it exactly
and by Monte Carlo, and evaluates the CHSH consequences.
"""

from .bloch import (
    FRAME_ATOL,
    ROUND_OFF,
    VALIDATION_ATOL,
    NotPositiveError,
    PauliOperator,
    eigen_rank1_split,
    is_psd,
    is_rotation,
    random_unit_vectors,
    rotation_from_euler_zyz,
    to_dense,
)
from .frames import (
    OCTANT_LABELS,
    OCTANT_SIGNS,
    CubeVertices,
    FrameCertificate,
    FrameMethod,
    FrameNotFoundError,
    evaluate_frame,
    find_frame,
    positive_part,
    projection_mass,
    total_vertex_mass,
)
from .jointmeas import (
    ConditionalProbabilityTable,
    DecompositionReport,
    InvalidFrameError,
    OctantOperator,
    SimulationReport,
    build_table,
    noise_weights,
    octant_index,
    octant_operators,
    simulate_statistics,
    verify_decomposition,
)
from .povm import (
    GenerationFailedError,
    InvalidStateError,
    NotAPovmError,
    PovmValidation,
    QubitPovm,
    born,
    born_probabilities,
    canonicalize,
    fixture_path,
    load_povm,
    noisy_element,
    povm_from_dict,
    povm_to_dict,
    projective_povm,
    random_povm,
    save_povm,
    sic_povm,
    trine_povm,
    validate,
)
from .stats import ChiSquaredResult, chi_squared_test, z_scores
from .werner import (
    JointDistribution,
    LhsModel,
    bob_conditional_state,
    chsh_correlator,
    chsh_optimal_settings,
    chsh_value,
    lhs_model,
    werner_joint_quantum,
)

__version__ = "0.1.0"
