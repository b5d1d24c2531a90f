"""Generalized Pauli channels over mutually unbiased bases.

Construction and validation of channels, closed-form extremal fidelities
and maximal output norms, brute-force verification oracles, and
time-parametrized channel families.
"""

__version__ = "0.1.0"

from .channel import (
    GeneralizedPauliChannel,
    Spectrum,
    apply_channel,
    channel_from_dict,
    channel_from_eigenvalues,
    channel_from_probabilities,
    choi_of,
    compose,
    depolarizing_channel,
    fujiwara_algoet_check,
    identity_channel,
    load_channel_file,
    probabilities_of,
    spectrum_of,
    superoperator_of,
    tensor_power,
)
from .dynamics import (
    EvolutionSpec,
    eigenvalue_trajectory,
    exponential_evolution,
    load_evolution_file,
    sampled_evolution,
    timeline_report,
    validate_trajectory,
)
from .errors import (
    BadProbabilitiesError,
    DimensionMismatchError,
    FamilyMismatchError,
    GpcError,
    InvalidTrajectoryError,
    MubValidationError,
    NotCPTPError,
    OutOfRangeError,
    TooLargeError,
    UnsupportedDimensionError,
)
from .metrics import (
    FidelityReport,
    channel_fidelity,
    composition_two_norm_residual,
    fidelity_extremes,
    fidelity_report,
    max_output_2norm,
    max_output_inf_norm,
    multiplicativity_flags,
    regularized_max_fidelity,
    spectral_figures,
    unitary_coefficients,
)
from .mub import (
    MubFamily,
    basis_unitary,
    build_mub_family,
    load_mub_file,
    save_mub_file,
    validate_mub_family,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    ProbeReport,
    ScanReport,
    SpectrumGrid,
    cptp_equivalence_scan,
    eigenrelation_residual,
    extremize_self_fidelity,
    maximize_output_2norm,
    maximize_output_inf_norm,
    mub_seed_states,
    product_seed_states,
    random_pure_state,
    tensor_fidelity_probe,
)
