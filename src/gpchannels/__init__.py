"""Generalized Pauli channels over mutually unbiased bases.

Construction and validation of channels, closed-form extremal fidelities
and maximal output norms, brute-force verification oracles, and
time-parametrized channel families.

Importing the package loads the ``channel``, ``errors`` and ``mub`` layers.
The names of the ``metrics``, ``oracle`` and ``dynamics`` layers are
exported too, but their module is imported on the first access to one of
them, so that a command that runs none of those layers never pays for
loading them.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .channel import (
    GeneralizedPauliChannel,
    OracleConfig,  # defined with the search defaults; oracle re-exports it
    Spectrum,
    channel_from_dict,
    channel_from_eigenvalues,
    channel_from_probabilities,
    compose,
    fujiwara_algoet_check,
    probabilities_of,
    spectrum_of,
    superoperator_of,
    tensor_power,
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
from .mub import (
    MubFamily,
    build_mub_family,
    validate_mub_family,
)

#: the exports resolved on first access, by the layer that defines them
_LAZY = {
    "dynamics": ("EvolutionSpec", "exponential_evolution", "sampled_evolution",
                 "timeline_report", "validate_trajectory"),
    "metrics": ("composition_two_norm_residual", "fidelity_extremes", "fidelity_report",
                "max_output_2norm", "max_output_inf_norm", "spectral_figures"),
    "oracle": ("OracleResult", "ProbeReport", "ScanReport", "SpectrumGrid",
               "cptp_equivalence_scan", "eigenrelation_residual", "extremize_self_fidelity",
               "maximize_output_2norm", "maximize_output_inf_norm", "mub_seed_states",
               "product_seed_states", "random_pure_state", "tensor_fidelity_probe"),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAYER_OF)
)


def __getattr__(name):
    """An export of a layer that is not loaded yet: import the layer and read the name."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{layer}"), name)
