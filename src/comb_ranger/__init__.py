"""Dispersion-immune distance measurement with optical frequency combs.

Submodules:

    air_model   Boensch-Potulski refractive index of air and its derivatives
    mode_algebra  Hermite-Gauss spectral modes and inner products
    dispersion  spectral-phase propagation and its second-order expansion
    detection   homodyne detection modes, linearized field, exact
                purification, shot-noise limits
    multicolor  two-/three-wavelength interferometry baselines
    simulator   seeded Monte Carlo of the shaped-LO measurement
    config/cli  run configuration and command-line front end
"""

from .air_model import (
    AirState,
    DispersionScalars,
    SPEED_OF_LIGHT,
    Wavenumber,
    density_factor,
    dispersion_scalars,
    group_index,
    k_dispersion,
    phase_index,
    water_term,
)
from .detection import (
    DetectionMode,
    LinearizedField,
    PurifiedSensitivity,
    SensitivityReport,
    contamination_report,
    homodyne_signal,
    linearized_field,
    min_detectable,
    numeric_detection_mode,
    purified_ranging_sensitivity,
    purify,
    ranging_modes,
    time_detection_modes,
)
from .dispersion import (
    DelayTriple,
    PerturbationVector,
    apply_spectral_phase,
    expansion_times,
)
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import (
    GaussianPulse,
    SpectralMode,
    gaussian_mode,
    hermite_gauss,
    inner_product,
    quadrature_inner_product,
    sampling_grid,
)
from .multicolor import (
    MulticolorCombination,
    WavelengthSet,
    alpha_2wi,
    humidity_systematic_2wi,
    phase_lengths,
    shot_noise_2wi,
    shot_noise_3wi,
    synth_3wi,
    two_color_combination,
)
from .simulator import SimConfig, SimResult, immunity_report, run

__all__ = [
    "AirState",
    "DelayTriple",
    "DetectionMode",
    "DispersionScalars",
    "DomainError",
    "GaussianPulse",
    "LinearizedField",
    "MulticolorCombination",
    "PerturbationVector",
    "PurifiedSensitivity",
    "SensitivityReport",
    "SeparabilityError",
    "SimConfig",
    "SimResult",
    "SPEED_OF_LIGHT",
    "SpectralMode",
    "ValidationError",
    "WavelengthSet",
    "Wavenumber",
    "alpha_2wi",
    "apply_spectral_phase",
    "contamination_report",
    "density_factor",
    "dispersion_scalars",
    "expansion_times",
    "gaussian_mode",
    "group_index",
    "hermite_gauss",
    "homodyne_signal",
    "humidity_systematic_2wi",
    "immunity_report",
    "inner_product",
    "k_dispersion",
    "linearized_field",
    "min_detectable",
    "numeric_detection_mode",
    "phase_index",
    "phase_lengths",
    "purified_ranging_sensitivity",
    "purify",
    "quadrature_inner_product",
    "ranging_modes",
    "run",
    "sampling_grid",
    "shot_noise_2wi",
    "shot_noise_3wi",
    "synth_3wi",
    "time_detection_modes",
    "two_color_combination",
    "water_term",
]
