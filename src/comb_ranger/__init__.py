"""Dispersion-immune distance measurement with optical frequency combs.

Submodules:

    air_model   Boensch-Potulski refractive index of air and its derivatives
    mode_algebra  Hermite-Gauss spectral modes and inner products
    dispersion  ranging perturbations, exact phase gradients, linearity guard
    detection   ranging detection modes, exact purification, shot-noise
                limits, contamination report
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
    PurifiedSensitivity,
    SensitivityReport,
    contamination_report,
    min_detectable,
    numeric_detection_mode,
    purify,
    ranging_modes,
)
from .dispersion import PerturbationVector
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import (
    GaussianPulse,
    SpectralMode,
    hermite_gauss,
    inner_product,
)
from .multicolor import (
    MulticolorCombination,
    humidity_bias,
    phase_lengths,
    shot_noise,
    synth_3wi,
    two_color_combination,
)
from .simulator import SimConfig, SimResult, run

__all__ = [
    "AirState",
    "DetectionMode",
    "DispersionScalars",
    "DomainError",
    "GaussianPulse",
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
    "Wavenumber",
    "contamination_report",
    "density_factor",
    "dispersion_scalars",
    "group_index",
    "hermite_gauss",
    "humidity_bias",
    "inner_product",
    "k_dispersion",
    "min_detectable",
    "numeric_detection_mode",
    "phase_index",
    "phase_lengths",
    "purify",
    "ranging_modes",
    "run",
    "shot_noise",
    "synth_3wi",
    "two_color_combination",
    "water_term",
]
