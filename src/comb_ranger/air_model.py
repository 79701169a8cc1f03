"""Refractive index of air after Boensch & Potulski (updated Edlen equation).

Phase index of standard-composition moist air,

    n_phi(sigma, T, P, x, P_w) - 1 = K(sigma) * X(T, P, x) - g(sigma) * P_w

with sigma = 1/lambda the vacuum wavenumber in um^-1, temperature T in
degrees Celsius, total pressure P and water-vapor partial pressure P_w in
pascal, and CO2 content x in percent by volume.  K is the two-resonance
dispersion function, X the density factor, g the water-vapor correction.
Reference: G. Boensch and E. Potulski, Metrologia 35, 133 (1998); quoted
accuracy is a few 1e-9 for dry air and ~1e-8 for moist air inside the
stated validity window.

Beware a misprint circulating in secondary sources: the density
normalization constant is D = 93214.60 Pa.  The corrupted value 932164.60
(one extra digit) makes n-1 come out an order of magnitude too small; the
standard-air check in the test suite pins the correct one (n-1 ~ 2.7e-4 at
633 nm, 20 C, 101325 Pa).

Everything here is a pure function of its arguments; sigma arguments accept
scalars or numpy arrays, except that group_index, k_derivatives and
g_derivatives take a scalar.  For a float sigma (np.float64 included),
k_dispersion and water_term return a Python float.  Angular
frequencies are rad/s at module boundaries, converted here via
omega = 2*pi*c*sigma (sigma per meter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

# Dispersion function K(sigma) = 1e-8 (A + B/(130-sigma^2) + C/(38.9-sigma^2))
COEFF_A = 8091.37
COEFF_B = 2333983.0
COEFF_C = 15518.0

# Density factor X(T,P,x) = P/D (1 + 1e-8 (E - F T) P)/(1 + G T) [1 + H (x-0.04%)]
COEFF_D = 93214.60  # Pa; see module docstring for the misprint warning
COEFF_E = 0.5953
COEFF_F = 0.009876
COEFF_G = 0.0036610
COEFF_H = 0.5327  # per unit CO2 *fraction*; x is handed over in percent

# Water-vapor term g(sigma) = 1e-10 (I - J sigma^2), in 1/Pa
COEFF_I = 3.802
COEFF_J = 0.0384

# Resonance poles of K(sigma) in sigma^2, and the guard band around them.
POLE_NEAR = 38.9  # um^-2
POLE_FAR = 130.0  # um^-2
POLE_GUARD = 1e-6
_NEAR_POLE_MESSAGE = (
    f"sigma^2 within {POLE_GUARD} of the {POLE_NEAR} um^-2 resonance "
    "pole (or beyond); outside model validity"
)

# Carrier wavelengths accepted at input, in metres.  The lower bound lies
# past the near pole (sigma^2 = 38.9 um^-2 at 160 nm), so every carrier the
# pole check refuses as out of model validity still reaches that check; the
# upper bound is the far infrared, where rotational water lines dominate and
# the two-resonance dispersion formula no longer describes air.  Far outside,
# sigma^2 overflows (1e-300 m) or omega0 and the mode vectors underflow to
# zero (1e300 m); the window refuses those before any arithmetic.
WAVELENGTH_MIN_M = 100e-9
WAVELENGTH_MAX_M = 100e-6

# Path lengths accepted at input: from a micrometre, about one carrier
# wavelength, to 1000 km, beyond any path through the atmosphere.  Far
# outside, the figures that scale with the length leave the double range: at
# 1e300 m the report's 2 sqrt(N) K_X overflows and min_X reads 0, at 1e-300 m
# K_L / K_Pw overflows to an infinite M[Pw][L], and at inf the multicolor
# humidity bias reads NaN.
LENGTH_MIN_M = 1e-6
LENGTH_MAX_M = 1e6

# Model validity window for temperature; inputs outside are rejected, never
# extrapolated.
TEMPERATURE_MIN_C = -40.0
TEMPERATURE_MAX_C = 100.0

# Upper bounds of the state.  At 1e6 Pa (ten atmospheres) the second-order
# density term 1e-8 (E - F T) P is still under 1 % of the first; far beyond,
# the formula is an extrapolation, and near 1e154 Pa its P**2 overflows.
# CO2 is a percentage by volume.
PRESSURE_MAX_PA = 1e6
CO2_MAX_PERCENT = 100.0

# d(sigma[um^-1]) / d(omega[rad/s])
_DSIGMA_DOMEGA = 1e-6 / (2.0 * math.pi * SPEED_OF_LIGHT)


@dataclass(frozen=True, init=False)
class AirState:
    """Environmental parameter set feeding the index model.

    temperature_c in degrees Celsius, pressure_pa and water_vapor_pa in
    pascal, co2_percent in percent by volume (0.04 = 400 ppm).
    """

    temperature_c: float
    pressure_pa: float
    co2_percent: float
    water_vapor_pa: float

    # written out, not generated: the checks run in the one frame that sets the fields
    def __init__(self, temperature_c: float, pressure_pa: float, co2_percent: float, water_vapor_pa: float) -> None:
        if not TEMPERATURE_MIN_C <= temperature_c <= TEMPERATURE_MAX_C:
            raise ValidationError(
                f"temperature_c={temperature_c} outside model window "
                f"[{TEMPERATURE_MIN_C}, {TEMPERATURE_MAX_C}] C"
            )
        if not 0.0 <= pressure_pa <= PRESSURE_MAX_PA:
            raise ValidationError(f"pressure_pa={pressure_pa} must be finite and in [0, {PRESSURE_MAX_PA:g}]")
        if not 0.0 <= co2_percent <= CO2_MAX_PERCENT:
            raise ValidationError(f"co2_percent={co2_percent} must be finite and in [0, {CO2_MAX_PERCENT:g}]")
        if not 0.0 <= water_vapor_pa <= PRESSURE_MAX_PA:
            raise ValidationError(f"water_vapor_pa={water_vapor_pa} must be finite and in [0, {PRESSURE_MAX_PA:g}]")
        if water_vapor_pa > pressure_pa:
            raise ValidationError(
                f"water_vapor_pa={water_vapor_pa} exceeds total pressure_pa={pressure_pa}"
            )
        object.__setattr__(self, "temperature_c", temperature_c)
        object.__setattr__(self, "pressure_pa", pressure_pa)
        object.__setattr__(self, "co2_percent", co2_percent)
        object.__setattr__(self, "water_vapor_pa", water_vapor_pa)

    @classmethod
    def standard(cls) -> "AirState":
        """Standard dry air: 20 C, 101325 Pa, 0.04 % CO2, no water vapor."""
        return cls(20.0, 101325.0, 0.04, 0.0)


@dataclass(frozen=True)
class DispersionScalars:
    """Dimensionless log-derivative ratios of K and g at the carrier.

    delta1 = w0 K'(w0)/K(w0),  delta2 = w0^2 K''(w0) / (2 K(w0)),
    eta1   = w0 g'(w0)/g(w0),  eta2   = w0^2 g''(w0) / (2 g(w0)),
    primes with respect to angular frequency.  They depend on the carrier
    only, never on the environmental state.
    """

    delta1: float
    delta2: float
    eta1: float
    eta2: float


def check_wavelength(wavelength_m: float) -> None:
    """Refuse a carrier outside [WAVELENGTH_MIN_M, WAVELENGTH_MAX_M] (or NaN)."""
    if not WAVELENGTH_MIN_M <= wavelength_m <= WAVELENGTH_MAX_M:
        raise ValidationError(
            f"wavelength_m={wavelength_m} must be finite and in "
            f"[{WAVELENGTH_MIN_M:g}, {WAVELENGTH_MAX_M:g}] m"
        )


def check_length(length_m: float) -> None:
    """Refuse a path length outside [LENGTH_MIN_M, LENGTH_MAX_M] (or NaN)."""
    if not LENGTH_MIN_M <= length_m <= LENGTH_MAX_M:
        raise ValidationError(
            f"length_m={length_m} must be finite and in [{LENGTH_MIN_M:g}, {LENGTH_MAX_M:g}] m"
        )


def sigma_from_wavelength(wavelength_m: float) -> float:
    """Vacuum wavelength m -> wavenumber sigma = 1/lambda in um^-1, refusing a
    carrier outside the wavelength window or at the near resonance pole."""
    check_wavelength(wavelength_m)
    sigma = 1e-6 / wavelength_m
    _check_sigma_domain(sigma)
    return sigma


def sigma_from_omega(omega):
    """Angular frequency rad/s -> wavenumber um^-1."""
    return omega * _DSIGMA_DOMEGA


def omega_from_sigma(sigma):
    """Vacuum wavenumber um^-1 -> angular frequency rad/s."""
    return sigma / _DSIGMA_DOMEGA


def _check_sigma_domain(sigma):
    """sigma^2, refusing a wavenumber that is not finite or that lies at the
    near resonance pole or beyond; the formulas below take this sigma^2."""
    # K and g are even in sigma, so the dispersion functions accept the even
    # continuation to sigma < 0 (needed by quadrature grids whose Gaussian
    # tail formally crosses omega = 0); a carrier's wavenumber from
    # sigma_from_wavelength is positive.
    if isinstance(sigma, float):
        # A scalar (np.float64 included) takes plain float arithmetic: the
        # same correctly rounded square and comparisons as the array path,
        # without numpy's per-call overhead on the designer's scalar calls.
        s = float(sigma)
        s2 = s * s
        if not math.isfinite(s2):
            raise DomainError("sigma must be finite")
        if s2 >= POLE_NEAR - POLE_GUARD:
            raise DomainError(_NEAR_POLE_MESSAGE)
        return s2
    s2 = np.square(sigma)
    if not np.all(np.isfinite(s2)):
        raise DomainError("sigma must be finite")
    if np.any(s2 >= POLE_NEAR - POLE_GUARD):
        raise DomainError(_NEAR_POLE_MESSAGE)
    return s2


def _k_of_s2(s2):
    return 1e-8 * (COEFF_A + COEFF_B / (POLE_FAR - s2) + COEFF_C / (POLE_NEAR - s2))


def _g_of_s2(s2):
    return 1e-10 * (COEFF_I - COEFF_J * s2)


def k_dispersion(sigma):
    """Dispersion function K(sigma), dimensionless; sigma in um^-1."""
    return _k_of_s2(_check_sigma_domain(sigma))


def k_derivatives(sigma: float) -> tuple[float, float, float]:
    """(K, dK/dsigma, d2K/dsigma2) with analytic rational forms."""
    s2 = _check_sigma_domain(sigma)
    u = POLE_FAR - s2
    v = POLE_NEAR - s2
    k1 = 1e-8 * (2.0 * COEFF_B * sigma / u**2 + 2.0 * COEFF_C * sigma / v**2)
    k2 = 1e-8 * (
        2.0 * COEFF_B / u**2
        + 8.0 * COEFF_B * s2 / u**3
        + 2.0 * COEFF_C / v**2
        + 8.0 * COEFF_C * s2 / v**3
    )
    return _k_of_s2(s2), k1, k2


def water_term(sigma):
    """Water-vapor dispersion g(sigma) in 1/Pa; sigma in um^-1."""
    return _g_of_s2(_check_sigma_domain(sigma))


def g_derivatives(sigma: float) -> tuple[float, float, float]:
    """(g, dg/dsigma, d2g/dsigma2); the polynomial form makes these exact."""
    return water_term(sigma), -2e-10 * COEFF_J * sigma, -2e-10 * COEFF_J


def density_factor(state: AirState) -> float:
    """Density factor X(T, P, x), dimensionless; proportional to P.

    The CO2 bracket follows the published form 1 + H (x_frac - 0.0004) with
    x_frac the content by volume; co2_percent is converted accordingly.
    """
    t = state.temperature_c
    p = state.pressure_pa
    co2 = 1.0 + COEFF_H * (state.co2_percent - 0.04) * 1e-2
    return (
        (p / COEFF_D)
        * (1.0 + 1e-8 * (COEFF_E - COEFF_F * t) * p)
        / (1.0 + COEFF_G * t)
        * co2
    )


def phase_index(sigma, state: AirState):
    """Phase refractive index n_phi(sigma, state); exactly 1 in vacuum."""
    s2 = _check_sigma_domain(sigma)
    return 1.0 + _k_of_s2(s2) * density_factor(state) - _g_of_s2(s2) * state.water_vapor_pa


def group_index(sigma, state: AirState):
    """Group index n_g = n_phi + sigma dn_phi/dsigma.

    Satisfies n_g - n_phi = sigma (K'(sigma) X - g'(sigma) P_w).
    """
    k, k1, _ = k_derivatives(sigma)
    g, g1, _ = g_derivatives(sigma)
    x = density_factor(state)
    return 1.0 + (k + sigma * k1) * x - (g + sigma * g1) * state.water_vapor_pa


def dispersion_scalars(omega0: float) -> DispersionScalars:
    """Carrier-only dispersion ratios delta1, delta2, eta1, eta2.

    Formed from sigma-derivatives via the chain rule; the omega/sigma scale
    factors cancel, so e.g. delta1 = sigma0 K'(sigma0)/K(sigma0).
    """
    sigma0 = sigma_from_omega(omega0)
    if not sigma0 > 0.0:
        raise ValidationError(f"omega0={omega0} must be > 0")
    k, k1, k2 = k_derivatives(sigma0)
    g, g1, g2 = g_derivatives(sigma0)
    return DispersionScalars(
        delta1=sigma0 * k1 / k,
        delta2=sigma0**2 * k2 / (2.0 * k),
        eta1=sigma0 * g1 / g,
        eta2=sigma0**2 * g2 / (2.0 * g),
    )
