"""Two- and three-wavelength interferometry baselines.

The phase-length observable at each color is L_phi_i = n_phi(lambda_i) L.
Two-wavelength interferometry reconstructs the dry-air distance as

    L = L_phi1 + alpha (L_phi1 - L_phi2),  alpha = K1 / (K2 - K1),

exactly for any (T, P, x) because the density factor X multiplies every
K(sigma) alike; humidity is NOT cancelled and leaves the systematic error
-L P_w (g1 + alpha (g1 - g2)).  The three-wavelength combination

    L = L_phi1 + beta (L_phi2 - L_phi1) + gamma (L_phi3 - L_phi1)

cancels both the X and the P_w dependence; (beta, gamma) solve the 2x2
first-order cancellation system, and since n - 1 is exactly linear in X and
P_w the cancellation is in fact exact, not merely first order.

Shot-noise limits combine the single-color phase-length noises
c / (2 sqrt(N_i) omega_i) in quadrature with the combination weights; the
large alpha/beta/gamma amplify the noise, which is the known cost of
multicolor dispersion compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import air_model
from .air_model import SPEED_OF_LIGHT, AirState
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class WavelengthSet:
    """Ordered distinct wavelengths (m) with per-channel photon numbers."""

    wavelengths_m: tuple[float, ...]
    photons: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wavelengths_m", tuple(float(w) for w in self.wavelengths_m))
        object.__setattr__(self, "photons", tuple(float(n) for n in self.photons))
        if len(self.wavelengths_m) not in (2, 3):
            raise ValidationError("wavelength set needs 2 or 3 entries")
        if len(self.photons) != len(self.wavelengths_m):
            raise ValidationError("one photon number per wavelength")
        if len(set(self.wavelengths_m)) != len(self.wavelengths_m):
            raise ValidationError("wavelengths must be distinct")
        for lam in self.wavelengths_m:
            air_model.Wavenumber.from_wavelength(lam)  # validity band check
        for n in self.photons:
            if not n >= 1.0:
                raise ValidationError(f"photon number {n} must be >= 1")

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(1e-6 / lam for lam in self.wavelengths_m)

    @property
    def omegas(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi * SPEED_OF_LIGHT / lam for lam in self.wavelengths_m)


@dataclass(frozen=True)
class MulticolorCombination:
    """Weights on the phase-length observables and their residuals.

    weights sum to 1 and reconstruct L from (L_phi_i).  residual_x and
    residual_pw are the first-order sensitivities of the combination,
    d(combination)/(L dX) and d(combination)/(L dP_w) [1/Pa]; they vanish
    for every parameter the scheme compensates.
    """

    weights: tuple[float, ...]
    residual_x: float
    residual_pw: float

    def reconstruct(self, phase_lengths_m) -> float:
        values = np.asarray(phase_lengths_m, dtype=float)
        if values.shape != (len(self.weights),):
            raise ValidationError("one phase length per weight")
        return float(np.dot(self.weights, values))


def phase_lengths(ws: WavelengthSet, state: AirState, length_m: float) -> list[float]:
    """Observables n_phi(lambda_i, state) * L, one per wavelength."""
    if not length_m > 0.0:
        raise ValidationError(f"length_m={length_m} must be > 0")
    return [float(air_model.phase_index(s, state)) * length_m for s in ws.sigmas]


def alpha_2wi(lambda1_m: float, lambda2_m: float) -> float:
    """Two-color correction factor alpha = K(s1) / (K(s2) - K(s1))."""
    s1 = air_model.Wavenumber.from_wavelength(lambda1_m).sigma
    s2 = air_model.Wavenumber.from_wavelength(lambda2_m).sigma
    k1 = air_model.k_dispersion(s1)
    k2 = air_model.k_dispersion(s2)
    if k2 == k1:
        raise DomainError("degenerate wavelength pair: K(lambda2) = K(lambda1)")
    return k1 / (k2 - k1)


def two_color_combination(ws: WavelengthSet) -> MulticolorCombination:
    """Weights (1+alpha, -alpha) and the uncompensated humidity residual."""
    if len(ws.wavelengths_m) != 2:
        raise ValidationError("two-color combination needs exactly 2 wavelengths")
    alpha = alpha_2wi(*ws.wavelengths_m)
    g1 = air_model.water_term(ws.sigmas[0])
    g2 = air_model.water_term(ws.sigmas[1])
    return MulticolorCombination(
        weights=(1.0 + alpha, -alpha),
        residual_x=0.0,
        residual_pw=-(g1 + alpha * (g1 - g2)),
    )


def _channel_shot_noise(ws: WavelengthSet) -> np.ndarray:
    return np.array(
        [SPEED_OF_LIGHT / (2.0 * math.sqrt(n) * w) for n, w in zip(ws.photons, ws.omegas)]
    )


def shot_noise(ws: WavelengthSet, comb: MulticolorCombination) -> float:
    """Shot-noise limit of the reconstructed distance: channel noises
    weighted by the combination and added in quadrature."""
    if len(comb.weights) != len(ws.wavelengths_m):
        raise ValidationError("one combination weight per wavelength")
    return float(np.linalg.norm(np.asarray(comb.weights) * _channel_shot_noise(ws)))


def humidity_bias(
    ws: WavelengthSet, comb: MulticolorCombination, state: AirState, length_m: float
) -> float:
    """Reconstruction error (m) of the combination in the given air: the
    uncorrected humidity systematic of the two-color scheme, zero to
    rounding for the three-color one."""
    return comb.reconstruct(phase_lengths(ws, state, length_m)) - length_m


def synth_3wi(lambda1_m: float, lambda2_m: float, lambda3_m: float) -> MulticolorCombination:
    """Three-color combination cancelling both X and P_w sensitivity.

    Solves beta (K2-K1) + gamma (K3-K1) = -K1 and the same with g for the
    water term; raises if the two dispersion curves are colinear across the
    chosen wavelengths.
    """
    sigmas = [air_model.Wavenumber.from_wavelength(lam).sigma for lam in (lambda1_m, lambda2_m, lambda3_m)]
    if len(set(sigmas)) != 3:
        raise ValidationError("wavelengths must be distinct")
    k1, k2, k3 = (air_model.k_dispersion(s) for s in sigmas)
    g1, g2, g3 = (air_model.water_term(s) for s in sigmas)
    system = np.array([[k2 - k1, k3 - k1], [g2 - g1, g3 - g1]])
    rhs = np.array([-k1, -g1])
    if abs(np.linalg.det(system)) < 1e-12 * np.abs(system).max() ** 2:
        raise DomainError("colinear dispersion: three-color system is singular")
    beta, gamma = np.linalg.solve(system, rhs)
    return MulticolorCombination(
        weights=(1.0 - beta - gamma, float(beta), float(gamma)),
        residual_x=float(k1 + beta * (k2 - k1) + gamma * (k3 - k1)),
        residual_pw=-float(g1 + beta * (g2 - g1) + gamma * (g3 - g1)),
    )
