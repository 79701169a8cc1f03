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

A `MulticolorCombination` holds its wavelengths with its weights, and is
built by `two_color_combination` or `synth_3wi`, which refuse wavelengths
outside the air model's band or not distinct.  Shot-noise limits combine the
single-color phase-length noises c / (2 sqrt(N_i) omega_i) in quadrature
with the combination weights, for N_i photons at wavelength i; the large
alpha/beta/gamma amplify the noise, which is the known cost of multicolor
dispersion compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import air_model
from .air_model import SPEED_OF_LIGHT, AirState
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class MulticolorCombination:
    """Wavelengths (m) and the weights on their phase-length observables;
    the weights sum to 1 and reconstruct L from (L_phi_i)."""

    wavelengths_m: tuple[float, ...]
    weights: tuple[float, ...]

    def reconstruct(self, phase_lengths_m) -> float:
        values = np.asarray(phase_lengths_m, dtype=float)
        if values.shape != (len(self.weights),):
            raise ValidationError("one phase length per weight")
        return float(np.dot(self.weights, values))


def _sigmas(wavelengths_m: Sequence[float]) -> list[float]:
    """Wavenumbers (um^-1) of in-band, distinct wavelengths."""
    sigmas = [air_model.Wavenumber.from_wavelength(lam).sigma for lam in wavelengths_m]
    if len(set(sigmas)) != len(sigmas):
        raise ValidationError("wavelengths must be distinct")
    return sigmas


def phase_lengths(wavelengths_m: Sequence[float], state: AirState, length_m: float) -> list[float]:
    """Observables n_phi(lambda_i, state) * L, one per wavelength."""
    air_model.check_length(length_m)
    return [
        float(air_model.phase_index(air_model.Wavenumber.from_wavelength(lam).sigma, state)) * length_m
        for lam in wavelengths_m
    ]


def two_color_combination(lambda1_m: float, lambda2_m: float) -> MulticolorCombination:
    """Weights (1+alpha, -alpha) with alpha = K(s1) / (K(s2) - K(s1));
    `humidity_bias` gives their uncompensated humidity error."""
    k1, k2 = map(air_model.k_dispersion, _sigmas((lambda1_m, lambda2_m)))
    if k2 == k1:
        raise DomainError("degenerate wavelength pair: K(lambda2) = K(lambda1)")
    alpha = k1 / (k2 - k1)
    return MulticolorCombination((lambda1_m, lambda2_m), (1.0 + alpha, -alpha))


def synth_3wi(lambda1_m: float, lambda2_m: float, lambda3_m: float) -> MulticolorCombination:
    """Three-color combination cancelling both X and P_w sensitivity.

    Solves beta (K2-K1) + gamma (K3-K1) = -K1 and the same with g for the
    water term; raises if the two dispersion curves are colinear across the
    chosen wavelengths.
    """
    wavelengths_m = (lambda1_m, lambda2_m, lambda3_m)
    sigmas = _sigmas(wavelengths_m)
    k1, k2, k3 = (air_model.k_dispersion(s) for s in sigmas)
    g1, g2, g3 = (air_model.water_term(s) for s in sigmas)
    system = np.array([[k2 - k1, k3 - k1], [g2 - g1, g3 - g1]])
    rhs = np.array([-k1, -g1])
    if abs(np.linalg.det(system)) < 1e-12 * np.abs(system).max() ** 2:
        raise DomainError("colinear dispersion: three-color system is singular")
    beta, gamma = np.linalg.solve(system, rhs)
    return MulticolorCombination(wavelengths_m, (1.0 - beta - gamma, float(beta), float(gamma)))


def shot_noise(comb: MulticolorCombination, photons: Sequence[float]) -> float:
    """Shot-noise limit of the reconstructed distance for photons[i] photons
    at wavelength i: channel noises weighted by the combination and added in
    quadrature."""
    if len(photons) != len(comb.wavelengths_m):
        raise ValidationError("one photon number per wavelength")
    for n in photons:
        if not 1.0 <= n < math.inf:
            raise ValidationError(f"photons={n} must be finite and >= 1")
    omegas = [2.0 * math.pi * SPEED_OF_LIGHT / lam for lam in comb.wavelengths_m]
    channel = np.array([SPEED_OF_LIGHT / (2.0 * math.sqrt(n) * w) for n, w in zip(photons, omegas)])
    weighted = np.asarray(comb.weights) * channel
    # sqrt(v.v) is what np.linalg.norm computes for a real vector
    return math.sqrt(weighted.dot(weighted))


def humidity_bias(comb: MulticolorCombination, state: AirState, length_m: float) -> float:
    """Reconstruction error (m) of the combination in the given air: the
    uncorrected humidity systematic of the two-color scheme, zero to
    rounding for the three-color one."""
    return comb.reconstruct(phase_lengths(comb.wavelengths_m, state, length_m)) - length_m
