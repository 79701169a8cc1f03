"""Ranging perturbations and their exact spectral-phase gradients.

Propagation over a length L multiplies the spectrum by exp(i k(omega) L)
with k = n_phi(omega) omega / c and n_phi - 1 = K(sigma) X - g(sigma) P_w.
The phase is linear in each ranging parameter (length L, density factor X,
water vapour P_w), so its gradient times an offset is the exact extra
phase:

    dphi/dL = n_phi omega / c,  dphi/dX = K omega L / c,  dphi/dP_w = -g omega L / c.

As n_phi is linear in X and P_w, dphi/dL = omega / c + X dphi/dX + P_w dphi/dP_w
with both taken over 1 m; omega / c is dphi/dL at X = P_w = 0, where n_phi = 1.

A 0.1 rad linearity guard at omega0 +/- 2 delta_omega protects the
first-order signal model built on these gradients.

Perturbations are offsets from a reference (state, length) baseline; the
baseline propagation phase itself drops out because signal and local
oscillator are taken phase-locked.
"""

from __future__ import annotations

import numpy as np

from . import air_model
from .air_model import SPEED_OF_LIGHT, AirState
from .errors import DomainError, ValidationError
from .mode_algebra import GaussianPulse

LINEARITY_GUARD_RAD = 0.1

RANGING_LABELS = ("L", "X", "Pw")


def phase_gradient(
    label: str,
    omega: np.ndarray,
    state: AirState,
    length_m: float,
) -> np.ndarray:
    """d(spectral phase)/d(parameter) on a grid; exact in each parameter.
    The one place each label's gradient is written."""
    w = np.asarray(omega, dtype=float)
    sigma = air_model.sigma_from_omega(w)
    if label == "L":
        return air_model.phase_index(sigma, state) * w / SPEED_OF_LIGHT
    if label == "X":
        return air_model.k_dispersion(sigma) * w * length_m / SPEED_OF_LIGHT
    if label == "Pw":
        return -air_model.water_term(sigma) * w * length_m / SPEED_OF_LIGHT
    raise ValidationError(f"unknown parameter label {label!r}")


def check_linearity(
    values: tuple[float, float, float],
    pulse: GaussianPulse,
    state: AirState,
    length_m: float,
) -> None:
    """Enforce the < 0.1 rad guard at omega0 +/- 2 delta_omega on the offsets
    (p_L [m], p_X [dimensionless], p_Pw [Pa]), in RANGING_LABELS order."""
    edges = np.array([pulse.omega0 - 2 * pulse.delta_omega, pulse.omega0 + 2 * pulse.delta_omega])
    for label, value in zip(RANGING_LABELS, values, strict=True):
        if value == 0.0:
            continue
        grad = phase_gradient(label, edges, state, length_m)
        # max|value * grad| to the bit; a float product overflows to inf without a warning
        worst = abs(value) * float(np.max(np.abs(grad)))
        if worst >= LINEARITY_GUARD_RAD:
            raise DomainError(
                f"perturbation {label}={value} drives the spectral phase to "
                f"{worst:.3g} rad at omega0 +/- 2 delta_omega "
                f"(guard {LINEARITY_GUARD_RAD} rad); use exact propagation"
            )
