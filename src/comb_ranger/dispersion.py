"""Spectral-phase propagation through air and its second-order expansion.

Propagation over a length L multiplies the spectrum by exp(i k(omega) L)
with k = n_phi(omega) omega / c.  Around the carrier the phase expands as

    omega0 t_phi + (omega - omega0) t_g + (omega - omega0)^2 / omega0 * t_gvd

with the phase delay t_phi = n_phi L/c, group delay t_g = n_g L/c and the
GVD delay t_gvd = omega0 (n' + omega0 n''/2) L/c.  The exact propagator is
kept alongside the expansion so truncation error is measurable, and a
0.1 rad linearity guard at omega0 +/- 2 delta_omega protects the
first-order (linearized-field) route.

Perturbations are offsets from a reference (state, length) baseline; the
baseline propagation phase itself drops out because signal and local
oscillator are taken phase-locked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import air_model
from .air_model import SPEED_OF_LIGHT, AirState
from .errors import DomainError, ValidationError
from .mode_algebra import GaussianPulse

LINEARITY_GUARD_RAD = 0.1

TIME_LABELS = ("phi", "g", "gvd")
RANGING_LABELS = ("L", "X", "Pw")


@dataclass(frozen=True)
class DelayTriple:
    """Phase, group and GVD delays (seconds) of the expanded spectral phase."""

    t_phi: float
    t_g: float
    t_gvd: float


@dataclass(frozen=True)
class PerturbationVector:
    """Small offsets of either the delay triple or the ranging parameters.

    kind "time":    values = (p_phi, p_g, p_gvd), all seconds.
    kind "ranging": values = (p_L [m], p_X [dimensionless], p_Pw [Pa]).
    """

    kind: str
    values: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.kind not in ("time", "ranging"):
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != 3:
            raise ValidationError("perturbation vector needs exactly 3 entries")

    @classmethod
    def time_delays(cls, p_phi: float = 0.0, p_g: float = 0.0, p_gvd: float = 0.0) -> "PerturbationVector":
        return cls("time", (p_phi, p_g, p_gvd))

    @classmethod
    def ranging(cls, p_l_m: float = 0.0, p_x: float = 0.0, p_pw_pa: float = 0.0) -> "PerturbationVector":
        return cls("ranging", (p_l_m, p_x, p_pw_pa))

    @property
    def labels(self) -> tuple[str, str, str]:
        return TIME_LABELS if self.kind == "time" else RANGING_LABELS

    def items(self):
        return zip(self.labels, self.values)


def expansion_times(state: AirState, length_m: float, omega0: float) -> DelayTriple:
    """Delay triple of the second-order spectral-phase expansion."""
    if not length_m > 0.0:
        raise ValidationError(f"length_m={length_m} must be > 0")
    n, n1, n2 = air_model.index_omega_derivatives(omega0, state)
    over_c = length_m / SPEED_OF_LIGHT
    return DelayTriple(
        t_phi=n * over_c,
        t_g=(n + omega0 * n1) * over_c,
        t_gvd=omega0 * (n1 + 0.5 * omega0 * n2) * over_c,
    )


def apply_spectral_phase(
    field: np.ndarray,
    omega: np.ndarray,
    state: AirState,
    length_m: float,
) -> np.ndarray:
    """Exact propagator: field * exp(i n_phi(omega) omega L / c).

    Pure phase, so |field| is preserved pointwise.  Raises if the grid
    leaves the validity band of the air model.
    """
    if length_m < 0.0:
        raise ValidationError(f"length_m={length_m} must be >= 0")
    w = np.asarray(omega, dtype=float)
    sigma = air_model.sigma_from_omega(w)
    n = air_model.phase_index(sigma, state)
    return np.asarray(field) * np.exp(1j * n * w * length_m / SPEED_OF_LIGHT)


def expanded_phase(
    omega: np.ndarray,
    base: DelayTriple,
    omega0: float,
    pert: PerturbationVector | None = None,
) -> np.ndarray:
    """Quadratic spectral phase of the expansion, optionally perturbed."""
    t_phi, t_g, t_gvd = base.t_phi, base.t_g, base.t_gvd
    if pert is not None:
        if pert.kind != "time":
            raise ValidationError("expanded_phase takes time-kind perturbations")
        t_phi += pert.values[0]
        t_g += pert.values[1]
        t_gvd += pert.values[2]
    d = np.asarray(omega, dtype=float) - omega0
    return omega0 * t_phi + d * t_g + d * d / omega0 * t_gvd


def phase_gradient(
    label: str,
    omega: np.ndarray,
    pulse: GaussianPulse,
    state: AirState | None = None,
    length_m: float | None = None,
) -> np.ndarray:
    """d(spectral phase)/d(parameter) on a grid; exact in each parameter.

    Every supported parameter enters the phase linearly, so this gradient
    times the offset IS the exact extra phase.  Time-delay parameters need
    only the pulse; ranging parameters need the state and length.
    """
    w = np.asarray(omega, dtype=float)
    d = w - pulse.omega0
    if label == "phi":
        return np.full_like(w, pulse.omega0)
    if label == "g":
        return d
    if label == "gvd":
        return d * d / pulse.omega0
    if label in RANGING_LABELS:
        if state is None or length_m is None:
            raise ValidationError(f"parameter {label!r} needs state and length_m")
        sigma = air_model.sigma_from_omega(w)
        if label == "L":
            return air_model.phase_index(sigma, state) * w / SPEED_OF_LIGHT
        if label == "X":
            return air_model.k_dispersion(sigma) * w * length_m / SPEED_OF_LIGHT
        return -air_model.water_term(sigma) * w * length_m / SPEED_OF_LIGHT
    raise ValidationError(f"unknown parameter label {label!r}")


def check_linearity(
    pert: PerturbationVector,
    pulse: GaussianPulse,
    state: AirState | None = None,
    length_m: float | None = None,
) -> None:
    """Enforce the < 0.1 rad guard at omega0 +/- 2 delta_omega."""
    edges = np.array([pulse.omega0 - 2 * pulse.delta_omega, pulse.omega0 + 2 * pulse.delta_omega])
    for label, value in pert.items():
        if value == 0.0:
            continue
        grad = phase_gradient(label, edges, pulse, state, length_m)
        worst = float(np.max(np.abs(value * grad)))
        if worst >= LINEARITY_GUARD_RAD:
            raise DomainError(
                f"perturbation {label}={value} drives the spectral phase to "
                f"{worst:.3g} rad at omega0 +/- 2 delta_omega "
                f"(guard {LINEARITY_GUARD_RAD} rad); use exact propagation"
            )
