"""The paper's independent checks of the ranging physics, used by the tests.

The time-delay family (phase, group and GVD delays phi, g, gvd) with its
exact gradients, analytic modes and Gauss-Hermite oracle; the first-order
deviation sum_i p_i K_i w_i of the perturbed field from u, for either
family, and its homodyne signal; exact propagation through air against the
second-order phase expansion omega0 t_phi + (omega - omega0) t_g +
(omega - omega0)^2 / omega0 t_gvd; trapezoid quadrature of real mode
profiles over omega0 +/- 8 delta_omega (Gaussian tails < 1e-14 there); and
a float least-squares purification to check the exact `purify` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from comb_ranger import air_model
from comb_ranger.air_model import SPEED_OF_LIGHT, AirState
from comb_ranger.detection import DetectionMode, _oracle_table, ranging_modes
from comb_ranger.dispersion import LINEARITY_GUARD_RAD, PerturbationVector, check_linearity
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import (
    GRID_HALF_WIDTH,
    GaussianPulse,
    SpectralMode,
    inner_product,
)

TIME_LABELS = ("phi", "g", "gvd")
GRID_POINTS = 4096  # default quadrature grid size


@dataclass(frozen=True)
class TimeDelays:
    """Small offsets (seconds) of the phase, group and GVD delays."""

    p_phi: float = 0.0
    p_g: float = 0.0
    p_gvd: float = 0.0

    def items(self):
        return zip(TIME_LABELS, (self.p_phi, self.p_g, self.p_gvd))


def time_phase_gradient(label: str, omega: np.ndarray, pulse: GaussianPulse) -> np.ndarray:
    """d(expanded phase)/d(delay) on a grid; exact, the phase is linear in each delay."""
    w = np.asarray(omega, dtype=float)
    d = w - pulse.omega0
    if label == "phi":
        return np.full_like(w, pulse.omega0)
    if label == "g":
        return d
    if label == "gvd":
        return d * d / pulse.omega0
    raise ValidationError(f"unknown parameter label {label!r}")


def time_detection_modes(pulse: GaussianPulse) -> tuple[DetectionMode, DetectionMode, DetectionMode]:
    """Detection modes for the delay triple:

    w_phi = v0 (K = omega0),  w_g = v1 (K = delta_omega),
    w_gvd = v0/sqrt(3) + sqrt(2/3) v2 (K = sqrt(3) delta_omega^2/omega0).
    """
    w0, dw = pulse.omega0, pulse.delta_omega
    gvd = SpectralMode(pulse, (1.0 / math.sqrt(3.0), 0.0, math.sqrt(2.0 / 3.0)))
    return (
        DetectionMode("phi", SpectralMode(pulse, (1.0,)), w0),
        DetectionMode("g", SpectralMode(pulse, (0.0, 1.0)), dw),
        DetectionMode("gvd", gvd, math.sqrt(3.0) * dw**2 / w0),
    )


def numeric_time_mode(label: str, pulse: GaussianPulse) -> DetectionMode:
    """`detection.numeric_detection_mode`'s Gauss-Hermite projection, for a delay."""
    offsets, table = _oracle_table()
    coeffs = table @ time_phase_gradient(label, pulse.omega0 + pulse.delta_omega * offsets, pulse)
    k_est = float(np.linalg.norm(coeffs))
    return DetectionMode(f"{label}(numeric)", SpectralMode(pulse, tuple(coeffs / k_est)), k_est)


@dataclass(frozen=True)
class LinearizedField:
    """First-order field u + deviation, deviation = sum_i p_i K_i w_i in
    coefficient space.

    `amplitudes` maps each parameter label to its modal amplitude p_i K_i.
    """

    deviation: SpectralMode
    amplitudes: dict[str, float]


def linearized_field(
    pulse: GaussianPulse, pert: TimeDelays | PerturbationVector, state: AirState | None = None, length_m=None
) -> LinearizedField:
    """Linearized perturbed field for either parameter family.

    The deviation from u along parameter i is p_i K_i w_i, a real
    combination of the basis; u = -i v0 is not one, so only the deviation
    is held.  Ranging perturbations need the state and length; both
    families raise the linearity guard instead of returning a stale
    expansion.
    """
    if isinstance(pert, TimeDelays):
        # the guard of `dispersion.check_linearity`, on the delay gradients
        edges = np.array([pulse.omega0 - 2 * pulse.delta_omega, pulse.omega0 + 2 * pulse.delta_omega])
        for label, value in pert.items():
            if np.max(np.abs(value * time_phase_gradient(label, edges, pulse))) >= LINEARITY_GUARD_RAD:
                raise DomainError(f"perturbation {label}={value} breaks the {LINEARITY_GUARD_RAD} rad guard")
        modes = time_detection_modes(pulse)
    else:
        if state is None or length_m is None:
            raise ValidationError("ranging perturbations need state and length_m")
        check_linearity(pert, pulse, state, length_m)
        modes = ranging_modes(pulse, state, length_m)

    order = max(m.mode.order for m in modes)
    vec = np.zeros(order + 1)
    amplitudes: dict[str, float] = {}
    for dm, (label, value) in zip(modes, pert.items()):
        amp = value * dm.k_const
        amplitudes[label] = amp
        if amp != 0.0:
            vec = vec + amp * dm.mode.padded(order)
    return LinearizedField(SpectralMode(pulse, tuple(vec)), amplitudes)


def lstsq_purify(target, against):
    """Residual share 1 - s and unit residual by float least squares, apart from purify."""
    order = max(dm.mode.order for dm in (target, *against))
    basis = np.column_stack([dm.mode.padded(order).real for dm in against])
    t = target.mode.padded(order).real
    res = t - basis @ np.linalg.lstsq(basis, t, rcond=None)[0]
    return res @ res / (t @ t), res / np.linalg.norm(res)


def homodyne_signal(field: LinearizedField, lo: DetectionMode) -> float:
    """Homodyne estimate S = (Re<u(p), w_lo> - Re<u, w_lo>) / K_lo = <deviation, w_lo> / K_lo.

    Signal and LO are taken phase-locked (zero relative quadrature phase).
    """
    return inner_product(field.deviation, lo.mode) / lo.k_const


@dataclass(frozen=True)
class DelayTriple:
    """Phase, group and GVD delays (seconds) of the expanded spectral phase."""

    t_phi: float
    t_g: float
    t_gvd: float


def expansion_times(state: AirState, length_m: float, omega0: float) -> DelayTriple:
    """Delay triple t_phi = n L/c, t_g = n_g L/c, t_gvd = omega0 (n' + omega0 n''/2) L/c."""
    if not length_m > 0.0:
        raise ValidationError(f"length_m={length_m} must be > 0")
    sigma0, dsigma = air_model.sigma_from_omega(omega0), air_model.sigma_from_omega(1.0)
    k, k1, k2 = air_model.k_derivatives(sigma0)
    g, g1, g2 = air_model.g_derivatives(sigma0)
    x, pw = air_model.density_factor(state), state.water_vapor_pa
    n = 1.0 + k * x - g * pw
    n1 = (k1 * x - g1 * pw) * dsigma
    n2 = (k2 * x - g2 * pw) * dsigma**2
    over_c = length_m / SPEED_OF_LIGHT
    t_gvd = omega0 * (n1 + 0.5 * omega0 * n2) * over_c
    return DelayTriple(n * over_c, (n + omega0 * n1) * over_c, t_gvd)


def apply_spectral_phase(field, omega: np.ndarray, state: AirState, length_m: float) -> np.ndarray:
    """Exact propagator: field * exp(i n_phi(omega) omega L / c).

    Pure phase, so |field| is preserved pointwise.  Raises if the grid
    leaves the validity band of the air model.
    """
    if length_m < 0.0:
        raise ValidationError(f"length_m={length_m} must be >= 0")
    w = np.asarray(omega, dtype=float)
    n = air_model.phase_index(air_model.sigma_from_omega(w), state)
    return np.asarray(field) * np.exp(1j * n * w * length_m / SPEED_OF_LIGHT)


def expanded_phase(omega: np.ndarray, base: DelayTriple, omega0: float) -> np.ndarray:
    """Quadratic spectral phase of the expansion."""
    d = np.asarray(omega, dtype=float) - omega0
    return omega0 * base.t_phi + d * base.t_g + d * d / omega0 * base.t_gvd


def sampling_grid(pulse: GaussianPulse, points: int = GRID_POINTS, half_width: float = GRID_HALF_WIDTH):
    """Uniform frequency grid omega0 +/- half_width * delta_omega."""
    if points < 2048:
        raise ValidationError(f"points={points} below the 2048 minimum")
    if half_width < GRID_HALF_WIDTH:
        raise ValidationError(f"half_width={half_width} below the +/-{GRID_HALF_WIDTH} sigma minimum")
    reach = half_width * pulse.delta_omega
    return np.linspace(pulse.omega0 - reach, pulse.omega0 + reach, points)


def quadrature_inner_product(f_sampled, g_sampled, omega, pulse: GaussianPulse | None = None) -> float:
    """Trapezoid integral of f g of two real profiles on a shared grid.

    When a pulse is given, the grid must cover at least
    omega0 +/- 8 delta_omega with >= 2048 points.
    """
    f, g, w = np.asarray(f_sampled), np.asarray(g_sampled), np.asarray(omega, dtype=float)
    if f.shape != g.shape or f.shape != w.shape:
        raise ValidationError("sampled modes and grid have mismatched shapes")
    if pulse is not None:
        lo = pulse.omega0 - GRID_HALF_WIDTH * pulse.delta_omega
        hi = pulse.omega0 + GRID_HALF_WIDTH * pulse.delta_omega
        if w.size < 2048 or w[0] > lo or w[-1] < hi:
            raise ValidationError("grid does not cover omega0 +/- 8 delta_omega with >= 2048 points")
    return float(np.trapezoid(f * g, w))
