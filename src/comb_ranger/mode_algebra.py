"""Spectral mode algebra on a Hermite-Gauss basis.

A Gaussian mean-field envelope

    u(omega) = Delta_omega^{-1/2} (2 pi)^{-1/4} exp(-(omega-omega0)^2 / (4 Delta_omega^2))

defines the orthonormal basis

    v_n(omega) = i (2^n n!)^{-1/2} H_n((omega-omega0) / (sqrt(2) Delta_omega)) u(omega)

with H_n the physicists' Hermite polynomials.  The global phase factor i is
kept inside the basis, so every local-oscillator mode built later has a real
coefficient vector and homodyne signals are plain real parts.

Modes are represented by their (complex) coefficients on {v_n}; every mode
of interest is a low-degree polynomial times u, so inner products are exact
in coefficient space (purification, on the same coefficients, is
`detection.purify`).  Real spectral profiles for plotting are derived from
the coefficients on a frequency grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .air_model import SPEED_OF_LIGHT, WAVELENGTH_MAX_M, WAVELENGTH_MIN_M, check_wavelength
from .errors import DomainError, ValidationError

MAX_ORDER_DEFAULT = 8

# Half-width of the profile grid in units of Delta_omega: the Gaussian tails
# are below 1e-14 there.
GRID_HALF_WIDTH = 8.0

# The carrier window of `air_model.check_wavelength` in angular frequency.
# Each bound is the expression `from_wavelength` evaluates, so pulses built
# at either boundary wavelength are accepted.  Far outside, omega0 and the
# ranging-mode vectors underflow to a divide by zero (omega0 = 1e-280
# rad/s) before any later check could refuse the pulse.
OMEGA0_MIN = 2.0 * math.pi * SPEED_OF_LIGHT / WAVELENGTH_MAX_M
OMEGA0_MAX = 2.0 * math.pi * SPEED_OF_LIGHT / WAVELENGTH_MIN_M


@dataclass(frozen=True)
class GaussianPulse:
    """Mean frequency and spectral standard deviation of |u|^2, both rad/s.

    delta_omega must stay narrowband (<= omega0/2) for the second-order
    spectral-phase expansion downstream to make sense.
    """

    omega0: float
    delta_omega: float

    def __post_init__(self) -> None:
        if not OMEGA0_MIN <= self.omega0 <= OMEGA0_MAX:
            raise ValidationError(
                f"omega0={self.omega0} must be finite and in [{OMEGA0_MIN:.6g}, {OMEGA0_MAX:.6g}] "
                f"rad/s (carrier wavelength in [{WAVELENGTH_MIN_M:g}, {WAVELENGTH_MAX_M:g}] m)"
            )
        if not 0.0 < self.delta_omega < math.inf:
            raise ValidationError(f"delta_omega={self.delta_omega} must be finite and > 0")
        if self.delta_omega > 0.5 * self.omega0:
            raise ValidationError(
                f"delta_omega={self.delta_omega} exceeds omega0/2; "
                "too broadband for the narrowband expansion"
            )

    @classmethod
    def from_wavelength(cls, wavelength_m: float, relative_bandwidth: float = 1.0 / 6.0) -> "GaussianPulse":
        check_wavelength(wavelength_m)
        omega0 = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength_m
        return cls(omega0, relative_bandwidth * omega0)


@dataclass(frozen=True)
class SpectralMode:
    """A spectral amplitude as coefficients c_0..c_n on the {v_n} basis.

    Coefficients beyond the stored order are implicitly zero.  Instances are
    immutable; all algebra returns new modes.
    """

    pulse: GaussianPulse
    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            raise ValidationError("mode needs at least one coefficient")
        if not np.all(np.isfinite(self.vector.view(float))):
            raise ValidationError("mode coefficients must be finite")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=complex)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @functools.cached_property
    def _norm(self) -> float:
        # kept in the instance __dict__, outside the fields, eq and hash
        return float(np.linalg.norm(self.vector))

    def norm(self) -> float:
        return self._norm

    def padded(self, order: int) -> np.ndarray:
        """Coefficient vector zero-padded out to the given order.

        Shortening is only allowed when the dropped tail is exactly zero.
        """
        vec = self.vector
        if order + 1 >= vec.size:
            out = np.zeros(order + 1, dtype=complex)
            out[: vec.size] = vec
            return out
        if np.any(vec[order + 1 :] != 0):
            raise ValidationError(
                f"cannot truncate order-{self.order} mode to order {order}: "
                "nonzero coefficients would be dropped"
            )
        return vec[: order + 1].copy()


def _require_same_pulse(f: SpectralMode, g: SpectralMode) -> None:
    if f.pulse != g.pulse:
        raise ValidationError(
            "modes live on different pulse bases "
            f"({f.pulse} vs {g.pulse}); no implicit basis change"
        )


def gaussian_mode(pulse: GaussianPulse) -> SpectralMode:
    """The mean-field mode u itself: u = -i v_0 (unit norm)."""
    return SpectralMode(pulse, (-1j,))


def hermite_gauss(n: int, pulse: GaussianPulse) -> SpectralMode:
    """Basis mode v_n as the coefficient unit vector e_n, n <= MAX_ORDER_DEFAULT."""
    if not 0 <= n <= MAX_ORDER_DEFAULT:
        raise ValidationError(f"order n={n} outside [0, {MAX_ORDER_DEFAULT}]")
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1.0 + 0j
    return SpectralMode(pulse, tuple(coeffs))


def inner_product(f: SpectralMode, g: SpectralMode) -> complex:
    """L2 inner product <f, g> = integral f* g, exact on coefficients.

    Conjugate-linear in the first argument.
    """
    _require_same_pulse(f, g)
    order = max(f.order, g.order)
    return complex(np.vdot(f.padded(order), g.padded(order)))


def gaussian_envelope(pulse: GaussianPulse, omega: np.ndarray) -> np.ndarray:
    """u(omega) sampled on a grid (real positive values)."""
    x = (np.asarray(omega, dtype=float) - pulse.omega0) / pulse.delta_omega
    return (
        pulse.delta_omega**-0.5
        * (2.0 * math.pi) ** -0.25
        * np.exp(-0.25 * x * x)
    )


def hermite_envelope(n: int, pulse: GaussianPulse, omega: np.ndarray) -> np.ndarray:
    """Real envelope h_n(omega) with v_n = i h_n; orthonormal under quadrature."""
    x = (np.asarray(omega, dtype=float) - pulse.omega0) / (math.sqrt(2.0) * pulse.delta_omega)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return hermval(x, coeffs) / math.sqrt(2.0**n * math.factorial(n)) * gaussian_envelope(pulse, omega)


def real_coefficients(mode: SpectralMode, order: int | None = None) -> np.ndarray:
    """Real coefficient vector of a single-global-phase mode.

    Rotates the coefficients (padded to `order` when given) by the phase of
    their largest entry.  Raises if the mode has no common global phase.
    """
    vec = mode.vector if order is None else mode.padded(order)
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    rotated = vec / phase
    if np.max(np.abs(rotated.imag)) > 1e-9 * np.linalg.norm(vec):
        raise DomainError("mode coefficients do not share a global phase")
    return rotated.real


def real_profile(mode: SpectralMode, omega: np.ndarray) -> np.ndarray:
    """Real spectral profile of a single-global-phase mode.

    Strips the global phase (`real_coefficients`) and drops the basis
    factor i; the result is the signed amplitude one would plot.
    """
    out = np.zeros(np.shape(omega), dtype=float)
    for n, c in enumerate(real_coefficients(mode)):
        if c != 0.0:
            out += c * hermite_envelope(n, mode.pulse, omega)
    return out
