"""Spectral mode algebra on a Hermite-Gauss basis.

A Gaussian mean-field envelope

    u(omega) = Delta_omega^{-1/2} (2 pi)^{-1/4} exp(-(omega-omega0)^2 / (4 Delta_omega^2))

defines the orthonormal basis

    v_n(omega) = i (2^n n!)^{-1/2} H_n((omega-omega0) / (sqrt(2) Delta_omega)) u(omega)

with H_n the physicists' Hermite polynomials.  The global phase factor i is
kept inside the basis, so every local-oscillator mode is a real coefficient
vector on {v_n} and homodyne signals are plain real parts; u itself is
-i v_0.

Modes are represented by their real coefficients on {v_n}; every mode of
interest is a low-degree polynomial times u, so inner products are exact
in coefficient space (purification, on the same coefficients, is
`detection.purify`).  Since conj(i f) (i g) = f g, the real profile
sum_n c_n h_n (with v_n = i h_n) is the one sampled form of a mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .air_model import SPEED_OF_LIGHT, WAVELENGTH_MAX_M, WAVELENGTH_MIN_M, check_wavelength
from .errors import ValidationError

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
    spectral-phase expansion downstream to make sense.  The hash is computed
    once, when the pulse is built: every memo keyed by a pulse or a mode
    hashes it.
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
        object.__setattr__(self, "_hash", hash((self.omega0, self.delta_omega)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_wavelength(cls, wavelength_m: float, relative_bandwidth: float = 1.0 / 6.0) -> "GaussianPulse":
        check_wavelength(wavelength_m)
        omega0 = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength_m
        return cls(omega0, relative_bandwidth * omega0)


# Coefficient types that are real by type alone: float and its subclass
# np.float64.  Any other type is probed for a complex dtype.
_REAL_TYPES = frozenset((float, np.float64))


@dataclass(frozen=True)
class SpectralMode:
    """A spectral amplitude as real coefficients c_0..c_n on the {v_n} basis.

    Coefficients beyond the stored order are implicitly zero.  Instances are
    immutable; all algebra returns new modes.  The hash is computed once, when
    the mode is built, and the norm on first use; both are kept outside the
    fields, so equality and the repr see the pulse and coefficients only.
    """

    pulse: GaussianPulse
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        # float() would drop an imaginary part silently; v_n = i h_n already carry i
        if not set(map(type, coeffs)) <= _REAL_TYPES and np.asarray(coeffs).dtype.kind == "c":
            raise ValidationError("mode coefficients must be real")
        coeffs = tuple(map(float, coeffs))
        if not coeffs:
            raise ValidationError("mode needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValidationError("mode coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_hash", hash((self.pulse, coeffs)))
        object.__setattr__(self, "_norm", None)

    def __hash__(self) -> int:
        return self._hash

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def norm(self) -> float:
        # sqrt(v.v) is what np.linalg.norm computes for a real vector
        if self._norm is None:
            v = self.vector
            object.__setattr__(self, "_norm", math.sqrt(v.dot(v)))
        return self._norm

    def padded(self, order: int) -> np.ndarray:
        """Coefficient vector zero-padded out to the given order (>= the mode's)."""
        if order < self.order:
            raise ValidationError(f"cannot pad a mode of order {self.order} to order {order}")
        return np.array(self.coefficients + (0.0,) * (order - self.order))


def _require_same_pulse(f: SpectralMode, g: SpectralMode) -> None:
    if f.pulse != g.pulse:
        raise ValidationError(
            "modes live on different pulse bases "
            f"({f.pulse} vs {g.pulse}); no implicit basis change"
        )


def hermite_gauss(n: int, pulse: GaussianPulse) -> SpectralMode:
    """Basis mode v_n as the coefficient unit vector e_n, n <= MAX_ORDER_DEFAULT."""
    if not 0 <= n <= MAX_ORDER_DEFAULT:
        raise ValidationError(f"order n={n} outside [0, {MAX_ORDER_DEFAULT}]")
    coeffs = [0.0] * (n + 1)
    coeffs[n] = 1.0
    return SpectralMode(pulse, tuple(coeffs))


def inner_product(f: SpectralMode, g: SpectralMode) -> float:
    """L2 inner product <f, g> = integral f* g, exact on the real coefficients."""
    _require_same_pulse(f, g)
    order = max(f.order, g.order)
    return float(np.dot(f.padded(order), g.padded(order)))


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


def real_profile(mode: SpectralMode, omega: np.ndarray) -> np.ndarray:
    """Real spectral profile sum_n c_n h_n(omega) of the mode (v_n = i h_n)."""
    out = np.zeros(np.shape(omega), dtype=float)
    for n, c in enumerate(mode.coefficients):
        if c != 0.0:
            out += c * hermite_envelope(n, mode.pulse, omega)
    return out
