"""Homodyne detection modes, purification, and shot-noise sensitivities.

For a parameter p the detection mode is w = (1/K) du/dp with K = ||du/dp||;
projecting the perturbed field onto w and taking the real part estimates p
at the coherent-state Cramer-Rao level, with minimum detectable value
p_min = 1 / (2 sqrt(N) K) for N photons.

Time-delay family (phase delay, group delay, GVD delay):

    w_phi = v0 (K = omega0),  w_g = v1 (K = delta_omega),
    w_gvd = v0/sqrt(3) + sqrt(2/3) v2 (K = sqrt(3) delta_omega^2/omega0).

Ranging-through-air family (length L, density factor X, water vapor P_w):
coefficient vectors built from the carrier-only dispersion ratios delta/eta
of `air_model.dispersion_scalars`; the L mode keeps the vacuum form
(omega0 v0 + delta_omega v1)/(c K_L), dropping the ~(n-1)-sized dispersive
corrections.  An exact oracle (`numeric_detection_mode`) quantifies that
drop: it projects the exact gradient i (dphi/dp) u of the propagated field
onto the basis with a 24-node Gauss-Hermite rule, whose nodes span
omega0 +/- 8.51 delta_omega.  The first-order perturbed field
u + sum_i p_i K_i w_i (`linearized_field`) is built from these modes.

Purifying a mode against interferers orthogonalizes it to their span,
trading sensitivity (K^p = K sqrt(1 - s) < K) for immunity.  `purify` is the
one place the factor 1 - s is computed, for `sensitivity`, `simulate` and
`modes` alike: a Gram-Schmidt in exact integer arithmetic on the double
coefficients, since 1 - s is ~1e-10 for the ranging modes and double
arithmetic on the near-unit overlaps would lose six digits to cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermvander

from . import air_model, mode_algebra, multicolor
from .air_model import SPEED_OF_LIGHT, AirState
from .dispersion import RANGING_LABELS, PerturbationVector, check_linearity, phase_gradient
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import GaussianPulse, SpectralMode, gaussian_mode, inner_product

# Refusal floor of `purify` on each residual share 1 - s.  Its arithmetic is
# exact, so the only error left is the double representation of the mode
# vectors: a relative change u = 2**-53 in the inputs moves sqrt(1 - s) by
# about u / sqrt(1 - s) relative.  The floor is where that bound reaches a
# budget of 2**-20 (~1e-6, six significant digits of K):
# 1 - s = (2**-53 / 2**-20)**2 = 2**-66 ~ 1.4e-20.
PURIFY_FLOOR = 2.0**-66


@dataclass(frozen=True)
class DetectionMode:
    """A unit-norm spectral mode tagged with the parameter it detects.

    k_const carries the dimensional normalization: rad/s for time delays,
    1/m for L, dimensionless for X, 1/Pa for P_w.
    """

    label: str
    mode: SpectralMode
    k_const: float

    def __post_init__(self) -> None:
        if not self.k_const > 0.0:
            raise ValidationError(f"k_const={self.k_const} must be > 0")
        if abs(self.mode.norm() ** 2 - 1.0) > 1e-12:
            raise ValidationError(f"detection mode {self.label!r} is not unit norm")


def min_detectable(k_const: float, n_photons: float) -> float:
    """Shot-noise-limited minimum detectable parameter, 1/(2 sqrt(N) K)."""
    if not 1.0 <= n_photons < math.inf:
        raise ValidationError(f"n_photons={n_photons} must be finite and >= 1")
    if not k_const > 0.0:
        raise ValidationError(f"k_const={k_const} must be > 0")
    return 1.0 / (2.0 * math.sqrt(n_photons) * k_const)


def time_detection_modes(pulse: GaussianPulse) -> tuple[DetectionMode, DetectionMode, DetectionMode]:
    """Detection modes (w_phi, w_g, w_gvd) for the delay triple."""
    w0, dw = pulse.omega0, pulse.delta_omega
    w_phi = DetectionMode("phi", SpectralMode(pulse, (1.0,)), w0)
    w_g = DetectionMode("g", SpectralMode(pulse, (0.0, 1.0)), dw)
    w_gvd = DetectionMode(
        "gvd",
        SpectralMode(pulse, (1.0 / math.sqrt(3.0), 0.0, math.sqrt(2.0 / 3.0))),
        math.sqrt(3.0) * dw**2 / w0,
    )
    return w_phi, w_g, w_gvd


def _ranging_vectors(pulse: GaussianPulse):
    """Unnormalized coefficient vectors (omega units) of the ranging modes."""
    s = air_model.dispersion_scalars(pulse.omega0)
    w0, dw = pulse.omega0, pulse.delta_omega
    d12 = s.delta1 + s.delta2
    e12 = s.eta1 + s.eta2
    a_l = np.array([w0, dw, 0.0])
    a_x = np.array([w0 + dw**2 / w0 * d12, dw * (1.0 + s.delta1), math.sqrt(2.0) * dw**2 / w0 * d12])
    a_p = np.array([w0 + dw**2 / w0 * e12, dw * (1.0 + s.eta1), math.sqrt(2.0) * dw**2 / w0 * e12])
    return a_l, a_x, a_p


def ranging_modes(
    pulse: GaussianPulse,
    state: AirState,
    length_m: float,
) -> tuple[DetectionMode, DetectionMode, DetectionMode]:
    """Detection modes (w_L, w_X, w_Pw) for ranging through air.

    Mode shapes and the contamination structure depend only on the carrier
    (through delta/eta); the state argument is kept for interface symmetry
    with the exact oracle.  K_X and K_Pw scale linearly with the path
    length.  The water-vapor mode carries an overall minus sign (n decreases
    with P_w), keeping K_Pw positive.
    """
    if not 0.0 < length_m < math.inf:
        raise ValidationError(f"length_m={length_m} must be finite and > 0")
    del state  # shapes are state-independent by construction
    sigma0 = air_model.sigma_from_omega(pulse.omega0)
    a_l, a_x, a_p = _ranging_vectors(pulse)
    k_l = float(np.linalg.norm(a_l)) / SPEED_OF_LIGHT
    k_x = air_model.k_dispersion(sigma0) * length_m / SPEED_OF_LIGHT * float(np.linalg.norm(a_x))
    k_p = air_model.water_term(sigma0) * length_m / SPEED_OF_LIGHT * float(np.linalg.norm(a_p))
    w_l = DetectionMode("L", SpectralMode(pulse, tuple(a_l / np.linalg.norm(a_l))), k_l)
    w_x = DetectionMode("X", SpectralMode(pulse, tuple(a_x / np.linalg.norm(a_x))), k_x)
    w_pw = DetectionMode("Pw", SpectralMode(pulse, tuple(-a_p / np.linalg.norm(a_p))), k_p)
    return w_l, w_x, w_pw


@dataclass(frozen=True)
class LinearizedField:
    """First-order field u + sum_i p_i K_i w_i in coefficient space.

    `amplitudes` maps each parameter label to its modal amplitude p_i K_i.
    """

    mode: SpectralMode
    amplitudes: dict[str, float]


def linearized_field(
    pulse: GaussianPulse,
    pert: PerturbationVector,
    state: AirState | None = None,
    length_m: float | None = None,
) -> LinearizedField:
    """Linearized perturbed field for either parameter family.

    Builds on the detection modes: the deviation from u along parameter i is
    p_i K_i w_i.  Raises the linearity guard instead of silently returning a
    stale expansion.
    """
    check_linearity(pert, pulse, state, length_m)
    if pert.kind == "time":
        modes = time_detection_modes(pulse)
    else:
        if state is None or length_m is None:
            raise ValidationError("ranging perturbations need state and length_m")
        modes = ranging_modes(pulse, state, length_m)

    order = max(m.mode.order for m in modes)
    vec = gaussian_mode(pulse).padded(order)
    amplitudes: dict[str, float] = {}
    for dm, (label, value) in zip(modes, pert.items()):
        amp = value * dm.k_const
        amplitudes[label] = amp
        if amp != 0.0:
            vec = vec + amp * dm.mode.padded(order)
    return LinearizedField(SpectralMode(pulse, tuple(vec)), amplitudes)


def _integer_vector(mode: SpectralMode, order: int) -> list[int]:
    """The real coefficients padded to `order`, as exact integers up to a common 2**-k."""
    vec = mode.padded(order)
    if np.any(vec.imag != 0.0):
        raise ValidationError("purification expects real coefficient vectors")
    ratios = [x.as_integer_ratio() for x in vec.real.tolist()]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def purify(target: DetectionMode, against: Sequence[DetectionMode]) -> DetectionMode:
    """Re-orthogonalize `target` against the span of `against`, exactly.

    Each double coefficient is an integer times a power of two, so a
    fraction-free Gram-Schmidt, r <- (q.q) r - (q.r) q, runs on integers
    without rounding.  Every input x (interferers in order, then the target)
    leaves a residual r whose share 1 - s = (r.x)^2 / (|r|^2 |x|^2) is one
    correctly rounded integer division; a share at or below
    PURIFY_FLOOR raises SeparabilityError.  Returns the target's residual,
    rounded once and normalized, with k_const = K_target sqrt(1 - s).  An
    empty `against` returns the target unchanged.
    """
    if len(against) == 0:
        return target
    if any(dm.mode.pulse != target.mode.pulse for dm in against):
        raise ValidationError("purification needs every mode on the target's pulse basis")
    order = max(dm.mode.order for dm in (target, *against))
    basis: list[tuple[list[int], int]] = []
    for i, dm in enumerate((*against, target)):
        x = _integer_vector(dm.mode, order)
        r = x
        for q, qq in basis:
            qr = _dot(q, r)
            r = [qq * a - qr * b for a, b in zip(r, q)]
        rr = _dot(r, r)
        share = _dot(r, x) ** 2 / (rr * _dot(x, x)) if rr else 0.0
        if share <= PURIFY_FLOOR:
            if i == len(against):
                raise SeparabilityError(
                    f"parameter {target.label!r} not separable: its detection mode "
                    "lies in the span of the interfering modes"
                )
            raise SeparabilityError(
                f"interfering modes are degenerate: {dm.label!r} lies in the span of those before it"
            )
        basis.append((r, rr))
    scale = 1 << max(abs(c) for c in r).bit_length()
    vec = np.array([c / scale for c in r])
    mode = SpectralMode(target.mode.pulse, tuple(vec / np.linalg.norm(vec)))
    label = f"{target.label}^p({','.join(dm.label for dm in against)})"
    return DetectionMode(label, mode, target.k_const * math.sqrt(share))


def homodyne_signal(field, lo: DetectionMode) -> float:
    """Homodyne estimate S = (Re<u(p), w_lo> - Re<u, w_lo>) / K_lo.

    `field` is a SpectralMode or a LinearizedField; signal and LO
    are taken phase-locked (zero relative quadrature phase).
    """
    mode = getattr(field, "mode", field)
    if not isinstance(mode, SpectralMode):
        raise ValidationError("field must be a SpectralMode or LinearizedField")
    offset = inner_product(gaussian_mode(mode.pulse), lo.mode).real
    return (inner_product(mode, lo.mode).real - offset) / lo.k_const


@functools.cache
def _oracle_table(max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets sqrt(2) x_k (in delta_omega) and rows w_k H_n(x_k) / sqrt(pi 2^n n!).

    24 Gauss-Hermite nodes reach omega0 +/- 8.51 delta_omega; 48 agree to ~4e-16.
    """
    x, w = hermgauss(24)
    norm = [(math.pi * 2.0**n * math.factorial(n)) ** -0.5 for n in range(max_order + 1)]
    offsets, table = math.sqrt(2.0) * x, np.asarray(norm)[:, None] * hermvander(x, max_order).T * w
    offsets.flags.writeable = table.flags.writeable = False
    return offsets, table


def numeric_detection_mode(
    label: str,
    pulse: GaussianPulse,
    state: AirState | None = None,
    length_m: float | None = None,
    max_order: int = mode_algebra.MAX_ORDER_DEFAULT,
) -> DetectionMode:
    """Exact-gradient oracle for the analytic detection modes.

    Every parameter enters the phase linearly, so du/dp = i (dphi/dp) u
    exactly; its coefficients are a 24-node Gauss-Hermite projection (nodes at
    omega0 +/- 8.51 delta_omega, exact for polynomial dphi/dp of degree
    <= 47 - max_order).  Nodes past the resonance pole raise DomainError.
    """
    if max_order < 0:
        raise ValidationError(f"max_order={max_order} must be >= 0")
    offsets, table = _oracle_table(max_order)
    grad = phase_gradient(label, pulse.omega0 + pulse.delta_omega * offsets, pulse, state, length_m)
    coeffs = table @ grad
    k_est = float(np.linalg.norm(coeffs))
    if k_est == 0.0:
        raise DomainError(f"parameter {label!r} has no effect on the field")
    return DetectionMode(f"{label}(numeric)", SpectralMode(pulse, tuple(coeffs / k_est)), k_est)


def contamination_coefficient(lo: DetectionMode, mode: DetectionMode) -> float:
    """(K_j / K_lo) Re<w_lo, w_j>: coefficient of p_j in the signal S[w_lo]."""
    return mode.k_const / lo.k_const * inner_product(lo.mode, mode.mode).real


def _contamination_matrix(modes: Sequence[DetectionMode]) -> np.ndarray:
    """M[i][j] = contamination_coefficient(w_i, w_j): coefficient of p_j in S[w_i].

    The diagonal is the self-projection of a unit-norm mode, identically 1.
    """
    n = len(modes)
    mat = np.empty((n, n))
    for i, wi in enumerate(modes):
        for j, wj in enumerate(modes):
            mat[i, j] = 1.0 if i == j else contamination_coefficient(wi, wj)
    return mat


@dataclass(frozen=True)
class PurifiedSensitivity:
    """Shot-noise distance sensitivities with and without purification.

    p_X here is the dimensionless deviation of the density factor X from its
    reference value; p_Pw is in pascal.  k-constants are in 1/m.
    """

    n_photons: float
    k_raw: float
    k_full: float
    k_x_only: float
    raw_m: float
    full_m: float
    x_only_m: float

    @classmethod
    def build(cls, w_l: DetectionMode, w_x: DetectionMode, w_pw: DetectionMode, n_photons: float) -> "PurifiedSensitivity":
        k_full = purify(w_l, [w_x, w_pw]).k_const
        k_x = purify(w_l, [w_x]).k_const
        return cls(
            n_photons=n_photons,
            k_raw=w_l.k_const,
            k_full=k_full,
            k_x_only=k_x,
            raw_m=min_detectable(w_l.k_const, n_photons),
            full_m=min_detectable(k_full, n_photons),
            x_only_m=min_detectable(k_x, n_photons),
        )


def purified_ranging_sensitivity(
    pulse: GaussianPulse,
    state: AirState,
    length_m: float,
    n_photons: float,
) -> PurifiedSensitivity:
    """Shot-noise distance sensitivity of the purified-LO measurement.

    Returns the fully purified value (immune to X and P_w), the X-only
    purified value, and the unpurified one.  All three are independent of
    the path length: the purification factor is built from overlaps whose
    length dependence cancels.
    """
    w_l, w_x, w_pw = ranging_modes(pulse, state, length_m)
    return PurifiedSensitivity.build(w_l, w_x, w_pw, n_photons)


@dataclass(frozen=True)
class SensitivityReport:
    """Cross-contamination structure and sensitivities of the ranging scheme.

    `matrix` rows/columns are ordered (L, X, Pw); entry [i][j] is the
    coefficient of p_j in the signal measured with LO w_i, so the diagonal
    is exactly 1.  Minimum detectable values are recomputable from the
    stored k_consts as 1/(2 sqrt(N) K).
    """

    n_photons: float
    length_m: float
    center_wavelength_m: float
    relative_bandwidth: float
    labels: tuple[str, str, str]
    k_consts: dict[str, float]
    min_detectable: dict[str, float]
    matrix: tuple[tuple[float, float, float], ...]
    x_contamination_per_m: float
    pw_contamination_per_m_pa: float
    purified: PurifiedSensitivity
    numeric_mode_deviation: float
    baselines: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "# ranging sensitivity report",
            "# units: p_L in m; p_X dimensionless (density-factor deviation); p_Pw in Pa",
            f"photons = {self.n_photons:.6e}",
            f"length_m = {self.length_m:.6e}",
            f"center_wavelength_nm = {self.center_wavelength_m * 1e9:.6f}",
            f"relative_bandwidth = {self.relative_bandwidth:.12f}",
        ]
        for lab in self.labels:
            lines.append(f"k_{lab} = {self.k_consts[lab]:.12e}")
        for lab in self.labels:
            lines.append(f"min_{lab} = {self.min_detectable[lab]:.12e}")
        lines += [
            f"x_contamination_per_m = {self.x_contamination_per_m:.12e}",
            f"pw_contamination_per_m_pa = {self.pw_contamination_per_m_pa:.12e}",
            "# shot-noise values below are independent of length_m: the",
            "# purification factor is built from length-free mode overlaps",
            f"shot_noise_raw_m = {self.purified.raw_m:.12e}",
            f"shot_noise_purified_m = {self.purified.full_m:.12e}",
            f"shot_noise_x_only_purified_m = {self.purified.x_only_m:.12e}",
            f"numeric_mode_deviation = {self.numeric_mode_deviation:.6e}",
        ]
        for key in sorted(self.baselines):
            lines.append(f"{key} = {self.baselines[key]:.12e}")
        lines.append("# contamination matrix M[i][j]: rows/cols " + ",".join(self.labels))
        for lab, row in zip(self.labels, self.matrix):
            lines.append("M[" + lab + "] = " + ", ".join(f"{v:.12e}" for v in row))
        return "\n".join(lines) + "\n"


def contamination_report(
    pulse: GaussianPulse,
    state: AirState,
    length_m: float,
    n_photons: float = 8e16,
    baselines: bool = True,
) -> SensitivityReport:
    """Full cross-signal report for the ranging parameter set.

    Includes the multicolor shot-noise baselines (same total photon budget,
    frequency-doubled/tripled 1064 nm set) when `baselines` is true, and the
    largest coefficient deviation of the verbatim w_L mode from the exact
    Gauss-Hermite oracle.
    """
    w_l, w_x, w_pw = ranging_modes(pulse, state, length_m)
    modes = (w_l, w_x, w_pw)
    mat = _contamination_matrix(modes)
    pref_x = mat[0, 1] / length_m
    pref_pw = mat[0, 2] / length_m
    purified = PurifiedSensitivity.build(w_l, w_x, w_pw, n_photons)

    numeric_l = numeric_detection_mode("L", pulse, state, length_m)
    order = max(w_l.mode.order, numeric_l.mode.order)
    deviation = float(np.max(np.abs(w_l.mode.padded(order) - numeric_l.mode.padded(order))))

    base: dict[str, float] = {}
    if baselines:
        two = multicolor.WavelengthSet((1.064e-6, 0.532e-6), (n_photons / 2, n_photons / 2))
        three = multicolor.WavelengthSet(
            (1.064e-6, 0.532e-6, 0.355e-6), (n_photons / 3,) * 3
        )
        base["two_color_shot_noise_m"] = multicolor.shot_noise_2wi(two)
        base["three_color_shot_noise_m"] = multicolor.shot_noise_3wi(
            three, multicolor.synth_3wi(*three.wavelengths_m)
        )

    return SensitivityReport(
        n_photons=n_photons,
        length_m=length_m,
        center_wavelength_m=2.0 * math.pi * SPEED_OF_LIGHT / pulse.omega0,
        relative_bandwidth=pulse.delta_omega / pulse.omega0,
        labels=RANGING_LABELS,
        k_consts={lab: m.k_const for lab, m in zip(RANGING_LABELS, modes)},
        min_detectable={
            lab: min_detectable(m.k_const, n_photons) for lab, m in zip(RANGING_LABELS, modes)
        },
        matrix=tuple(tuple(float(v) for v in row) for row in mat),
        x_contamination_per_m=pref_x,
        pw_contamination_per_m_pa=pref_pw,
        purified=purified,
        numeric_mode_deviation=deviation,
        baselines=base,
    )
