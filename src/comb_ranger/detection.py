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
trading sensitivity (K^p = K <w^p, w> < K) for immunity.  The ranging
purification factor is evaluated as an exact rational Gram-determinant
ratio: the quantity 1 - s is ~1e-10 here and naive double arithmetic on the
near-unit overlaps would lose six digits to cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermvander

from . import air_model, mode_algebra, multicolor
from .air_model import SPEED_OF_LIGHT, AirState
from .dispersion import RANGING_LABELS, PerturbationVector, check_linearity, phase_gradient
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import GaussianPulse, SpectralMode, gaussian_mode, inner_product

_ORTHOGONALITY_TOL = 1e-10
_DEPENDENCE_TOL = 1e-12


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


def purify(target: DetectionMode, against: Sequence[DetectionMode]) -> DetectionMode:
    """Re-orthogonalize `target` against the span of `against`.

    Returns a unit-norm mode orthogonal to every interferer, with
    k_const = K_target * <w^p, w_target>.  An empty `against` returns the
    target unchanged.
    """
    if len(against) == 0:
        return target
    try:
        basis = mode_algebra.gram_schmidt([dm.mode for dm in against], tol=_DEPENDENCE_TOL)
    except DomainError as exc:
        raise SeparabilityError(f"interfering modes are degenerate: {exc}") from exc
    order = max(target.mode.order, max(q.order for q in basis))
    vec = target.mode.padded(order)
    qs = [q.padded(order) for q in basis]
    for _ in range(2):
        for q in qs:
            vec = vec - np.vdot(q, vec) * q
    res = float(np.linalg.norm(vec))
    if res**2 <= _DEPENDENCE_TOL:
        raise SeparabilityError(
            f"parameter {target.label!r} not separable: its detection mode "
            "lies in the span of the interfering modes"
        )
    mode = SpectralMode(target.mode.pulse, tuple(vec / res))
    for dm in against:
        leak = abs(inner_product(mode, dm.mode))
        if leak > _ORTHOGONALITY_TOL:
            raise DomainError(
                f"purification left overlap {leak:.2e} with {dm.label!r} "
                f"(tolerance {_ORTHOGONALITY_TOL})"
            )
    overlap = inner_product(mode, target.mode).real
    label = f"{target.label}^p({','.join(dm.label for dm in against)})"
    return DetectionMode(label, mode, target.k_const * overlap)


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


def _exact_gram_ratio(target: SpectralMode, others: Sequence[SpectralMode]) -> float:
    """(K^p / K)^2 = 1 - s as an exact Gram-determinant ratio.

    Computed in rational arithmetic directly from the raw (float)
    coefficient vectors, including their norms; this is the cancellation-
    safe form of the closed-form purification factor.  Supports one or two
    interfering modes.
    """
    order = max([target.order] + [m.order for m in others])

    def fvec(m: SpectralMode):
        v = m.padded(order)
        if np.max(np.abs(v.imag)) != 0.0:
            raise ValidationError("exact purification factor expects real coefficient vectors")
        return [Fraction(x) for x in v.real]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    t = fvec(target)
    nt = dot(t, t)
    if len(others) == 1:
        x = fvec(others[0])
        nx = dot(x, x)
        dtx = dot(t, x)
        g2 = nx
        g3 = nt * nx - dtx * dtx
    elif len(others) == 2:
        x, p = fvec(others[0]), fvec(others[1])
        nx, np_ = dot(x, x), dot(p, p)
        dtx, dtp, dxp = dot(t, x), dot(t, p), dot(x, p)
        g2 = nx * np_ - dxp * dxp
        g3 = (
            nt * nx * np_
            + 2 * dtx * dtp * dxp
            - nt * dxp * dxp
            - nx * dtp * dtp
            - np_ * dtx * dtx
        )
    else:
        raise ValidationError("exact purification factor supports 1 or 2 interferers")
    if g2 == 0:
        raise SeparabilityError("interfering modes are exactly degenerate")
    ratio = g3 / (g2 * nt)
    if ratio <= 0:
        raise SeparabilityError("target lies in the span of the interfering modes")
    return float(ratio)


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
        o_xp = inner_product(w_x.mode, w_pw.mode).real
        if 1.0 - o_xp**2 <= _DEPENDENCE_TOL:
            raise SeparabilityError(
                "w_X and w_Pw are near-degenerate; full purification undefined"
            )
        k_full = w_l.k_const * math.sqrt(_exact_gram_ratio(w_l.mode, [w_x.mode, w_pw.mode]))
        k_x = w_l.k_const * math.sqrt(_exact_gram_ratio(w_l.mode, [w_x.mode]))
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
