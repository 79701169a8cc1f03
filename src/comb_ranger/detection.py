"""Homodyne detection modes, purification, and shot-noise sensitivities.

For a parameter p the detection mode is w = (1/K) du/dp with K = ||du/dp||;
projecting the perturbed field onto w and taking the real part estimates p
at the coherent-state Cramer-Rao level, with minimum detectable value
p_min = 1 / (2 sqrt(N) K) for N photons.  Every parameter enters the phase,
so du/dp = i (dphi/dp) u is a real combination of the basis modes
v_n = i h_n: each detection mode is a real coefficient vector, and the real
part of an overlap <w_i, w_j> is the dot product of two such vectors.

The ranging parameters are the length L, the density factor X and the
water-vapor pressure P_w.  Their coefficient vectors are built from the
carrier-only dispersion ratios delta/eta of `air_model.dispersion_scalars`;
the L mode keeps the vacuum form (omega0 v0 + delta_omega v1)/(c K_L),
dropping the ~(n-1)-sized dispersive corrections.  An exact oracle
(`numeric_detection_mode`) quantifies that drop: it projects the exact
gradient i (dphi/dp) u of the propagated field onto the basis with a
24-node Gauss-Hermite rule, whose nodes span omega0 +/- 8.51 delta_omega.
By `dispersion`'s identity dphi/dL = omega / c + X dphi/dX + P_w dphi/dP_w,
the drop lies in the span of the exact X and P_w modes.

Purifying a mode against interferers orthogonalizes it to their span,
trading sensitivity (K^p = K sqrt(1 - s) < K) for immunity.  `purify` is the
one place the factor 1 - s is computed, for `sensitivity`, `simulate` and
`modes` alike: a Gram-Schmidt in exact integer arithmetic on the double
coefficients, since 1 - s is ~1e-10 for the ranging modes and double
arithmetic on the near-unit overlaps would lose six digits to cancellation.

Four memos serve a design scan whose designs share pulses; each is a pure
function of frozen, hashable keys (keys that compare equal hold the same
doubles), so a hit returns the very values a miss computes and results stay
bit-identical.  A memo holds only the pulse-only inputs of a quantity; the
quantity itself is formed per call by the one function that defines it.
Errors, such as a near-pole DomainError, are not cached: they are raised
again on every call.
  * `_ranging_shapes`, keyed by the `GaussianPulse`, bounded at MEMO_SIZE
    pulses: the unit ranging modes, their vector norms, K(sigma0), g(sigma0)
    and the overlaps <m_i, m_j>.  `ranging_modes` checks the length and
    scales K_X and K_Pw per call; the report's matrix passes the overlaps
    to `contamination_coefficient`.
  * `_purify_core`, keyed by the `SpectralMode`s of the target and the
    interferers (so two pulses never share an entry), bounded at 2 MEMO_SIZE:
    the unit residual, 1 - s and the position of a refused input; `purify`
    raises the refusal itself, naming the caller's labels.
  * `_oracle_rows`, keyed by the `GaussianPulse`, bounded at MEMO_SIZE: the
    oracle's projections of omega / c and of the X and P_w gradients over
    1 m, free of state and length; each mode weights them per call.
  * `_baseline_combinations`, one entry per process: the two- and
    three-colour combinations, whose weights depend on the fixed wavelengths
    alone; each report takes their shot noise at its own photon budget.
A `GaussianPulse` and a `SpectralMode` compute their hash once, when built,
so a memo lookup rehashes no coefficients; a mode computes its norm on first
use.  Every vector norm here is sqrt(v.v), which is what `np.linalg.norm`
computes for a real vector, bit for bit, at less than half its cost; the
oracle and `purify` build their modes from `.tolist()` floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermvander

from . import air_model, mode_algebra, multicolor
from .air_model import SPEED_OF_LIGHT, AirState
from .dispersion import RANGING_LABELS, phase_gradient
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import GaussianPulse, SpectralMode, inner_product

# Refusal floor of `purify` on each residual share 1 - s.  Its arithmetic is
# exact, so the only error left is the double representation of the mode
# vectors: a relative change u = 2**-53 in the inputs moves sqrt(1 - s) by
# about u / sqrt(1 - s) relative.  The floor is where that bound reaches a
# budget of 2**-20 (~1e-6, six significant digits of K):
# 1 - s = (2**-53 / 2**-20)**2 = 2**-66 ~ 1.4e-20.
PURIFY_FLOOR = 2.0**-66

# Pulses held by the per-carrier memos: `_ranging_shapes` and `_oracle_rows`
# keep MEMO_SIZE pulses, `_purify_core` the full and the X-only purification
# of each.  A design scan cycles over a few dozen pulses; an entry is at
# most about a kilobyte.
MEMO_SIZE = 256

# The report's multicolor baselines: a 1064 nm comb, frequency-doubled and
# -tripled, sharing the report's photon budget.
_BASELINE_WAVELENGTHS_M = (1.064e-6, 0.532e-6, 0.355e-6)


@dataclass(frozen=True)
class DetectionMode:
    """A unit-norm spectral mode tagged with the parameter it detects.

    k_const carries the dimensional normalization: 1/m for L,
    dimensionless for X, 1/Pa for P_w.
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


@functools.lru_cache(maxsize=MEMO_SIZE)
def _ranging_shapes(pulse: GaussianPulse):
    """The pulse-only part of `ranging_modes`: unit modes, vector norms, K(sigma0),
    g(sigma0), and the overlaps <m_i, m_j> (1 on the diagonal)."""
    sigma0 = air_model.sigma_from_omega(pulse.omega0)
    a_l, a_x, a_p = _ranging_vectors(pulse)
    norms = tuple(math.sqrt(a.dot(a)) for a in (a_l, a_x, a_p))
    modes = tuple(
        SpectralMode(pulse, tuple((a / n).tolist())) for a, n in zip((a_l, a_x, -a_p), norms)
    )
    overlaps = tuple(
        tuple(1.0 if i == j else inner_product(mi, mj) for j, mj in enumerate(modes))
        for i, mi in enumerate(modes)
    )
    return modes, norms, air_model.k_dispersion(sigma0), air_model.water_term(sigma0), overlaps


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
    air_model.check_length(length_m)
    del state  # shapes are state-independent by construction
    modes, (n_l, n_x, n_p), k_sigma, g_sigma, _ = _ranging_shapes(pulse)
    k_l = n_l / SPEED_OF_LIGHT
    k_x = k_sigma * length_m / SPEED_OF_LIGHT * n_x
    k_p = g_sigma * length_m / SPEED_OF_LIGHT * n_p
    return tuple(map(DetectionMode, RANGING_LABELS, modes, (k_l, k_x, k_p)))


def _integer_vector(mode: SpectralMode, order: int) -> list[int]:
    """The coefficients padded to `order`, as exact integers up to a common 2**-k."""
    ratios = [x.as_integer_ratio() for x in mode.padded(order).tolist()]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@functools.lru_cache(maxsize=2 * MEMO_SIZE)
def _purify_core(target: SpectralMode, against: tuple[SpectralMode, ...]):
    """(unit residual or None, share 1 - s, position of a refused input or None)."""
    order = max(m.order for m in (target, *against))
    basis: list[tuple[list[int], int]] = []
    for i, m in enumerate((*against, target)):
        x = _integer_vector(m, order)
        r = x
        for q, qq in basis:
            qr = _dot(q, r)
            r = [qq * a - qr * b for a, b in zip(r, q)]
        rr = _dot(r, r)
        share = _dot(r, x) ** 2 / (rr * _dot(x, x)) if rr else 0.0
        if share <= PURIFY_FLOOR:
            return None, share, i
        basis.append((r, rr))
    scale = 1 << max(abs(c) for c in r).bit_length()
    vec = np.array([c / scale for c in r])
    return SpectralMode(target.pulse, tuple((vec / math.sqrt(vec.dot(vec))).tolist())), share, None


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
    pulse = target.mode.pulse
    modes = tuple([dm.mode for dm in against])
    for m in modes:
        if m.pulse is not pulse and m.pulse != pulse:
            raise ValidationError("purification needs every mode on the target's pulse basis")
    mode, share, refused = _purify_core(target.mode, modes)
    if refused == len(against):
        raise SeparabilityError(
            f"parameter {target.label!r} not separable: its detection mode "
            "lies in the span of the interfering modes"
        )
    if refused is not None:
        raise SeparabilityError(
            f"interfering modes are degenerate: {against[refused].label!r} "
            "lies in the span of those before it"
        )
    label = f"{target.label}^p({','.join([dm.label for dm in against])})"
    return DetectionMode(label, mode, target.k_const * math.sqrt(share))


@functools.cache
def _oracle_table() -> tuple[np.ndarray, np.ndarray]:
    """Node offsets sqrt(2) x_k (in delta_omega) and rows w_k H_n(x_k) / sqrt(pi 2^n n!)
    for n <= MAX_ORDER_DEFAULT.

    24 Gauss-Hermite nodes reach omega0 +/- 8.51 delta_omega; 48 agree to ~4e-16.
    """
    order = mode_algebra.MAX_ORDER_DEFAULT
    x, w = hermgauss(24)
    norm = [(math.pi * 2.0**n * math.factorial(n)) ** -0.5 for n in range(order + 1)]
    offsets, table = math.sqrt(2.0) * x, np.asarray(norm)[:, None] * hermvander(x, order).T * w
    offsets.flags.writeable = table.flags.writeable = False
    return offsets, table


@functools.lru_cache(maxsize=MEMO_SIZE)
def _oracle_rows(pulse: GaussianPulse) -> np.ndarray:
    """The projections of the vacuum L gradient omega / c and of the X and P_w
    gradients over 1 m: `phase_gradient` at X = P_w = 0, where n_phi is 1.0."""
    offsets, table = _oracle_table()
    w = pulse.omega0 + pulse.delta_omega * offsets
    vacuum = AirState(0.0, 0.0, 0.0, 0.0)
    rows = np.array([table @ phase_gradient(label, w, vacuum, 1.0) for label in RANGING_LABELS])
    rows.flags.writeable = False
    return rows


def numeric_detection_mode(
    label: str, pulse: GaussianPulse, state: AirState, length_m: float
) -> DetectionMode:
    """Exact-gradient oracle for the analytic detection modes.

    Every parameter enters the phase linearly, so du/dp = i (dphi/dp) u
    exactly; its coefficients are a 24-node Gauss-Hermite projection (nodes at
    omega0 +/- 8.51 delta_omega, exact for polynomial dphi/dp of degree
    <= 39).  Nodes past the resonance pole raise DomainError.  The pulse's
    `_oracle_rows` combine with weights (1, X, P_w) for L, (0, L, 0) for X
    and (0, 0, L) for P_w.
    """
    weights = {"L": (1.0, air_model.density_factor(state), state.water_vapor_pa),
               "X": (0.0, length_m, 0.0), "Pw": (0.0, 0.0, length_m)}
    if label not in weights:
        raise ValidationError(f"unknown parameter label {label!r}")
    coeffs = np.array(weights[label]) @ _oracle_rows(pulse)
    k_est = math.sqrt(coeffs.dot(coeffs))
    if k_est == 0.0:
        raise DomainError(f"parameter {label!r} has no effect on the field")
    return DetectionMode(f"{label}(numeric)", SpectralMode(pulse, tuple((coeffs / k_est).tolist())), k_est)


def contamination_coefficient(k_lo: float, k_j: float, overlap: float) -> float:
    """(K_j / K_lo) <w_lo, w_j>: coefficient of p_j in the signal S[w_lo],
    given the overlap <w_lo, w_j>."""
    return float(k_j / k_lo * overlap)


@dataclass(frozen=True)
class PurifiedSensitivity:
    """Shot-noise distance sensitivities with and without purification.

    p_X here is the dimensionless deviation of the density factor X from its
    reference value; p_Pw is in pascal.  k-constants are in 1/m.
    """

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
            k_raw=w_l.k_const,
            k_full=k_full,
            k_x_only=k_x,
            raw_m=min_detectable(w_l.k_const, n_photons),
            full_m=min_detectable(k_full, n_photons),
            x_only_m=min_detectable(k_x, n_photons),
        )


@functools.cache
def _baseline_combinations() -> tuple[multicolor.MulticolorCombination, multicolor.MulticolorCombination]:
    """The two- and three-colour combinations of _BASELINE_WAVELENGTHS_M: they
    depend on the wavelengths alone, not on the photon budget."""
    return (
        multicolor.two_color_combination(*_BASELINE_WAVELENGTHS_M[:2]),
        multicolor.synth_3wi(*_BASELINE_WAVELENGTHS_M),
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Cross-contamination structure and sensitivities of the ranging scheme.

    `matrix` rows/columns are ordered (L, X, Pw); entry [i][j] is the
    coefficient of p_j in the signal measured with LO w_i, so the diagonal
    is exactly 1.  Minimum detectable values are recomputable from the
    stored k_consts as 1/(2 sqrt(N) K).  `numeric_mode_deviation` is None,
    and `oracle_refusal` says why, when the oracle's nodes leave the air
    model's validity band.
    """

    n_photons: float
    length_m: float
    pulse: GaussianPulse
    k_consts: dict[str, float]
    min_detectable: dict[str, float]
    matrix: tuple[tuple[float, float, float], ...]
    x_contamination_per_m: float
    pw_contamination_per_m_pa: float
    purified: PurifiedSensitivity
    numeric_mode_deviation: float | None
    baselines: dict[str, float]
    oracle_refusal: str | None = None

    def to_text(self) -> str:
        dev = self.numeric_mode_deviation
        deviation = f"n/a ({self.oracle_refusal})" if dev is None else f"{dev:.6e}"
        lines = [
            "# ranging sensitivity report",
            "# units: p_L in m; p_X dimensionless (density-factor deviation); p_Pw in Pa",
            f"photons = {self.n_photons:.6e}",
            f"length_m = {self.length_m:.6e}",
            f"center_wavelength_nm = {2.0 * math.pi * SPEED_OF_LIGHT / self.pulse.omega0 * 1e9:.6f}",
            f"relative_bandwidth = {self.pulse.delta_omega / self.pulse.omega0:.12f}",
        ]
        for lab in RANGING_LABELS:
            lines.append(f"k_{lab} = {self.k_consts[lab]:.12e}")
        for lab in RANGING_LABELS:
            lines.append(f"min_{lab} = {self.min_detectable[lab]:.12e}")
        lines += [
            f"x_contamination_per_m = {self.x_contamination_per_m:.12e}",
            f"pw_contamination_per_m_pa = {self.pw_contamination_per_m_pa:.12e}",
            "# shot-noise values below are independent of length_m: the",
            "# purification factor is built from length-free mode overlaps",
            f"shot_noise_raw_m = {self.purified.raw_m:.12e}",
            f"shot_noise_purified_m = {self.purified.full_m:.12e}",
            f"shot_noise_x_only_purified_m = {self.purified.x_only_m:.12e}",
            f"numeric_mode_deviation = {deviation}",
        ]
        for key in sorted(self.baselines):
            lines.append(f"{key} = {self.baselines[key]:.12e}")
        lines.append("# contamination matrix M[i][j]: rows/cols " + ",".join(RANGING_LABELS))
        for lab, row in zip(RANGING_LABELS, self.matrix):
            lines.append("M[" + lab + "] = " + ", ".join(f"{v:.12e}" for v in row))
        return "\n".join(lines) + "\n"


def contamination_report(
    pulse: GaussianPulse,
    state: AirState,
    length_m: float,
    n_photons: float,
) -> SensitivityReport:
    """Full cross-signal report for the ranging parameter set.

    Includes the multicolor shot-noise baselines (same total photon budget,
    frequency-doubled/tripled 1064 nm set) and the largest coefficient
    deviation of the verbatim w_L mode from the exact Gauss-Hermite oracle.
    The oracle's outer nodes reach omega0 +/- 8.51 delta_omega, past the
    pulse itself; where they cross the resonance pole the deviation is
    reported as not available and the rest of the report stands.
    """
    if not n_photons >= 3.0:
        raise ValidationError(
            f"photons={n_photons} must be >= 3: the three-colour baseline splits "
            "the photon budget over three channels of at least one photon each"
        )
    w_l, w_x, w_pw = ranging_modes(pulse, state, length_m)
    *_, overlaps = _ranging_shapes(pulse)
    k_consts = (w_l.k_const, w_x.k_const, w_pw.k_const)
    rows = []
    for k_lo, row in zip(k_consts, overlaps):
        rows.append(tuple(map(contamination_coefficient, (k_lo,) * 3, k_consts, row)))
    matrix = tuple(rows)
    purified = PurifiedSensitivity.build(w_l, w_x, w_pw, n_photons)

    deviation, refusal = None, None
    try:
        numeric_l = numeric_detection_mode("L", pulse, state, length_m)
    except DomainError as exc:
        refusal = f"oracle refused: {exc}"
    else:
        # max |c_n - c'_n| over the coefficients, the shorter mode padded with zeros
        pairs = itertools.zip_longest(w_l.mode.coefficients, numeric_l.mode.coefficients, fillvalue=0.0)
        deviation = max(map(abs, itertools.starmap(operator.sub, pairs)))

    two, three = _baseline_combinations()
    base = {
        "two_color_shot_noise_m": multicolor.shot_noise(two, (n_photons / 2,) * 2),
        "three_color_shot_noise_m": multicolor.shot_noise(three, (n_photons / 3,) * 3),
    }

    return SensitivityReport(
        n_photons=n_photons,
        length_m=length_m,
        pulse=pulse,
        k_consts=dict(zip(RANGING_LABELS, k_consts)),
        min_detectable=dict(zip(RANGING_LABELS, [min_detectable(k, n_photons) for k in k_consts])),
        matrix=matrix,
        x_contamination_per_m=matrix[0][1] / length_m,
        pw_contamination_per_m_pa=matrix[0][2] / length_m,
        purified=purified,
        numeric_mode_deviation=deviation,
        baselines=base,
        oracle_refusal=refusal,
    )
