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
The rule's nodes and weights are stored as the doubles of the reference
`hermgauss(24)` build, its Hermite rows follow the three-term recurrence,
and the oracle runs on tuples of floats: `phase_gradient` takes the air
model's float path at each node.
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
doubles), so a hit returns the very object a miss builds and results stay
bit-identical.  Errors, such as a near-pole DomainError or a refused
purification, are not cached: they are raised again on every call, a
refusal naming that call's labels.
  * `_ranging_shapes`, keyed by the `GaussianPulse`, bounded at MEMO_SIZE
    pulses: the `_PulseRecord`, all of a design that depends on the pulse
    alone.  Its K of each LO_TABLE choice (or refusal text) is filled once
    through `lo_mode`: K_L sqrt(1 - s) depends on neither the length nor the
    interferers' K.
  * `_purify_core`, keyed by the target `DetectionMode` and the (mode,
    label) pair of each interferer, whose K does not enter (so every length
    shares one entry), bounded at 2 MEMO_SIZE: the finished purified
    `DetectionMode` that `purify`, and so every LO, returns.
  * `_oracle_rows`, keyed by the `GaussianPulse`, bounded at MEMO_SIZE: the
    oracle's projections of omega / c and of the X and P_w gradients over
    1 m, which `_oracle_projection` weights per call.
  * `_baseline_combinations`, one entry per process: the two- and
    three-colour combinations with their channel frequencies.
A warm report reads its pulse's record once and forms only the floats that
depend on its state, length and photon count: K_X and K_Pw, the matrix, the
minimum detectable values, the oracle's deviation and the two baselines;
`ranging_modes` builds only w_X and w_Pw.  A `GaussianPulse` and a
`SpectralMode` keep their hash from when they are built, a `DetectionMode`
from its first use, and a mode its norm from its first use.  Every vector
norm is sqrt(v.v) added left to right (`mode_algebra.dot`), an overlap is
exact and rounded once, and each oracle coefficient is a correctly rounded
sum: no bit of a report depends on a BLAS kernel.  The report and its
`PurifiedSensitivity` are fresh records, never memo keys, so they are plain
slotted dataclasses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import air_model, mode_algebra, multicolor, records
from .air_model import SPEED_OF_LIGHT, AirState
from .dispersion import RANGING_LABELS, phase_gradient
from .errors import DomainError, SeparabilityError, ValidationError
from .mode_algebra import GaussianPulse, SpectralMode, dot, exact_coefficients, inner_product

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

# The local oscillators of `simulate`, `sensitivity` and `modes`: w_L purified
# against the slice `against` of the ranging modes (w_L, w_X, w_Pw), empty
# for w_L itself, printed on the `sensitivity` line `report_key` and the
# `modes` row `mode_row`; an X-only row would change the output of `modes`.
LoChoice = NamedTuple("LoChoice", [("against", slice), ("report_key", str), ("mode_row", str | None)])
LO_TABLE = {
    "raw": LoChoice(slice(1, 1), "shot_noise_raw_m", "w_L"),
    "purified": LoChoice(slice(1, 3), "shot_noise_purified_m", "w_L_p"),
    "purified_x_only": LoChoice(slice(1, 2), "shot_noise_x_only_purified_m", None),
}

# The report's multicolor baselines: a 1064 nm comb, frequency-doubled and
# -tripled, sharing the report's photon budget.
_BASELINE_WAVELENGTHS_M = (1.064e-6, 0.532e-6, 0.355e-6)


@dataclass(frozen=True, init=False)
class DetectionMode:
    """A unit-norm spectral mode tagged with the parameter it detects.

    k_const carries the dimensional normalization: 1/m for L,
    dimensionless for X, 1/Pa for P_w.  The hash is kept, outside the
    fields, from its first use: memo keys rehash on every call.
    """

    label: str
    mode: SpectralMode
    k_const: float

    # written out, not generated: the checks run in the one frame that sets the fields
    def __init__(self, label: str, mode: SpectralMode, k_const: float) -> None:
        if not k_const > 0.0:
            raise ValidationError(f"k_const={k_const} must be > 0")
        if abs(mode.norm() ** 2 - 1.0) > 1e-12:
            raise ValidationError(f"detection mode {label!r} is not unit norm")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "k_const", k_const)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.label, self.mode, self.k_const))
            object.__setattr__(self, "_hash", h)
            return h


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
    a_l = (w0, dw, 0.0)
    a_x = (w0 + dw**2 / w0 * d12, dw * (1.0 + s.delta1), math.sqrt(2.0) * dw**2 / w0 * d12)
    a_p = (w0 + dw**2 / w0 * e12, dw * (1.0 + s.eta1), math.sqrt(2.0) * dw**2 / w0 * e12)
    return a_l, a_x, a_p


@dataclass(frozen=True, slots=True)
class _PulseRecord:
    """The pulse-only part of a design: the finished w_L, the unit X and P_w
    modes and their vector norms, K(sigma0), g(sigma0), the overlaps of the
    three unit modes, and the K of each LO_TABLE choice (None where refused)
    with each refusal by choice.  Slotted: a warm design reads it often."""

    w_l: DetectionMode
    m_x: SpectralMode
    m_pw: SpectralMode
    n_x: float
    n_pw: float
    k_sigma: float
    g_sigma: float
    overlaps: tuple[tuple[float, float, float], ...]
    lo_ks: tuple[float | None, ...]
    refusals: dict[str, str]

    def k_consts(self, length_m: float) -> tuple[float, float, float]:
        """K_L, K_X and K_Pw over length_m: K_X and K_Pw scale linearly with it."""
        return (self.w_l.k_const, self.k_sigma * length_m / SPEED_OF_LIGHT * self.n_x,
                self.g_sigma * length_m / SPEED_OF_LIGHT * self.n_pw)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _ranging_shapes(pulse: GaussianPulse) -> _PulseRecord:
    """The `_PulseRecord` of the pulse."""
    sigma0 = air_model.sigma_from_omega(pulse.omega0)
    a_l, a_x, a_p = _ranging_vectors(pulse)
    norms = tuple(math.sqrt(dot(a, a)) for a in (a_l, a_x, a_p))
    modes = tuple(
        SpectralMode(pulse, tuple([sign * x / n for x in a]))
        for a, n, sign in zip((a_l, a_x, a_p), norms, (1.0, 1.0, -1.0))
    )
    overlaps = tuple(
        tuple(1.0 if i == j else inner_product(mi, mj) for j, mj in enumerate(modes))
        for i, mi in enumerate(modes)
    )
    w_l = DetectionMode(RANGING_LABELS[0], modes[0], norms[0] / SPEED_OF_LIGHT)
    # the interferers' K never enters a purification, so any K gives the LOs' own
    interferers = [DetectionMode(label, m, 1.0) for label, m in zip(RANGING_LABELS[1:], modes[1:])]
    lo_ks, refusals = _lo_constants((w_l, *interferers))
    k_sigma, g_sigma = air_model.k_dispersion(sigma0), air_model.water_term(sigma0)
    return _PulseRecord(w_l, *modes[1:], *norms[1:], k_sigma, g_sigma, overlaps, lo_ks, refusals)


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
    rec = _ranging_shapes(pulse)
    _, k_x, k_pw = rec.k_consts(length_m)
    return rec.w_l, DetectionMode(RANGING_LABELS[1], rec.m_x, k_x), DetectionMode(RANGING_LABELS[2], rec.m_pw, k_pw)


@functools.lru_cache(maxsize=2 * MEMO_SIZE)
def _purify_core(target: DetectionMode, against: tuple[tuple[SpectralMode, str], ...]) -> DetectionMode:
    """`purify` of `target` against the interferers' (mode, label) pairs."""
    pulse = target.mode.pulse
    modes, labels = [m for m, _ in against], [label for _, label in against]
    if any(m.pulse != pulse for m in modes):
        raise ValidationError("purification needs every mode on the target's pulse basis")
    order = max(m.order for m in (target.mode, *modes))
    basis: list[tuple[list[int], int]] = []
    for i, m in enumerate((*modes, target.mode)):
        x, _ = exact_coefficients(m.padded(order))
        r = x
        for q, qq in basis:
            qr = dot(q, r)
            r = [qq * a - qr * b for a, b in zip(r, q)]
        rr = dot(r, r)
        share = dot(r, x) ** 2 / (rr * dot(x, x)) if rr else 0.0
        if share <= PURIFY_FLOOR:
            raise SeparabilityError(
                f"parameter {target.label!r} not separable: its detection mode "
                "lies in the span of the interfering modes" if i == len(against) else
                f"interfering modes are degenerate: {labels[i]!r} lies in the span of those before it"
            )
        basis.append((r, rr))
    scale = 1 << max(abs(c) for c in r).bit_length()
    vec = [c / scale for c in r]
    norm = math.sqrt(dot(vec, vec))
    mode = SpectralMode(pulse, tuple([x / norm for x in vec]))
    return DetectionMode(f"{target.label}^p({','.join(labels)})", mode, target.k_const * math.sqrt(share))


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
    return _purify_core(target, tuple(map(operator.attrgetter("mode", "label"), against)))


def lo_mode(lo: LoChoice, modes: Sequence[DetectionMode]) -> DetectionMode:
    """The LO of the LO_TABLE entry `lo`, given the ranging modes (w_L, w_X, w_Pw)."""
    return purify(modes[0], modes[lo.against])


def _lo_constants(modes: Sequence[DetectionMode]) -> tuple[tuple[float | None, ...], dict[str, str]]:
    """The K of each LO_TABLE choice on the ranging modes (w_L, w_X, w_Pw), None
    where its purification is refused, and each refusal under its choice."""
    ks, refusals = [], {}
    for choice, lo in LO_TABLE.items():
        try:
            ks.append(lo_mode(lo, modes).k_const)
        except SeparabilityError as exc:
            ks.append(None)
            refusals[choice] = f"purification refused: {exc}"
    return tuple(ks), refusals


# The 24-node Gauss-Hermite rule for the weight exp(-x^2): its 12 positive
# nodes and their weights, each the double the reference hermgauss(24) returns.
# That rule is symmetric to the bit, x == -x[::-1] and w == w[::-1], so
# mirroring these 12 gives all 24; tests/test_detection.py pins them.
_HERMGAUSS_NODES = (
    0.22441454747251557, 0.6741711070372123, 1.1267608176112451, 1.5842500109616942,
    2.049003573661699, 2.523881017011427, 3.0125461375655647, 3.5200068130345246,
    4.053664402448149, 4.625662756423788, 5.259382927668044, 6.01592556142574,
)
_HERMGAUSS_WEIGHTS = (
    0.42693116386869934, 0.2861795353464429, 0.12773962178455917, 0.037445470503230736,
    0.007048355810072673, 0.0008236924826884169, 5.688691636404392e-05, 2.1582457049023414e-06,
    4.018971174941438e-08, 3.0462542699875555e-10, 6.584620243078167e-13, 1.6643684964891008e-16,
)


@functools.cache
def _oracle_table() -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Node offsets sqrt(2) x_k (in delta_omega) and rows w_k H_n(x_k) / sqrt(pi 2^n n!)
    for n <= MAX_ORDER_DEFAULT.

    24 Gauss-Hermite nodes reach omega0 +/- 8.51 delta_omega; 48 agree to ~4e-16.
    """
    x = tuple([-v for v in reversed(_HERMGAUSS_NODES)]) + _HERMGAUSS_NODES
    w = tuple(reversed(_HERMGAUSS_WEIGHTS)) + _HERMGAUSS_WEIGHTS
    # H_0 = 1, H_1 = 2x, H_{n+1} = 2x H_n - 2n H_{n-1}, each step rounded as
    # the reference hermvander rounds it
    order = mode_algebra.MAX_ORDER_DEFAULT
    x2 = [v * 2 for v in x]
    h = [[1.0] * len(x), x2]
    for i in range(2, order + 1):
        h.append([a * b - c * (2 * (i - 1)) for a, b, c in zip(h[i - 1], x2, h[i - 2])])
    norm = [(math.pi * 2.0**n * math.factorial(n)) ** -0.5 for n in range(order + 1)]
    table = tuple(tuple([c * hk * wk for hk, wk in zip(row, w)]) for c, row in zip(norm, h))
    return tuple([math.sqrt(2.0) * v for v in x]), table


@functools.lru_cache(maxsize=MEMO_SIZE)
def _oracle_rows(pulse: GaussianPulse) -> tuple[tuple[float, ...], ...]:
    """The projections of the vacuum L gradient omega / c and of the X and P_w
    gradients over 1 m: `phase_gradient` at X = P_w = 0, where n_phi is 1.0,
    on each node's frequency.  Each coefficient is the correctly rounded sum
    (`math.fsum`) of its 24 node products, whose terms span 16 orders of
    magnitude and cancel."""
    offsets, table = _oracle_table()
    w = [pulse.omega0 + pulse.delta_omega * o for o in offsets]
    vacuum = AirState(0.0, 0.0, 0.0, 0.0)
    return tuple(
        tuple([math.fsum(map(operator.mul, table_row, gradient)) for table_row in table])
        for gradient in ([phase_gradient(label, wk, vacuum, 1.0) for wk in w] for label in RANGING_LABELS)
    )


def _oracle_projection(label: str, pulse: GaussianPulse, state: AirState, length_m: float) -> tuple[list[float], float]:
    """The projected coefficients and K of `numeric_detection_mode`, with its
    refusals but the length check, which its callers make; each caller divides
    the coefficients by K."""
    if label == "L":
        weights = (1.0, air_model.density_factor(state), state.water_vapor_pa)
    elif label == "X":
        weights = (0.0, length_m, 0.0)
    elif label == "Pw":
        weights = (0.0, 0.0, length_m)
    else:
        raise ValidationError(f"unknown parameter label {label!r}")
    # each coefficient's three terms added in label order
    a, b, c = weights
    coeffs = [a * p + b * q + c * r for p, q, r in zip(*_oracle_rows(pulse))]
    k_est = math.sqrt(dot(coeffs, coeffs))
    if k_est == 0.0:
        raise DomainError(f"parameter {label!r} has no effect on the field")
    if not math.isfinite(k_est):
        raise ValidationError("mode coefficients must be finite")
    return coeffs, k_est


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
    air_model.check_length(length_m)
    coeffs, k_est = _oracle_projection(label, pulse, state, length_m)
    return DetectionMode(f"{label}(numeric)", SpectralMode(pulse, tuple([c / k_est for c in coeffs])), k_est)


def contamination_coefficient(k_lo: float, k_j: float, overlap: float) -> float:
    """(K_j / K_lo) <w_lo, w_j>: coefficient of p_j in the signal S[w_lo],
    given the overlap <w_lo, w_j>."""
    return k_j / k_lo * overlap


@dataclass(slots=True)
class PurifiedSensitivity:
    """Shot-noise distance sensitivities of the LO_TABLE choices.

    The k-constants (1/m), then the minimum detectable lengths (m), are the
    fields in LO_TABLE order: raw, fully purified, X-only purified.  A choice
    whose purification is refused has None in both, and `refusals` holds
    the refusal under its choice.
    """

    k_raw: float
    k_full: float | None
    k_x_only: float | None
    raw_m: float
    full_m: float | None
    x_only_m: float | None
    refusals: dict[str, str]

    @classmethod
    def build(cls, w_l: DetectionMode, w_x: DetectionMode, w_pw: DetectionMode, n_photons: float) -> "PurifiedSensitivity":
        """The sensitivities of the LOs purified from these ranging modes."""
        return cls.from_ks(*_lo_constants((w_l, w_x, w_pw)), n_photons)

    @classmethod
    def from_ks(cls, ks: Sequence[float | None], refusals: dict[str, str],
                n_photons: float) -> "PurifiedSensitivity":
        """The sensitivities at n_photons of the LO_TABLE K's `ks`, None where
        `refusals` says why."""
        # the raw LO is w_L itself: never refused
        k_raw, k_full, k_x_only = ks
        return cls(k_raw, k_full, k_x_only, min_detectable(k_raw, n_photons),
                   None if k_full is None else min_detectable(k_full, n_photons),
                   None if k_x_only is None else min_detectable(k_x_only, n_photons), dict(refusals))

    @property
    def shot_noise_m(self) -> tuple[float | None, ...]:
        """The minimum detectable lengths in LO_TABLE order."""
        return self.raw_m, self.full_m, self.x_only_m


@functools.cache
def _baseline_combinations() -> tuple[multicolor.MulticolorCombination, multicolor.MulticolorCombination]:
    """The two- and three-colour combinations of _BASELINE_WAVELENGTHS_M: they
    depend on the wavelengths alone, not on the photon budget."""
    return (
        multicolor.two_color_combination(*_BASELINE_WAVELENGTHS_M[:2]),
        multicolor.synth_3wi(*_BASELINE_WAVELENGTHS_M),
    )


@dataclass(slots=True)
class SensitivityReport:
    """Cross-contamination structure and sensitivities of the ranging scheme.

    `matrix` rows/columns are ordered (L, X, Pw); entry [i][j] is the
    coefficient of p_j in the signal measured with LO w_i, so the diagonal
    is exactly 1.  Minimum detectable values are recomputable from the
    stored k_consts as 1/(2 sqrt(N) K).  `numeric_mode_deviation` is None,
    and `oracle_refusal` says why, when the oracle's nodes leave the air
    model's validity band; an LO whose purification is refused prints its
    refusal in place of its shot noise.
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
        def value(v, spec, refusal):
            return (f"n/a ({refusal})", "") if v is None else (v, spec)

        sens = self.purified
        return records.lines([
            "# ranging sensitivity report",
            "# units: p_L in m; p_X dimensionless (density-factor deviation); p_Pw in Pa",
            ("photons", self.n_photons, ".6e"),
            ("length_m", self.length_m, ".6e"),
            ("center_wavelength_nm", 2.0 * math.pi * SPEED_OF_LIGHT / self.pulse.omega0 * 1e9, ".6f"),
            ("relative_bandwidth", self.pulse.delta_omega / self.pulse.omega0, ".12f"),
            *[(f"k_{lab}", self.k_consts[lab], ".12e") for lab in RANGING_LABELS],
            *[(f"min_{lab}", self.min_detectable[lab], ".12e") for lab in RANGING_LABELS],
            ("x_contamination_per_m", self.x_contamination_per_m, ".12e"),
            ("pw_contamination_per_m_pa", self.pw_contamination_per_m_pa, ".12e"),
            "# shot-noise values below are independent of length_m: the",
            "# purification factor is built from length-free mode overlaps",
            *[(lo.report_key, *value(m, ".12e", sens.refusals.get(choice)))
              for (choice, lo), m in zip(LO_TABLE.items(), sens.shot_noise_m)],
            ("numeric_mode_deviation", *value(self.numeric_mode_deviation, ".6e", self.oracle_refusal)),
            *[(key, self.baselines[key], ".12e") for key in sorted(self.baselines)],
            "# contamination matrix M[i][j]: rows/cols " + ",".join(RANGING_LABELS),
            *[(f"M[{lab}]", row, "{:.12e}, {:.12e}, {:.12e}") for lab, row in zip(RANGING_LABELS, self.matrix)],
        ])


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
    reported as not available and the rest of the report stands.  So is
    the shot noise of an LO whose purification is refused, as below the
    purification floor.
    """
    if not n_photons >= 3.0:
        raise ValidationError(
            f"photons={n_photons} must be >= 3: the three-colour baseline splits "
            "the photon budget over three channels of at least one photon each"
        )
    air_model.check_length(length_m)
    rec = _ranging_shapes(pulse)
    k_consts = rec.k_consts(length_m)
    k_l, k_x, k_pw = k_consts
    (o_ll, o_lx, o_lp), (o_xl, o_xx, o_xp), (o_pl, o_px, o_pp) = rec.overlaps
    cc = contamination_coefficient
    matrix = (
        (cc(k_l, k_l, o_ll), cc(k_l, k_x, o_lx), cc(k_l, k_pw, o_lp)),
        (cc(k_x, k_l, o_xl), cc(k_x, k_x, o_xx), cc(k_x, k_pw, o_xp)),
        (cc(k_pw, k_l, o_pl), cc(k_pw, k_x, o_px), cc(k_pw, k_pw, o_pp)),
    )
    purified = PurifiedSensitivity.from_ks(rec.lo_ks, rec.refusals, n_photons)

    deviation, refusal = None, None
    try:
        coeffs, k_est = _oracle_projection("L", pulse, state, length_m)
    except DomainError as exc:
        refusal = f"oracle refused: {exc}"
    else:
        # max |c_n - c'_n| over the unit coefficients c'_n = p_n / K; past w_L's
        # own, where its c_n is 0, that is max |p_n| / K, as rounding is monotonic
        own = rec.w_l.mode.coefficients
        unit = map(operator.truediv, coeffs, itertools.repeat(k_est))
        head = map(abs, map(operator.sub, own, unit))
        deviation = max(*head, max(map(abs, coeffs[len(own):])) / k_est)

    two, three = _baseline_combinations()
    base = {
        "two_color_shot_noise_m": multicolor.split_shot_noise(two, n_photons),
        "three_color_shot_noise_m": multicolor.split_shot_noise(three, n_photons),
    }

    # positional, in field order: keywords cost a twelve-field record about 1 us
    return SensitivityReport(
        n_photons, length_m, pulse,
        dict(zip(RANGING_LABELS, k_consts)),
        dict(zip(RANGING_LABELS, (min_detectable(k_l, n_photons), min_detectable(k_x, n_photons),
                                  min_detectable(k_pw, n_photons)))),
        matrix, matrix[0][1] / length_m, matrix[0][2] / length_m,
        purified, deviation, base, refusal,
    )
