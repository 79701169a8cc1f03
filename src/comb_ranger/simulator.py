"""Monte Carlo simulation of the shaped-LO homodyne distance measurement.

Each sample draws the perturbations (p_L, p_X, p_Pw) around their fixed
values, forms the linearized field, projects it on the chosen LO mode and
adds zero-mean Gaussian shot noise of width sigma_S = 1/(2 sqrt(N) K_lo),
the coherent-state Cramer-Rao level.  Photon-counting discreteness is not
modelled (irrelevant at N ~ 1e16), and the environmental fluctuations are
white (drawn independently per sample).

Reproducibility contract: the entire draw sequence is a deterministic
function of (seed, sample index).  Draws are rows of standard-normal
blocks taken in order from one Philox-keyed generator.  The draws are
prefix-stable: row i depends only on (seed, i), so a longer run repeats
every row of a shorter one with the same seed, the rows do not depend on
how the run is cut into blocks, and reruns are bit-identical.

A run streams its samples in blocks of CHUNK_ROWS rows: each block is
drawn, projected and folded into running moments and a running regression,
then dropped, so memory is O(CHUNK_ROWS), not O(samples); a caller that
wants the samples takes each block as it is folded.  One block is drawn
ahead: while block i is projected and folded, a helper thread fills block
i+1 from the same generator (numpy releases the interpreter lock while it
draws), so the draw time hides the rest of the work.  The draws live in
two preallocated CHUNK_ROWS x 4 buffers that the two threads take in turn.
The generator is used by one thread at a time and the blocks are drawn in
order, so the rows, and every aggregate, are those of a sequential run:
the reproducibility contract is unchanged.

Leakage of the environmental parameters into the distance estimate is
characterized by ordinary least squares of the signal against the injected
fluctuation sequences, mirroring how a real instrument would measure its
own cross-sensitivity.  The least squares is solved by a tall-skinny QR
built one block at a time, never by normal equations: the raw LO's signal
spread is about 1.7e7 times its shot noise, so the residual sum of squares
would cancel to noise in a Gram-matrix formula.  For the same reason the
QR regresses the signal minus its noiseless projection and adds the
projection's coefficients back, which gives the same least-squares
estimate without the cancellation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import detection
from .air_model import AirState, check_length
from .dispersion import RANGING_LABELS, check_linearity
from .errors import DomainError, ValidationError
from .mode_algebra import GaussianPulse, inner_product

LO_CHOICES = ("raw", "purified", "purified_x_only")

# rows per streamed block: a few MB of float64 per block, and two 2 MB draw
# buffers, one being folded while the helper thread fills the other; 2**17
# rows raised the peak RSS of a 1e5-sample `simulate --out` by 5 %
CHUNK_ROWS = 65536
# rows per QR update: 8192 x 4 float64 (256 KB) stays in cache, which made
# the update of a 65536-row block about 3x faster than one QR of the block
QR_ROWS = 8192
# largest sample count a run accepts: about two minutes of streaming at
# 0.12 s per 1e6 samples, and 250x the largest benchmarked run; a count far
# beyond streams without output for years
MAX_SAMPLES = 10**9

_FINITE_FIELDS = (
    "length_m", "n_photons",
    "p_l_m", "p_x", "p_pw_pa", "sigma_p_l_m", "sigma_p_x", "sigma_p_pw_pa",
)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_sample_count(count) -> None:
    """The one sample-count rule, of the config key and of SimConfig alike."""
    if not (_is_integer(count) and 1 <= count <= MAX_SAMPLES):
        raise ValidationError(
            f"sample_count (config key 'samples') = {count!r} must be an integer in [1, {MAX_SAMPLES:.0e}]"
        )


@dataclass(frozen=True)
class SimConfig:
    """Full specification of a simulation run.

    Fixed perturbations are constant offsets; sigma_* are standard
    deviations of additional zero-mean per-sample fluctuations.  The seed
    fixes the complete sample sequence.
    """

    pulse: GaussianPulse
    state: AirState
    length_m: float
    n_photons: float
    lo_choice: str
    sample_count: int
    rng_seed: int
    p_l_m: float = 0.0
    p_x: float = 0.0
    p_pw_pa: float = 0.0
    sigma_p_l_m: float = 0.0
    sigma_p_x: float = 0.0
    sigma_p_pw_pa: float = 0.0

    def __post_init__(self) -> None:
        if self.lo_choice not in LO_CHOICES:
            raise ValidationError(f"lo_choice must be one of {LO_CHOICES}")
        check_sample_count(self.sample_count)
        # the seed is the key of a 128-bit Philox generator
        if not (_is_integer(self.rng_seed) and 0 <= self.rng_seed < 2**128):
            raise ValidationError(f"rng_seed={self.rng_seed!r} must be an integer in [0, 2**128)")
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name}={getattr(self, name)} must be finite")
        if not self.n_photons >= 1.0:
            raise ValidationError(f"n_photons={self.n_photons} must be >= 1")
        check_length(self.length_m)
        for name in ("sigma_p_l_m", "sigma_p_x", "sigma_p_pw_pa"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        # typical excursions (fixed offset + 1 sigma) must stay inside the
        # linearity guard of the first-order signal model
        typical = (
            abs(self.p_l_m) + self.sigma_p_l_m,
            abs(self.p_x) + self.sigma_p_x,
            abs(self.p_pw_pa) + self.sigma_p_pw_pa,
        )
        check_linearity(typical, self.pulse, self.state, self.length_m)

    @property
    def fluctuating_labels(self) -> tuple[str, ...]:
        sigmas = (self.sigma_p_l_m, self.sigma_p_x, self.sigma_p_pw_pa)
        return tuple(lab for lab, s in zip(RANGING_LABELS, sigmas) if s > 0.0)


@dataclass(frozen=True)
class RegressionSlope:
    """OLS slope of the signal against one injected fluctuation; both are
    finite and the std error is > 0 (`_leakage_slopes` refuses otherwise)."""

    value: float
    std_error: float

    @property
    def t_stat(self) -> float:
        return self.value / self.std_error


@dataclass(frozen=True)
class SimResult:
    """Aggregated statistics of one run."""

    lo_label: str
    k_lo: float
    n_samples: int
    mean_estimate_m: float
    std_estimate_m: float
    std_error_mean_m: float
    predicted_sigma_m: float
    bias_m: float
    slopes: dict[str, RegressionSlope]
    immune: bool | None
    rng_seed: int

    def to_text(self) -> str:
        lines = [
            "# simulation result",
            f"lo = {self.lo_label}",
            f"k_lo_per_m = {self.k_lo:.12e}",
            f"seed = {self.rng_seed}",
            f"samples = {self.n_samples}",
            f"mean_estimate_m = {self.mean_estimate_m:.12e}",
            f"std_estimate_m = {self.std_estimate_m:.12e}",
            f"std_error_mean_m = {self.std_error_mean_m:.12e}",
            f"predicted_sigma_m = {self.predicted_sigma_m:.12e}",
            f"bias_m = {self.bias_m:.12e}",
        ]
        for lab in RANGING_LABELS:
            if lab in self.slopes:
                s = self.slopes[lab]
                lines.append(
                    f"leakage_{lab} = {s.value:.6e} +/- {s.std_error:.6e} (t = {s.t_stat:.3f})"
                )
            else:
                lines.append(f"leakage_{lab} = n/a")
        lines.append(f"immune = {'n/a' if self.immune is None else str(self.immune).lower()}")
        return "\n".join(lines) + "\n"


def select_lo(
    config: SimConfig,
    modes: tuple[detection.DetectionMode, ...],
) -> detection.DetectionMode:
    """Resolve the configured LO choice to a detection mode.

    `modes` are the config's ranging modes (w_L, w_X, w_Pw).
    """
    w_l, w_x, w_pw = modes
    if config.lo_choice == "raw":
        return w_l
    if config.lo_choice == "purified":
        return detection.purify(w_l, [w_x, w_pw])
    return detection.purify(w_l, [w_x])


def draw_generator(seed: int) -> np.random.Generator:
    """The Philox-keyed generator whose stream fixes every draw of a run."""
    return np.random.Generator(np.random.Philox(key=seed))


def perturbation_draws(
    gen: np.random.Generator, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The next `count` rows of standard-normal draws from `gen`, shape (count, 4).

    Row i of a run holds sample i's draws (z_L, z_X, z_Pw, z_noise).  The
    generator's stream is consumed in order, so successive calls on one
    generator give the same rows as a single call for their total count:
    rows depend on (seed, i) alone, whatever the block sizes.  With `out`, a
    C-contiguous (count, 4) float64 array, the rows are written there and
    `out` is returned; nothing is allocated.
    """
    return gen.standard_normal((count, 4), out=out)


class _DrawAhead(threading.Thread):
    """Fills `out` with the next rows of `gen` while the caller works on.

    After `join`, `check` raises again any error the draw raised.
    """

    def __init__(self, gen: np.random.Generator, out: np.ndarray) -> None:
        super().__init__(name="comb_ranger-draw-ahead", daemon=True)
        self._gen, self._out = gen, out
        self._error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            perturbation_draws(self._gen, len(self._out), out=self._out)
        except BaseException as exc:  # raised in the caller by check()
            self._error = exc

    def check(self) -> None:
        if self._error is not None:
            raise self._error


def run(config: SimConfig, on_rows=None) -> SimResult:
    """Run the simulation and aggregate estimator statistics.

    The per-sample signal is the homodyne projection of the linearized
    field on the LO; with the ranging modes this reduces to the
    contamination-matrix row of the chosen LO, which is how it is
    evaluated (vectorized) here.  Samples are drawn, projected and folded
    into the aggregates CHUNK_ROWS at a time, the next block being drawn in
    a helper thread meanwhile; no array grows with the sample count.  After
    the block of m rows from `start` is folded, `on_rows`, if given, is
    called with its indices np.arange(start, start + m), its (m, 3)
    perturbations (p_L, p_X, p_Pw) and its m signals, new arrays that the
    run does not touch again.
    """
    n = config.sample_count
    labels = config.fluctuating_labels
    k = 1 + len(labels)
    if labels and n <= k:
        raise ValidationError(
            f"{n} samples cannot support a regression with {k} coefficients"
        )
    modes = detection.ranging_modes(config.pulse, config.state, config.length_m)
    lo = select_lo(config, modes)
    # with the raw LO the L entry is the self-projection <w_L, w_L>: it is
    # computed, not set to 1, because it is 1 only to rounding and the
    # samples carry its last bit
    coeff = np.array([
        detection.contamination_coefficient(lo.k_const, m.k_const, inner_product(lo.mode, m.mode))
        for m in modes
    ])
    sigma_s = detection.min_detectable(lo.k_const, config.n_photons)
    offsets = (config.p_l_m, config.p_x, config.p_pw_pa)
    sigmas = (config.sigma_p_l_m, config.sigma_p_x, config.sigma_p_pw_pa)
    columns = [RANGING_LABELS.index(lab) for lab in labels]

    gen = draw_generator(config.rng_seed)
    mean, m2 = 0.0, 0.0
    # R factor of [1, fluctuating perts..., signal - projection] over the
    # rows seen so far; its zero start rows do not change the factor.
    # Least squares is linear in the response, so regressing the signal
    # minus its noiseless projection perts @ coeff and adding coeff back
    # to the slopes is the OLS of the signal itself; the QR then never
    # sees the raw LO's 1.7e7:1 cancellation of signal against noise
    r = np.zeros((k + 1, k + 1))
    # block b is drawn into buffers[b % 2]: the first block here, each later
    # one by a helper thread while the block before it is folded
    rows = min(CHUNK_ROWS, n)
    buffers = [np.empty((rows, 4)) for _ in range(1 if rows == n else 2)]
    perturbation_draws(gen, rows, out=buffers[0])
    for b, start in enumerate(range(0, n, CHUNK_ROWS)):
        m = min(CHUNK_ROWS, n - start)
        z = buffers[b % 2][:m]
        ahead = None
        if start + m < n:
            ahead = _DrawAhead(gen, buffers[(b + 1) % 2][: min(CHUNK_ROWS, n - start - m)])
        try:
            perts = np.empty((m, 3))
            for j in range(3):
                perts[:, j] = offsets[j] + sigmas[j] * z[:, j]
            projection = perts @ coeff
            signal = projection + sigma_s * z[:, 3]

            # Chan's merge of this block's mean and squared deviations; the
            # deviations are squared in place as np.std does, so a one-block
            # run matches np.mean and np.std(ddof=1) bit for bit
            block_mean = float(np.mean(signal))
            dev = signal - block_mean
            np.multiply(dev, dev, out=dev)
            block_m2 = float(np.sum(dev))
            del dev  # alive during on_rows, it raised a 1e5-sample `--out` peak by 0.5 MB
            if start == 0:
                mean, m2 = block_mean, block_m2
            else:
                delta = block_mean - mean
                total = start + m
                mean += delta * m / total
                m2 += block_m2 + delta * delta * start * m / total

            if labels:
                response = np.subtract(signal, projection, out=projection)
                r = _fold_qr(r, perts[:, columns], response)

            if on_rows is not None:
                on_rows(np.arange(start, start + m), perts, signal)

        finally:
            if ahead is not None:
                ahead.join()
        if ahead is not None:
            ahead.check()

    std = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
    sem = std / math.sqrt(n) if n > 1 else math.inf

    slopes = _leakage_slopes(labels, r, n, coeff[columns]) if labels else {}
    immune = None
    if slopes:
        immune = all(abs(s.t_stat) < 3.0 for s in slopes.values())

    return SimResult(
        lo_label=lo.label,
        k_lo=lo.k_const,
        n_samples=n,
        mean_estimate_m=mean,
        std_estimate_m=std,
        std_error_mean_m=sem,
        predicted_sigma_m=sigma_s,
        bias_m=mean - config.p_l_m,
        slopes=slopes,
        immune=immune,
        rng_seed=config.rng_seed,
    )


def _fold_qr(r: np.ndarray, regressors: np.ndarray, response: np.ndarray) -> np.ndarray:
    """R factor of the rows of `r` stacked on the rows [1, regressors, response].

    The rows are folded in QR_ROWS at a time, a size whose Householder
    passes stay in cache.
    """
    width = r.shape[1]
    for start in range(0, response.size, QR_ROWS):
        rows = min(QR_ROWS, response.size - start)
        stacked = np.empty((width + rows, width))
        stacked[:width] = r
        stacked[width:, 0] = 1.0
        stacked[width:, 1:-1] = regressors[start : start + rows]
        stacked[width:, -1] = response[start : start + rows]
        r = np.linalg.qr(stacked, mode="r")
    return r


def _leakage_slopes(
    labels: tuple[str, ...], r: np.ndarray, n: int, shift: np.ndarray
) -> dict[str, RegressionSlope]:
    """OLS slopes of a response on the fluctuations, from the QR's R factor.

    With R = [[R11, r12], [0, r22]] for the matrix [1, fluctuations...,
    response], the coefficients solve R11 beta = r12, the residual sum of
    squares is r22**2 and the coefficient covariance is
    RSS/(n - k) * R11^-1 R11^-T.  `shift` is added to the slopes: the
    coefficients the response had subtracted.

    Raises DomainError, naming the regressor, where the regression is
    degenerate at working precision: an R11 diagonal at most n eps times its
    column's norm (a fluctuation lost to rounding against the columns
    before it), a slope or std error that is not finite, or a zero std
    error (the shot noise lost to rounding against the signal).
    """
    k = len(labels) + 1
    r11 = r[:k, :k]
    for j, lab in enumerate(labels, start=1):
        if not abs(r11[j, j]) > n * np.finfo(float).eps * np.linalg.norm(r11[: j + 1, j]):
            raise DomainError(
                f"regressor {lab!r} is rank-deficient at working precision: its fluctuation is lost to rounding"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.linalg.solve(r11, r[:k, k])
        beta[1:] += shift
        sigma2 = r[k, k] ** 2 / (n - k)
        r11_inv = np.linalg.inv(r11)
        std_errors = np.sqrt(sigma2 * np.sum(r11_inv * r11_inv, axis=1))
    for j, lab in enumerate(labels, start=1):
        if not (np.isfinite(beta[j]) and 0.0 < std_errors[j] < math.inf):
            raise DomainError(
                f"regression on {lab!r} is degenerate at working precision (slope {beta[j]:.3e}, "
                f"std error {std_errors[j]:.3e}): its fluctuation or the shot noise is lost to rounding"
            )
    return {
        lab: RegressionSlope(float(beta[j]), float(std_errors[j]))
        for j, lab in enumerate(labels, start=1)
    }
