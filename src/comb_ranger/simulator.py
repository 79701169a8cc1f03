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
wants the samples takes each block as it is folded.  One drawer thread per
run draws every block, 0, 1, 2, ..., in order from the generator (numpy
releases the interpreter lock while it draws), so the draws run without a
pause and hide the rest of the work.  The draws live in a ring of two
preallocated CHUNK_ROWS x 4 buffers, block b in buffer b % 2; a buffer goes
back to the drawer as soon as its block's perturbations and signals are
formed, before the block is folded, so the drawer runs up to two blocks
ahead of the fold.  The generator is used by one thread at a time and the
blocks are drawn in order, so the rows, and every aggregate, are those of a
sequential run: the reproducibility contract is unchanged.

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

from . import detection, records
from .config import SimConfig
from .dispersion import RANGING_LABELS, check_linearity
from .errors import DomainError, ValidationError
from .mode_algebra import inner_product

# rows per streamed block: a few MB of float64 per block, and two 2 MB
# draw buffers, which the drawer fills while earlier blocks are folded;
# 2**17 rows raised the peak RSS of a 1e5-sample `simulate --out` by 5 %
CHUNK_ROWS = 65536
# rows per QR update: 8192 x 4 float64 (256 KB) stays in cache, which made
# the update of a 65536-row block about 3x faster than one QR of the block
QR_ROWS = 8192


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
        leak = {
            lab: ((s.value, s.std_error, s.t_stat), "{:.6e} +/- {:.6e} (t = {:.3f})")
            for lab, s in self.slopes.items()
        }
        return records.lines([
            "# simulation result",
            ("lo", self.lo_label, ""),
            ("k_lo_per_m", self.k_lo, ".12e"),
            ("seed", self.rng_seed, "d"),
            ("samples", self.n_samples, "d"),
            ("mean_estimate_m", self.mean_estimate_m, ".12e"),
            ("std_estimate_m", self.std_estimate_m, ".12e"),
            ("std_error_mean_m", self.std_error_mean_m, ".12e"),
            ("predicted_sigma_m", self.predicted_sigma_m, ".12e"),
            ("bias_m", self.bias_m, ".12e"),
            *[(f"leakage_{lab}", *leak.get(lab, ("n/a", ""))) for lab in RANGING_LABELS],
            ("immune", "n/a" if self.immune is None else str(self.immune).lower(), ""),
        ])


def select_lo(
    config: SimConfig,
    modes: tuple[detection.DetectionMode, ...],
) -> detection.DetectionMode:
    """The configured LO choice, given the config's ranging modes (w_L, w_X, w_Pw)."""
    return detection.lo_mode(detection.LO_TABLE[config.lo_choice], modes)


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


class _Drawer(threading.Thread):
    """Draws blocks 0, 1, 2, ... of an n-row run from `gen`, `rows` rows a
    block, block b into buffers[b % len(buffers)].

    It runs up to len(buffers) blocks ahead of the blocks handed back.
    `take` waits for the next block and raises again any error its draw
    raised; `hand_back` frees the buffer of the oldest block taken; `halt`
    stops the drawer and joins it.  (No attribute is named `_stop`: that
    would shadow `Thread._stop`, which `join` calls.)
    """

    def __init__(self, gen: np.random.Generator, n: int, rows: int, buffers: list[np.ndarray]) -> None:
        super().__init__(name="comb_ranger-drawer", daemon=True)
        self._gen, self._n, self._rows, self._buffers = gen, n, rows, buffers
        self._free = threading.Semaphore(len(buffers))
        self._ready = threading.Semaphore(0)
        self._halted = False
        self._error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            for b, start in enumerate(range(0, self._n, self._rows)):
                self._free.acquire()
                if self._halted:
                    return
                m = min(self._rows, self._n - start)
                perturbation_draws(self._gen, m, out=self._buffers[b % len(self._buffers)][:m])
                self._ready.release()
        except BaseException as exc:  # raised in the caller by take()
            self._error = exc
            self._ready.release()

    def take(self) -> None:
        self._ready.acquire()
        if self._error is not None:
            raise self._error

    def hand_back(self) -> None:
        self._free.release()

    def halt(self) -> None:
        # set before the release, so the drawer sees it at its next acquire
        self._halted = True
        self._free.release()
        self.join()


def run(config: SimConfig, on_rows=None) -> SimResult:
    """Run the simulation and aggregate estimator statistics.

    The per-sample signal is the homodyne projection of the linearized
    field on the LO; with the ranging modes this reduces to the
    contamination-matrix row of the chosen LO, which is how it is
    evaluated (vectorized) here.  Samples are drawn, projected and folded
    into the aggregates CHUNK_ROWS at a time, every block drawn by the
    run's drawer thread while the blocks before it are folded; no array
    grows with the sample count.  After the block of m rows from `start` is
    folded, `on_rows`, if given, is called with its indices
    np.arange(start, start + m), its (m, 3) perturbations (p_L, p_X, p_Pw)
    and its m signals, new arrays that the run does not touch again.
    """
    # typical excursions (fixed offset + 1 sigma) must stay inside the
    # linearity guard of the first-order signal model
    check_linearity(tuple(abs(p) + s for p, s in zip(config.offsets, config.sigmas)),
                    config.pulse, config.state, config.length_m)
    n = config.sample_count
    labels = config.fluctuating_labels
    k = 1 + len(labels)
    if n <= k:
        raise ValidationError(
            f"{n} samples cannot fit {k} coefficients (the mean and {k - 1}"
            f" leakage slopes); at least {k + 1} are needed"
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
    columns = [j for j, lab in enumerate(RANGING_LABELS) if lab in labels]

    gen = draw_generator(config.rng_seed)
    mean, m2 = 0.0, 0.0
    # R factor of [1, fluctuating perts..., signal - projection] over the
    # rows seen so far; its zero start rows do not change the factor.
    # Least squares is linear in the response, so regressing the signal
    # minus its noiseless projection perts @ coeff and adding coeff back
    # to the slopes is the OLS of the signal itself; the QR then never
    # sees the raw LO's 1.7e7:1 cancellation of signal against noise
    r = np.zeros((k + 1, k + 1))
    # block b is drawn into buffers[b % len(buffers)] by the drawer, and
    # handed back once perts and signal are formed: z is not read after
    rows = min(CHUNK_ROWS, n)
    buffers = [np.empty((rows, 4)) for _ in range(min(2, -(-n // rows)))]
    drawer = _Drawer(gen, n, rows, buffers)
    try:
        for b, start in enumerate(range(0, n, rows)):
            m = min(rows, n - start)
            drawer.take()
            z = buffers[b % len(buffers)][:m]
            perts = np.empty((m, 3))
            for j in range(3):
                perts[:, j] = config.offsets[j] + config.sigmas[j] * z[:, j]
            projection = perts @ coeff
            signal = projection + sigma_s * z[:, 3]
            drawer.hand_back()

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
                r = _fold_qr(r, perts, columns, response)

            if on_rows is not None:
                on_rows(np.arange(start, start + m), perts, signal)
    finally:
        drawer.halt()

    std = math.sqrt(m2 / (n - 1))
    sem = std / math.sqrt(n)

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
        bias_m=mean - config.offsets[0],
        slopes=slopes,
        immune=immune,
        rng_seed=config.rng_seed,
    )


def _fold_qr(r: np.ndarray, perts: np.ndarray, columns: list[int], response: np.ndarray) -> np.ndarray:
    """R factor of the rows of `r` stacked on the rows [1, perts[:, columns], response].

    The rows are folded in QR_ROWS at a time, a size whose Householder
    passes stay in cache; each regressor column is copied from `perts`
    straight into the stacked rows.
    """
    width = r.shape[1]
    for start in range(0, response.size, QR_ROWS):
        rows = min(QR_ROWS, response.size - start)
        stacked = np.empty((width + rows, width))
        stacked[:width] = r
        stacked[width:, 0] = 1.0
        for i, j in enumerate(columns, start=1):
            stacked[width:, i] = perts[start : start + rows, j]
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
