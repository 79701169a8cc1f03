"""Monte Carlo simulation of the shaped-LO homodyne distance measurement.

Each sample draws the perturbations (p_L, p_X, p_Pw) around their fixed
values, forms the linearized field, projects it on the chosen LO mode and
adds zero-mean Gaussian shot noise of width sigma_S = 1/(2 sqrt(N) K_lo),
the coherent-state Cramer-Rao level.  Photon-counting discreteness is not
modelled (irrelevant at N ~ 1e16), and the environmental fluctuations are
white (drawn independently per sample).

Reproducibility contract: the entire draw sequence is a deterministic
function of (seed, set of fluctuating labels, sample index).  Draws are
rows of standard-normal blocks taken in order from one Philox-keyed
generator.  A row holds one draw per fluctuating label, in RANGING_LABELS
order, then the noise's; a label with sigma = 0 takes its offset and draws
nothing, so a run at the default fluctuations (L fixed) draws three normals
per sample, not four.  The draws are prefix-stable: row i depends only on
(seed, the fluctuating labels, i), so a longer run repeats every row of a
shorter one with the same seed and labels, the rows do not depend on how
the run is cut into blocks, and reruns are bit-identical.  No output takes
a bit from BLAS or LAPACK: the projection is elementwise, every sum is
numpy's pairwise sum or a Python sum in a fixed order, and the regression
is solved in plain floats.  So the outputs are the same on every CPU that
runs the same numpy (NEP 19 keeps its streams stable only within a
version) and the same libm.

A run streams its samples in blocks of CHUNK_ROWS rows: each block is
drawn, projected and folded into running moments and running sums of
products, then dropped, so memory is O(CHUNK_ROWS), not O(samples); a
caller that wants the samples takes each block as it is folded.  One
drawer thread per run draws every block, 0, 1, 2, ..., in order from the
generator (numpy releases the interpreter lock while it draws), so the
draws run without a pause and hide the rest of the work.  The draws live in
a ring of two preallocated CHUNK_ROWS-row buffers, one column per draw of a
row, block b in buffer b % 2; a buffer goes back to the drawer as soon as
its block's regressor draws are copied out and its noise is scaled, before
the block is projected and folded, so the drawer runs up to two blocks
ahead of the fold.  The generator is used by one thread at a time and the
blocks are drawn in order, so the rows, and every aggregate, are those of a
sequential run.

Leakage of the environmental parameters into the distance estimate is
characterized by ordinary least squares of the signal against the injected
fluctuation sequences, mirroring how a real instrument would measure its
own cross-sensitivity.  Each fluctuation is p_j = offset_j + sigma_j z_j,
so the fit runs on the unit draws [1, z_j], whose Gram matrix is near n
times the identity, and the slope on p_j is the slope on z_j over sigma_j.
The raw LO's signal spread is about 1.7e7 times its shot noise, so the fit
regresses the signal minus its noiseless projection, the residual, and
adds the projection's coefficients back: least squares is linear in the
response, so this is the OLS of the signal itself, and the residual sum of
squares is that of the shot noise, with no cancellation.  The fit is the
normal equations on those columns: their sums of products, folded one
block at a time, solved by sweeping a matrix of at most 5 x 5 in plain
floats.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import detection, records
from .config import SimConfig
from .dispersion import RANGING_LABELS, check_linearity
from .errors import DomainError, ValidationError
from .mode_algebra import inner_product

# rows per streamed block: a few MB of float64 per block, and two draw
# buffers of at most 2 MB, which the drawer fills while earlier blocks are
# folded; 2**17 rows raised the peak RSS of a 1e5-sample `simulate --out` by 5 %
CHUNK_ROWS = 65536


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
    """The next `count` rows of standard-normal draws from `gen`.

    Row i of a run holds sample i's draws: one z_j per fluctuating label, in
    RANGING_LABELS order, then z_noise.  The generator's stream is consumed
    in order, so successive calls on one generator give the same rows as a
    single call for their total count: rows depend on (seed, width, i)
    alone, whatever the block sizes.  With `out`, a C-contiguous (count,
    width) float64 array, the rows are written there and `out` is returned;
    nothing is allocated.  Without it the rows are (count, 4): those of a
    run in which all three labels fluctuate.
    """
    return gen.standard_normal((count, 4 if out is None else out.shape[1]), out=out)


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
    evaluated (vectorized, one elementwise term per label) here.  Samples
    are drawn, projected and folded into the aggregates CHUNK_ROWS at a
    time, every block drawn by the run's drawer thread while the blocks
    before it are folded; no array grows with the sample count.  After the
    block of m rows from `start` is folded, `on_rows`, if given, is called
    with its indices np.arange(start, start + m), its (m, 3) perturbations
    (p_L, p_X, p_Pw) and its m signals, new arrays that the run does not
    touch again.
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
    coeff = [
        detection.contamination_coefficient(lo.k_const, m.k_const, inner_product(lo.mode, m.mode))
        for m in modes
    ]
    sigma_s = detection.min_detectable(lo.k_const, config.n_photons)
    # the draw column of each label's z, None for a label that does not fluctuate
    draw_column = [labels.index(lab) if lab in labels else None for lab in RANGING_LABELS]

    gen = draw_generator(config.rng_seed)
    mean, m2 = 0.0, 0.0
    # sums over the rows seen so far of x_a x_b for x = [1, z_j..., residual]:
    # the regression's normal equations (_leakage_slopes); the residual is the
    # signal minus its noiseless projection, which leaves the shot noise alone
    moments = [[0.0] * (k + 1) for _ in range(k + 1)]
    # block b is drawn into buffers[b % len(buffers)] by the drawer, and
    # handed back once its z_j are copied out and its noise scaled
    rows = min(CHUNK_ROWS, n)
    buffers = [np.empty((rows, k)) for _ in range(min(2, -(-n // rows)))]
    drawer = _Drawer(gen, n, rows, buffers)
    try:
        for b, start in enumerate(range(0, n, rows)):
            m = min(rows, n - start)
            drawer.take()
            z = buffers[b % len(buffers)][:m]
            unit = np.ascontiguousarray(z[:, : k - 1].T)
            signal = np.multiply(z[:, k - 1], sigma_s)
            drawer.hand_back()

            # column-major, so each label's column is contiguous
            perts = np.empty((m, 3), order="F")
            for j, col in enumerate(draw_column):
                if col is None:
                    perts[:, j] = config.offsets[j]
                else:
                    np.multiply(unit[col], config.sigmas[j], out=perts[:, j])
                    perts[:, j] += config.offsets[j]
            # the projection's terms added in label order
            projection = perts[:, 0] * coeff[0]
            for j in (1, 2):
                projection += perts[:, j] * coeff[j]
            np.add(projection, signal, out=signal)

            # Chan's merge of this block's mean and squared deviations; the
            # deviations are squared in place as np.std does, so a one-block
            # run matches np.mean and np.std(ddof=1) bit for bit
            block_mean = float(np.mean(signal))
            dev = signal - block_mean
            np.multiply(dev, dev, out=dev)
            block_m2 = float(np.sum(dev))
            if start == 0:
                mean, m2 = block_mean, block_m2
            else:
                delta = block_mean - mean
                total = start + m
                mean += delta * m / total
                m2 += block_m2 + delta * delta * start * m / total

            if labels:
                residual = np.subtract(signal, projection, out=projection)
                _fold_moments(moments, [*unit, residual], dev)  # dev is spent: it holds each product
            del dev  # alive during on_rows, it raised a 1e5-sample `--out` peak by 0.5 MB

            if on_rows is not None:
                on_rows(np.arange(start, start + m), perts, signal)
    finally:
        drawer.halt()

    std = math.sqrt(m2 / (n - 1))
    sem = std / math.sqrt(n)

    slopes = _leakage_slopes(config, moments, coeff, m2 + n * mean * mean) if labels else {}
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


def _fold_moments(moments: list[list[float]], columns: list[np.ndarray], scratch: np.ndarray) -> None:
    """Add to `moments` the sums over the rows of x_a x_b, a <= b, for x = [1, *columns].

    Entry [0][0] counts the rows, [0][a] sums column a, and [a][b] sums the
    products of columns a and b, each a numpy pairwise sum; `scratch`, an
    array of a column's length, holds each product in turn.
    """
    moments[0][0] += columns[0].size
    for a, x in enumerate(columns, start=1):
        moments[0][a] += float(np.sum(x))
        for b, y in enumerate(columns[a - 1 :], start=a):
            moments[a][b] += float(np.sum(np.multiply(x, y, out=scratch)))


def _leakage_slopes(
    config: SimConfig, moments: list[list[float]], coeff: list[float], signal_power: float
) -> dict[str, RegressionSlope]:
    """OLS slopes of the signal on the fluctuations, from the folded `moments`.

    The moment matrix of [1, z_j..., residual] is swept on the pivots of
    [1, z_j...] (Gauss-Jordan on the normal equations, Goodnight's sweep):
    that leaves -G^-1 for the Gram matrix G of the regressors, the
    coefficients c = G^-1 h for the residual's products h, and the residual
    sum of squares RSS, so the coefficient covariance is RSS/(n - k) G^-1.
    The slope on p_j is c_j / sigma_j plus coeff_j, the coefficient the
    residual had subtracted, and its std error is c_j's over sigma_j.

    Raises DomainError, naming the regressor, where the regression is
    degenerate at working precision: the regressor p_j's part orthogonal to
    the columns before it, sigma_j sqrt(d_j) with d_j the pivot of z_j, is at
    most n eps times its norm, tested in squares as normal equations on p_j
    would hold them (a fluctuation lost to rounding against its offset, or
    whose square underflows); a slope or std error that is not finite; or a
    zero std error: the shot noise lost to rounding against the signal,
    whose sum of squares is `signal_power`, where the residual's mean square
    is at most eps**2 times the signal's, no more than the signal's own
    rounding.
    """
    labels = config.fluctuating_labels
    k = len(labels) + 1
    n = moments[0][0]
    eps = sys.float_info.epsilon
    a = [[moments[min(i, j)][max(i, j)] for j in range(k + 1)] for i in range(k + 1)]
    for p in range(k):
        d = a[p][p]
        if p > 0:
            j = RANGING_LABELS.index(labels[p - 1])
            offset, sigma = config.offsets[j], config.sigmas[j]
            norm2 = n * offset * offset + 2.0 * offset * sigma * moments[0][p] + sigma * sigma * moments[p][p]
            if not sigma * sigma * d > (n * eps) ** 2 * norm2:
                raise DomainError(
                    f"regressor {labels[p - 1]!r} is rank-deficient at working precision: "
                    "its fluctuation is lost to rounding"
                )
        col = [row[p] for row in a]
        for i in range(k + 1):
            for q in range(k + 1):
                if i != p and q != p:
                    a[i][q] -= col[i] * col[q] / d
        for i in range(k + 1):
            a[i][p] = a[p][i] = col[i] / d
        a[p][p] = -1.0 / d
    sigma2 = a[k][k] / (n - k)
    if not sigma2 > eps * eps * signal_power / n:
        sigma2 = 0.0
    slopes = {}
    for p, lab in enumerate(labels, start=1):
        j = RANGING_LABELS.index(lab)
        value = a[p][k] / config.sigmas[j] + coeff[j]
        std_error = math.sqrt(sigma2 * -a[p][p]) / config.sigmas[j]
        if not (math.isfinite(value) and 0.0 < std_error < math.inf):
            raise DomainError(
                f"regression on {lab!r} is degenerate at working precision (slope {value:.3e}, "
                f"std error {std_error:.3e}): its fluctuation or the shot noise is lost to rounding"
            )
        slopes[lab] = RegressionSlope(value, std_error)
    return slopes
