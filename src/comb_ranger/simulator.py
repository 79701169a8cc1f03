"""Monte Carlo simulation of the shaped-LO homodyne distance measurement.

Each sample draws the perturbations (p_L, p_X, p_Pw) around their fixed
values, forms the linearized field, projects it on the chosen LO mode and
adds zero-mean Gaussian shot noise of width sigma_S = 1/(2 sqrt(N) K_lo),
the coherent-state Cramer-Rao level.  Photon-counting discreteness is not
modelled (irrelevant at N ~ 1e16), and the environmental fluctuations are
white (drawn independently per sample).

Reproducibility contract: the entire draw sequence is a deterministic
function of (seed, sample index).  Draws are rows of a single
standard-normal matrix generated by a Philox-keyed generator.  The draws
are prefix-stable: row i depends only on (seed, i), so a longer run repeats
every row of a shorter one with the same seed, and reruns are bit-identical.
A run draws, projects and regresses all of its samples in one serial block.

Leakage of the environmental parameters into the distance estimate is
characterized by ordinary least squares of the signal against the injected
fluctuation sequences, mirroring how a real instrument would measure its
own cross-sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import detection
from .air_model import AirState
from .dispersion import RANGING_LABELS, PerturbationVector, check_linearity
from .errors import ValidationError
from .mode_algebra import GaussianPulse

LO_CHOICES = ("raw", "purified", "purified_x_only")


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
        if not self.sample_count >= 1:
            raise ValidationError(f"sample_count={self.sample_count} must be >= 1")
        if not self.n_photons >= 1.0:
            raise ValidationError(f"n_photons={self.n_photons} must be >= 1")
        if not self.length_m > 0.0:
            raise ValidationError(f"length_m={self.length_m} must be > 0")
        for name in ("sigma_p_l_m", "sigma_p_x", "sigma_p_pw_pa"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        # typical excursions (fixed offset + 1 sigma) must stay inside the
        # linearity guard of the first-order signal model
        typical = PerturbationVector.ranging(
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
    """OLS slope of the signal against one injected fluctuation."""

    value: float
    std_error: float

    @property
    def t_stat(self) -> float:
        return self.value / self.std_error if self.std_error > 0.0 else math.inf


@dataclass(frozen=True)
class SimResult:
    """Aggregated statistics of one run; raw samples kept on request."""

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
    samples: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    modes: tuple[detection.DetectionMode, ...] | None = None,
) -> detection.DetectionMode:
    """Resolve the configured LO choice to a detection mode.

    `modes` are the config's ranging modes (w_L, w_X, w_Pw) when the caller
    already holds them; otherwise they are computed here.
    """
    if modes is None:
        modes = detection.ranging_modes(config.pulse, config.state, config.length_m)
    w_l, w_x, w_pw = modes
    if config.lo_choice == "raw":
        return w_l
    if config.lo_choice == "purified":
        return detection.purify(w_l, [w_x, w_pw])
    return detection.purify(w_l, [w_x])


def perturbation_draws(seed: int, count: int) -> np.ndarray:
    """Standard-normal draw matrix, shape (count, 4).

    Row i holds sample i's draws (z_L, z_X, z_Pw, z_noise).  Rows are a
    deterministic function of (seed, i): extending the count leaves earlier
    rows untouched.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal((count, 4))


def run(config: SimConfig, keep_samples: bool = False) -> SimResult:
    """Run the simulation and aggregate estimator statistics.

    The per-sample signal is the homodyne projection of the linearized
    field on the LO; with the ranging modes this reduces to the
    contamination-matrix row of the chosen LO, which is how it is
    evaluated (vectorized) here.
    """
    modes = detection.ranging_modes(config.pulse, config.state, config.length_m)
    lo = select_lo(config, modes)
    # with the raw LO the L entry is the self-projection <w_L, w_L>: it is
    # computed, not set to 1, because it is 1 only to rounding and the
    # samples carry its last bit
    coeff = np.array([detection.contamination_coefficient(lo, m) for m in modes])
    sigma_s = detection.min_detectable(lo.k_const, config.n_photons)

    z = perturbation_draws(config.rng_seed, config.sample_count)
    perts = np.empty((config.sample_count, 3))
    perts[:, 0] = config.p_l_m + config.sigma_p_l_m * z[:, 0]
    perts[:, 1] = config.p_x + config.sigma_p_x * z[:, 1]
    perts[:, 2] = config.p_pw_pa + config.sigma_p_pw_pa * z[:, 2]
    signal = perts @ coeff + sigma_s * z[:, 3]
    del z  # the (n, 4) draws are the largest array; free them before the regression

    n = config.sample_count
    mean = float(np.mean(signal))
    std = float(np.std(signal, ddof=1)) if n > 1 else 0.0
    sem = std / math.sqrt(n) if n > 1 else math.inf

    slopes = _leakage_regression(config, perts, signal)
    immune = None
    if slopes:
        immune = all(abs(s.t_stat) < 3.0 for s in slopes.values())

    samples = None
    if keep_samples:
        samples = np.column_stack([np.arange(n), perts, signal])

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
        samples=samples,
    )


def _leakage_regression(
    config: SimConfig, perts: np.ndarray, signal: np.ndarray
) -> dict[str, RegressionSlope]:
    """OLS of the signal on the injected fluctuation sequences."""
    labels = config.fluctuating_labels
    if not labels:
        return {}
    n = signal.size
    cols = [np.ones(n)]
    for lab in labels:
        cols.append(perts[:, RANGING_LABELS.index(lab)])
    design = np.column_stack(cols)
    del cols  # drops the intercept column, which design now holds a copy of
    k = design.shape[1]
    if n <= k:
        raise ValidationError(
            f"{n} samples cannot support a regression with {k} coefficients"
        )
    beta, *_ = np.linalg.lstsq(design, signal, rcond=None)
    resid = signal - design @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    out: dict[str, RegressionSlope] = {}
    for j, lab in enumerate(labels, start=1):
        out[lab] = RegressionSlope(float(beta[j]), float(math.sqrt(cov[j, j])))
    return out


def immunity_report(config: SimConfig, keep_samples: bool = False) -> SimResult:
    """Run with fluctuating environment and report the leakage verdict.

    Requires at least one nonzero fluctuation; a zero-fluctuation control is
    a degenerate regression and is rejected so it cannot masquerade as an
    immunity demonstration.
    """
    if not config.fluctuating_labels:
        raise ValidationError(
            "immunity report needs at least one fluctuating parameter "
            "(all sigma_p_* are zero)"
        )
    return run(config, keep_samples=keep_samples)
