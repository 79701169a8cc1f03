"""Workload inputs, operations and output checks.

Inputs are plain numbers generated from the workload seed alone; the
package sees only them.  Each workload is a closed loop with one client:
operation i starts when operation i - 1 has ended.

design_scan  one design = contamination_report, ranging_modes and the full
             and X-only purification of w_L, in-process.
mc_stream    one operation = simulator.run of MC_SAMPLES samples, in-process.
cli_export   one operation = a `comb_ranger.cli simulate --out` child process.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("design_scan", "mc_stream", "cli_export")

PULSES = 32
DRAWS_PER_PULSE = 32
EPOCH = PULSES * DRAWS_PER_PULSE

SIZES = {
    # (mc_stream samples, cli_export samples)
    "full": (4_000_000, 100_000),
    "tiny": (200_000, 2_000),
}

LO_ROTATION = ("raw", "purified", "purified_x_only")

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_cli.py")

# |t| above which a slope is a real leak.  The program's own immunity verdict
# is a 3-sigma test, so a correct purified LO reads "immune = false" on about
# 0.5 % of seeds; this threshold is crossed by chance on ~1e-8 of them.
_LEAK_T = 6.0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


# ---------------------------------------------------------------- design_scan


@dataclass(frozen=True)
class Design:
    pulse: int
    temperature_c: float
    pressure_pa: float
    co2_percent: float
    water_vapor_pa: float
    length_m: float
    photons: float


def design_pulses(seed: int) -> list[tuple[float, float]]:
    """(wavelength_m, relative_bandwidth) of the 32 shared pulses."""
    rng = _rng(seed, 0)
    lam = rng.uniform(700e-9, 1600e-9, PULSES)
    rel = rng.uniform(0.05, 0.25, PULSES)
    return [(float(a), float(b)) for a, b in zip(lam, rel)]


def design_epoch(seed: int, epoch: int) -> list[Design]:
    """32 pulses x 32 fresh per-design draws, shuffled.

    Epoch e continues the sequence with new draws on the same pulses, so a
    long run never repeats a design while every pulse stays shared.
    """
    rng = _rng(seed, 1, epoch)
    n = EPOCH
    pulse = np.repeat(np.arange(PULSES), DRAWS_PER_PULSE)
    t = rng.uniform(0.0, 40.0, n)
    p = rng.uniform(90e3, 105e3, n)
    co2 = rng.uniform(0.03, 0.06, n)
    pw = rng.uniform(0.0, 2000.0, n)
    length = 10.0 ** rng.uniform(-1.0, 2.0, n)
    photons = 10.0 ** rng.uniform(14.0, 18.0, n)
    order = rng.permutation(n)
    return [
        Design(int(pulse[i]), float(t[i]), float(p[i]), float(co2[i]), float(pw[i]),
               float(length[i]), float(photons[i]))
        for i in order
    ]


class DesignScan:
    def __init__(self, seed: int, size: str) -> None:
        from comb_ranger import air_model, detection, errors, mode_algebra

        self.seed = seed
        self.air_model, self.detection, self.errors = air_model, detection, errors
        self.pulses = [
            mode_algebra.GaussianPulse.from_wavelength(lam, rel)
            for lam, rel in design_pulses(seed)
        ]
        self._epochs: dict[int, list[Design]] = {}
        self.refusals = 0
        self.purify_attempts = 0

    def inputs(self, i: int) -> Design:
        epoch, k = divmod(i, EPOCH)
        if epoch not in self._epochs:
            self._epochs = {epoch: design_epoch(self.seed, epoch)}
        return self._epochs[epoch][k]

    def warmup_input(self) -> Design:
        return design_epoch(self.seed, -1 % 2**32)[0]

    def items(self, out) -> int:
        return 1

    def op(self, d: Design):
        detection = self.detection
        pulse = self.pulses[d.pulse]
        state = self.air_model.AirState(d.temperature_c, d.pressure_pa, d.co2_percent,
                                        d.water_vapor_pa)
        report = detection.contamination_report(pulse, state, d.length_m, d.photons)
        w_l, w_x, w_pw = detection.ranging_modes(pulse, state, d.length_m)
        try:
            full = detection.purify(w_l, [w_x, w_pw])
        except self.errors.SeparabilityError:
            full = None
        x_only = detection.purify(w_l, [w_x])
        return report, full, x_only

    def check(self, out) -> list[str]:
        report, full, x_only = out
        self.purify_attempts += 2
        self.refusals += full is None
        values = (
            list(report.k_consts.values())
            + list(report.min_detectable.values())
            + [v for row in report.matrix for v in row]
            + [report.x_contamination_per_m, report.pw_contamination_per_m_pa,
               report.numeric_mode_deviation]
            + [report.purified.k_raw, report.purified.k_full, report.purified.k_x_only,
               report.purified.raw_m, report.purified.full_m, report.purified.x_only_m]
            + list(report.baselines.values())
        )
        errors = []
        if not all(math.isfinite(v) for v in values):
            errors.append("report holds a non-finite value")
        if any(report.matrix[i][i] != 1.0 for i in range(len(report.matrix))):
            errors.append("contamination matrix diagonal is not exactly 1")
        ps = report.purified
        if not ps.k_full <= ps.k_x_only <= ps.k_raw:
            errors.append(f"K ordering broken: {ps.k_full} {ps.k_x_only} {ps.k_raw}")
        return errors


# ------------------------------------------------------------------ mc_stream


def mc_inputs(seed: int, i: int) -> tuple[str, int]:
    """(lo choice, run seed) of operation i."""
    run_seed = int(np.random.SeedSequence([seed, 2, i]).generate_state(1, np.uint64)[0])
    return LO_ROTATION[i % len(LO_ROTATION)], run_seed


class McStream:
    def __init__(self, seed: int, size: str) -> None:
        from comb_ranger import config, simulator

        self.seed = seed
        self.samples = SIZES[size][0]
        self.config, self.simulator = config, simulator

    def inputs(self, i: int) -> tuple[str, int]:
        return mc_inputs(self.seed, i)

    def warmup_input(self) -> tuple[str, int]:
        return mc_inputs(self.seed, -1 % 2**32)

    def items(self, out) -> int:
        return out[1].n_samples

    def op(self, inp):
        lo, run_seed = inp
        cfg = self.config.build_config({"samples": self.samples, "lo": lo, "seed": run_seed})
        return lo, self.simulator.run(cfg.to_sim_config())

    def check(self, out) -> list[str]:
        lo, res = out
        return check_sim_result(lo, res, self.samples)


def check_sim_result(lo: str, res, samples: int) -> list[str]:
    """Invariants of a run with fluctuating X and P_w.

    purified: no leak in either slope, and the spread is the shot noise;
    purified_x_only: no X leak, but P_w still leaks, so the verdict is false;
    raw: both leak.
    """
    errors = []
    if res.n_samples != samples:
        errors.append(f"{res.n_samples} samples, expected {samples}")
    t = {lab: abs(s.t_stat) for lab, s in res.slopes.items()}
    if set(t) != {"X", "Pw"}:
        return errors + [f"unexpected regression labels {sorted(t)}"]
    if lo == "raw":
        if res.immune is not False:
            errors.append("raw LO reported immune")
    elif lo == "purified":
        if max(t.values()) >= _LEAK_T:
            errors.append(f"purified LO leaks: |t| = {t}")
        if not abs(res.std_estimate_m / res.predicted_sigma_m - 1.0) <= 0.01:
            errors.append(
                f"purified std {res.std_estimate_m:.6e} not within 1 % of "
                f"predicted {res.predicted_sigma_m:.6e}"
            )
    else:
        if t["X"] >= _LEAK_T:
            errors.append(f"X-only purified LO leaks X: |t| = {t['X']}")
        if res.immune is not False or t["Pw"] < _LEAK_T:
            errors.append("X-only purified LO reported immune to P_w")
    return errors


def false_alarm(lo: str, res) -> bool:
    """The program's 3-sigma verdict says not immune on a clean purified run."""
    return lo == "purified" and res.immune is False


# ----------------------------------------------------------------- cli_export


@dataclass
class Export:
    seed: int
    path: str
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class CliExport:
    def __init__(self, seed: int, size: str, root: str, scratch: str) -> None:
        from comb_ranger import config, simulator

        self.config, self.simulator = config, simulator
        self.seed = seed
        self.samples = SIZES[size][1]
        self.scratch = scratch
        self.env = child_env(root)
        self.traced = False
        self.rows_written = 0
        self.bytes_written = 0

    def inputs(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 3, i]).generate_state(1)[0])

    def warmup_input(self) -> int:
        return self.inputs(-1 % 2**32)

    def items(self, out) -> int:
        return self.samples

    def op(self, run_seed: int) -> Export:
        path = os.path.join(self.scratch, f"export-{os.getpid()}-{run_seed}.csv")
        if self.traced:
            prefix = [sys.executable, LAUNCHER, path + ".spans.json"]
        else:
            prefix = [sys.executable, "-m", "comb_ranger.cli"]
        argv = prefix + ["simulate", "--seed", str(run_seed), "--samples",
                         str(self.samples), "--out", path]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Export(run_seed, path, proc.returncode, out, err, usage.ru_maxrss)

    def check(self, ex: Export) -> list[str]:
        try:
            return self._check(ex)
        finally:
            if os.path.exists(ex.path):
                os.remove(ex.path)

    def _check(self, ex: Export) -> list[str]:
        if ex.returncode != 0:
            return [f"exit code {ex.returncode}: {ex.stderr.decode(errors='replace')[-300:]}"]
        overrides = {"seed": ex.seed, "samples": self.samples}
        cfg = self.config.build_config(overrides).to_sim_config()
        text = self.simulator.run(cfg).to_text().encode()
        errors = []
        rest = ex.stdout[len(text):] if ex.stdout.startswith(text) else None
        if rest is None or any(not line.startswith(b"#") for line in rest.splitlines()):
            errors.append("stdout differs from in-process SimResult.to_text()")
        with open(ex.path, "rb") as fh:
            data = fh.read()
        lines = data.splitlines()
        self.rows_written += len(lines)
        self.bytes_written += len(data)
        if len(lines) != self.samples + 1 or not lines[0].startswith(b"index,"):
            return errors + [f"CSV has {len(lines)} lines, expected header + {self.samples}"]
        signal = np.array([float(line.rsplit(b",", 1)[1]) for line in lines[1:]])
        stated = _stdout_value(ex.stdout, b"mean_estimate_m")
        scale = float(np.mean(np.abs(signal)))
        if stated is None or not abs(float(np.mean(signal)) - stated) <= 1e-11 * scale:
            errors.append(f"CSV signal mean {np.mean(signal)!r} != stdout {stated!r}")
        return errors


def _stdout_value(stdout: bytes, key: bytes) -> float | None:
    for line in stdout.splitlines():
        name, sep, value = line.partition(b" = ")
        if sep and name == key:
            return float(value)
    return None


def child_env(root: str) -> dict:
    """Environment of every benchmark child: the checkout's package on the
    path, one BLAS thread, no seed override."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("COMB_RANGER_SEED", None)
    return env


def make(workload: str, seed: int, size: str, root: str, scratch: str):
    if workload == "design_scan":
        return DesignScan(seed, size)
    if workload == "mc_stream":
        return McStream(seed, size)
    return CliExport(seed, size, root, scratch)
