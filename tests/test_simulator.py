"""Monte Carlo runs: calibration, reproducibility, leakage regression."""

import hashlib
import io
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from comb_ranger import cli, detection, simulator
from comb_ranger.air_model import AirState
from comb_ranger.config import SimConfig
from comb_ranger.detection import LO_TABLE, contamination_report, ranging_modes
from comb_ranger.dispersion import RANGING_LABELS
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import GaussianPulse
from comb_ranger.simulator import (
    draw_generator,
    perturbation_draws,
    run,
    select_lo,
)

PULSE = GaussianPulse.from_wavelength(800e-9)
AIR = AirState.standard()


# sigmas of runs that draw 2, 3 and 4 normals a row: one per fluctuating
# label, and the noise
DRAW_WIDTH_SIGMAS = [(0.0, 1e-6, 0.0), (0.0, 1e-6, 10.0), (1e-13, 1e-6, 10.0)]


def run_with_table(cfg: SimConfig):
    """run(cfg) and its (n, 5) sample table (index, p_L, p_X, p_Pw, signal),
    gathered from the blocks the run hands to `on_rows`."""
    blocks = []
    result = run(cfg, on_rows=lambda *columns: blocks.append(np.column_stack(columns)))
    return result, np.concatenate(blocks)


def make_config(**kwargs) -> SimConfig:
    base = dict(
        pulse=PULSE,
        state=AIR,
        length_m=1.0,
        n_photons=8e16,
        lo_choice="raw",
        sample_count=100_000,
        rng_seed=1234,
    )
    base.update(kwargs)
    return SimConfig(**base)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        cfg = make_config(lo_choice="purified", sigmas=(0.0, 1e-6, 10.0))
        (a, table_a), (b, table_b) = run_with_table(cfg), run_with_table(cfg)
        assert a == b
        assert np.array_equal(table_a, table_b)

    def test_draws_prefix_stable(self):
        # extending the sample count must not disturb earlier samples, and
        # drawing in blocks of any size gives the rows of a single draw
        short = perturbation_draws(draw_generator(77), 1000)
        long = perturbation_draws(draw_generator(77), 5000)
        assert np.array_equal(short, long[:1000])
        gen = draw_generator(77)
        blocks = [perturbation_draws(gen, m) for m in (1, 6, 993, 4000)]
        assert np.array_equal(np.concatenate(blocks), long)

    # SHA-256 of the (index, p_L, p_X, p_Pw, signal) table of a run of two
    # full blocks and a short third; pinned from the code that drew and
    # projected all samples in one block
    SAMPLE_TABLE_SHA256 = "12b0f05bbf93842dd8f6a0a8f6b3b04c4c742673af61346ec65c713cbbb79899"

    def test_sample_table_pinned(self):
        cfg = make_config(
            lo_choice="purified_x_only", sample_count=150_000, offsets=(3e-13, 0.0, 0.0),
            sigmas=(1e-13, 1e-6, 10.0),
        )
        _, table = run_with_table(cfg)
        assert hashlib.sha256(table.tobytes()).hexdigest() == self.SAMPLE_TABLE_SHA256

    def test_draws_into_out_buffer(self):
        expected = perturbation_draws(draw_generator(77), 1000)
        buf = np.full((1000, 4), np.nan)
        got = perturbation_draws(draw_generator(77), 1000, out=buf)
        assert got is buf
        assert np.array_equal(buf, expected)

    # 2000 rows in blocks of 1, 7 or 1000 rows: the ring's two draw buffers
    # are each filled and read up to 1000 times
    @pytest.mark.parametrize("lo", tuple(LO_TABLE))
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
    def test_block_size_invariance(self, monkeypatch, lo, chunk_rows):
        cfg = make_config(lo_choice=lo, sample_count=2000, sigmas=(0.0, 1e-6, 10.0))
        whole, whole_table = run_with_table(cfg)
        monkeypatch.setattr(simulator, "CHUNK_ROWS", chunk_rows)
        blocks, blocks_table = run_with_table(cfg)
        assert np.array_equal(blocks_table, whole_table)
        assert blocks.mean_estimate_m == pytest.approx(
            whole.mean_estimate_m, rel=0, abs=1e-12 * whole.std_estimate_m
        )
        assert blocks.std_estimate_m == pytest.approx(whole.std_estimate_m, rel=1e-12)
        for lab, slope in whole.slopes.items():
            other = blocks.slopes[lab]
            assert other.value == pytest.approx(slope.value, rel=0, abs=1e-12 * slope.std_error)
            assert other.std_error == pytest.approx(slope.std_error, rel=1e-12)
        assert blocks.immune == whole.immune

    def test_memory_bounded_by_block(self, tmp_path):
        def peak_of(work):
            tracemalloc.start()
            try:
                return work(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cfg = make_config(sample_count=1_000_000, sigmas=(0.0, 1e-6, 10.0))
        run(make_config(sample_count=1000, sigmas=(0.0, 1e-6, 10.0)))
        _, run_peak = peak_of(lambda: run(cfg))
        # `simulate --out` writes each of its 1e6 samples to the CSV
        argv = ["simulate", "--samples", "1000000", "--out", str(tmp_path / "samples.csv")]
        code, export_peak = peak_of(lambda: cli.main(argv, out=io.StringIO()))
        assert code == cli.EXIT_OK
        # the samples alone would take 8 MB per float64 column
        assert run_peak < 16e6
        assert export_peak < 16e6
        # at the default block sizes the CSV crosses the run's and the
        # export's block edges and the 10**5 digit boundary: each line
        # holds its index and four more fields
        rows = 0
        with open(tmp_path / "samples.csv", "rb") as fh:
            assert next(fh) == b"index,p_L_m,p_X,p_Pw_pa,signal_m\n"
            for i, line in enumerate(fh):
                if line.count(b",") != 4 or not line.startswith(b"%d," % i):
                    pytest.fail(f"data line {i}: {line!r}")
                rows += 1
        assert rows == 1_000_000

    def test_different_seeds_differ(self):
        a = run(make_config(rng_seed=1))
        b = run(make_config(rng_seed=2))
        assert a.mean_estimate_m != b.mean_estimate_m

    # a row draws one normal per fluctuating label, in label order, then the
    # noise's; a label with sigma = 0 takes its offset and draws nothing
    @pytest.mark.parametrize("sigmas", DRAW_WIDTH_SIGMAS + [(1e-13, 0.0, 10.0)])
    def test_rows_take_one_draw_per_fluctuating_label(self, sigmas):
        cfg = make_config(sample_count=3000, offsets=(3e-13, 2e-7, 5.0), sigmas=sigmas)
        _, table = run_with_table(cfg)
        labels = cfg.fluctuating_labels
        z = perturbation_draws(draw_generator(cfg.rng_seed), 3000, out=np.empty((3000, len(labels) + 1)))
        for j, lab in enumerate(RANGING_LABELS):
            if lab in labels:
                expected = cfg.offsets[j] + cfg.sigmas[j] * z[:, labels.index(lab)]
            else:
                expected = np.full(3000, cfg.offsets[j])
            assert np.array_equal(table[:, 1 + j], expected)
        if len(labels) == 3:
            # the (count, 4) rows a run drew before it skipped a fixed label's
            assert np.array_equal(z, perturbation_draws(draw_generator(cfg.rng_seed), 3000))

    # rows depend on (seed, fluctuating labels, i) only: a shorter run repeats
    # the first rows of a longer one, cut into blocks of any size
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
    @pytest.mark.parametrize("sigmas", DRAW_WIDTH_SIGMAS, ids=["width2", "width3", "width4"])
    def test_rows_prefix_stable_and_block_size_invariant(self, monkeypatch, sigmas, chunk_rows):
        _, long_table = run_with_table(make_config(lo_choice="purified", sample_count=3000, sigmas=sigmas))
        monkeypatch.setattr(simulator, "CHUNK_ROWS", chunk_rows)
        _, table = run_with_table(make_config(lo_choice="purified", sample_count=2000, sigmas=sigmas))
        assert np.array_equal(table, long_table[:2000])


def _run_bounded(cfg, timeout_s=60.0):
    """run(cfg) in a thread joined with a timeout: (result, error)."""
    outcome = {}

    def target():
        try:
            outcome["result"] = run(cfg)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), "run did not return"
    return outcome.get("result"), outcome.get("error")


class TestDrawAhead:
    CONFIG = dict(sample_count=5000, sigmas=(0.0, 1e-6, 10.0))

    def test_later_blocks_drawn_off_the_calling_thread(self, monkeypatch):
        threads = []
        real = simulator.perturbation_draws

        def recording(gen, count, out=None):
            threads.append(threading.current_thread())
            return real(gen, count, out=out)

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(simulator, "perturbation_draws", recording)
        run(make_config(**self.CONFIG))
        assert len(threads) == 5
        assert len(set(threads)) == 1
        assert threads[0] is not threading.current_thread()

    def test_one_drawer_thread_per_run(self, monkeypatch):
        threads = []
        real = simulator.perturbation_draws

        def recording(gen, count, out=None):
            threads.append(threading.current_thread())
            return real(gen, count, out=out)

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(simulator, "perturbation_draws", recording)
        drawers = []
        for _ in range(2):
            threads.clear()
            run(make_config(**self.CONFIG))
            assert len(threads) == 5 and len(set(threads)) == 1
            drawers.append(threads[0])
        assert drawers[0] is not drawers[1]
        assert threading.current_thread() not in drawers

    def test_slow_fold_overwrites_no_buffer(self, monkeypatch):
        # while a block is folded the drawer fills both buffers of the ring
        # and then must wait: a buffer drawn into early would change rows
        real = simulator._fold_moments

        def slow_fold(*args):
            time.sleep(0.002)
            return real(*args)

        cfg = make_config(**{**self.CONFIG, "sample_count": 700})
        _, whole_table = run_with_table(cfg)
        monkeypatch.setattr(simulator, "CHUNK_ROWS", 7)
        plain, plain_table = run_with_table(cfg)
        monkeypatch.setattr(simulator, "_fold_moments", slow_fold)
        slow, slow_table = run_with_table(cfg)
        assert slow == plain
        assert np.array_equal(slow_table, plain_table)
        assert np.array_equal(slow_table, whole_table)

    def test_late_read_after_take_overwrites_no_buffer(self, monkeypatch):
        # the caller reads a block a while after take() returns it: the
        # drawer, free meanwhile to fill the other buffer, must not draw into
        # this one
        real = simulator._Drawer.take

        def late_take(drawer):
            real(drawer)
            time.sleep(0.002)

        cfg = make_config(**{**self.CONFIG, "sample_count": 700})
        _, whole_table = run_with_table(cfg)
        monkeypatch.setattr(simulator, "CHUNK_ROWS", 7)
        plain, plain_table = run_with_table(cfg)
        monkeypatch.setattr(simulator._Drawer, "take", late_take)
        late, late_table = run_with_table(cfg)
        assert late == plain
        assert np.array_equal(late_table, plain_table)
        assert np.array_equal(late_table, whole_table)

    def test_drawer_runs_two_blocks_ahead_of_the_fold(self, monkeypatch):
        # a block's buffer goes back before its fold, so while block b is
        # folded the drawer can draw blocks b + 1 and b + 2
        drawn = threading.Condition()
        counts = {"drawn": 0, "folded": 0}
        ahead = []
        real_draws, real_fold = simulator.perturbation_draws, simulator._fold_moments

        def counting_draws(gen, count, out=None):
            rows = real_draws(gen, count, out=out)
            with drawn:
                counts["drawn"] += 1
                drawn.notify_all()
            return rows

        def waiting_fold(*args):
            want = min(counts["folded"] + 3, 5)
            with drawn:
                ahead.append(drawn.wait_for(lambda: counts["drawn"] >= want, timeout=5.0))
            counts["folded"] += 1
            return real_fold(*args)

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(simulator, "perturbation_draws", counting_draws)
        monkeypatch.setattr(simulator, "_fold_moments", waiting_fold)
        run(make_config(**self.CONFIG))
        assert ahead == [True] * 5

    def test_on_rows_error_leaves_no_thread(self, monkeypatch):
        error = RuntimeError("on_rows failed")
        calls = []

        def failing_third(*columns):
            calls.append(columns[0][0])
            if len(calls) == 3:
                raise error

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run(make_config(**self.CONFIG), on_rows=failing_third)
        assert info.value is error
        assert calls == [0, 1000, 2000]
        assert threading.active_count() == before

    def test_draw_error_raised_by_run(self, monkeypatch):
        error = RuntimeError("draw failed")
        calls = []
        real = simulator.perturbation_draws

        def failing_second(gen, count, out=None):
            calls.append(count)
            if len(calls) == 2:
                raise error
            return real(gen, count, out=out)

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(simulator, "perturbation_draws", failing_second)
        before = threading.active_count()
        result, raised = _run_bounded(make_config(**self.CONFIG))
        assert result is None and raised is error
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_fold_error_leaves_no_thread(self, monkeypatch):
        error = RuntimeError("fold failed")

        def failing_fold(*args):
            raise error

        monkeypatch.setattr(simulator, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(simulator, "_fold_moments", failing_fold)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run(make_config(**self.CONFIG))
        assert info.value is error
        assert threading.active_count() == before

    def test_concurrent_runs_match_alone(self, monkeypatch):
        # four runs at once (more threads than cores, each with its own
        # drawer), the interpreter switching threads every microsecond
        monkeypatch.setattr(simulator, "CHUNK_ROWS", 7)
        configs = [
            make_config(**{**self.CONFIG, "sample_count": 700, "rng_seed": seed, "lo_choice": lo})
            for seed, lo in zip(range(4), tuple(LO_TABLE) * 2)
        ]
        alone = [run_with_table(cfg) for cfg in configs]
        together = [None] * len(configs)

        def worker(i):
            together[i] = run_with_table(configs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (a, table_a), (b, table_b) in zip(alone, together):
            assert a == b
            assert np.array_equal(table_a, table_b)

    @pytest.mark.parametrize("chunk_rows", [1000, 2500, 65536])
    def test_no_thread_left_after_run(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(simulator, "CHUNK_ROWS", chunk_rows)
        before = threading.active_count()
        run(make_config(**self.CONFIG))
        assert threading.active_count() == before


class TestCalibration:
    def test_sample_sigma_matches_prediction(self):
        cfg = make_config()
        res = run(cfg)
        se_of_std = res.predicted_sigma_m / math.sqrt(2 * (cfg.sample_count - 1))
        assert abs(res.std_estimate_m - res.predicted_sigma_m) < 3.0 * se_of_std
        assert res.predicted_sigma_m == pytest.approx(2.2201663594607716e-16, rel=1e-12)

    def test_photon_scaling_halves_sigma(self):
        res1 = run(make_config(rng_seed=5))
        res4 = run(make_config(rng_seed=6, n_photons=4 * 8e16))
        ratio = res1.std_estimate_m / res4.std_estimate_m
        assert ratio == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("lo", ["raw", "purified", "purified_x_only"])
    def test_unbiased_for_fixed_displacement(self, lo):
        p_l = 3e-13
        cfg = make_config(lo_choice=lo, offsets=(p_l, 0.0, 0.0), rng_seed=11)
        res = run(cfg)
        assert abs(res.bias_m) < 3.0 * res.std_error_mean_m
        assert res.mean_estimate_m == pytest.approx(p_l, abs=3.0 * res.std_error_mean_m)

    def test_three_sigma_coverage_over_independent_runs(self):
        hits = 0
        for seed in range(20):
            res = run(make_config(rng_seed=seed, sample_count=20_000))
            if abs(res.mean_estimate_m) <= 3.0 * res.std_error_mean_m:
                hits += 1
        assert hits >= 19


class TestLeakage:
    def test_raw_lo_recovers_contamination_matrix(self):
        cfg = make_config(sigmas=(0.0, 1e-6, 10.0))
        res = run(cfg)
        expected = contamination_report(PULSE, AIR, 1.0, 8e16).matrix[0]
        for lab, truth in (("X", expected[1]), ("Pw", expected[2])):
            slope = res.slopes[lab]
            assert abs(slope.value - truth) < 3.0 * slope.std_error
        assert res.immune is False

    def test_purified_lo_slopes_statistically_zero(self):
        cfg = make_config(lo_choice="purified", sigmas=(0.0, 1e-6, 10.0))
        res = run(cfg)
        assert abs(res.slopes["X"].t_stat) < 3.0
        assert abs(res.slopes["Pw"].t_stat) < 3.0
        assert res.immune is True

    def test_fixed_density_step_shifts_raw_but_not_purified(self):
        p_x = 1e-6
        raw = run(make_config(offsets=(0.0, p_x, 0.0), rng_seed=21))
        pure = run(make_config(lo_choice="purified", offsets=(0.0, p_x, 0.0), rng_seed=21))
        expected_shift = (
            contamination_report(PULSE, AIR, 1.0, 8e16).matrix[0][1] * p_x
        )
        assert raw.mean_estimate_m == pytest.approx(expected_shift, rel=1e-3)
        assert abs(pure.mean_estimate_m) < 3.0 * pure.std_error_mean_m

    def test_x_only_purification_still_leaks_water(self):
        cfg = make_config(lo_choice="purified_x_only", sigmas=(0.0, 1e-6, 10.0))
        res = run(cfg)
        assert abs(res.slopes["X"].t_stat) < 3.0
        assert abs(res.slopes["Pw"].t_stat) > 3.0
        assert res.immune is False

    def test_zero_fluctuation_control_has_no_verdict(self):
        # no fluctuation, no regression: the verdict is absent, not "immune"
        res = run(make_config())
        assert res.slopes == {} and res.immune is None
        text = res.to_text()
        assert all(f"leakage_{lab} = n/a" in text for lab in RANGING_LABELS) and "immune = n/a" in text

    def test_insufficient_samples_for_regression(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("refusal must come before any draw")

        monkeypatch.setattr(simulator, "perturbation_draws", no_draws)
        with pytest.raises(ValidationError):
            run(make_config(sample_count=3, sigmas=(0.0, 1e-6, 10.0)))


def _solve_extended(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination without pivoting, in the arrays' own precision."""
    g, b = g.copy(), b.copy()
    size = len(b)
    for i in range(size):
        for j in range(i + 1, size):
            factor = g[j, i] / g[i, i]
            g[j, i:] -= factor * g[i, i:]
            b[j] -= factor * b[i]
    x = np.zeros_like(b)
    for i in reversed(range(size)):
        x[i] = (b[i] - g[i, i + 1 :] @ x[i + 1 :]) / g[i, i]
    return x


def reference_regression(samples: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """OLS slopes and std errors of the signal column on the fluctuations.

    Independent of the program's regression: extended precision, the
    intercept removed by centring, columns scaled to unit norm (so the Gram
    matrix is near the identity), and the residuals formed directly from
    the samples and refined twice, so no sum of squares cancels.
    """
    x = samples[:, [1 + RANGING_LABELS.index(lab) for lab in labels]].astype(np.longdouble)
    y = samples[:, 4].astype(np.longdouble)
    n, p = x.shape
    x -= x.sum(axis=0) / n
    y -= y.sum() / n
    scale = np.sqrt((x * x).sum(axis=0))
    x /= scale
    gram = x.T @ x
    beta = _solve_extended(gram, x.T @ y)
    for _ in range(2):
        beta += _solve_extended(gram, x.T @ (y - x @ beta))
    resid = y - x @ beta
    sigma2 = (resid @ resid) / (n - p - 1)
    unit = np.eye(p, dtype=np.longdouble)
    gram_inv_diag = np.array([_solve_extended(gram, unit[j])[j] for j in range(p)])
    return beta / scale, np.sqrt(sigma2 * gram_inv_diag) / scale


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="the reference needs an extended long double"
)
@pytest.mark.parametrize("samples", [2000, 100_000])
@pytest.mark.parametrize("lo", tuple(LO_TABLE))
def test_regression_matches_extended_precision_reference(lo, samples):
    # the raw LO's signal spread is ~1.7e7 times its shot noise, so its
    # std errors are a residual of 1 part in 1.7e7; at 1e5 samples its
    # P_w slope is ~5e9 std errors, where one ulp of the slope is ~7e-7
    # of a std error, so the slope bound is about 1.4 ulp
    cfg = make_config(lo_choice=lo, sample_count=samples, sigmas=(0.0, 1e-6, 10.0))
    res, table = run_with_table(cfg)
    beta, se = reference_regression(table, cfg.fluctuating_labels)
    for j, lab in enumerate(cfg.fluctuating_labels):
        slope = res.slopes[lab]
        assert abs(slope.std_error / se[j] - 1) < 1e-9
        assert abs(slope.value - beta[j]) < 1e-6 * se[j]


def lstsq_regression(table: np.ndarray, labels, shift) -> tuple[np.ndarray, np.ndarray]:
    """OLS slopes and std errors of the signal column on the fluctuations, by
    np.linalg.lstsq on centred columns.  The response is the signal minus
    `shift` (one coefficient per label) times the perturbations, and `shift`
    is added back: least squares is linear in the response, and the raw LO's
    signal would otherwise cancel to 1.7e7 times its noise in lstsq itself."""
    x = table[:, 1:4]
    y = table[:, 4] - (x[:, 0] * shift[0] + x[:, 1] * shift[1] + x[:, 2] * shift[2])
    cols = [RANGING_LABELS.index(lab) for lab in labels]
    x = x[:, cols] - x[:, cols].mean(axis=0)
    y = y - y.mean()
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    sigma2 = (resid @ resid) / (len(y) - len(cols) - 1)
    cov = sigma2 * np.linalg.inv(x.T @ x)
    return beta + np.array(shift)[cols], np.sqrt(np.diag(cov))


# the slopes and std errors against lstsq, at the default offsets and at
# large ones over a length short enough for the linearity guard
@pytest.mark.parametrize("offsets, length_m", [((0.0, 0.0, 0.0), 1.0), ((0.0, 1e-3, 1e3), 0.01)],
                         ids=["default-offsets", "large-offsets"])
@pytest.mark.parametrize("samples", [2000, 100_000])
@pytest.mark.parametrize("lo", tuple(LO_TABLE))
def test_regression_matches_lstsq(lo, samples, offsets, length_m):
    cfg = make_config(lo_choice=lo, sample_count=samples, offsets=offsets, length_m=length_m,
                      sigmas=(0.0, 1e-6, 10.0))
    res, table = run_with_table(cfg)
    # the raw LO's own row of the contamination matrix; the purified LOs'
    # signals are their noise to within a small leak
    shift = contamination_report(PULSE, AIR, length_m, 8e16).matrix[0] if lo == "raw" else (0.0, 0.0, 0.0)
    beta, se = lstsq_regression(table, cfg.fluctuating_labels, shift)
    for j, lab in enumerate(cfg.fluctuating_labels):
        slope = res.slopes[lab]
        assert abs(slope.value - beta[j]) < 1e-6 * se[j]
        assert abs(slope.std_error - se[j]) < 1e-6 * se[j]


class TestConfigValidation:
    def test_lo_choice(self):
        with pytest.raises(ValidationError):
            make_config(lo_choice="fancy")

    def test_sample_count(self):
        with pytest.raises(ValidationError):
            make_config(sample_count=0)

    def test_fractional_sample_count(self):
        with pytest.raises(ValidationError, match="sample_count"):
            make_config(sample_count=10.5)

    @pytest.mark.parametrize("seed", [-5, 2**128, 1.5, True])
    def test_seed_outside_philox_keys(self, seed):
        with pytest.raises(ValidationError, match="rng_seed"):
            make_config(rng_seed=seed)

    def test_largest_seed_runs(self):
        res = run(make_config(rng_seed=2**128 - 1, sample_count=10))
        assert res.rng_seed == 2**128 - 1

    # one case per entry of the two triples, under the ids of the six scalar
    # fields they replaced, so that the ids stay stable
    @pytest.mark.parametrize(
        "triple, label",
        [
            pytest.param(triple, label, id=case_id)
            for (triple, label), case_id in zip(
                [(triple, label) for triple in ("offsets", "sigmas") for label in RANGING_LABELS],
                ["p_l_m", "p_x", "p_pw_pa", "sigma_p_l_m", "sigma_p_x", "sigma_p_pw_pa"],
            )
        ],
    )
    def test_nan_offsets_and_sigmas(self, triple, label):
        values = [0.0, 0.0, 0.0]
        values[RANGING_LABELS.index(label)] = math.nan
        with pytest.raises(ValidationError, match=rf"{triple}\[{label}\]=nan must be finite"):
            make_config(**{triple: tuple(values)})

    @pytest.mark.parametrize("label", RANGING_LABELS)
    def test_negative_sigma_named_by_label(self, label):
        values = [0.0, 0.0, 0.0]
        values[RANGING_LABELS.index(label)] = -1e-9
        with pytest.raises(ValidationError, match=rf"sigmas\[{label}\]=-1e-09 must be >= 0"):
            make_config(sigmas=tuple(values))

    # a triple of the wrong length is refused by name, before the linearity
    # guard's zip(strict=True) could raise a bare ValueError
    @pytest.mark.parametrize("triple", ["offsets", "sigmas"])
    @pytest.mark.parametrize("values", [(), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_triple_of_wrong_length(self, triple, values):
        with pytest.raises(ValidationError, match=f"{triple} must hold one value per label"):
            make_config(**{triple: values})

    def test_linearity_guard_on_fluctuations(self):
        with pytest.raises(DomainError, match="drives the spectral phase"):
            run(make_config(sigmas=(0.0, 0.0, 1e4)))

    def test_linearity_guard_refuses_first_in_the_run(self, monkeypatch):
        # a config past the guard is a valid SimConfig: the run refuses it,
        # before the n <= k refusal, any draw and the LO
        def fails(*args):
            raise AssertionError("the linearity guard must refuse first")

        cfg = make_config(sample_count=2, sigmas=(0.0, 0.0, 1e4))
        monkeypatch.setattr(simulator, "perturbation_draws", fails)
        monkeypatch.setattr(simulator, "select_lo", fails)
        monkeypatch.setattr(detection, "ranging_modes", fails)
        with pytest.raises(DomainError, match="drives the spectral phase"):
            run(cfg)

    def test_select_lo_labels(self):
        raw, pure = make_config(), make_config(lo_choice="purified")
        assert select_lo(raw, ranging_modes(raw.pulse, raw.state, raw.length_m)).label == "L"
        assert "X" in select_lo(pure, ranging_modes(pure.pulse, pure.state, pure.length_m)).label

    def test_result_text_contains_verdict(self):
        cfg = make_config(lo_choice="purified", sigmas=(0.0, 1e-6, 0.0), sample_count=5000)
        text = run(cfg).to_text()
        assert "immune = " in text
        assert "leakage_X" in text
        assert "leakage_Pw = n/a" in text
