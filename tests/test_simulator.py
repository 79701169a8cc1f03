"""Monte Carlo runs: calibration, reproducibility, leakage regression."""

import hashlib
import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from comb_ranger import AirState, GaussianPulse, SimConfig, cli, contamination_report, ranging_modes, simulator
from comb_ranger.dispersion import RANGING_LABELS
from comb_ranger.errors import ValidationError
from comb_ranger.simulator import (
    LO_CHOICES,
    draw_generator,
    perturbation_draws,
    run,
    select_lo,
)

PULSE = GaussianPulse.from_wavelength(800e-9)
AIR = AirState.standard()


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
        cfg = make_config(lo_choice="purified", sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
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
    SAMPLE_TABLE_SHA256 = "321ba1cfebb97e3655d335cf01cd1590976b3e4a0ada90a8e1adfefa8bbf4ce7"

    def test_sample_table_pinned(self):
        cfg = make_config(
            lo_choice="purified_x_only", sample_count=150_000, p_l_m=3e-13,
            sigma_p_l_m=1e-13, sigma_p_x=1e-6, sigma_p_pw_pa=10.0,
        )
        _, table = run_with_table(cfg)
        assert hashlib.sha256(table.tobytes()).hexdigest() == self.SAMPLE_TABLE_SHA256

    def test_draws_into_out_buffer(self):
        expected = perturbation_draws(draw_generator(77), 1000)
        buf = np.full((1000, 4), np.nan)
        got = perturbation_draws(draw_generator(77), 1000, out=buf)
        assert got is buf
        assert np.array_equal(buf, expected)

    # 2000 rows in blocks of 1, 7 or 1000 rows: the two draw buffers are
    # each filled and folded up to 1000 times
    @pytest.mark.parametrize("lo", LO_CHOICES)
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
    def test_block_size_invariance(self, monkeypatch, lo, chunk_rows):
        cfg = make_config(lo_choice=lo, sample_count=2000, sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
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

        cfg = make_config(sample_count=1_000_000, sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
        run(make_config(sample_count=1000, sigma_p_x=1e-6, sigma_p_pw_pa=10.0))
        _, run_peak = peak_of(lambda: run(cfg))
        # `simulate --out` writes each of its 1e6 samples to the CSV
        argv = ["simulate", "--samples", "1000000", "--out", str(tmp_path / "samples.csv")]
        code, export_peak = peak_of(lambda: cli.main(argv, out=io.StringIO()))
        assert code == cli.EXIT_OK
        # the samples alone would take 8 MB per float64 column
        assert run_peak < 16e6
        assert export_peak < 16e6

    def test_different_seeds_differ(self):
        a = run(make_config(rng_seed=1))
        b = run(make_config(rng_seed=2))
        assert a.mean_estimate_m != b.mean_estimate_m


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
    CONFIG = dict(sample_count=5000, sigma_p_x=1e-6, sigma_p_pw_pa=10.0)

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
        assert threads[0] is threading.current_thread()
        assert all(t is not threading.current_thread() for t in threads[1:])

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
        monkeypatch.setattr(simulator, "_fold_qr", failing_fold)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run(make_config(**self.CONFIG))
        assert info.value is error
        assert threading.active_count() == before

    def test_concurrent_runs_match_alone(self, monkeypatch):
        # four runs at once (more threads than cores, each with its own
        # helper), the interpreter switching threads every microsecond
        monkeypatch.setattr(simulator, "CHUNK_ROWS", 7)
        configs = [
            make_config(**{**self.CONFIG, "sample_count": 700, "rng_seed": seed, "lo_choice": lo})
            for seed, lo in zip(range(4), LO_CHOICES * 2)
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
        cfg = make_config(lo_choice=lo, p_l_m=p_l, rng_seed=11)
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
        cfg = make_config(sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
        res = run(cfg)
        expected = contamination_report(PULSE, AIR, 1.0, 8e16).matrix[0]
        for lab, truth in (("X", expected[1]), ("Pw", expected[2])):
            slope = res.slopes[lab]
            assert abs(slope.value - truth) < 3.0 * slope.std_error
        assert res.immune is False

    def test_purified_lo_slopes_statistically_zero(self):
        cfg = make_config(lo_choice="purified", sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
        res = run(cfg)
        assert abs(res.slopes["X"].t_stat) < 3.0
        assert abs(res.slopes["Pw"].t_stat) < 3.0
        assert res.immune is True

    def test_fixed_density_step_shifts_raw_but_not_purified(self):
        p_x = 1e-6
        raw = run(make_config(p_x=p_x, rng_seed=21))
        pure = run(make_config(lo_choice="purified", p_x=p_x, rng_seed=21))
        expected_shift = (
            contamination_report(PULSE, AIR, 1.0, 8e16).matrix[0][1] * p_x
        )
        assert raw.mean_estimate_m == pytest.approx(expected_shift, rel=1e-3)
        assert abs(pure.mean_estimate_m) < 3.0 * pure.std_error_mean_m

    def test_x_only_purification_still_leaks_water(self):
        cfg = make_config(lo_choice="purified_x_only", sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
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
            run(make_config(sample_count=3, sigma_p_x=1e-6, sigma_p_pw_pa=10.0))


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
@pytest.mark.parametrize("lo", LO_CHOICES)
def test_regression_matches_extended_precision_reference(lo, samples):
    # the raw LO's signal spread is ~1.7e7 times its shot noise, so its
    # std errors are a residual of 1 part in 1.7e7; at 1e5 samples its
    # P_w slope is ~5e9 std errors, where one ulp of the slope is ~7e-7
    # of a std error, so the slope bound is about 1.4 ulp
    cfg = make_config(lo_choice=lo, sample_count=samples, sigma_p_x=1e-6, sigma_p_pw_pa=10.0)
    res, table = run_with_table(cfg)
    beta, se = reference_regression(table, cfg.fluctuating_labels)
    for j, lab in enumerate(cfg.fluctuating_labels):
        slope = res.slopes[lab]
        assert abs(slope.std_error / se[j] - 1) < 1e-9
        assert abs(slope.value - beta[j]) < 1e-6 * se[j]


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

    @pytest.mark.parametrize(
        "name",
        ["p_l_m", "p_x", "p_pw_pa", "sigma_p_l_m", "sigma_p_x", "sigma_p_pw_pa"],
    )
    def test_nan_offsets_and_sigmas(self, name):
        with pytest.raises(ValidationError, match=name):
            make_config(**{name: math.nan})

    def test_linearity_guard_on_fluctuations(self):
        with pytest.raises(Exception):
            make_config(sigma_p_pw_pa=1e4)

    def test_select_lo_labels(self):
        raw, pure = make_config(), make_config(lo_choice="purified")
        assert select_lo(raw, ranging_modes(raw.pulse, raw.state, raw.length_m)).label == "L"
        assert "X" in select_lo(pure, ranging_modes(pure.pulse, pure.state, pure.length_m)).label

    def test_result_text_contains_verdict(self):
        cfg = make_config(lo_choice="purified", sigma_p_x=1e-6, sample_count=5000)
        text = run(cfg).to_text()
        assert "immune = " in text
        assert "leakage_X" in text
        assert "leakage_Pw = n/a" in text
