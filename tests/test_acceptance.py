"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Reference configuration throughout: 800 nm carrier (pinned by the 3 fs FWHM
/ relative bandwidth 1/6 combination), standard air, L = 1 m, N = 8e16
photons unless a criterion states otherwise.

Criterion 09 pins the published full-purification figure (2e-11 m, factor
3) but not the published X-only one (3e-13 m), which the paper's model
misses by a factor of 4.  Instead it checks the X-only figure against two
derivations made inside the test from the air index alone: the same
second-order model (to 1e-5 relative) and the all-order phase gradients
(within a 5 % truncation budget).  A second criterion-09 test shows that no
carrier or bandwidth brings both published purified figures within 25 %.
"""

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from comb_ranger import (
    AirState,
    GaussianPulse,
    PurifiedSensitivity,
    SPEED_OF_LIGHT,
    SimConfig,
    contamination_report,
    inner_product,
    min_detectable,
    numeric_detection_mode,
    phase_index,
    purify,
    ranging_modes,
    shot_noise,
    synth_3wi,
    two_color_combination,
)
from comb_ranger.air_model import k_dispersion, sigma_from_omega
from comb_ranger.multicolor import phase_lengths
from comb_ranger.simulator import run
from reference import TimeDelays, homodyne_signal, linearized_field, lstsq_purify, time_detection_modes

PULSE = GaussianPulse.from_wavelength(800e-9)
AIR = AirState.standard()
N_PHOTONS = 8e16


def record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_standard_air_index():
    n_minus_1 = phase_index(1.0 / 0.633, AIR) - 1.0
    ok = 2.6e-4 <= n_minus_1 <= 2.8e-4
    record(1, ok, f"n_phi - 1 at 633 nm, standard dry air: {n_minus_1:.4e} in [2.6e-4, 2.8e-4]")
    assert ok


def test_criterion_02_two_color_alpha():
    alpha = -two_color_combination(1.064e-6, 0.532e-6).weights[1]
    ok = 55.0 <= alpha <= 75.0
    record(2, ok, f"alpha(1064 nm, 532 nm) = {alpha:.3f} in [55, 75]")
    assert ok


def test_criterion_03_two_color_shot_noise():
    noise = shot_noise(two_color_combination(1.064e-6, 0.532e-6), (4e16, 4e16))
    ok = 2e-14 <= noise <= 4e-14
    record(3, ok, f"two-color shot noise at 4e16 photons/color: {noise:.3e} m in [2e-14, 4e-14]")
    assert ok


def test_criterion_04_three_color_shot_noise():
    noise = shot_noise(synth_3wi(1.064e-6, 0.532e-6, 0.355e-6), (N_PHOTONS / 3,) * 3)
    ok = 3e-13 <= noise <= 3e-12
    record(4, ok, f"three-color shot noise at 8e16 total photons: {noise:.3e} m in [3e-13, 3e-12]")
    assert ok


def test_criterion_05_mode_algebra_exactness():
    w0, dw = PULSE.omega0, PULSE.delta_omega
    w_phi, w_g, w_gvd = time_detection_modes(PULSE)
    phi_p = purify(w_phi, [w_g, w_gvd])
    gvd_p = purify(w_gvd, [w_phi, w_g])
    checks = {
        "w_gvd coefficients": np.allclose(
            w_gvd.mode.padded(2), [1 / math.sqrt(3), 0, math.sqrt(2 / 3)], rtol=1e-12, atol=1e-14
        ),
        "w_phi^p coefficients": np.allclose(
            phi_p.mode.padded(2), [math.sqrt(2 / 3), 0, -1 / math.sqrt(3)], rtol=1e-12, atol=1e-14
        ),
        "K_phi^p": abs(phi_p.k_const / (math.sqrt(2 / 3) * w0) - 1) < 1e-12,
        "K_gvd^p": abs(gvd_p.k_const / (math.sqrt(2) * dw**2 / w0) - 1) < 1e-12,
    }
    ok = all(checks.values())
    record(5, ok, f"mode/constant identities to 1e-12: {checks}")
    assert ok


def test_criterion_06_signal_cross_terms():
    rng = np.random.default_rng(2026)
    w_phi, w_g, w_gvd = time_detection_modes(PULSE)
    r2 = PULSE.delta_omega**2 / PULSE.omega0**2
    worst = 0.0
    for _ in range(25):
        p_phi, p_g, p_gvd = rng.uniform(-1, 1, 3) * (1e-19, 1e-18, 1e-18)
        field = linearized_field(PULSE, TimeDelays(p_phi, p_g, p_gvd))
        s_phi = homodyne_signal(field, w_phi)
        s_gvd = homodyne_signal(field, w_gvd)
        expect_phi = p_phi + r2 * p_gvd
        expect_gvd = p_phi / (3 * r2) + p_gvd
        worst = max(
            worst,
            abs(s_phi / expect_phi - 1.0),
            abs(s_gvd / expect_gvd - 1.0),
        )
    ok = worst < 1e-10
    record(6, ok, f"phase/GVD signal cross-terms, worst relative error {worst:.2e} < 1e-10")
    assert ok


def test_criterion_07_displacement_sensitivity():
    w_l = ranging_modes(PULSE, AIR, 1.0)[0]
    noise = min_detectable(w_l.k_const, N_PHOTONS)
    same = SPEED_OF_LIGHT / (2 * math.sqrt(N_PHOTONS) * math.sqrt(PULSE.omega0**2 + PULSE.delta_omega**2))
    ok = 1.5e-16 <= noise <= 3e-16 and abs(noise / same - 1) < 1e-12
    record(7, ok, f"comb displacement shot noise: {noise:.3e} m in [1.5e-16, 3e-16]")
    assert ok


def test_criterion_08_contamination_prefactors():
    report = contamination_report(PULSE, AIR, 1.0, N_PHOTONS)
    x_ok = abs(report.x_contamination_per_m / 27e-5 - 1.0) <= 0.20
    pw_ok = abs(report.pw_contamination_per_m_pa / -3.7e-10 - 1.0) <= 0.05
    ok = x_ok and pw_ok
    record(
        8,
        ok,
        f"prefactors: X {report.x_contamination_per_m:.3e} (20% of 2.7e-4), "
        f"Pw {report.pw_contamination_per_m_pa:.3e} (5% of -3.7e-10)",
    )
    assert ok


PUBLISHED_FULL_M = 2e-11
PUBLISHED_X_ONLY_M = 3e-13
# Measured: the second-order model exceeds the all-order value by 4.4 %.
TRUNCATION_BUDGET = 0.05


def _omega_k(omega):
    return omega * k_dispersion(sigma_from_omega(omega))


def _x_only_from_gradients(pulse, grad_l, grad_x, nodes=40):
    """X-only purified shot noise from the L and X spectral phase gradients.

    The purified K is the norm of the part of grad_l * u orthogonal to
    grad_x * u, sqrt(Gram det / <grad_x^2>); the expectations over the
    Gaussian |u|^2 use Gauss-Hermite nodes, exact for polynomial gradients.
    """
    x, weights = hermegauss(nodes)
    weights = weights / weights.sum()
    omega = pulse.omega0 + pulse.delta_omega * x
    g_l, g_x = grad_l(omega), grad_x(omega)
    ll, lx, xx = (float(np.sum(weights * a * b)) for a, b in ((g_l, g_l), (g_l, g_x), (g_x, g_x)))
    return min_detectable(math.sqrt((ll * xx - lx * lx) / xx), N_PHOTONS)


def _second_order_x_only(pulse):
    """The model's X-only figure: omega K(omega) to second order at the carrier.

    Taylor coefficients by central differences of K alone; vacuum L gradient.
    """
    w0 = pulse.omega0
    h = 1e-3 * w0
    f0, fp, fm = _omega_k(w0), _omega_k(w0 + h), _omega_k(w0 - h)
    f1, f2 = (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / h**2

    def grad_x(omega):
        return (f0 + f1 * (omega - w0) + 0.5 * f2 * (omega - w0) ** 2) / SPEED_OF_LIGHT

    return _x_only_from_gradients(pulse, lambda omega: omega / SPEED_OF_LIGHT, grad_x)


def _exact_x_only(pulse, state, nodes=40):
    """The X-only figure from the all-order gradients omega n / c and omega K / c."""
    return _x_only_from_gradients(
        pulse,
        lambda omega: omega * phase_index(sigma_from_omega(omega), state) / SPEED_OF_LIGHT,
        lambda omega: _omega_k(omega) / SPEED_OF_LIGHT,
        nodes,
    )


def test_criterion_09_purified_ranging_sensitivity():
    sens = contamination_report(PULSE, AIR, 1.0, N_PHOTONS).purified
    full_ok = PUBLISHED_FULL_M / 3 <= sens.full_m <= PUBLISHED_FULL_M * 3
    order_ok = sens.full_m > sens.x_only_m > sens.raw_m
    second = _second_order_x_only(PULSE)
    second_rel = abs(sens.x_only_m / second - 1.0)
    exact = _exact_x_only(PULSE, AIR)
    converged = abs(_exact_x_only(PULSE, AIR, nodes=80) / exact - 1.0) < 1e-9
    truncation = sens.x_only_m / exact - 1.0
    exact_ok = converged and abs(truncation) <= TRUNCATION_BUDGET
    ok = full_ok and order_ok and second_rel <= 1e-5 and exact_ok
    record(
        9,
        ok,
        f"purified sensitivities: full {sens.full_m:.3e} m "
        f"(factor-3 of {PUBLISHED_FULL_M:.0e}: {full_ok}), "
        f"X-only {sens.x_only_m:.4e} m vs independent second-order {second:.4e} m "
        f"(relative {second_rel:.1e} <= 1e-5) and all-order {exact:.4e} m (truncation "
        f"{truncation:+.1%} within {TRUNCATION_BUDGET:.0%}, 40/80 nodes agree: {converged}), "
        f"published X-only {PUBLISHED_X_ONLY_M:.0e} m is "
        f"{PUBLISHED_X_ONLY_M / sens.x_only_m:.2f}x the model, "
        f"ordering full > X-only > raw: {order_ok}",
    )
    assert ok


def test_criterion_09_published_pair_unreachable():
    # At the reference photon number, a coarse grid of carriers and
    # bandwidths meets each published purified figure alone within 25 %,
    # but no point meets both: the published pair does not follow from the
    # model by a different choice of pulse.
    closest_full = closest_x_only = closest_both = math.inf
    for wavelength in np.linspace(500e-9, 1600e-9, 12):
        for rel_bw in np.linspace(0.04, 0.30, 14):
            pulse = GaussianPulse.from_wavelength(wavelength, rel_bw)
            sens = PurifiedSensitivity.build(*ranging_modes(pulse, AIR, 1.0), N_PHOTONS)
            off_full = abs(sens.full_m / PUBLISHED_FULL_M - 1.0)
            off_x_only = abs(sens.x_only_m / PUBLISHED_X_ONLY_M - 1.0)
            closest_full = min(closest_full, off_full)
            closest_x_only = min(closest_x_only, off_x_only)
            closest_both = min(closest_both, max(off_full, off_x_only))
    ok = closest_full <= 0.25 and closest_x_only <= 0.25 and closest_both > 0.25
    record(
        9,
        ok,
        f"published pair over 500-1600 nm x dw/w0 0.04-0.30: "
        f"closest full {closest_full:.1%}, "
        f"closest X-only {closest_x_only:.1%}, closest to both at once {closest_both:.1%} > 25%",
    )
    assert ok


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_coeff = 0.0
    worst_k = 0.0
    for _ in range(10):
        lam = rng.uniform(600e-9, 1600e-9)
        rel_bw = rng.uniform(0.05, 0.2)
        pulse = GaussianPulse.from_wavelength(lam, rel_bw)
        state = AirState(
            rng.uniform(0.0, 40.0),
            rng.uniform(8e4, 1.1e5),
            rng.uniform(0.03, 0.05),
            rng.uniform(0.0, 2000.0),
        )
        length = rng.uniform(0.1, 100.0)
        for analytic in ranging_modes(pulse, state, length):
            numeric = numeric_detection_mode(analytic.label, pulse, state, length)
            order = numeric.mode.order
            dev = float(
                np.max(np.abs(analytic.mode.padded(order) - numeric.mode.padded(order)))
            )
            k_rel = abs(numeric.k_const / analytic.k_const - 1.0)
            worst_coeff = max(worst_coeff, dev)
            worst_k = max(worst_k, k_rel)
    ok = worst_coeff < 1e-3 and worst_k < 1e-3
    record(
        10,
        ok,
        f"exact-gradient Gauss-Hermite oracle over 10 random configs: worst coefficient "
        f"deviation {worst_coeff:.2e} < 1e-3, worst K relative {worst_k:.2e} < 1e-3",
    )
    assert ok


def test_criterion_11_purification_orthogonality_and_cost():
    w_l, w_x, w_pw = ranging_modes(PULSE, AIR, 1.0)
    pure = purify(w_l, [w_x, w_pw])
    o_x = abs(inner_product(pure.mode, w_x.mode))
    o_pw = abs(inner_product(pure.mode, w_pw.mode))
    # K_L^p against a float least-squares projection of w_L off span(w_X,
    # w_Pw), independent of purify's exact Gram-Schmidt: K_L sqrt(1 - s) with
    # 1 - s = |residual|^2.  The residual (|r| = 1.2e-5) is formed in doubles
    # from unit vectors, so it carries a relative error of order
    # u / |r| = 9e-12; measured 3.0e-13
    k_ref = w_l.k_const * math.sqrt(lstsq_purify(w_l, [w_x, w_pw])[0])
    sens = PurifiedSensitivity.build(w_l, w_x, w_pw, N_PHOTONS)
    k_rel = abs(sens.k_full / k_ref - 1.0)
    ok = o_x < 1e-10 and o_pw < 1e-10 and k_rel < 1e-11
    record(
        11,
        ok,
        f"purified overlaps {o_x:.1e}, {o_pw:.1e} < 1e-10; exact Gram-Schmidt vs float "
        f"least-squares K_L^p relative difference {k_rel:.1e} < 1e-11",
    )
    assert ok


def test_criterion_12_monte_carlo_calibration():
    base = dict(
        pulse=PULSE, state=AIR, length_m=1.0, n_photons=N_PHOTONS, sample_count=100_000
    )
    quiet = SimConfig(lo_choice="raw", rng_seed=7, **base)
    res_quiet = run(quiet)
    se_sigma = res_quiet.predicted_sigma_m / math.sqrt(2 * (quiet.sample_count - 1))
    sigma_ok = abs(res_quiet.std_estimate_m - res_quiet.predicted_sigma_m) < 3 * se_sigma

    noisy = dict(sigma_p_x=1e-6, sigma_p_pw_pa=10.0, rng_seed=8)
    res_pure = run(SimConfig(lo_choice="purified", **base, **noisy))
    pure_ok = res_pure.immune is True

    res_raw = run(SimConfig(lo_choice="raw", **base, **noisy))
    expected = contamination_report(PULSE, AIR, 1.0, N_PHOTONS).matrix[0]
    raw_ok = all(
        abs(res_raw.slopes[lab].value - truth) < 3 * res_raw.slopes[lab].std_error
        for lab, truth in (("X", expected[1]), ("Pw", expected[2]))
    )

    rerun_ok = run(quiet) == res_quiet
    ok = sigma_ok and pure_ok and raw_ok and rerun_ok
    record(
        12,
        ok,
        f"MC: sigma {res_quiet.std_estimate_m:.4e} vs predicted "
        f"{res_quiet.predicted_sigma_m:.4e} ({sigma_ok}); purified immune ({pure_ok}); "
        f"raw slopes match analytic ({raw_ok}); bit-identical rerun ({rerun_ok})",
    )
    assert ok


def test_criterion_13_three_color_immunity():
    comb = synth_3wi(1.064e-6, 0.532e-6, 0.355e-6)
    length = 1.0

    def rebuilt(state):
        return comb.reconstruct(phase_lengths(comb.wavelengths_m, state, length))

    # relative length shift per relative density-factor shift (via pressure)
    hi = AirState(20.0, 101325.0 + 2000.0, 0.04, 0.0)
    lo = AirState(20.0, 101325.0 - 2000.0, 0.04, 0.0)
    from comb_ranger import density_factor

    sens_x = abs(
        (rebuilt(hi) - rebuilt(lo))
        / (density_factor(hi) - density_factor(lo))
        * density_factor(AIR)
        / length
    )
    # length shift per 1000 Pa humidity swing, relative to the length
    moist_hi = AirState(20.0, 101325.0, 0.04, 1500.0)
    moist_lo = AirState(20.0, 101325.0, 0.04, 500.0)
    sens_pw = abs((rebuilt(moist_hi) - rebuilt(moist_lo)) / 1000.0) * 1000.0 / length

    # direct length response stays unity
    l_response = (
        comb.reconstruct(phase_lengths(comb.wavelengths_m, AIR, 2.0)) - comb.reconstruct(phase_lengths(comb.wavelengths_m, AIR, 1.0))
    )
    ok = sens_x < 1e-10 and sens_pw < 1e-10 and abs(l_response - 1.0) < 1e-9
    record(
        13,
        ok,
        f"three-color finite-difference immunity: X sensitivity {sens_x:.2e}, "
        f"Pw sensitivity {sens_pw:.2e}, both < 1e-10 of the unit length response",
    )
    assert ok
