"""Two- and three-color baselines: correction factors, noise, systematics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comb_ranger import air_model, detection
from comb_ranger.air_model import AirState
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.multicolor import (
    humidity_bias,
    phase_lengths,
    shot_noise,
    split_shot_noise,
    synth_3wi,
    two_color_combination,
)

# Frozen by direct evaluation with an independent script.
ALPHA_1064_532 = 64.92173071777036
SHOT_2WI_M = 3.1108123179538604e-14  # N = 4e16 per color
BETA_3WI = 2354.827131837581
GAMMA_3WI = -871.0133174070978
SHOT_3WI_M = 9.932315177950932e-13  # N = 8e16/3 per color
HUMIDITY_BIAS_100M_1000PA = -1.0374396138390335e-04

PAIR = two_color_combination(1.064e-6, 0.532e-6)
TRIPLE = synth_3wi(1.064e-6, 0.532e-6, 0.355e-6)
PAIR_PHOTONS = (4e16, 4e16)
TRIPLE_PHOTONS = (8e16 / 3,) * 3


def sigmas(comb):
    return [1e-6 / lam for lam in comb.wavelengths_m]


dry_states = st.builds(
    AirState,
    temperature_c=st.floats(-40.0, 100.0),
    pressure_pa=st.floats(1e4, 1.2e5),
    co2_percent=st.floats(0.0, 1.0),
    water_vapor_pa=st.just(0.0),
)


class TestPhaseLengths:
    def test_vacuum_returns_geometric_length(self, vacuum):
        assert phase_lengths(PAIR.wavelengths_m, vacuum, 7.0) == [7.0, 7.0]

    def test_normal_dispersion_ordering(self, standard_air):
        l1, l2 = phase_lengths(PAIR.wavelengths_m, standard_air, 10.0)
        assert l2 > l1  # 532 nm sees the larger index

    def test_standard_air_excess(self, standard_air):
        l1, _ = phase_lengths(PAIR.wavelengths_m, standard_air, 1.0)
        assert l1 - 1.0 == pytest.approx(2.7e-4, rel=0.02)


class TestAlpha:
    def test_frozen_value(self):
        assert -PAIR.weights[1] == pytest.approx(ALPHA_1064_532, rel=1e-12)

    def test_swap_maps_to_minus_one_minus_alpha(self):
        a = -PAIR.weights[1]
        b = -two_color_combination(0.532e-6, 1.064e-6).weights[1]
        assert b == pytest.approx(-(1.0 + a), rel=1e-12)

    def test_degenerate_pair_rejected(self):
        # adjacent doubles: distinct wavelengths, but K(lambda2) = K(lambda1)
        with pytest.raises(DomainError):
            two_color_combination(1.064e-6, math.nextafter(1.064e-6, 1.0))


@settings(max_examples=100, deadline=None)
@given(state=dry_states)
def test_dry_air_reconstruction_exact(state):
    length = 12.5
    rebuilt = PAIR.reconstruct(phase_lengths(PAIR.wavelengths_m, state, length))
    assert rebuilt == pytest.approx(length, rel=1e-12)


class TestShotNoise2WI:
    def test_frozen_value(self):
        assert shot_noise(PAIR, PAIR_PHOTONS) == pytest.approx(SHOT_2WI_M, rel=1e-12)

    def test_degeneracy_amplifies_noise(self):
        near = two_color_combination(1.064e-6, 1.063e-6)
        assert shot_noise(near, PAIR_PHOTONS) > 100.0 * shot_noise(PAIR, PAIR_PHOTONS)

    def test_monotone_degradation_towards_degeneracy(self):
        seconds = (0.532e-6, 0.7e-6, 0.9e-6, 1.0e-6)
        combs = [two_color_combination(1.064e-6, lam) for lam in seconds]
        noises = [shot_noise(comb, PAIR_PHOTONS) for comb in combs]
        assert all(a < b for a, b in zip(noises, noises[1:]))

    def test_exceeds_single_color_floor(self):
        # the combination can never beat its own first-channel noise
        alpha = -PAIR.weights[1]
        omega1 = 2.0 * np.pi * air_model.SPEED_OF_LIGHT / PAIR.wavelengths_m[0]
        single = air_model.SPEED_OF_LIGHT / (2.0 * np.sqrt(4e16) * omega1)
        assert shot_noise(PAIR, PAIR_PHOTONS) > abs(1 + alpha) * single * 0.9


class TestHumiditySystematic:
    def test_dry_bias_vanishes(self, standard_air):
        assert abs(humidity_bias(PAIR, standard_air, 100.0)) < 1e-9

    def test_linear_in_water_vapor(self):
        s1 = AirState(20.0, 101325.0, 0.04, 500.0)
        s2 = AirState(20.0, 101325.0, 0.04, 1000.0)
        b1 = humidity_bias(PAIR, s1, 100.0)
        b2 = humidity_bias(PAIR, s2, 100.0)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-6)

    def test_frozen_value(self):
        moist = AirState(20.0, 101325.0, 0.04, 1000.0)
        bias = humidity_bias(PAIR, moist, 100.0)
        assert bias == pytest.approx(HUMIDITY_BIAS_100M_1000PA, rel=1e-7)

    def test_matches_analytic_residual(self):
        moist = AirState(20.0, 101325.0, 0.04, 1000.0)
        # first-order humidity residual -(g1 + alpha (g1 - g2)) per pascal and metre
        alpha = -PAIR.weights[1]
        g1, g2 = (air_model.water_term(s) for s in sigmas(PAIR))
        expected = -(g1 + alpha * (g1 - g2)) * 1000.0 * 100.0
        assert humidity_bias(PAIR, moist, 100.0) == pytest.approx(expected, rel=1e-6)


class TestSynth3WI:
    def test_frozen_coefficients(self):
        assert TRIPLE.weights[1] == pytest.approx(BETA_3WI, rel=1e-10)
        assert TRIPLE.weights[2] == pytest.approx(GAMMA_3WI, rel=1e-10)
        assert sum(TRIPLE.weights) == pytest.approx(1.0, rel=1e-12)

    def test_residuals_vanish(self):
        # first-order X and P_w sensitivities of the combination, from its weights
        _, beta, gamma = TRIPLE.weights
        k1, k2, k3 = (air_model.k_dispersion(s) for s in sigmas(TRIPLE))
        g1, g2, g3 = (air_model.water_term(s) for s in sigmas(TRIPLE))
        residual_x = k1 + beta * (k2 - k1) + gamma * (k3 - k1)
        residual_pw = -(g1 + beta * (g2 - g1) + gamma * (g3 - g1))
        assert abs(residual_x) < 1e-12 * k1
        assert abs(residual_pw) < 1e-12 * g1

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(-30.0, 60.0),
        p=st.floats(5e4, 1.15e5),
        x=st.floats(0.01, 0.2),
        pw=st.floats(0.0, 3000.0),
    )
    def test_moist_reconstruction_exact(self, t, p, x, pw):
        # n - 1 is linear in X and P_w, so the cancellation is exact, not
        # merely first order; residual is pure floating-point noise
        state = AirState(t, p, x, min(pw, p))
        length = 5.0
        rebuilt = TRIPLE.reconstruct(phase_lengths(TRIPLE.wavelengths_m, state, length))
        assert abs(rebuilt - length) < 1e-10 * length

    def test_near_colinear_dispersion_rejected(self):
        with pytest.raises(DomainError):
            synth_3wi(1.064e-6, 1.064001e-6, 1.064002e-6)

    def test_duplicate_wavelengths_rejected(self):
        with pytest.raises(ValidationError):
            synth_3wi(1.064e-6, 0.532e-6, 0.532e-6)


class TestThreeColorBias:
    def test_moist_bias_vanishes(self):
        # the bias function is the two-color one; the three-color
        # combination cancels water vapour, so it reads zero to rounding
        moist = AirState(20.0, 101325.0, 0.04, 1000.0)
        assert abs(humidity_bias(TRIPLE, moist, 100.0)) < 1e-8
        assert abs(humidity_bias(PAIR, moist, 100.0)) > 1e-5


class TestShotNoise3WI:
    def test_frozen_value(self):
        assert shot_noise(TRIPLE, TRIPLE_PHOTONS) == pytest.approx(SHOT_3WI_M, rel=1e-10)

    def test_one_photon_number_per_wavelength(self):
        with pytest.raises(ValidationError, match="one photon number per wavelength"):
            shot_noise(TRIPLE, PAIR_PHOTONS)

    def test_degrades_on_two_color_at_same_budget(self):
        # same total photon number: the third color costs one to two orders
        ratio = shot_noise(TRIPLE, TRIPLE_PHOTONS) / shot_noise(PAIR, PAIR_PHOTONS)
        assert 10.0 < ratio < 100.0


class TestConsistencyWithCombScheme:
    def test_sensitivity_ranking(self, standard_air):
        # the fully purified comb measurement is less precise than the
        # two-color displacement scheme at equal photon budget, but it has
        # no humidity systematic, while the two-color scheme does
        from comb_ranger.detection import contamination_report
        from comb_ranger.mode_algebra import GaussianPulse

        pulse = GaussianPulse.from_wavelength(800e-9)
        sens = contamination_report(pulse, standard_air, 1.0, 8e16).purified
        two_color = shot_noise(PAIR, PAIR_PHOTONS)
        assert sens.full_m > two_color
        assert sens.x_only_m > two_color
        moist = AirState(20.0, 101325.0, 0.04, 1000.0)
        assert abs(humidity_bias(PAIR, moist, 1.0)) > 1e-7


class TestRefusals:
    def test_too_few_photon_numbers(self):
        with pytest.raises(ValidationError, match="one photon number per wavelength"):
            shot_noise(PAIR, (4e16,))

    def test_too_many_photon_numbers(self):
        with pytest.raises(ValidationError, match="one photon number per wavelength"):
            shot_noise(PAIR, TRIPLE_PHOTONS)

    @pytest.mark.parametrize("comb, count", [(PAIR, 1), (PAIR, 3), (TRIPLE, 2), (TRIPLE, 4)])
    def test_one_phase_length_per_weight(self, comb, count):
        with pytest.raises(ValidationError, match="one phase length per weight"):
            comb.reconstruct([1.0] * count)

    def test_photons_below_one(self):
        for bad in (0.0, 0.999, -1.0, math.nan):
            with pytest.raises(ValidationError, match="must be finite and >= 1"):
                shot_noise(PAIR, (bad, 4e16))

    def test_infinite_photons(self):
        with pytest.raises(ValidationError, match="must be finite and >= 1"):
            shot_noise(PAIR, (4e16, math.inf))
        with pytest.raises(ValidationError, match="must be finite and >= 1"):
            shot_noise(TRIPLE, (1.0, math.inf, 1.0))

    def test_out_of_band_wavelength(self):
        with pytest.raises(ValidationError, match="wavelength_m="):
            two_color_combination(1.064e-6, 1e-3)
        with pytest.raises(ValidationError, match="wavelength_m="):
            synth_3wi(1.064e-6, 0.532e-6, math.nan)
        # inside the band but past the resonance pole guard
        with pytest.raises(DomainError):
            two_color_combination(0.15e-6, 0.532e-6)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            two_color_combination(1.064e-6, 1.064e-6)

    @pytest.mark.parametrize("length", [0.0, 1e-9, 1e300, math.inf, math.nan])
    def test_length_outside_window(self, length, standard_air):
        with pytest.raises(ValidationError, match="length_m="):
            humidity_bias(PAIR, standard_air, length)


class TestPlainFloats:
    # numpy scalars among the weights printed as np.float64(...) in the repr
    def test_report_baseline_weights_are_floats(self):
        for comb in detection._baseline_combinations():
            assert [type(w) for w in comb.weights] == [float] * len(comb.weights)
            assert "np." not in repr(comb)

    def test_other_combinations_hold_floats(self):
        for comb in (two_color_combination(0.633e-6, 1.55e-6), synth_3wi(1.55e-6, 0.78e-6, 0.52e-6)):
            assert [type(w) for w in comb.weights] == [float] * len(comb.weights)


class TestSplitShotNoise:
    # one square root per call, the same bits as one count per channel
    @pytest.mark.parametrize("n_photons", [3.0, 7.3e9, 8e16, 1e30])
    def test_equals_shot_noise_of_the_shares(self, n_photons):
        for comb in (PAIR, TRIPLE):
            k = len(comb.weights)
            assert split_shot_noise(comb, n_photons) == shot_noise(comb, (n_photons / k,) * k)

    @pytest.mark.parametrize("n_photons", [2.9, math.inf, math.nan])
    def test_share_below_one_or_not_finite_refused(self, n_photons):
        with pytest.raises(ValidationError, match="finite and >= 1"):
            split_shot_noise(TRIPLE, n_photons)
