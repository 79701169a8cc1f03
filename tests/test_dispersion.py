"""Propagation: delay triple, exact vs expanded phase, linearized field."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from comb_ranger import air_model
from comb_ranger.air_model import SPEED_OF_LIGHT, AirState
from comb_ranger.detection import ranging_modes
from comb_ranger.dispersion import RANGING_LABELS, phase_gradient
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import GaussianPulse, gaussian_envelope, hermite_envelope
from reference import (
    TimeDelays,
    apply_spectral_phase,
    expanded_phase,
    expansion_times,
    linearized_field,
    sampling_grid,
    time_detection_modes,
    time_phase_gradient,
)


class TestExpansionTimes:
    def test_vacuum_three_meters(self, vacuum):
        pulse = GaussianPulse.from_wavelength(800e-9)
        triple = expansion_times(vacuum, 3.0, pulse.omega0)
        assert triple.t_phi == 3.0 / SPEED_OF_LIGHT
        assert triple.t_g == triple.t_phi
        assert triple.t_gvd == 0.0
        assert triple.t_phi == pytest.approx(1.00069e-8, rel=1e-5)

    def test_linear_in_length(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        one = expansion_times(standard_air, 1.0, pulse.omega0)
        two = expansion_times(standard_air, 2.0, pulse.omega0)
        assert two.t_phi == 2.0 * one.t_phi
        assert two.t_g == 2.0 * one.t_g
        assert two.t_gvd == 2.0 * one.t_gvd

    def test_group_exceeds_phase_delay(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        triple = expansion_times(standard_air, 1.0, pulse.omega0)
        assert triple.t_g > triple.t_phi
        # both routes to the same difference: delays vs indices
        sigma0 = air_model.sigma_from_omega(pulse.omega0)
        ng = air_model.group_index(sigma0, standard_air)
        nphi = air_model.phase_index(sigma0, standard_air)
        assert (triple.t_g - triple.t_phi) * SPEED_OF_LIGHT == pytest.approx(
            ng - nphi, abs=1e-15
        )

    def test_rejects_nonpositive_length(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        with pytest.raises(ValidationError):
            expansion_times(standard_air, 0.0, pulse.omega0)


class TestApplySpectralPhase:
    def test_vacuum_phase_is_omega_l_over_c(self, vacuum):
        pulse = GaussianPulse.from_wavelength(800e-9)
        omega = sampling_grid(pulse)
        field = gaussian_envelope(pulse, omega).astype(complex)
        out = apply_spectral_phase(field, omega, vacuum, 2.5)
        expected = field * np.exp(1j * omega * 2.5 / SPEED_OF_LIGHT)
        assert_allclose(out, expected, rtol=1e-12)

    def test_energy_conservation(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        omega = sampling_grid(pulse)
        field = gaussian_envelope(pulse, omega).astype(complex)
        out = apply_spectral_phase(field, omega, standard_air, 50.0)
        before = np.trapezoid(np.abs(field) ** 2, omega)
        after = np.trapezoid(np.abs(out) ** 2, omega)
        assert after == pytest.approx(before, rel=1e-12)

    def test_grid_outside_validity_rejected(self, standard_air):
        pulse = GaussianPulse(2.4e15, 1.2e15)  # +8 sigma crosses the UV pole
        omega = sampling_grid(pulse)
        field = np.ones_like(omega, dtype=complex)
        with pytest.raises(DomainError):
            apply_spectral_phase(field, omega, standard_air, 1.0)


def exact_minus_quadratic(pulse: GaussianPulse, state: AirState, length_m: float) -> float:
    """Worst absolute phase residual at omega0 +/- 2 delta_omega."""
    base = expansion_times(state, length_m, pulse.omega0)
    residual = 0.0
    for w in (pulse.omega0 - 2 * pulse.delta_omega, pulse.omega0 + 2 * pulse.delta_omega):
        sigma = air_model.sigma_from_omega(w)
        exact = air_model.phase_index(sigma, state) * w * length_m / SPEED_OF_LIGHT
        fit = expanded_phase(np.array([w]), base, pulse.omega0)[0]
        residual = max(residual, abs(exact - fit))
    return residual


class TestExpansionResidual:
    """Truncation error of the quadratic phase model, pinned by direct
    evaluation: the residual is cubic in the bandwidth, ~0.8 rad for
    delta_omega = omega0/6 over 1 m of standard air and below 1e-3 rad
    once the relative bandwidth drops to 1/60."""

    def test_sub_milliradian_at_narrow_bandwidth(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9, relative_bandwidth=1.0 / 60.0)
        assert exact_minus_quadratic(pulse, standard_air, 1.0) < 1e-3

    def test_frozen_broadband_residual(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9, relative_bandwidth=1.0 / 6.0)
        res = exact_minus_quadratic(pulse, standard_air, 1.0)
        assert 0.7 < res < 0.9  # frozen: 0.8046 rad by direct evaluation

    def test_cubic_scaling_with_bandwidth(self, standard_air):
        wide = exact_minus_quadratic(
            GaussianPulse.from_wavelength(800e-9, 1.0 / 15.0), standard_air, 1.0
        )
        narrow = exact_minus_quadratic(
            GaussianPulse.from_wavelength(800e-9, 1.0 / 30.0), standard_air, 1.0
        )
        assert wide / narrow == pytest.approx(8.0, rel=0.15)


class TestLinearizedField:
    def test_zero_perturbation_returns_u(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        out = linearized_field(pulse, (0.0, 0.0, 0.0), standard_air, 1.0)
        assert_allclose(out.deviation.padded(2), np.zeros(3), atol=0.0)
        assert all(v == 0.0 for v in out.amplitudes.values())

    def test_pure_phase_perturbation_component(self):
        pulse = GaussianPulse.from_wavelength(800e-9)
        p_phi = 1e-18
        out = linearized_field(pulse, TimeDelays(p_phi=p_phi))
        assert out.amplitudes["phi"] == p_phi * pulse.omega0
        expected = np.zeros(3)
        expected[0] += p_phi * pulse.omega0
        assert_allclose(out.deviation.padded(2), expected, rtol=1e-15)

    @staticmethod
    def _projected_deviation(pulse, omega, exact):
        """Coefficients on v_n = i h_n of the sampled field minus u = -i v0."""
        coeffs = np.array(
            [
                np.trapezoid(np.conj(1j * hermite_envelope(n, pulse, omega)) * exact, omega)
                for n in range(3)
            ]
        )
        coeffs[0] += 1j
        return coeffs

    def test_agreement_with_exact_propagation_vacuum(self, vacuum):
        # exact route: multiply u by the extra phase of a small length offset,
        # project on the basis; linear route: u + p K w.  In vacuum the two
        # differ only by the O(p^2) curvature of the phase factor.
        pulse = GaussianPulse.from_wavelength(800e-9)
        p_l = 1e-12
        omega = sampling_grid(pulse)
        u_samp = gaussian_envelope(pulse, omega).astype(complex)
        exact = apply_spectral_phase(u_samp, omega, vacuum, p_l)
        deviation_exact = self._projected_deviation(pulse, omega, exact)
        lin = linearized_field(pulse, (p_l, 0.0, 0.0), vacuum, 1.0)
        deviation_lin = lin.deviation.padded(2)
        scale = abs(deviation_exact[0])
        assert_allclose(deviation_lin, deviation_exact, rtol=1e-4, atol=1e-6 * scale)

    def test_exact_propagation_exposes_index_drop(self, standard_air):
        # in air the analytic length mode keeps the vacuum omega/c gradient;
        # the exact propagator carries n_phi(omega), so the leading
        # coefficients disagree by n-1 ~ 2.7e-4, and no more
        pulse = GaussianPulse.from_wavelength(800e-9)
        p_l = 1e-12
        omega = sampling_grid(pulse)
        u_samp = gaussian_envelope(pulse, omega).astype(complex)
        exact = apply_spectral_phase(u_samp, omega, standard_air, p_l)
        deviation_exact = self._projected_deviation(pulse, omega, exact)
        lin = linearized_field(pulse, (p_l, 0.0, 0.0), standard_air, 1.0)
        deviation_lin = lin.deviation.padded(2)
        rel = abs(deviation_lin[0] - deviation_exact[0]) / abs(deviation_exact[0])
        assert 1e-4 < rel < 5e-4

    def test_agreement_for_carrier_phase_offset(self):
        # a pure carrier-phase perturbation propagates as exp(i omega0 p);
        # the linearized route is exact to O((omega0 p)^2)
        pulse = GaussianPulse.from_wavelength(800e-9)
        p_phi = 1e-20
        omega = sampling_grid(pulse)
        u_samp = gaussian_envelope(pulse, omega).astype(complex)
        exact = u_samp * np.exp(1j * p_phi * time_phase_gradient("phi", omega, pulse))
        deviation_exact = self._projected_deviation(pulse, omega, exact)
        lin = linearized_field(pulse, TimeDelays(p_phi=p_phi))
        deviation_lin = lin.deviation.padded(2)
        scale = abs(deviation_exact[0])
        assert_allclose(deviation_lin, deviation_exact, rtol=1e-4, atol=1e-4 * scale)

    def test_first_order_convergence(self, standard_air):
        # deviation/(p K) approaches the detection mode linearly in p
        pulse = GaussianPulse.from_wavelength(800e-9)
        omega = sampling_grid(pulse)
        u_samp = gaussian_envelope(pulse, omega).astype(complex)
        w_phi = time_detection_modes(pulse)[0]

        def coeff_error(p):
            exact = u_samp * np.exp(1j * p * time_phase_gradient("phi", omega, pulse))
            dev = self._projected_deviation(pulse, omega, exact) / (p * w_phi.k_const)
            return np.linalg.norm(dev - w_phi.mode.padded(2))

        p = 4e-18
        err1 = coeff_error(p)
        err2 = coeff_error(p / 2)
        # first-order convergence: the residual halves with the step
        assert err1 / err2 == pytest.approx(2.0, rel=0.05)

    def test_linearity_guard_raises(self, standard_air):
        pulse = GaussianPulse.from_wavelength(800e-9)
        with pytest.raises(DomainError):
            linearized_field(
                pulse, (1e-7, 0.0, 0.0), standard_air, 1.0
            )

    def test_ranging_requires_state(self):
        pulse = GaussianPulse.from_wavelength(800e-9)
        with pytest.raises(ValidationError):
            linearized_field(pulse, (1e-13, 0.0, 0.0))


class TestPhaseGradient:
    # the oracle calls it per node on floats, the guard on two floats, the
    # tests on arrays: one set of operators serves all
    @pytest.mark.parametrize("label", RANGING_LABELS)
    def test_float_is_the_one_element_array(self, label):
        pulse = GaussianPulse.from_wavelength(633e-9, 0.2)
        moist = AirState(31.0, 97000.0, 0.07, 2300.0)
        for state in (AirState.standard(), moist):
            for x in (-8.5, -2.0, -0.3, 0.0, 1.7, 2.0, 8.5):
                w = pulse.omega0 + x * pulse.delta_omega
                one = phase_gradient(label, w, state, 7.0)
                assert isinstance(one, float)
                assert np.float64(one).tobytes() == phase_gradient(label, np.array([w]), state, 7.0).tobytes()


class TestPerturbationVector:
    def test_labels(self, standard_air):
        assert [label for label, _ in TimeDelays().items()] == ["phi", "g", "gvd"]
        # a ranging perturbation is the tuple (p_L, p_X, p_Pw), read in RANGING_LABELS order
        pulse = GaussianPulse.from_wavelength(800e-9)
        _, w_x, w_pw = ranging_modes(pulse, standard_air, 1.0)
        out = linearized_field(pulse, (0.0, 1e-9, 0.5), standard_air, 1.0)
        assert out.amplitudes == {"L": 0.0, "X": 1e-9 * w_x.k_const, "Pw": 0.5 * w_pw.k_const}
