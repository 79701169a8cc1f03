"""Air index model: frozen reference values, derivative oracles, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comb_ranger import air_model
from comb_ranger.air_model import (
    CO2_MAX_PERCENT,
    POLE_FAR,
    POLE_GUARD,
    POLE_NEAR,
    PRESSURE_MAX_PA,
    WAVELENGTH_MAX_M,
    WAVELENGTH_MIN_M,
    AirState,
    density_factor,
    dispersion_scalars,
    group_index,
    k_dispersion,
    k_derivatives,
    g_derivatives,
    omega_from_sigma,
    phase_index,
    sigma_from_omega,
    sigma_from_wavelength,
    water_term,
)
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import GaussianPulse

# Frozen by direct evaluation of the closed forms with an independent script.
K_AT_ZERO = 2.644400569309868e-04
K_AT_1064NM = 2.6576100154167e-04
N_MINUS_1_STD_633 = 2.717831642265818e-04
X_STANDARD = 1.0132553888178657
KPRIME_AT_800NM = 3.81543644672652e-06
DELTA1_800NM = 1.787651353675353e-02


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestKDispersion:
    def test_value_at_zero(self):
        assert k_dispersion(0.0) == pytest.approx(K_AT_ZERO, rel=1e-12)

    def test_value_at_1064nm(self):
        assert k_dispersion(1.0 / 1.064) == pytest.approx(K_AT_1064NM, rel=1e-12)

    def test_normal_dispersion_monotone(self):
        sigmas = np.linspace(0.3, 3.0, 50)
        values = k_dispersion(sigmas)
        assert np.all(np.diff(values) > 0.0)
        assert k_dispersion(1.0 / 0.532) > k_dispersion(1.0 / 1.064)

    def test_pole_proximity_rejected(self):
        with pytest.raises(DomainError):
            k_dispersion(math.sqrt(38.9))
        with pytest.raises(DomainError):
            k_dispersion(math.sqrt(38.9 - 1e-9))

    def test_even_in_sigma(self):
        assert k_dispersion(-1.25) == k_dispersion(1.25)


class TestWaterTerm:
    def test_value_at_zero(self):
        assert water_term(0.0) == pytest.approx(3.802e-10, rel=1e-12)

    def test_value_at_800nm(self):
        # 1e-10 * (3.802 - 0.0384 * 1.25^2)
        assert water_term(1.25) == pytest.approx(3.742e-10, rel=1e-12)

    def test_root_of_linear_form(self):
        # the root sigma^2 = I/J of the linear form lies beyond the validity
        # band (sigma^2 ~ 99 > 38.9), so recover it from in-band samples:
        # g is linear in sigma^2, two points determine the extrapolated zero
        s2a, s2b = 1.0, 4.0
        ga, gb = water_term(math.sqrt(s2a)), water_term(math.sqrt(s2b))
        root_s2 = s2a - ga * (s2b - s2a) / (gb - ga)
        assert root_s2 == pytest.approx(3.802 / 0.0384, rel=1e-9)
        with pytest.raises(DomainError):
            water_term(math.sqrt(3.802 / 0.0384))


class TestDensityFactor:
    def test_zero_pressure(self):
        assert density_factor(AirState(20.0, 0.0, 0.04, 0.0)) == 0.0

    def test_standard_value(self):
        assert density_factor(AirState.standard()) == pytest.approx(X_STANDARD, rel=1e-12)

    def test_reference_co2_bracket_is_unity(self):
        # at x = 0.04 % the CO2 bracket is exactly 1: X scales linearly with P
        state = AirState(20.0, 50000.0, 0.04, 0.0)
        doubled = AirState(20.0, 100000.0, 0.04, 0.0)
        ratio_no_compress = density_factor(state) / state.pressure_pa
        # remove the small (E - F T) P compressibility part before comparing
        comp = lambda p: 1.0 + 1e-8 * (0.5953 - 0.009876 * 20.0) * p
        assert ratio_no_compress / comp(state.pressure_pa) == pytest.approx(
            density_factor(doubled) / doubled.pressure_pa / comp(doubled.pressure_pa), rel=1e-13
        )

    def test_co2_increases_index(self):
        lo = density_factor(AirState(20.0, 101325.0, 0.03, 0.0))
        hi = density_factor(AirState(20.0, 101325.0, 0.05, 0.0))
        assert hi > lo


class TestPhaseIndex:
    def test_vacuum_is_exactly_one(self, vacuum):
        assert phase_index(1.25, vacuum) == 1.0
        assert group_index(1.25, vacuum) == 1.0

    def test_standard_air_633nm(self, standard_air):
        assert phase_index(1.0 / 0.633, standard_air) - 1.0 == pytest.approx(
            N_MINUS_1_STD_633, rel=1e-10
        )

    def test_humidity_lowers_index(self):
        dry = AirState(20.0, 101325.0, 0.04, 0.0)
        moist = AirState(20.0, 101325.0, 0.04, 1500.0)
        assert phase_index(1.25, moist) < phase_index(1.25, dry)


class TestDerivatives:
    def test_kprime_against_finite_difference(self):
        k, k1, k2 = k_derivatives(1.25)
        assert k1 == pytest.approx(KPRIME_AT_800NM, rel=1e-11)
        assert k1 == pytest.approx(central_diff(k_dispersion, 1.25, 1e-4), rel=1e-8)
        fd2 = central_diff(lambda s: k_derivatives(s)[1], 1.25, 1e-4)
        assert k2 == pytest.approx(fd2, rel=1e-8)

    def test_kprime_vanishes_at_zero(self):
        _, k1, _ = k_derivatives(0.0)
        assert k1 == 0.0

    def test_k_second_derivative_positive(self):
        for sigma in np.linspace(0.1, 3.0, 30).tolist():
            assert k_derivatives(sigma)[2] > 0.0

    def test_g_derivatives_polynomial(self):
        g, g1, g2 = g_derivatives(1.7)
        assert g1 == -2e-10 * 0.0384 * 1.7
        assert g2 == -2e-10 * 0.0384  # = -7.68e-12, constant
        fd = central_diff(water_term, 1.25, 1e-5)
        assert g_derivatives(1.25)[1] == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("sigma", np.linspace(0.5, 2.5, 9))
    def test_fd_agreement_across_band(self, sigma):
        _, k1, k2 = k_derivatives(sigma)
        assert k1 == pytest.approx(central_diff(k_dispersion, sigma, 1e-4), rel=1e-6)
        assert k2 == pytest.approx(
            central_diff(lambda s: k_derivatives(s)[1], sigma, 1e-4), rel=1e-6
        )


class TestDispersionScalars:
    def test_delta1_at_800nm(self):
        scalars = dispersion_scalars(omega_from_sigma(1.25))
        assert scalars.delta1 == pytest.approx(DELTA1_800NM, rel=1e-11)

    def test_chain_rule_against_omega_fd(self):
        omega0 = omega_from_sigma(1.25)
        h = omega0 * 1e-6

        def k_of_omega(w):
            return k_dispersion(sigma_from_omega(w))

        scalars = dispersion_scalars(omega0)
        fd = central_diff(k_of_omega, omega0, h)
        assert scalars.delta1 == pytest.approx(omega0 * fd / k_of_omega(omega0), rel=1e-7)

    def test_eta1_closed_form(self):
        # eta1 = -2 J sigma^2 / (I - J sigma^2) for the quadratic water term
        sigma = 1.4
        scalars = dispersion_scalars(omega_from_sigma(sigma))
        expected = -2.0 * 0.0384 * sigma**2 / (3.802 - 0.0384 * sigma**2)
        assert scalars.eta1 == pytest.approx(expected, rel=1e-12)

    def test_state_independent_by_construction(self):
        omega0 = omega_from_sigma(1.25)
        assert dispersion_scalars(omega0) == dispersion_scalars(omega0)


states = st.builds(
    AirState,
    temperature_c=st.floats(-40.0, 100.0),
    pressure_pa=st.floats(1e4, 1.2e5),
    co2_percent=st.floats(0.0, 1.0),
    water_vapor_pa=st.floats(0.0, 3000.0),
)


@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(0.3, 2.8), state=states)
def test_group_phase_identity(sigma, state):
    # n_g - n_phi = sigma (K' X - g' P_w); residual bounded on the index scale
    lhs = group_index(sigma, state) - phase_index(sigma, state)
    _, k1, _ = k_derivatives(sigma)
    _, g1, _ = g_derivatives(sigma)
    rhs = sigma * (k1 * density_factor(state) - g1 * state.water_vapor_pa)
    assert abs(lhs - rhs) < 1e-10


def test_group_phase_identity_thousand_samples():
    rng = np.random.default_rng(20260808)
    for _ in range(1000):
        sigma = rng.uniform(0.3, 2.8)
        pressure = rng.uniform(1e4, 1.2e5)
        state = AirState(
            rng.uniform(-40.0, 100.0),
            pressure,
            rng.uniform(0.0, 1.0),
            rng.uniform(0.0, min(3000.0, pressure)),
        )
        lhs = group_index(sigma, state) - phase_index(sigma, state)
        _, k1, _ = k_derivatives(sigma)
        _, g1, _ = g_derivatives(sigma)
        rhs = sigma * (k1 * density_factor(state) - g1 * state.water_vapor_pa)
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=50, deadline=None)
@given(state=states, sigma=st.floats(0.3, 2.8))
def test_group_exceeds_phase_in_dry_air(sigma, state):
    dry = AirState(state.temperature_c, state.pressure_pa, state.co2_percent, 0.0)
    assert group_index(sigma, dry) >= phase_index(sigma, dry)


def test_group_index_water_linearity():
    # d n_g / d P_w = -(g + sigma g') exactly
    sigma = 1.25
    base = AirState(20.0, 101325.0, 0.04, 0.0)
    moist = AirState(20.0, 101325.0, 0.04, 800.0)
    g, g1, _ = g_derivatives(sigma)
    slope = (group_index(sigma, moist) - group_index(sigma, base)) / 800.0
    assert slope == pytest.approx(-(g + sigma * g1), rel=1e-9)


class TestValidation:
    def test_temperature_window(self):
        with pytest.raises(ValidationError):
            AirState(-41.0, 101325.0, 0.04, 0.0)
        with pytest.raises(ValidationError):
            AirState(101.0, 101325.0, 0.04, 0.0)

    def test_negative_pressure(self):
        with pytest.raises(ValidationError):
            AirState(20.0, -1.0, 0.04, 0.0)

    @pytest.mark.parametrize(
        "args", [(20.0, 1.0000001e6, 0.04, 0.0), (20.0, 101325.0, 100.5, 0.0)]
    )
    def test_upper_bounds(self, args):
        with pytest.raises(ValidationError):
            AirState(*args)

    def test_upper_bounds_inclusive(self):
        state = AirState(20.0, PRESSURE_MAX_PA, CO2_MAX_PERCENT, PRESSURE_MAX_PA)
        assert math.isfinite(phase_index(1.58, state))

    def test_water_vapor_exceeding_pressure(self):
        with pytest.raises(ValidationError):
            AirState(20.0, 1000.0, 0.04, 1001.0)

    def test_wavenumber_conversions_roundtrip(self):
        sigma = sigma_from_wavelength(633e-9)
        assert sigma == pytest.approx(1.0 / 0.633, rel=1e-14)
        assert sigma_from_omega(omega_from_sigma(sigma)) == pytest.approx(sigma, rel=1e-14)
        assert 1e-6 / sigma == pytest.approx(633e-9, rel=1e-14)


def _sigma_edge(s2_limit):
    """(largest sigma with sigma^2 < s2_limit, next double above it), in doubles."""
    below = math.sqrt(s2_limit)
    while below * below >= s2_limit:
        below = math.nextafter(below, 0.0)
    while math.nextafter(below, math.inf) ** 2 < s2_limit:
        below = math.nextafter(below, math.inf)
    return below, math.nextafter(below, math.inf)


def _verdict(sigma):
    try:
        air_model._check_sigma_domain(sigma)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestSigmaDomainScalarPath:
    near_below, near_at = _sigma_edge(POLE_NEAR - POLE_GUARD)
    far_lo_below, far_lo_at = _sigma_edge(POLE_FAR - POLE_GUARD)
    far_hi_below, far_hi_at = _sigma_edge(POLE_FAR + POLE_GUARD)

    def test_edges_straddle_the_limits(self):
        assert self.near_below**2 < POLE_NEAR - POLE_GUARD <= self.near_at**2
        assert self.far_lo_below**2 < POLE_FAR - POLE_GUARD <= self.far_lo_at**2
        assert _verdict(self.near_below) is None
        assert _verdict(self.near_at)[0] is DomainError

    # float and np.float64 take the scalar path, 0-d and 1-element arrays the
    # numpy one; all four must give the same verdict, class and message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma",
        [near_below, near_at, far_lo_below, far_lo_at, far_hi_below, far_hi_at,
         0.0, -0.0, -1.25, -near_at, 1.0 / 1.064, math.nan, math.inf, -math.inf, 1e200],
    )
    def test_same_verdict_as_array_path(self, sigma):
        scalar = _verdict(sigma)
        assert _verdict(np.float64(sigma)) == scalar
        with np.errstate(over="ignore", invalid="ignore"):
            assert _verdict(np.array(sigma)) == scalar
            assert _verdict(np.array([sigma])) == scalar

    def test_overflowing_square_refused_as_non_finite(self):
        assert _verdict(1e200) == (DomainError, "sigma must be finite")

    # K, g and n_phi of a float take the sigma^2 the scalar check returns: a
    # Python float with the array path's bits
    @pytest.mark.parametrize("sigma", [near_below, 0.0, -1.25, 1.0 / 1.064, 1.0 / 0.633])
    def test_formulas_match_array_path(self, sigma):
        moist = AirState(20.0, 101325.0, 0.04, 1000.0)
        for formula in (k_dispersion, water_term, lambda s: phase_index(s, moist)):
            value = formula(sigma)
            assert type(value) is float and type(formula(np.float64(sigma))) is float
            assert value == formula(np.array([sigma]))[0]


class TestCarrierWindow:
    @pytest.mark.parametrize(
        "wavelength_m",
        [1e-300, WAVELENGTH_MIN_M * (1 - 1e-15), WAVELENGTH_MAX_M * (1 + 1e-15), 1e300,
         math.nan, math.inf, 0.0, -800e-9],
    )
    def test_outside_refused_before_arithmetic(self, wavelength_m):
        with pytest.raises(ValidationError, match="wavelength_m"):
            sigma_from_wavelength(wavelength_m)
        with pytest.raises(ValidationError, match="wavelength_m"):
            GaussianPulse.from_wavelength(wavelength_m)

    def test_edges_accepted(self):
        # the lower edge lies past the near pole, which still refuses it
        with pytest.raises(DomainError, match="resonance pole"):
            sigma_from_wavelength(WAVELENGTH_MIN_M)
        assert sigma_from_wavelength(WAVELENGTH_MAX_M) == pytest.approx(1e-2, rel=1e-15)
        for wavelength_m in (WAVELENGTH_MIN_M, WAVELENGTH_MAX_M):
            assert GaussianPulse.from_wavelength(wavelength_m).omega0 > 0.0

    @pytest.mark.parametrize("wavelength_m", [150e-9, 160.3e-9])
    def test_carrier_inside_window_refused_at_the_pole(self, wavelength_m):
        # sigma^2 = 38.92 um^-2 at 160.3 nm; 38.87 at 160.4 nm, which passes
        with pytest.raises(DomainError, match="resonance pole"):
            sigma_from_wavelength(wavelength_m)
        assert sigma_from_wavelength(160.4e-9) == 1e-6 / 160.4e-9
