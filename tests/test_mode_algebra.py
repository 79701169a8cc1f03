"""Mode algebra: orthonormality, Parseval, Gaussian moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from comb_ranger import GaussianPulse, SpectralMode, gaussian_mode, hermite_gauss, inner_product
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import gaussian_envelope, real_profile
from reference import quadrature_inner_product, sample, sampling_grid

PULSE = GaussianPulse.from_wavelength(800e-9)
GRID = sampling_grid(PULSE)


def quad(f_mode, g_mode):
    return quadrature_inner_product(sample(f_mode, GRID), sample(g_mode, GRID), GRID, PULSE)


class TestGaussianMode:
    def test_unit_norm_and_phase(self):
        u = gaussian_mode(PULSE)
        assert u.coefficients == (-1j,)
        assert inner_product(u, u) == 1.0 + 0j

    def test_sampled_form_is_the_envelope(self):
        u = gaussian_mode(PULSE)
        assert_allclose(sample(u, GRID), gaussian_envelope(PULSE, GRID), atol=1e-18)

    def test_moments_by_quadrature(self):
        density = gaussian_envelope(PULSE, GRID) ** 2
        d = GRID - PULSE.omega0
        norm = np.trapezoid(density, GRID)
        assert norm == pytest.approx(1.0, abs=1e-8)
        first = np.trapezoid(d * density, GRID)
        second = np.trapezoid(d**2 * density, GRID)
        third = np.trapezoid(d**3 * density, GRID)
        fourth = np.trapezoid(d**4 * density, GRID)
        assert abs(first) < 1e-10 * PULSE.delta_omega
        assert second == pytest.approx(PULSE.delta_omega**2, rel=1e-6)
        assert abs(third) < 1e-10 * PULSE.delta_omega**3
        assert fourth == pytest.approx(3.0 * PULSE.delta_omega**4, rel=1e-6)


class TestHermiteGauss:
    def test_coefficient_representation(self):
        v3 = hermite_gauss(3, PULSE)
        assert v3.coefficients == (0j, 0j, 0j, 1 + 0j)
        assert v3.norm() == 1.0

    def test_orthonormality_exact_and_by_quadrature(self):
        modes = [hermite_gauss(n, PULSE) for n in range(5)]
        for m, f in enumerate(modes):
            for n, g in enumerate(modes):
                assert inner_product(f, g) == (1.0 if m == n else 0.0)
                assert quad(f, g) == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)

    def test_orthonormality_up_to_max_order(self):
        modes = [hermite_gauss(n, PULSE) for n in range(9)]
        for m, f in enumerate(modes):
            for n, g in enumerate(modes):
                assert inner_product(f, g) == (1.0 if m == n else 0.0)

    def test_v2_sampled_form(self):
        v2 = hermite_gauss(2, PULSE)
        x = (GRID - PULSE.omega0) / PULSE.delta_omega
        expected = 1j / math.sqrt(2.0) * (x**2 - 1.0) * gaussian_envelope(PULSE, GRID)
        assert_allclose(sample(v2, GRID), expected, atol=1e-16)

    def test_v1_zero_at_carrier(self):
        v1 = hermite_gauss(1, PULSE)
        assert sample(v1, np.array([PULSE.omega0]))[0] == 0.0

    def test_order_overflow(self):
        with pytest.raises(ValidationError):
            hermite_gauss(9, PULSE)


class TestInnerProduct:
    def test_pulse_mismatch_rejected(self):
        other = GaussianPulse.from_wavelength(1064e-9)
        with pytest.raises(ValidationError):
            inner_product(gaussian_mode(PULSE), gaussian_mode(other))

    def test_conjugate_symmetry(self):
        f = SpectralMode(PULSE, (0.3 + 0.1j, -0.2j, 0.5))
        g = SpectralMode(PULSE, (0.1, 0.7 - 0.4j))
        assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))

    def test_norm_real_nonnegative(self):
        f = SpectralMode(PULSE, (0.3 + 0.1j, -0.2j, 0.5))
        ip = inner_product(f, f)
        assert ip.imag == 0.0
        assert ip.real >= 0.0

    def test_gvd_phase_overlap(self):
        # <v0, v0/sqrt(3) + sqrt(2/3) v2> = 1/sqrt(3)
        w_gvd = SpectralMode(PULSE, (1 / math.sqrt(3), 0.0, math.sqrt(2 / 3)))
        assert inner_product(hermite_gauss(0, PULSE), w_gvd).real == pytest.approx(
            1 / math.sqrt(3), rel=1e-15
        )


coefficients = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-6)


@settings(max_examples=25, deadline=None)
@given(cf=coefficients, cg=coefficients)
def test_parseval_coefficients_vs_quadrature(cf, cg):
    f = SpectralMode(PULSE, tuple(cf))
    g = SpectralMode(PULSE, tuple(cg))
    exact = inner_product(f, g)
    numeric = quad(f, g)
    assert numeric == pytest.approx(exact, abs=1e-8)


class TestQuadrature:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            quadrature_inner_product(np.ones(4), np.ones(5), np.linspace(0, 1, 4))

    def test_insufficient_coverage(self):
        narrow = np.linspace(
            PULSE.omega0 - 2 * PULSE.delta_omega, PULSE.omega0 + 2 * PULSE.delta_omega, 4096
        )
        u = gaussian_mode(PULSE)
        with pytest.raises(ValidationError):
            quadrature_inner_product(sample(u, narrow), sample(u, narrow), narrow, PULSE)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            sampling_grid(PULSE, points=512)


class TestProfiles:
    def test_real_profile_of_u_is_gaussian(self):
        u = gaussian_mode(PULSE)
        assert_allclose(real_profile(u, GRID), gaussian_envelope(PULSE, GRID), atol=1e-18)

    def test_real_profile_rejects_mixed_phase(self):
        mixed = SpectralMode(PULSE, (1.0, 1j))
        with pytest.raises(DomainError):
            real_profile(mixed, GRID)
