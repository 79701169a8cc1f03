"""Mode algebra: orthonormality, Parseval, Gaussian moments."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from comb_ranger import GaussianPulse, SpectralMode, hermite_gauss, inner_product
from comb_ranger.errors import ValidationError
from comb_ranger.mode_algebra import gaussian_envelope, hermite_envelope, real_profile
from reference import quadrature_inner_product, sampling_grid

PULSE = GaussianPulse.from_wavelength(800e-9)
GRID = sampling_grid(PULSE)


def quad(f_mode, g_mode):
    # conj(i f) (i g) = f g: the real profiles give the L2 product of the modes
    return quadrature_inner_product(real_profile(f_mode, GRID), real_profile(g_mode, GRID), GRID, PULSE)


class TestSpectralMode:
    def test_complex_coefficients_rejected(self):
        # np.complex64 and a 0-d complex array are no Python complex: only a
        # dtype probe sees them, and float() would drop their imaginary part
        for coeffs in (
            (1.0, 1j),
            (0.6, np.complex128(0.8)),
            np.array([0.6, 0.8], dtype=complex),
            (0.6, np.complex64(0.8)),
            (0.6, np.array(0.8 + 0j)),
            (np.array(0.6 + 0.8j),),
        ):
            with pytest.raises(ValidationError, match="must be real"):
                SpectralMode(PULSE, coeffs)
        mode = SpectralMode(PULSE, (1, np.float32(0.5)))
        assert mode.coefficients == (1.0, 0.5)
        assert all(type(c) is float for c in mode.coefficients)

    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, math.nan), (math.inf,), (0.6, -math.inf), (np.float64("nan"), 1.0), np.array([0.6, np.inf])],
    )
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValidationError, match="must be finite"):
            SpectralMode(PULSE, coeffs)

    @pytest.mark.parametrize("coeffs", [(), [], np.array([])])
    def test_empty_coefficients_rejected(self, coeffs):
        with pytest.raises(ValidationError, match="at least one coefficient"):
            SpectralMode(PULSE, coeffs)

    def test_equal_modes_compare_and_hash_equal(self):
        a = SpectralMode(PULSE, (0.6, 0.8))
        b = SpectralMode(GaussianPulse(PULSE.omega0, PULSE.delta_omega), (np.float64(0.6), 0.8))
        assert a is not b and a == b and hash(a) == hash(b)
        # the hash kept per instance is the dataclass hash of the fields
        assert hash(a) == hash((a.pulse, a.coefficients))
        assert hash(a.pulse) == hash((PULSE.omega0, PULSE.delta_omega))
        assert {a: "a"}[b] == "a"
        for other in (dataclasses.replace(a), dataclasses.replace(b, coefficients=[0.6, 0.8])):
            assert other == a and hash(other) == hash(a)
        moved = dataclasses.replace(a, coefficients=(0.8, 0.6))
        assert moved != a and hash(moved) == hash((PULSE, (0.8, 0.6)))
        a.norm()
        for mode in (a, b):
            loaded = pickle.loads(pickle.dumps(mode))
            assert loaded == a and hash(loaded) == hash(a)
            assert loaded.norm() == a.norm()

    def test_norm_is_numpy_norm(self):
        # sqrt(v.v) is the norm numpy takes of a real vector, bit for bit
        rng = np.random.default_rng(5)
        for size in range(1, 10):
            for _ in range(50):
                vec = rng.normal(size=size) * 10.0 ** rng.uniform(-150, 150)
                assert SpectralMode(PULSE, tuple(vec)).norm() == float(np.linalg.norm(vec))

    def test_padded(self):
        mode = SpectralMode(PULSE, (0.3, -0.2, 0.5))
        assert mode.padded(2).tolist() == [0.3, -0.2, 0.5]
        assert mode.padded(4).tolist() == [0.3, -0.2, 0.5, 0.0, 0.0]
        with pytest.raises(ValidationError, match="order 2 to order 1"):
            mode.padded(1)


class TestGaussianMode:
    def test_sampled_form_is_the_envelope(self):
        # u = -i v0 has v0's real profile
        assert_allclose(real_profile(hermite_gauss(0, PULSE), GRID), gaussian_envelope(PULSE, GRID), atol=1e-18)

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
        assert v3.coefficients == (0.0, 0.0, 0.0, 1.0)
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
        expected = 1.0 / math.sqrt(2.0) * (x**2 - 1.0) * gaussian_envelope(PULSE, GRID)
        assert_allclose(real_profile(v2, GRID), expected, atol=1e-16)

    def test_v1_zero_at_carrier(self):
        v1 = hermite_gauss(1, PULSE)
        assert real_profile(v1, np.array([PULSE.omega0]))[0] == 0.0

    def test_order_overflow(self):
        with pytest.raises(ValidationError):
            hermite_gauss(9, PULSE)


class TestInnerProduct:
    def test_pulse_mismatch_rejected(self):
        other = GaussianPulse.from_wavelength(1064e-9)
        with pytest.raises(ValidationError):
            inner_product(hermite_gauss(0, PULSE), hermite_gauss(0, other))

    def test_conjugate_symmetry(self):
        # on real coefficients conjugate symmetry is plain symmetry
        f = SpectralMode(PULSE, (0.3, -0.2, 0.5))
        g = SpectralMode(PULSE, (0.1, 0.7))
        assert inner_product(f, g) == pytest.approx(inner_product(g, f))

    def test_norm_real_nonnegative(self):
        f = SpectralMode(PULSE, (0.3, -0.2, 0.5))
        ip = inner_product(f, f)
        assert type(ip) is float
        assert ip >= 0.0

    def test_gvd_phase_overlap(self):
        # <v0, v0/sqrt(3) + sqrt(2/3) v2> = 1/sqrt(3)
        w_gvd = SpectralMode(PULSE, (1 / math.sqrt(3), 0.0, math.sqrt(2 / 3)))
        assert inner_product(hermite_gauss(0, PULSE), w_gvd) == pytest.approx(
            1 / math.sqrt(3), rel=1e-15
        )


coefficients = st.lists(
    st.floats(min_value=-1.0, max_value=1.0),
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
        u = real_profile(hermite_gauss(0, PULSE), narrow)
        with pytest.raises(ValidationError):
            quadrature_inner_product(u, u, narrow, PULSE)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            sampling_grid(PULSE, points=512)


class TestProfiles:
    def test_real_profile_keeps_the_sign(self):
        # a mode whose largest coefficient is negative is sampled as it is;
        # the plotting sign convention belongs to the `modes` table alone
        mode = SpectralMode(PULSE, (0.3, -0.9))
        expected = 0.3 * hermite_envelope(0, PULSE, GRID) - 0.9 * hermite_envelope(1, PULSE, GRID)
        assert_allclose(real_profile(mode, GRID), expected, atol=1e-18)
