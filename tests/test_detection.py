"""Detection modes, purification, homodyne signals, sensitivities."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval, hermvander
from numpy.testing import assert_allclose

from comb_ranger import air_model, detection
from comb_ranger.air_model import LENGTH_MAX_M, LENGTH_MIN_M, SPEED_OF_LIGHT, AirState, dispersion_scalars
from comb_ranger.detection import (
    PURIFY_FLOOR,
    DetectionMode,
    PurifiedSensitivity,
    contamination_report,
    min_detectable,
    numeric_detection_mode,
    purify,
    ranging_modes,
)
from comb_ranger.mode_algebra import (
    GaussianPulse,
    SpectralMode,
    gaussian_envelope,
    hermite_gauss,
    inner_product,
    real_profile,
)
from comb_ranger.dispersion import RANGING_LABELS, phase_gradient
from comb_ranger.errors import DomainError, SeparabilityError, ValidationError
from comb_ranger.config import SimConfig
from comb_ranger.simulator import select_lo
from reference import (
    TimeDelays,
    apply_spectral_phase,
    homodyne_signal,
    linearized_field,
    lstsq_purify,
    numeric_time_mode,
    sampling_grid,
    time_detection_modes,
)

PULSE = GaussianPulse.from_wavelength(800e-9)
AIR = AirState.standard()

# the exact modes' pulses, and states with and without water vapour
EXACT_PULSES = [GaussianPulse.from_wavelength(nm * 1e-9, 1.0 / 6.0) for nm in (800.0, 1550.0)]
EXACT_STATES = [AIR, AirState(-10.0, 80000.0, 0.2, 0.0), AirState(35.0, 104000.0, 0.04, 1500.0)]

# Frozen by direct evaluation with an independent script (800 nm carrier,
# relative bandwidth 1/6, L = 1 m, N = 8e16 photons).
RAW_SHOT_NOISE_M = 2.2201663594607716e-16
X_PREFACTOR = 2.6711709149038594e-04
PW_PREFACTOR = -3.733891891891892e-10
PMIN_CARRIER_PHASE_S = 7.507829934776962e-25

# non-orthogonal modes of mixed orders
MIXED = ((1.0, 0.2, 0.1), (0.9, 0.3, 0.0, 0.05), (0.0, 1.0, -0.4))


def unit_mode(label, coeffs, k_const=1.0):
    vec = np.asarray(coeffs, dtype=float)
    return DetectionMode(label, SpectralMode(PULSE, tuple(vec / np.linalg.norm(vec))), k_const)


class TestTimeModes:
    def test_constants(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        assert w_phi.k_const == PULSE.omega0
        assert w_g.k_const == PULSE.delta_omega
        assert w_gvd.k_const == pytest.approx(
            math.sqrt(3.0) * PULSE.delta_omega**2 / PULSE.omega0, rel=1e-15
        )

    def test_coefficient_vectors(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        assert_allclose(w_phi.mode.padded(2), [1.0, 0.0, 0.0], atol=0.0)
        assert_allclose(w_g.mode.padded(2), [0.0, 1.0, 0.0], atol=0.0)
        assert_allclose(
            w_gvd.mode.padded(2), [1 / math.sqrt(3), 0.0, math.sqrt(2 / 3)], rtol=1e-15
        )

    def test_overlaps(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        assert inner_product(w_phi.mode, w_g.mode) == 0.0
        assert inner_product(w_phi.mode, w_gvd.mode) == pytest.approx(
            1 / math.sqrt(3), rel=1e-15
        )


class TestPurify:
    def test_phase_mode_purification(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        pure = purify(w_phi, [w_g, w_gvd])
        assert_allclose(
            pure.mode.padded(2), [math.sqrt(2 / 3), 0.0, -1 / math.sqrt(3)], rtol=1e-14, atol=1e-16
        )
        assert pure.k_const == pytest.approx(math.sqrt(2 / 3) * PULSE.omega0, rel=1e-14)

    def test_gvd_mode_purification(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        pure = purify(w_gvd, [w_phi, w_g])
        assert_allclose(pure.mode.padded(2), [0.0, 0.0, 1.0], rtol=1e-14, atol=1e-15)
        assert pure.k_const == pytest.approx(
            math.sqrt(2.0) * PULSE.delta_omega**2 / PULSE.omega0, rel=1e-14
        )

    def test_already_orthogonal_unchanged(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        pure = purify(w_g, [w_phi, w_gvd])
        assert_allclose(pure.mode.padded(2), w_g.mode.padded(2), atol=1e-15)
        assert pure.k_const == pytest.approx(w_g.k_const, rel=1e-15)

    def test_orthonormal_input_unchanged(self):
        # each of v0, v1, v2 purified against the other two is itself
        modes = [DetectionMode(f"v{n}", hermite_gauss(n, PULSE), 1.0) for n in range(3)]
        for n, target in enumerate(modes):
            pure = purify(target, modes[:n] + modes[n + 1 :])
            assert_allclose(pure.mode.padded(2), target.mode.padded(2), atol=1e-12)
            assert pure.k_const == pytest.approx(1.0, rel=1e-12)

    def test_empty_against_returns_target(self):
        w_phi = time_detection_modes(PULSE)[0]
        assert purify(w_phi, []) is w_phi

    def test_sensitivity_never_improves(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        assert purify(w_phi, [w_g, w_gvd]).k_const <= w_phi.k_const
        assert purify(w_gvd, [w_phi, w_g]).k_const <= w_gvd.k_const

    def test_target_in_span_rejected(self):
        w_gvd = time_detection_modes(PULSE)[2]
        v0 = DetectionMode("a", hermite_gauss(0, PULSE), 1.0)
        v2 = DetectionMode("b", hermite_gauss(2, PULSE), 1.0)
        with pytest.raises(SeparabilityError):
            purify(w_gvd, [v0, v2])

    def test_degenerate_interferers_rejected(self):
        w_phi = time_detection_modes(PULSE)[0]
        v1a = DetectionMode("a", hermite_gauss(1, PULSE), 1.0)
        v1b = DetectionMode("b", hermite_gauss(1, PULSE), 2.0)
        with pytest.raises(SeparabilityError):
            purify(w_phi, [v1a, v1b])

    def test_orthogonality_tolerance(self):
        # the exact residual, rounded once, leaves overlaps of ~1e-18
        w_l, w_x, w_pw = ranging_modes(PULSE, AIR, 1.0)
        pure = purify(w_l, [w_x, w_pw])
        assert abs(inner_product(pure.mode, w_x.mode)) < 1e-16
        assert abs(inner_product(pure.mode, w_pw.mode)) < 1e-16

    def test_textbook_case(self):
        v0 = DetectionMode("v0", hermite_gauss(0, PULSE), 1.0)
        mix = unit_mode("mix", (1.0, 1.0), 2.0)
        pure = purify(mix, [v0])
        assert pure.mode.padded(1) == (0.0, 1.0)
        assert pure.k_const == 2.0 * math.sqrt(0.5)

    def test_mixed_order_inputs(self):
        a, b, c = (unit_mode(lab, v, 3.0) for lab, v in zip("abc", MIXED))
        pure = purify(c, [a, b])
        share, residual = lstsq_purify(c, [a, b])
        assert pure.mode.norm() == pytest.approx(1.0, abs=1e-15)
        for other in (a, b):
            assert abs(inner_product(pure.mode, other.mode)) < 1e-16
        assert_allclose(pure.mode.padded(3), residual, atol=1e-15)
        assert pure.k_const == pytest.approx(3.0 * math.sqrt(share), rel=1e-14)

    def test_three_interferers(self):
        against = [unit_mode(lab, v) for lab, v in zip("abc", MIXED)]
        target = unit_mode("t", (0.2, -0.1, 0.3, 1.0), 5.0)
        pure = purify(target, against)
        share, residual = lstsq_purify(target, against)
        for other in against:
            assert abs(inner_product(pure.mode, other.mode)) < 1e-16
        assert_allclose(pure.mode.padded(3), residual, atol=1e-15)
        assert pure.k_const == pytest.approx(5.0 * math.sqrt(share), rel=1e-14)
        assert pure.label == "t^p(a,b,c)"

    def test_idempotent(self):
        a, b, c = (unit_mode(lab, v) for lab, v in zip("abc", MIXED))
        once = purify(c, [a, b])
        twice = purify(once, [a, b])
        assert_allclose(twice.mode.padded(3), once.mode.padded(3), atol=1e-16)
        assert twice.k_const == pytest.approx(once.k_const, rel=1e-15)

    def test_projection_formula_near_parallel(self):
        # (b - <a,b> a) / sqrt(1 - <a,b>^2), coefficient-wise, on a nearly parallel pair
        a = unit_mode("a", (1.0, 0.0, 0.0))
        b = unit_mode("b", (0.999, 0.04, 0.01), 7.0)
        pure = purify(b, [a])
        ov = inner_product(a.mode, b.mode)
        expected = (np.asarray(b.mode.padded(2)) - ov * np.asarray(a.mode.padded(2))) / math.sqrt(1.0 - ov**2)
        assert_allclose(pure.mode.padded(2), expected, atol=1e-15)
        assert pure.k_const == pytest.approx(7.0 * math.sqrt(1.0 - ov**2), rel=1e-12)

    def test_ranging_pair_projection_formula(self):
        # w_Pw purified against w_X is (w_Pw - <w_X,w_Pw> w_X) / sqrt(1 - <w_X,w_Pw>^2)
        _, w_x, w_pw = ranging_modes(PULSE, AIR, 1.0)
        ov = inner_product(w_x.mode, w_pw.mode)
        expected = (np.asarray(w_pw.mode.padded(2)) - ov * np.asarray(w_x.mode.padded(2))) / math.sqrt(1.0 - ov**2)
        assert_allclose(purify(w_pw, [w_x]).mode.padded(2), expected, atol=1e-11)

    def test_interferer_order_irrelevant(self):
        # only the span counts: 1 - s is exact, so K agrees to the bit
        w_l, w_x, w_pw = ranging_modes(PULSE, AIR, 1.0)
        xp = purify(w_l, [w_x, w_pw])
        px = purify(w_l, [w_pw, w_x])
        assert px.k_const == xp.k_const
        assert_allclose(px.mode.padded(2), xp.mode.padded(2), atol=1e-16)

    def test_dependent_interferer_named(self):
        against = [
            unit_mode("a", (1.0, 0.0)),
            unit_mode("b", (0.5, 0.5)),
            unit_mode("c", (1.0, 1.0 + 1e-15)),
        ]
        with pytest.raises(SeparabilityError, match="'c' lies in the span"):
            purify(unit_mode("t", (0.0, 0.0, 1.0)), against)

    # 1 - s of (1, eps) against v0 is eps^2 / (1 + eps^2), computed exactly
    @pytest.mark.parametrize("factor, separable", [(1.01, True), (0.99, False)])
    def test_refusal_floor(self, factor, separable):
        eps = math.sqrt(factor * PURIFY_FLOOR)
        v0 = DetectionMode("v0", hermite_gauss(0, PULSE), 1.0)
        near = DetectionMode("near", SpectralMode(PULSE, (1.0, eps)), 1.0)
        v2 = DetectionMode("v2", hermite_gauss(2, PULSE), 1.0)
        if separable:
            pure = purify(near, [v0])
            assert pure.mode.padded(1) == (0.0, 1.0)
            assert pure.k_const == pytest.approx(eps, rel=1e-15)
            assert purify(v2, [v0, near]).k_const == 1.0
        else:
            with pytest.raises(SeparabilityError, match="'near' not separable"):
                purify(near, [v0])
            with pytest.raises(SeparabilityError, match="interfering modes are degenerate"):
                purify(v2, [v0, near])

    def test_other_pulse_rejected(self):
        w_l = ranging_modes(PULSE, AIR, 1.0)[0]
        w_x = ranging_modes(GaussianPulse.from_wavelength(1064e-9), AIR, 1.0)[1]
        with pytest.raises(ValidationError, match="pulse basis"):
            purify(w_l, [w_x])

    def test_complex_coefficients_rejected(self):
        # purify never sees a complex mode: none can be built
        with pytest.raises(ValidationError, match="must be real"):
            DetectionMode("rot", SpectralMode(PULSE, (0.6, 0.8j)), 1.0)


class TestRangingModes:
    def test_length_mode_has_no_second_order_component(self):
        w_l, _, _ = ranging_modes(PULSE, AIR, 1.0)
        assert w_l.mode.padded(2)[2] == 0.0

    def test_length_mode_constant(self):
        w_l, _, _ = ranging_modes(PULSE, AIR, 1.0)
        expected = math.sqrt(PULSE.omega0**2 + PULSE.delta_omega**2) / SPEED_OF_LIGHT
        assert w_l.k_const == pytest.approx(expected, rel=1e-15)

    def test_density_mode_constant_formula(self):
        # K_X / (K(omega0) L / c) against the explicit closed form
        w0, dw = PULSE.omega0, PULSE.delta_omega
        s = dispersion_scalars(w0)
        d12 = s.delta1 + s.delta2
        expected = math.sqrt(
            (w0 + dw**2 / w0 * d12) ** 2
            + dw**2 * (1 + s.delta1) ** 2
            + 2 * dw**4 / w0**2 * d12**2
        )
        _, w_x, _ = ranging_modes(PULSE, AIR, 2.5)
        k0 = air_model.k_dispersion(air_model.sigma_from_omega(w0))
        assert w_x.k_const / (k0 * 2.5 / SPEED_OF_LIGHT) == pytest.approx(expected, rel=1e-13)

    def test_water_mode_mirrors_density_mode(self):
        # same construction with eta in place of delta and a sign flip
        w0, dw = PULSE.omega0, PULSE.delta_omega
        s = dispersion_scalars(w0)
        e12 = s.eta1 + s.eta2
        raw = np.array(
            [w0 + dw**2 / w0 * e12, dw * (1 + s.eta1), math.sqrt(2) * dw**2 / w0 * e12]
        )
        _, _, w_pw = ranging_modes(PULSE, AIR, 1.0)
        assert_allclose(w_pw.mode.padded(2), -raw / np.linalg.norm(raw), rtol=1e-13)
        g0 = air_model.water_term(air_model.sigma_from_omega(w0))
        assert w_pw.k_const == pytest.approx(
            g0 / SPEED_OF_LIGHT * np.linalg.norm(raw), rel=1e-13
        )

    def test_k_scales_linearly_with_length(self):
        _, x1, p1 = ranging_modes(PULSE, AIR, 1.0)
        _, x2, p2 = ranging_modes(PULSE, AIR, 2.0)
        assert x2.k_const == pytest.approx(2.0 * x1.k_const, rel=1e-15)
        assert p2.k_const == pytest.approx(2.0 * p1.k_const, rel=1e-15)

    def test_state_independence_bitwise(self):
        humid = AirState(35.0, 90000.0, 0.08, 2000.0)
        a = ranging_modes(PULSE, AIR, 1.0)
        b = ranging_modes(PULSE, humid, 1.0)
        for ma, mb in zip(a, b):
            assert ma.mode.coefficients == mb.mode.coefficients
            assert ma.k_const == mb.k_const


class TestNumericOracle:
    # phi, g, gvd and vacuum L have polynomial phase gradients of degree <= 2,
    # which the Gauss-Hermite projection integrates exactly.
    def test_length_mode_in_vacuum(self, vacuum):
        w_l = ranging_modes(PULSE, vacuum, 1.0)[0]
        num = numeric_detection_mode("L", PULSE, vacuum, 1.0)
        order = num.mode.order
        assert_allclose(num.mode.padded(order), w_l.mode.padded(order), atol=1e-12)
        assert num.k_const == pytest.approx(w_l.k_const, rel=1e-12)

    def test_water_mode_in_air(self):
        w_pw = ranging_modes(PULSE, AIR, 1.0)[2]
        num = numeric_detection_mode("Pw", PULSE, AIR, 1.0)
        order = max(num.mode.order, 2)
        assert_allclose(num.mode.padded(order), w_pw.mode.padded(order), atol=1e-3)
        assert num.k_const == pytest.approx(w_pw.k_const, rel=1e-3)

    def test_carrier_phase_is_exact(self):
        w_phi = time_detection_modes(PULSE)[0]
        num = numeric_time_mode("phi", PULSE)
        order = max(num.mode.order, 2)
        assert_allclose(num.mode.padded(order), w_phi.mode.padded(order), atol=1e-12)
        assert num.k_const == pytest.approx(w_phi.k_const, rel=1e-12)

    @pytest.mark.parametrize("which", [1, 2])
    def test_group_and_gvd_modes(self, which):
        analytic = time_detection_modes(PULSE)[which]
        num = numeric_time_mode(analytic.label, PULSE)
        order = num.mode.order
        assert_allclose(num.mode.padded(order), analytic.mode.padded(order), atol=1e-12)
        assert num.k_const == pytest.approx(analytic.k_const, rel=1e-12)

    # the package stores the 24-node rule as literals and forms its Hermite rows
    # by recurrence; numpy.polynomial, loaded here alone, builds the same bits
    def test_rule_literals_are_hermgauss_24(self):
        x, w = hermgauss(24)
        nodes = [-v for v in reversed(detection._HERMGAUSS_NODES)] + list(detection._HERMGAUSS_NODES)
        weights = [*reversed(detection._HERMGAUSS_WEIGHTS), *detection._HERMGAUSS_WEIGHTS]
        assert np.array(nodes).tobytes() == x.tobytes()
        assert np.array(weights).tobytes() == w.tobytes()

    def test_oracle_table_is_the_hermvander_build(self):
        x, w = hermgauss(24)
        order = detection.mode_algebra.MAX_ORDER_DEFAULT
        norm = np.array([(math.pi * 2.0**n * math.factorial(n)) ** -0.5 for n in range(order + 1)])
        offsets, table = map(np.array, detection._oracle_table())
        assert offsets.tobytes() == (math.sqrt(2.0) * x).tobytes()
        assert table.shape == (order + 1, 24)
        assert table.tobytes() == (norm[:, None] * hermvander(x, order).T * w).tobytes()

    @pytest.mark.parametrize("label", ["L", "X", "Pw"])
    def test_converged_against_48_nodes(self, label):
        # the same projection with twice the nodes (omega0 +/- 12.7 delta_omega)
        x, w = hermgauss(48)
        grad = phase_gradient(label, PULSE.omega0 + math.sqrt(2.0) * PULSE.delta_omega * x, AIR, 1.0)
        num = numeric_detection_mode(label, PULSE, AIR, 1.0)
        ref = np.array([
            np.sum(w * hermval(x, np.eye(n + 1)[n]) * grad)
            / math.sqrt(math.pi * 2.0**n * math.factorial(n))
            for n in range(num.mode.order + 1)
        ])
        k_ref = float(np.linalg.norm(ref))
        assert_allclose(num.mode.coefficients, ref / k_ref, rtol=0, atol=1e-13)
        assert num.k_const == pytest.approx(k_ref, rel=1e-13)

    @pytest.mark.parametrize("wavelength_m, bandwidth", [(350e-9, 0.2), (500e-9, 0.3)])
    def test_near_pole_pulse_refused(self, wavelength_m, bandwidth):
        pulse = GaussianPulse.from_wavelength(wavelength_m, bandwidth)
        with pytest.raises(DomainError, match="pole"):
            numeric_detection_mode("L", pulse, AIR, 1.0)


class TestExactPurification:
    """Purifying against the exact X and P_w modes leaves the vacuum term alone.

    By the identity dphi/dL = omega / c + X dphi/dX + P_w dphi/dP_w (over 1 m),
    the exact L mode differs from the analytic one, whose gradient is omega / c,
    only inside the span of the exact X and P_w modes.
    """

    # K of the L mode purified against the exact X and P_w modes, bandwidth 1/6
    @pytest.mark.parametrize("pulse, k_exact", zip(EXACT_PULSES, (113.84812617, 3.9914807336)))
    def test_k_same_by_both_routes(self, pulse, k_exact):
        for state, length_m in itertools.product(EXACT_STATES, (1.0, 7.0, 300.0)):
            exact = [numeric_detection_mode(label, pulse, state, length_m) for label in RANGING_LABELS]
            analytic_l = ranging_modes(pulse, state, length_m)[0]
            k_a = purify(analytic_l, exact[1:]).k_const
            k_b = purify(exact[0], exact[1:]).k_const
            # measured: at most 1.4e-11 relative apart
            assert k_a == pytest.approx(k_b, rel=5e-11)
            assert k_b == pytest.approx(k_exact, rel=1e-10)

    # measured: |gain - 1| <= 5.5e-13 at 800 nm and <= 9.6e-12 at 1550 nm
    @pytest.mark.parametrize(
        "pulse, gain_tol",
        [(EXACT_PULSES[0], 1.5e-12), (GaussianPulse.from_wavelength(1550e-9, 0.1), 2.9e-11)],
    )
    def test_exact_lo_reads_length_with_unit_gain(self, pulse, gain_tol):
        for state, length_m in itertools.product(EXACT_STATES, (1.0, 7.0, 300.0)):
            w_l, w_x, w_pw = [numeric_detection_mode(label, pulse, state, length_m) for label in RANGING_LABELS]
            lo = purify(w_l, [w_x, w_pw])
            ov_l, ov_x, ov_pw = (inner_product(lo.mode, w.mode) for w in (w_l, w_x, w_pw))
            assert abs(detection.contamination_coefficient(lo.k_const, w_l.k_const, ov_l) - 1.0) <= gain_tol
            # the leaks are overlaps at rounding, below one ulp of a unit overlap
            assert max(abs(ov_x), abs(ov_pw)) <= 2.0**-52
            assert abs(detection.contamination_coefficient(lo.k_const, w_x.k_const, ov_x)) <= 1e-12


class TestHomodyneSignal:
    def test_cross_terms_phase_lo(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        p = (3e-19, 5e-19, 2e-18)
        field = linearized_field(PULSE, TimeDelays(*p))
        r2 = PULSE.delta_omega**2 / PULSE.omega0**2
        assert homodyne_signal(field, w_phi) == pytest.approx(p[0] + r2 * p[2], rel=1e-12)
        assert homodyne_signal(field, w_g) == pytest.approx(p[1], rel=1e-12)
        assert homodyne_signal(field, w_gvd) == pytest.approx(p[0] / (3 * r2) + p[2], rel=1e-12)

    def test_purified_lo_reads_single_parameter(self):
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        p = (3e-19, 5e-19, 2e-18)
        field = linearized_field(PULSE, TimeDelays(*p))
        pure = purify(w_phi, [w_g, w_gvd])
        assert homodyne_signal(field, pure) == pytest.approx(p[0], rel=1e-10)

    def test_linearity_in_each_parameter(self):
        # three amplitudes per parameter: residual from a straight line
        # through the origin below 1e-3 relative
        w_phi = time_detection_modes(PULSE)[0]
        for which in range(3):
            amps = [1e-19, 2e-19, 4e-19]
            signals = []
            for a in amps:
                p = [0.0, 0.0, 0.0]
                p[which] = a
                field = linearized_field(PULSE, TimeDelays(*p))
                signals.append(homodyne_signal(field, w_phi))
            slope = signals[0] / amps[0]
            for a, s in zip(amps, signals):
                assert abs(s - slope * a) <= 1e-3 * max(abs(s), abs(slope * a), 1e-30)

    def test_ranging_lo_mismatch_rejected(self):
        other = GaussianPulse.from_wavelength(1064e-9)
        w_l = ranging_modes(PULSE, AIR, 1.0)[0]
        field = linearized_field(other, TimeDelays(p_phi=1e-19))
        with pytest.raises(ValidationError):
            homodyne_signal(field, w_l)


class TestMinDetectable:
    def test_carrier_phase_value(self):
        assert min_detectable(PULSE.omega0, 8e16) == pytest.approx(
            PMIN_CARRIER_PHASE_S, rel=1e-12
        )

    def test_quadrupled_photons_halve_it(self):
        assert min_detectable(1e6, 4e16) == pytest.approx(
            min_detectable(1e6, 1e16) / 2.0, rel=1e-15
        )

    def test_distance_sensitivity(self):
        w_l = ranging_modes(PULSE, AIR, 1.0)[0]
        assert min_detectable(w_l.k_const, 8e16) == pytest.approx(RAW_SHOT_NOISE_M, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            min_detectable(0.0, 1e16)
        with pytest.raises(ValidationError):
            min_detectable(1e6, 0.5)


class TestContaminationReport:
    # at both ends of the length window every figure of the report is a
    # finite, nonzero double for any pulse, state and photon count accepted
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [LENGTH_MIN_M, LENGTH_MAX_M])
    @pytest.mark.parametrize("photons", [3.0, 1e300])
    @pytest.mark.parametrize("wavelength_m, bandwidth", [(400e-9, 0.05), (1600e-9, 0.3)])
    def test_length_window_edges_finite(self, length, photons, wavelength_m, bandwidth):
        pulse = GaussianPulse.from_wavelength(wavelength_m, bandwidth)
        report = contamination_report(pulse, AirState(20.0, 1e6, 100.0, 1e6), length, photons)
        values = (
            list(report.k_consts.values())
            + list(report.min_detectable.values())
            + [v for row in report.matrix for v in row]
        )
        assert all(math.isfinite(v) and v != 0.0 for v in values)

    # the exact oracle once returned a sign-flipped X mode at -3 m, and
    # failed its unit-norm check after an overflow at 1e300 m
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [LENGTH_MIN_M * 0.999, LENGTH_MAX_M * 1.001, math.nan, -3.0, 1e300])
    def test_length_outside_window_refused(self, length):
        message = re.escape(f"length_m={length!r} must be finite and in")
        with pytest.raises(ValidationError, match=message):
            ranging_modes(PULSE, AIR, length)
        for label in RANGING_LABELS:
            with pytest.raises(ValidationError, match=message):
                numeric_detection_mode(label, EXACT_PULSES[0], AIR, length)

    def test_prefactors(self):
        report = contamination_report(PULSE, AIR, 1.0, 8e16)
        assert report.x_contamination_per_m == pytest.approx(X_PREFACTOR, rel=1e-12)
        assert report.pw_contamination_per_m_pa == pytest.approx(PW_PREFACTOR, rel=1e-12)

    def test_prefactors_independent_of_length(self):
        r1 = contamination_report(PULSE, AIR, 1.0, 8e16)
        r2 = contamination_report(PULSE, AIR, 37.0, 8e16)
        assert r2.x_contamination_per_m == pytest.approx(r1.x_contamination_per_m, rel=1e-12)
        assert r2.pw_contamination_per_m_pa == pytest.approx(
            r1.pw_contamination_per_m_pa, rel=1e-12
        )

    def test_diagonal_is_unity(self):
        report = contamination_report(PULSE, AIR, 1.0, 8e16)
        for i in range(3):
            assert report.matrix[i][i] == 1.0

    def test_matrix_state_invariance(self):
        humid = AirState(5.0, 80000.0, 0.03, 500.0)
        a = contamination_report(PULSE, AIR, 1.0, 8e16)
        b = contamination_report(PULSE, humid, 1.0, 8e16)
        assert a.matrix == b.matrix

    def test_min_detectable_recomputable(self):
        report = contamination_report(PULSE, AIR, 1.0, 8e16)
        for lab in RANGING_LABELS:
            assert report.min_detectable[lab] == pytest.approx(
                min_detectable(report.k_consts[lab], report.n_photons), rel=1e-15
            )

    def test_text_serialization_roundtrippable(self):
        text = contamination_report(PULSE, AIR, 1.0, 8e16).to_text()
        assert "x_contamination_per_m" in text
        assert "M[L]" in text and "M[Pw]" in text
        values = dict(
            line.split(" = ") for line in text.splitlines() if " = " in line and not line.startswith("M[")
        )
        assert float(values["shot_noise_raw_m"]) == pytest.approx(RAW_SHOT_NOISE_M, rel=1e-10)


class TestModeSummaryTable:
    def test_five_rows_regenerate(self):
        # (mode, coefficients on v0..v2, normalization, sensitivity at N)
        n = 8e16
        w0, dw = PULSE.omega0, PULSE.delta_omega
        w_phi, w_g, w_gvd = time_detection_modes(PULSE)
        rows = [
            (w_phi, [1, 0, 0], w0),
            (purify(w_phi, [w_g, w_gvd]), [math.sqrt(2 / 3), 0, -1 / math.sqrt(3)], math.sqrt(2 / 3) * w0),
            (w_g, [0, 1, 0], dw),
            (w_gvd, [1 / math.sqrt(3), 0, math.sqrt(2 / 3)], math.sqrt(3) * dw**2 / w0),
            (purify(w_gvd, [w_phi, w_g]), [0, 0, 1], math.sqrt(2) * dw**2 / w0),
        ]
        for mode, coeffs, k_expected in rows:
            assert_allclose(mode.mode.padded(2), coeffs, rtol=1e-12, atol=1e-14)
            assert mode.k_const == pytest.approx(k_expected, rel=1e-12)
            assert min_detectable(mode.k_const, n) == pytest.approx(
                1.0 / (2.0 * math.sqrt(n) * k_expected), rel=1e-12
            )


class TestPurifiedSensitivity:
    def test_ordering_strict(self):
        sens = contamination_report(PULSE, AIR, 1.0, 8e16).purified
        assert sens.full_m > sens.x_only_m > sens.raw_m

    def test_closed_form_equals_gram_schmidt(self):
        w_l, w_x, w_pw = ranging_modes(PULSE, AIR, 1.0)
        sens = PurifiedSensitivity.build(w_l, w_x, w_pw, 8e16)
        gs_full = purify(w_l, [w_x, w_pw])
        gs_x = purify(w_l, [w_x])
        assert gs_full.k_const == sens.k_full
        assert gs_x.k_const == sens.k_x_only

    def test_length_independent(self):
        a = PurifiedSensitivity.build(*ranging_modes(PULSE, AIR, 1.0), 8e16)
        b = PurifiedSensitivity.build(*ranging_modes(PULSE, AIR, 250.0), 8e16)
        assert a.full_m == pytest.approx(b.full_m, rel=1e-12)
        assert a.x_only_m == pytest.approx(b.x_only_m, rel=1e-12)

    def test_degenerate_environmental_modes_rejected(self):
        w_l, w_x, _ = ranging_modes(PULSE, AIR, 1.0)
        clone = DetectionMode("Pw", w_x.mode, 2.0 * w_x.k_const)
        sens = PurifiedSensitivity.build(w_l, w_x, clone, 8e16)
        # the full purification is refused, and it alone
        assert (sens.k_full, sens.full_m) == (None, None)
        assert sens.refusals == {
            "purified": "purification refused: interfering modes are degenerate: 'Pw' lies in the span of those before it"
        }
        assert sens.k_x_only == purify(w_l, [w_x]).k_const


def _clear_memos():
    detection._ranging_shapes.cache_clear()
    detection._purify_core.cache_clear()
    detection._oracle_rows.cache_clear()
    detection._baseline_combinations.cache_clear()


def _ranging_snapshot(pulse, length_m=2.5):
    """Labels, coefficients and K of the ranging modes and both purified w_L."""
    w_l, w_x, w_pw = ranging_modes(pulse, AIR, length_m)
    modes = (w_l, w_x, w_pw, purify(w_l, [w_x, w_pw]), purify(w_l, [w_x]))
    return [(m.label, m.mode.pulse, m.mode.coefficients, m.k_const) for m in modes]


MEMO_PULSES = [
    GaussianPulse.from_wavelength(nm * 1e-9, rel)
    for nm, rel in ((633.0, 0.05), (800.0, 1.0 / 6.0), (1064.0, 0.1), (1550.0, 0.02))
]


class TestPerCarrierMemos:
    def test_cold_equals_warm(self):
        cold = []
        for pulse in MEMO_PULSES:
            _clear_memos()
            cold.append(_ranging_snapshot(pulse))
        for pulse in MEMO_PULSES:
            _ranging_snapshot(pulse)
        misses = detection._ranging_shapes.cache_info().misses, detection._purify_core.cache_info().misses
        warm = [_ranging_snapshot(pulse) for pulse in MEMO_PULSES]
        assert (detection._ranging_shapes.cache_info().misses,
                detection._purify_core.cache_info().misses) == misses
        assert warm == cold

    def test_report_cold_equals_warm(self):
        state = AirState(12.5, 98000.0, 0.05, 900.0)
        cold = []
        for pulse in MEMO_PULSES:
            _clear_memos()
            cold.append(contamination_report(pulse, state, 2.5, 3e9))
        for pulse in MEMO_PULSES:
            contamination_report(pulse, state, 2.5, 3e9)
        memos = (detection._ranging_shapes, detection._purify_core,
                 detection._oracle_rows, detection._baseline_combinations)
        misses = [memo.cache_info().misses for memo in memos]
        for report, pulse in zip(cold, MEMO_PULSES):
            warm = contamination_report(pulse, state, 2.5, 3e9)
            assert dataclasses.asdict(warm) == dataclasses.asdict(report)
            assert warm.to_text() == report.to_text()
        assert [memo.cache_info().misses for memo in memos] == misses

    # n_phi - 1 = K X - g P_w, so dphi/dL = omega / c + X dphi/dX + P_w dphi/dP_w
    # with the last two over 1 m; the oracle builds every mode from it
    @pytest.mark.parametrize("state", EXACT_STATES)
    def test_l_gradient_identity_and_oracle_projection(self, state):
        offsets, table = map(np.array, detection._oracle_table())
        x, pw = air_model.density_factor(state), state.water_vapor_pa
        for pulse, length_m in itertools.product(EXACT_PULSES, (1.0, 7.0, 300.0)):
            w = pulse.omega0 + pulse.delta_omega * offsets
            per_m = [phase_gradient(label, w, state, 1.0) for label in ("X", "Pw")]
            identity = w / SPEED_OF_LIGHT + x * per_m[0] + pw * per_m[1]
            assert_allclose(phase_gradient("L", w, state, length_m), identity, rtol=4 * 2.0**-52, atol=0)
            for label in RANGING_LABELS:
                coeffs = table @ phase_gradient(label, w, state, length_m)
                k = float(np.linalg.norm(coeffs))
                num = numeric_detection_mode(label, pulse, state, length_m)
                assert_allclose(num.mode.coefficients, coeffs / k, rtol=0, atol=1e-15)
                assert num.k_const == pytest.approx(k, rel=1e-15)

    # the memo holds the pulse's vacuum, X and P_w rows only: one miss per pulse
    def test_oracle_memo_free_of_state_and_length(self):
        _clear_memos()
        for pulse in MEMO_PULSES:
            numeric_detection_mode("L", pulse, AIR, 1.0)
        for pulse, state, length_m, label in itertools.product(
            MEMO_PULSES, EXACT_STATES, (0.37, 7.0, 999.1), RANGING_LABELS
        ):
            numeric_detection_mode(label, pulse, state, length_m)
        info = detection._oracle_rows.cache_info()
        assert (info.misses, info.currsize) == (len(MEMO_PULSES), len(MEMO_PULSES))

    # the report's matrix and simulate's LO row are one coefficient, to the bit
    @pytest.mark.parametrize("length_m", [0.37, 2.5, 999.1])
    def test_matrix_equals_contamination_coefficient(self, length_m):
        for pulse in MEMO_PULSES:
            modes = ranging_modes(pulse, AIR, length_m)
            matrix = contamination_report(pulse, AIR, length_m, 8e16).matrix
            for i, wi in enumerate(modes):
                for j, wj in enumerate(modes):
                    if i != j:
                        overlap = inner_product(wi.mode, wj.mode)
                        coeff = detection.contamination_coefficient(wi.k_const, wj.k_const, overlap)
                        assert matrix[i][j] == coeff

    def test_oracle_refusal_repeats(self):
        _clear_memos()
        pulse = GaussianPulse.from_wavelength(500e-9, 0.3)
        messages = set()
        for _ in range(3):
            with pytest.raises(DomainError, match="pole") as exc:
                numeric_detection_mode("L", pulse, AIR, 1.0)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert detection._oracle_rows.cache_info().currsize == 0

    def test_cached_norm_keeps_unit_check(self):
        long = SpectralMode(PULSE, (0.6, 0.8, 0.1))
        assert long.norm() == float(np.linalg.norm(long.coefficients))
        for _ in range(2):
            with pytest.raises(ValidationError, match="not unit norm"):
                DetectionMode("long", long, 1.0)
        # the cached norm is not a field: equality and hash ignore it
        fresh = SpectralMode(PULSE, (0.6, 0.8, 0.1))
        assert fresh == long and hash(fresh) == hash(long)

    def test_length_scaling_per_call(self):
        _clear_memos()
        short, long = ranging_modes(PULSE, AIR, 1.0), ranging_modes(PULSE, AIR, 250.0)
        assert detection._ranging_shapes.cache_info().currsize == 1
        assert [m.k_const for m in short] != [m.k_const for m in long]
        assert short[0].k_const == long[0].k_const
        with pytest.raises(ValidationError, match="length_m"):
            ranging_modes(PULSE, AIR, LENGTH_MAX_M * 2.0)

    # K_X and K_Pw are formed per call as K(sigma0) * L / c * |a|, in that order
    @pytest.mark.parametrize("length_m", [0.37, 2.5, 999.1])
    def test_k_consts_in_uncached_operation_order(self, length_m):
        for pulse in MEMO_PULSES:
            sigma0 = air_model.sigma_from_omega(pulse.omega0)
            a_l, a_x, a_p = detection._ranging_vectors(pulse)
            expected = (
                float(np.linalg.norm(a_l)) / SPEED_OF_LIGHT,
                air_model.k_dispersion(sigma0) * length_m / SPEED_OF_LIGHT * float(np.linalg.norm(a_x)),
                air_model.water_term(sigma0) * length_m / SPEED_OF_LIGHT * float(np.linalg.norm(a_p)),
            )
            for _ in range(2):
                assert tuple(m.k_const for m in ranging_modes(pulse, AIR, length_m)) == expected

    def test_pulses_never_share_an_entry(self):
        _clear_memos()
        # same carrier, different bandwidth: equal omega0, distinct keys
        pulses = MEMO_PULSES + [GaussianPulse(MEMO_PULSES[1].omega0, MEMO_PULSES[1].delta_omega / 2)]
        snapshots = [_ranging_snapshot(pulse) for pulse in pulses]
        assert detection._ranging_shapes.cache_info().currsize == len(pulses)
        assert detection._purify_core.cache_info().currsize == 2 * len(pulses)
        for pulse, snapshot in zip(pulses, snapshots):
            assert all(entry[1] == pulse for entry in snapshot)
        assert len({tuple(snap[0][2]) for snap in snapshots}) == len(pulses)

    # the report's deviation comes from the oracle's own projection, to the bit
    def test_report_deviation_is_the_oracle_mode(self):
        for pulse, state in itertools.product(MEMO_PULSES, EXACT_STATES):
            w_l = ranging_modes(pulse, state, 7.0)[0]
            num = numeric_detection_mode("L", pulse, state, 7.0)
            expected = float(np.abs(np.asarray(w_l.mode.padded(num.mode.order)) - num.mode.coefficients).max())
            assert contamination_report(pulse, state, 7.0, 8e16).numeric_mode_deviation == expected

    # a non-finite projection is refused on the report's path as in the oracle
    def test_non_finite_oracle_refused(self, monkeypatch):
        for bad in (math.inf, math.nan):
            monkeypatch.setattr(detection, "_oracle_rows", lambda pulse, bad=bad: np.full((3, 9), bad))
            with np.errstate(all="ignore"), pytest.raises(ValidationError, match="finite"):
                numeric_detection_mode("L", PULSE, AIR, 1.0)
            with np.errstate(all="ignore"), pytest.raises(ValidationError, match="finite"):
                contamination_report(PULSE, AIR, 1.0, 8e16)

    # a warm design forms only its per-design numbers: no mode is built
    def test_warm_design_builds_no_spectral_mode(self, monkeypatch):
        def design(pulse, state, length_m, n_photons):
            contamination_report(pulse, state, length_m, n_photons)
            w_l, w_x, w_pw = ranging_modes(pulse, state, length_m)
            purify(w_l, [w_x, w_pw])
            purify(w_l, [w_x])

        for pulse in MEMO_PULSES:
            design(pulse, AIR, 2.5, 3e9)
        built = []
        post_init = SpectralMode.__post_init__
        monkeypatch.setattr(SpectralMode, "__post_init__", lambda mode: built.append(mode) or post_init(mode))
        for pulse, state in itertools.product(MEMO_PULSES, EXACT_STATES):
            design(pulse, state, 0.37, 8e16)
        assert built == []

    # a warm design reads every pulse-only number from the memos: none misses
    def test_warm_designs_add_no_misses(self):
        _clear_memos()
        pulses = [GaussianPulse.from_wavelength(nm * 1e-9, rel) for nm, rel in
                  ((700.0, 0.05), (785.0, 0.25), (850.0, 0.1), (980.0, 0.2),
                   (1064.0, 1.0 / 6.0), (1310.0, 0.08), (1480.0, 0.12), (1600.0, 0.06))]
        states = [AirState(t, p, 0.04, pw) for t, p, pw in ((5.0, 92000.0, 0.0), (22.0, 101325.0, 700.0),
                                                            (38.0, 104000.0, 1900.0))]

        def design(pulse, state, length_m, n_photons):
            contamination_report(pulse, state, length_m, n_photons)
            w_l, w_x, w_pw = ranging_modes(pulse, state, length_m)
            purify(w_l, [w_x, w_pw])
            purify(w_l, [w_x])

        for pulse in pulses:
            design(pulse, AIR, 1.0, 8e16)
        memos = (detection._ranging_shapes, detection._purify_core,
                 detection._oracle_rows, detection._baseline_combinations)
        misses = [memo.cache_info().misses for memo in memos]
        for k in range(64):
            design(pulses[k % 8], states[k % 3], 0.1 * 1.1**k, 10.0 ** (14 + k % 5))
        assert [memo.cache_info().misses for memo in memos] == misses

    # the refusal lines too come from the memo byte for byte
    @pytest.mark.parametrize("nm, bandwidth, refusal", [
        (1600.0, 0.001, "n/a (purification refused: "),
        (500.0, 0.3, "n/a (oracle refused: "),
    ])
    def test_report_with_refusal_cold_equals_warm(self, nm, bandwidth, refusal):
        pulse = GaussianPulse.from_wavelength(nm * 1e-9, bandwidth)
        state = AirState(12.5, 98000.0, 0.05, 900.0)
        _clear_memos()
        cold = contamination_report(pulse, state, 2.5, 3e9).to_text()
        assert refusal in cold
        for _ in range(2):
            assert contamination_report(pulse, state, 2.5, 3e9).to_text() == cold

    # the record keeps a refusal's text; purify still raises, naming each call's labels
    def test_refusal_in_the_record_still_raised_by_purify(self):
        pulse = GaussianPulse.from_wavelength(1600e-9, 0.001)
        contamination_report(pulse, AIR, 1.0, 8e16)
        w_l, w_x, w_pw = ranging_modes(pulse, AIR, 1.0)
        for label in ("L", "L'", "L"):
            target = w_l if label == "L" else DetectionMode(label, w_l.mode, w_l.k_const)
            with pytest.raises(SeparabilityError, match=f"{label!r} not separable"):
                purify(target, [w_x, w_pw])

    # the memo returns the finished LO: one object for every length
    def test_purify_hit_is_one_object(self):
        for pulse in MEMO_PULSES:
            short, long = ranging_modes(pulse, AIR, 1.0), ranging_modes(pulse, AIR, 250.0)
            assert short[0] is long[0]
            for against in (slice(1, 3), slice(1, 2)):
                assert purify(short[0], short[against]) is purify(long[0], list(long[against]))

    def test_refusal_raised_on_every_call(self):
        _clear_memos()
        eps = math.sqrt(0.99 * PURIFY_FLOOR)
        v0 = DetectionMode("v0", hermite_gauss(0, PULSE), 1.0)
        near = SpectralMode(PULSE, (1.0, eps))
        v2 = DetectionMode("v2", hermite_gauss(2, PULSE), 1.0)
        # the labels come from each call, not from the memo
        for label in ("near", "again", "again"):
            with pytest.raises(SeparabilityError, match=f"'{label}' not separable"):
                purify(DetectionMode(label, near, 1.0), [v0])
            with pytest.raises(SeparabilityError, match=f"degenerate: '{label}' lies"):
                purify(v2, [v0, DetectionMode(label, near, 1.0)])
        # a refusal leaves no entry behind
        assert detection._purify_core.cache_info().currsize == 0

    def test_narrow_band_refusal_repeats(self):
        pulse = GaussianPulse.from_wavelength(1600e-9, 0.001)
        w_l, w_x, w_pw = ranging_modes(pulse, AIR, 1.0)
        for _ in range(2):
            with pytest.raises(SeparabilityError, match="'L' not separable"):
                purify(w_l, [w_x, w_pw])

    def test_errors_not_cached(self):
        _clear_memos()
        near_pole = GaussianPulse.from_wavelength(160e-9, 0.05)
        for _ in range(2):
            with pytest.raises(DomainError, match="resonance pole"):
                ranging_modes(near_pole, AIR, 1.0)
        assert detection._ranging_shapes.cache_info().currsize == 0
        assert detection._purify_core.cache_info().currsize == 0

    def test_memo_bounded(self):
        _clear_memos()
        for k in range(detection.MEMO_SIZE + 8):
            pulse = GaussianPulse.from_wavelength((700.0 + k) * 1e-9, 0.1)
            _ranging_snapshot(pulse)
            numeric_detection_mode("L", pulse, AIR, 1.0)
        assert detection._ranging_shapes.cache_info().currsize == detection.MEMO_SIZE
        assert detection._purify_core.cache_info().currsize == 2 * detection.MEMO_SIZE
        assert detection._oracle_rows.cache_info().currsize == detection.MEMO_SIZE


class TestSensitivitySimulateAgreement:
    """`sensitivity` and `simulate` share one purification.

    Over a carrier-by-bandwidth grid, the report's K_full and K_x_only equal
    the K of the LO `simulate` selects, to the bit, or the report prints the
    refusal that `simulate` raises.  The narrow-bandwidth corner refuses the
    full purification: there 1 - s falls below the purification floor.  At
    the near-pole corner (500 nm at 0.3) only the oracle line of the report
    is not available.
    """

    def test_scan(self):
        refused = agreed = oracle_na = 0
        for nm in np.linspace(500.0, 1600.0, 12):
            for rel in np.geomspace(0.001, 0.3, 12):
                pulse = GaussianPulse.from_wavelength(nm * 1e-9, rel)
                report = contamination_report(pulse, AIR, 1.0, 8e16)
                sens = report.purified
                oracle_na += report.numeric_mode_deviation is None
                for lo, attr in (("purified", "k_full"), ("purified_x_only", "k_x_only")):
                    cfg = SimConfig(pulse, AIR, 1.0, 8e16, lo, 1000, 1)
                    modes = ranging_modes(cfg.pulse, cfg.state, cfg.length_m)
                    try:
                        k = select_lo(cfg, modes).k_const
                    except SeparabilityError as exc:
                        assert getattr(sens, attr) is None, (nm, rel, lo)
                        assert sens.refusals[lo] == f"purification refused: {exc}", (nm, rel, lo)
                        # only the full purification reaches the floor here
                        assert lo == "purified", (nm, rel)
                        refused += 1
                    else:
                        assert k == getattr(sens, attr), (nm, rel, lo)
                        assert lo not in sens.refusals, (nm, rel, lo)
                        agreed += 1
        assert refused > 0 and agreed > 0 and oracle_na > 0


class TestEndToEndContamination:
    """Recover the contamination coefficients from raw field propagation.

    No coefficient algebra anywhere: sample the Gaussian field, propagate it
    exactly through a perturbed atmosphere, project the deviation onto the
    sampled LO by quadrature, and compare the signal ratios against the
    analytic contamination matrix.  Probes stay far inside the 0.1 rad
    linearity guard (a 2.5 rad excursion would suppress the X ratio by 5x).
    """

    def test_signal_ratios_match_matrix(self):
        length = 1.0
        omega = sampling_grid(PULSE, points=8192)
        u = gaussian_envelope(PULSE, omega).astype(complex)
        w_l = ranging_modes(PULSE, AIR, length)[0]
        lo = 1j * real_profile(w_l.mode, omega)  # the LO field: v_n = i h_n

        def signal(state, total_length):
            moved = apply_spectral_phase(u, omega, state, total_length)
            ref = apply_spectral_phase(u, omega, AIR, length)
            deviation = u * (moved / ref) - u
            return float(np.real(np.trapezoid(np.conj(deviation) * lo, omega))) / w_l.k_const

        pressurized = AirState(20.0, 101325.0 + 0.04, 0.04, 0.0)
        p_x = air_model.density_factor(pressurized) - air_model.density_factor(AIR)
        assert signal(pressurized, length) / p_x == pytest.approx(X_PREFACTOR, rel=1e-3)

        moist = AirState(20.0, 101325.0, 0.04, 0.3)
        assert signal(moist, length) / 0.3 == pytest.approx(PW_PREFACTOR, rel=1e-3)

        # the length channel carries the documented n-1 offset of the
        # vacuum-form LO mode and nothing more
        p_l = 1e-11
        ratio = signal(AIR, length + p_l) / p_l
        assert ratio == pytest.approx(1.00027, abs=1e-4)
