import math

import numpy as np
import pytest

from unruh_pair import (
    Coefficients,
    InvalidParameterError,
    SimConfig,
    coefficients,
    geometric_factor,
    interaction_strength,
    rate_constants,
    spectral_density_cross,
    spectral_density_same,
    thermal_ratio,
)
from unruh_pair.params import _phase_length

TWO_PI = 2.0 * math.pi

# frozen extended-precision values (mpmath, 40 digits)
G11_AT_UNIT = 0.1594527118997837148        # 1/(2*pi*(1 - e^{-2*pi}))
CROSS_FACTOR_1_3 = 0.12631431944114458584  # sin(2*asinh(1.5))/(3*sqrt(3.25))
D_OVER_G0_0_1 = 0.13507557646703492935     # cos(1)/4
D_OVER_G0_1_3 = -0.033757153771603241236   # (1/4)cos(2*asinh(1.5))/(3*sqrt(3.25))
COTH_PI_OVER_4 = 0.25093546829933032205    # coth(pi)/4


class TestSpectralDensitySame:
    def test_inertial_positive_frequency(self):
        assert spectral_density_same(1.0, 0.0) == pytest.approx(1.0 / TWO_PI, rel=1e-15)

    def test_inertial_negative_frequency_absorbs_nothing(self):
        assert spectral_density_same(-1.0, 0.0) == 0.0

    def test_unit_point_value(self):
        assert spectral_density_same(1.0, 1.0) == pytest.approx(G11_AT_UNIT, rel=1e-13)

    def test_emission_minus_absorption_is_vacuum_rate(self):
        # G(w) - G(-w) = w/2pi for every acceleration
        for a in (0.01, 0.5, 1.0, 7.0, 1e4):
            diff = spectral_density_same(1.0, a) - spectral_density_same(-1.0, a)
            assert diff == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_zero_frequency_limit(self):
        a = 2.0
        assert spectral_density_same(0.0, a) == pytest.approx(a / (TWO_PI * TWO_PI), rel=1e-12)
        assert spectral_density_same(0.0, 0.0) == 0.0

    def test_kms_detailed_balance(self, rng):
        for _ in range(100):
            lam = float(10.0 ** rng.uniform(-3, 3))
            a = float(10.0 ** rng.uniform(-6, 6))
            lhs = spectral_density_same(-lam, a)
            rhs = math.exp(-TWO_PI * lam / a) * spectral_density_same(lam, a) if TWO_PI * lam / a < 700 else 0.0
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_stable_over_extreme_ratios(self):
        for ratio in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for sign in (1.0, -1.0):
                v = spectral_density_same(sign * 1.0, ratio)
                assert math.isfinite(v)
        assert spectral_density_same(1.0, 1e-6) == pytest.approx(1.0 / TWO_PI, rel=1e-12)
        assert spectral_density_same(-1.0, 1e-6) == 0.0  # Boltzmann factor underflows

    def test_rejects_nan_and_negative_acceleration(self):
        with pytest.raises(InvalidParameterError):
            spectral_density_same(float("nan"), 1.0)
        with pytest.raises(InvalidParameterError):
            spectral_density_same(1.0, -0.5)


class TestSpectralDensityCross:
    def test_coincident_limit_matches_same(self):
        for a in (0.0, 1.0, 5.0):
            assert spectral_density_cross(1.0, a, 1e-9) == pytest.approx(
                spectral_density_same(1.0, a), rel=1e-12
            )

    def test_sine_zero_kills_cross_term(self):
        assert spectral_density_cross(1.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-16)

    def test_unit_point_value(self):
        expected = G11_AT_UNIT * CROSS_FACTOR_1_3
        assert spectral_density_cross(1.0, 1.0, 3.0) == pytest.approx(expected, rel=1e-13)

    def test_kms_inherited(self, rng):
        for _ in range(50):
            lam = float(10.0 ** rng.uniform(-2, 2))
            a = float(10.0 ** rng.uniform(-2, 2))
            ell = float(10.0 ** rng.uniform(-1, 1.5))
            lhs = spectral_density_cross(-lam, a, ell)
            rhs = math.exp(-TWO_PI * lam / a) * spectral_density_cross(lam, a, ell)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(InvalidParameterError):
            spectral_density_cross(1.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            spectral_density_cross(1.0, 1.0, -2.0)


class TestGeometricFactor:
    def test_small_separation_limit_is_one(self):
        for a in (0.0, 0.3, 2.0, 50.0):
            assert geometric_factor(a, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_inertial_closed_form(self):
        assert geometric_factor(0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
        assert abs(geometric_factor(0.0, 2.0 * math.pi)) < 1e-15

    def test_magnitude_bounded_by_one(self, rng):
        a = 10.0 ** rng.uniform(-3, 2, size=200)
        ell = 10.0 ** rng.uniform(-3, 2, size=200)
        f = geometric_factor(a, ell)
        assert np.all(np.abs(f) <= 1.0)

    def test_continuous_at_zero_acceleration(self):
        for ell in (0.1, 1.0, 5.0, 40.0):
            assert geometric_factor(1e-8, ell) == pytest.approx(
                geometric_factor(0.0, ell), abs=1e-12
            )

    def test_series_branch_joins_direct_branch(self):
        # straddle the a*L cutoff at 1e-6
        ell = 0.5
        below = geometric_factor(1.9e-6, ell)   # a*L = 0.95e-6 -> series
        above = geometric_factor(2.1e-6, ell)   # a*L = 1.05e-6 -> direct
        assert below == pytest.approx(above, rel=1e-12)

    def test_array_input_matches_scalars(self, rng):
        a = 10.0 ** rng.uniform(-2, 1, size=20)
        ell = 10.0 ** rng.uniform(-1, 1, size=20)
        batch = geometric_factor(a, ell)
        singles = np.array([geometric_factor(float(x), float(y)) for x, y in zip(a, ell)])
        assert np.array_equal(batch, singles)


class TestInteractionStrength:
    def test_cosine_zero(self):
        assert abs(interaction_strength(0.0, math.pi / 2)) < 1e-15

    def test_inertial_closed_form(self):
        assert interaction_strength(0.0, 1.0) == pytest.approx(D_OVER_G0_0_1, rel=1e-14)

    def test_sign_oscillates(self):
        got = interaction_strength(1.0, 3.0)
        assert got == pytest.approx(D_OVER_G0_1_3, rel=1e-13)
        assert got < 0.0

    def test_divergence_scale_at_small_separation(self):
        # |d| ~ 1/(4*wL) as wL -> 0
        assert interaction_strength(1.0, 1e-4) == pytest.approx(1.0 / (4.0 * 1e-4), rel=1e-6)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(InvalidParameterError):
            interaction_strength(1.0, 0.0)

    def test_pythagorean_identity_with_geometric_factor(self, rng):
        # f^2 + (4 d/g0)^2 = 1/(wL^2 (1 + (aL)^2/4))
        for _ in range(100):
            a = float(10.0 ** rng.uniform(-3, 2))
            ell = float(10.0 ** rng.uniform(-2, 2))
            f = geometric_factor(a, ell)
            d = interaction_strength(a, ell)
            lhs = f * f + (4.0 * d) ** 2
            rhs = 1.0 / (ell * ell * (1.0 + (a * ell) ** 2 / 4.0))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestThermalRatio:
    def test_inertial_limit_exact(self):
        assert thermal_ratio(0.0) == 1.0

    def test_monotone_increasing(self):
        alphas = np.logspace(-3, 8, 300)
        values = thermal_ratio(alphas)
        assert np.all(values >= 1.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_laurent_branch_joins(self):
        below = thermal_ratio(0.999e6)
        above = thermal_ratio(1.001e6)
        assert above == pytest.approx(below * (1.001 / 0.999), rel=1e-9)

    def test_extreme_accelerations_finite(self):
        assert math.isfinite(thermal_ratio(1e300))
        assert thermal_ratio(1e-300) == 1.0


class TestCoefficients:
    def test_inertial_limit(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1.0))
        assert c.a1 == c.b1 == 0.25

    def test_unit_acceleration_value(self):
        c = coefficients(SimConfig(accel_ratio=1.0, separation=1.0))
        assert c.a1 == pytest.approx(COTH_PI_OVER_4, rel=1e-14)

    def test_switch_zeroes_exchange_only(self):
        on = coefficients(SimConfig(accel_ratio=0.7, separation=0.4))
        off = coefficients(SimConfig(accel_ratio=0.7, separation=0.4,
                                     include_interaction=False))
        assert off.d == 0.0
        assert (off.a1, off.a2, off.b1, off.b2, off.f) == (on.a1, on.a2, on.b1, on.b2, on.f)
        assert on.d != 0.0

    def test_cross_rates_share_the_factor(self, rng):
        for _ in range(40):
            a = float(10.0 ** rng.uniform(-2, 1.5))
            ell = float(10.0 ** rng.uniform(-1.5, 1.5))
            c = coefficients(SimConfig(accel_ratio=a, separation=ell))
            assert c.a2 == pytest.approx(c.f * c.a1, rel=1e-14, abs=1e-300)
            assert c.b2 == pytest.approx(c.f * c.b1, rel=1e-14, abs=1e-300)
            assert c.b1 == c.gamma0 / 4.0
            assert c.a1 >= c.b1

    def test_gamma0_scales_rates_not_f(self):
        c1 = coefficients(SimConfig(accel_ratio=0.5, separation=0.7))
        c2 = coefficients(SimConfig(accel_ratio=0.5, separation=0.7, gamma0=2.0))
        assert c2.a1 == pytest.approx(2.0 * c1.a1, rel=1e-15)
        assert c2.d == pytest.approx(2.0 * c1.d, rel=1e-15)
        assert c2.f == c1.f

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError) as exc:
            SimConfig(accel_ratio=1.0, separation=0.0)
        assert exc.value.code == "separation-nonpositive"
        with pytest.raises(InvalidParameterError):
            SimConfig(accel_ratio=-1.0, separation=1.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(accel_ratio=1.0, separation=1.0, gamma0=0.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(accel_ratio=float("nan"), separation=1.0)

    def test_coefficients_dataclass_rejects_inconsistency(self):
        with pytest.raises(InvalidParameterError):
            Coefficients(a1=0.3, a2=0.2, b1=0.25, b2=0.1, d=0.0, f=0.5)  # a2 != f*a1
        with pytest.raises(InvalidParameterError):
            Coefficients(a1=0.2, a2=0.0, b1=0.25, b2=0.0, d=0.0, f=0.0)  # a1 < b1


class TestRateConstants:
    FIELDS = ("a1", "a2", "b1", "b2", "d", "f")

    def test_scalar_point_is_coefficients_bitwise(self, rng):
        for _ in range(60):
            a = float(10.0 ** rng.uniform(-3, 3))
            ell = float(10.0 ** rng.uniform(-3, 3))
            g0 = float(rng.choice([0.37, 1.0, 2.5]))
            with_d = bool(rng.integers(0, 2))
            c = coefficients(SimConfig(a, ell, g0, with_d))
            rates = rate_constants(a, ell, g0, with_d)
            assert tuple(float(v) for v in rates) == tuple(getattr(c, k) for k in self.FIELDS)

    def test_outputs_broadcast_over_inputs(self):
        rates = rate_constants(np.logspace(-2, 1, 7), 0.3, gamma0=2.0)
        assert all(np.shape(v) == (7,) for v in rates)
        assert np.all(rates.b1 == 0.5)
        grid = rate_constants(np.array([[0.1], [1.0]]), np.array([0.2, 2.0, 20.0]))
        assert all(np.shape(v) == (2, 3) for v in grid)

    def test_switch_off_gives_positive_zero(self):
        rates = rate_constants(0.5, np.logspace(-1, 2, 50), include_interaction=False)
        assert np.all(rates.d == 0.0) and not np.any(np.signbit(rates.d))

    @pytest.mark.parametrize("args, code", [
        ((np.array([1.0, -1.0]), 1.0), "accel-negative"),
        ((np.array([1.0, np.inf]), 1.0), "accel-not-finite"),
        ((1.0, np.array([1.0, 0.0])), "separation-nonpositive"),
        ((1.0, 1.0, 0.0), "gamma0-nonpositive"),
        ((np.array([1.0, 2.0]), 1e-320), "d-not-finite"),
    ])
    def test_checked_once_at_entry(self, args, code):
        with pytest.raises(InvalidParameterError) as exc:
            rate_constants(*args)
        assert exc.value.code == code

    def test_infinite_exchange_allowed_when_switched_off(self):
        assert rate_constants(1.0, 1e-320, include_interaction=False).d == 0.0

    def test_phase_length_past_the_float_range(self):
        # a*L overflows; asinh(aL/2) = log(a) + log(L) keeps the phase finite
        rates = rate_constants(np.array([1e155, 1e300]), np.array([1e155, 1e10]))
        assert np.all(rates.f == 0.0) and np.all(rates.d == 0.0)
        assert np.all(np.isfinite(rates.a1))
        assert _phase_length(1e155, 1e155) == pytest.approx(
            2e-155 * (math.log(1e155) + math.log(1e155)), rel=1e-15)
