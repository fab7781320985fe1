import decimal
import math

import numpy as np
import pytest

from unruh_pair import (
    FormulaSingularError,
    InvalidStateError,
    SimConfig,
    XState,
    coefficients,
    concurrence_general,
    concurrence_x,
    evolve,
    from_xstate,
    generation_possible,
    generation_rate_product,
    initial_product_eg,
    initial_rate_superposition,
    initial_superposition,
    numerical_initial_rate,
)

from conftest import random_coefficients, random_x_state

# frozen extended-precision rate values (mpmath, 40 digits)
RATE_ON_1_3 = 0.0986337414106831    # 4*sqrt(a2^2+d^2) - 4*sqrt(a1^2-b1^2) at (1, 3)
RATE_OFF_1_3 = 0.0401974340774523
FIG8_POINT = dict(accel_ratio=0.5, separation=0.3)
FIG8_ANGLES = dict(theta=math.pi / 6, phi=-math.pi / 4)
FIG8_RATE_OFF = -0.171769771756774
FIG8_RATE_ON = 1.33465000813929


class TestConcurrenceX:
    def test_bell_state(self):
        assert concurrence_x(XState(0.0, 0.0, 1.0, 0.0)).c == 1.0

    def test_maximally_mixed(self):
        b = concurrence_x(XState(0.25, 0.25, 0.25, 0.25))
        assert b.k1 == pytest.approx(-0.5, rel=1e-15)
        assert b.k2 == pytest.approx(-0.5, rel=1e-15)
        assert b.c == 0.0

    def test_product_start_is_marginal(self):
        b = concurrence_x(initial_product_eg())
        assert b.k1 == 0.0 and b.c == 0.0

    def test_ge_bell_state_uses_second_branch(self):
        # (|00> + |11>)/sqrt(2): concurrence 1 carried by rho_GE
        b = concurrence_x(XState(p_gg=0.5, p_ee=0.5, p_aa=0.0, p_ss=0.0, c_ge=0.5))
        assert b.k2 == pytest.approx(1.0, rel=1e-15)
        assert b.c == pytest.approx(1.0, rel=1e-15)

    def test_bounded_on_random_states(self, rng):
        for _ in range(300):
            c = concurrence_x(random_x_state(rng)).c
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_nonpositive_state_rejected(self):
        # passes the X-block slack but is visibly non-positive in the K2 radicand
        bad = XState(p_gg=0.2, p_ee=0.2, p_aa=0.3, p_ss=0.3,
                     c_as=math.sqrt(0.09 + 0.9e-10))
        with pytest.raises(InvalidStateError):
            concurrence_x(bad)


class TestConcurrenceGeneral:
    def test_antisymmetric_bell_dense(self):
        rho = from_xstate(XState(0.0, 0.0, 1.0, 0.0))
        assert concurrence_general(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_dense(self):
        rho = from_xstate(initial_product_eg())
        assert concurrence_general(rho) == pytest.approx(0.0, abs=1e-12)

    def test_matches_x_formula_on_random_states(self, rng):
        worst = 0.0
        for _ in range(1000):
            s = random_x_state(rng)
            worst = max(worst, abs(concurrence_general(from_xstate(s)) - concurrence_x(s).c))
        assert worst <= 1e-10

    def test_rejects_bad_input(self):
        rho = from_xstate(initial_product_eg())
        with pytest.raises(InvalidStateError):
            concurrence_general(rho + np.array([[0, 1e-6, 0, 0]] + [[0] * 4] * 3))
        with pytest.raises(InvalidStateError):
            concurrence_general(rho * 1.1)


class TestGenerationCondition:
    def test_inertial_limit_always_generates(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1.0))
        assert generation_possible(c)

    def test_small_separation_with_exchange(self):
        c = coefficients(SimConfig(accel_ratio=8.0, separation=1e-3))
        assert generation_possible(c)

    def test_hot_and_distant_fails_without_exchange(self):
        c = coefficients(SimConfig(accel_ratio=10.0, separation=30.0,
                                   include_interaction=False))
        assert not generation_possible(c)

    def test_exchange_only_enlarges(self, rng):
        for _ in range(200):
            a = float(10.0 ** rng.uniform(-2, 1.3))
            ell = float(10.0 ** rng.uniform(-1.5, 1.7))
            on = coefficients(SimConfig(accel_ratio=a, separation=ell))
            off = coefficients(SimConfig(accel_ratio=a, separation=ell,
                                         include_interaction=False))
            if generation_possible(off):
                assert generation_possible(on)

    def test_rate_sign_agrees_with_condition(self, rng):
        for _ in range(100):
            c = random_coefficients(rng)
            assert (generation_rate_product(c) > 0.0) == generation_possible(c)


class TestProductRate:
    def test_inertial_close_pair_rate_is_gamma0(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1e-8,
                                   include_interaction=False))
        assert generation_rate_product(c) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_values(self):
        on = coefficients(SimConfig(**{"accel_ratio": 1.0, "separation": 3.0}))
        off = coefficients(SimConfig(accel_ratio=1.0, separation=3.0,
                                     include_interaction=False))
        assert generation_rate_product(on) == pytest.approx(RATE_ON_1_3, rel=1e-12)
        assert generation_rate_product(off) == pytest.approx(RATE_OFF_1_3, rel=1e-12)

    def test_exchange_never_hurts(self, rng):
        for _ in range(200):
            a = float(10.0 ** rng.uniform(-2, 1.3))
            ell = float(10.0 ** rng.uniform(-1.5, 1.7))
            on = coefficients(SimConfig(accel_ratio=a, separation=ell))
            off = coefficients(SimConfig(accel_ratio=a, separation=ell,
                                         include_interaction=False))
            assert generation_rate_product(on) >= generation_rate_product(off)

    def test_matches_finite_difference(self):
        c = coefficients(SimConfig(accel_ratio=1.0, separation=3.0))
        assert numerical_initial_rate(initial_product_eg(), c) == pytest.approx(
            generation_rate_product(c), abs=1e-6
        )


class TestSuperpositionRate:
    def test_pure_antisymmetric_start(self, rng):
        # -4(a1 - a2) - 4*sqrt((a1 - a2)^2 - (b1 - b2)^2) to 50 digits, with a2 = f*a1 and
        # b2 = f*b1 taken exactly: the stored a2 and b2 are rounded, and the cancellation
        # in the radicand would turn their half-ulp errors into ~1e-7 of the rate
        for _ in range(20):
            c = random_coefficients(rng)
            got = initial_rate_superposition(c, 0.0, 0.7)
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                a1, b1, f = (decimal.Decimal(v) for v in (c.a1, c.b1, c.f))
                a2, b2 = f * a1, f * b1
                expected = float(-4 * (a1 - a2) - 4 * ((a1 - a2) ** 2 - (b1 - b2) ** 2).sqrt())
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_subradiant_protection_at_close_separation(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1e-6))
        assert initial_rate_superposition(c, 0.0, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_phase_sign_irrelevant_without_exchange(self, rng):
        for _ in range(50):
            c = random_coefficients(rng, include_interaction=False)
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0.05, math.pi / 2)
            plus = initial_rate_superposition(c, th, ph)
            minus = initial_rate_superposition(c, th, -ph)
            assert plus == pytest.approx(minus, rel=1e-12, abs=1e-15)

    def test_degradation_flips_to_enhancement(self):
        on = coefficients(SimConfig(**FIG8_POINT))
        off = coefficients(SimConfig(**FIG8_POINT, include_interaction=False))
        r_off = initial_rate_superposition(off, **FIG8_ANGLES)
        r_on = initial_rate_superposition(on, **FIG8_ANGLES)
        assert r_off == pytest.approx(FIG8_RATE_OFF, rel=1e-12)
        assert r_on == pytest.approx(FIG8_RATE_ON, rel=1e-12)
        assert r_off < 0.0 < r_on

    def test_singular_point_reported(self, rng):
        c = random_coefficients(rng)
        with pytest.raises(FormulaSingularError):
            initial_rate_superposition(c, math.pi / 4, 0.0)

    def test_matches_finite_difference_generic(self, rng):
        for _ in range(25):
            c = random_coefficients(rng)
            th = float(rng.uniform(0.1, 1.4))
            ph = float(rng.uniform(-1.4, 1.4))
            analytic = initial_rate_superposition(c, th, ph)
            numeric = numerical_initial_rate(initial_superposition(th, ph), c)
            assert analytic == pytest.approx(numeric, abs=2e-6 * c.gamma0)


class TestNumericalRate:
    def test_rejects_bad_step(self, rng):
        with pytest.raises(Exception):
            numerical_initial_rate(initial_product_eg(), random_coefficients(rng), h=-1.0)

    def test_protected_bell_state_has_zero_rate(self):
        c = coefficients(SimConfig(accel_ratio=0.3, separation=1e-4))
        rate = numerical_initial_rate(initial_superposition(0.0, 0.0), c)
        assert rate == pytest.approx(0.0, abs=1e-6)

    def test_second_branch_never_wins_from_product_start(self, rng):
        c = random_coefficients(rng)
        for tau in np.linspace(0.01, 8.0, 40):
            b = concurrence_x(evolve(initial_product_eg(), c, float(tau)))
            assert b.k2 < 0.0
