import math

import numpy as np
import pytest

from unruh_pair import (
    Coefficients,
    DegenerateGeneratorError,
    DiagonalGenerator,
    InvalidParameterError,
    InvalidStateError,
    SimConfig,
    XState,
    coefficients,
    concurrence_x,
    diagonal_generator,
    evolve,
    initial_product_eg,
    initial_superposition,
    steady_state,
    trajectory,
)
from unruh_pair import xstate
from unruh_pair.params import rate_constants
from unruh_pair.xstate import (
    _check_entries,
    _eigen_flow,
    _flow_rows,
    _flow_stack,
    _population_flow,
    _x_flow,
)

from conftest import random_coefficients, random_x_state


class TestXStateValidation:
    def test_trace_deviation_rejected(self):
        with pytest.raises(InvalidStateError):
            XState(p_gg=0.5, p_ee=0.5, p_aa=0.1, p_ss=0.0)

    def test_negative_population_rejected(self):
        with pytest.raises(InvalidStateError):
            XState(p_gg=1.1, p_ee=-0.1, p_aa=0.0, p_ss=0.0)

    def test_overlarge_coherence_rejected(self):
        with pytest.raises(InvalidStateError):
            XState(p_gg=0.0, p_ee=0.0, p_aa=0.5, p_ss=0.5, c_as=0.6)
        with pytest.raises(InvalidStateError):
            XState(p_gg=0.5, p_ee=0.5, p_aa=0.0, p_ss=0.0, c_ge=0.51)

    def test_random_states_valid(self, rng):
        for _ in range(200):
            s = random_x_state(rng)
            assert abs(s.trace - 1.0) <= 1e-10


class TestInitialStates:
    def test_product_eg(self):
        s = initial_product_eg()
        assert (s.p_aa, s.p_ss, s.c_as) == (0.5, 0.5, 0.5 + 0j)
        assert s.trace == 1.0
        assert concurrence_x(s).c == 0.0
        assert abs(s.c_as) ** 2 == s.p_aa * s.p_ss  # pure state saturates positivity

    def test_superposition_bell_limits(self):
        a = initial_superposition(0.0, 0.3)
        assert a.p_aa == 1.0 and concurrence_x(a).c == 1.0
        s = initial_superposition(math.pi / 2, -1.0)
        assert s.p_ss == pytest.approx(1.0, abs=1e-30) and concurrence_x(s).c == pytest.approx(1.0, rel=1e-15)

    def test_superposition_weights_and_phase(self):
        st = initial_superposition(math.pi / 6, math.pi / 4)
        assert st.p_aa == pytest.approx(0.75, rel=1e-15)
        assert st.p_ss == pytest.approx(0.25, rel=1e-15)
        assert abs(st.c_as) == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)
        expected = math.cos(math.pi / 6) * math.sin(math.pi / 6) * np.exp(1j * math.pi / 4)
        assert st.c_as == pytest.approx(expected, rel=1e-15)

    def test_product_eg_is_the_theta_pi4_superposition(self):
        s = initial_superposition(math.pi / 4, 0.0)
        p = initial_product_eg()
        assert s.p_aa == pytest.approx(p.p_aa, rel=1e-15)
        assert s.c_as == pytest.approx(p.c_as, rel=1e-15)


class TestStackedChecks:
    BAD = [  # (entries, code): one failing check each
        ((0.5, 0.0, 0.0, 0.6, 0j, 0j), "trace-deviant"),
        ((0.6, 0.0, 0.5, -0.1, 0j, 0j), "population-negative"),
        ((0.0, 0.0, 0.5, 0.5, 0.6 + 0j, 0j), "coherence-as-too-large"),
        ((0.5, 0.5, 0.0, 0.0, 0j, 0.6j), "coherence-ge-too-large"),
        ((math.nan, 0.0, 0.5, 0.5, 0j, 0j), "state-not-finite"),
        ((0.0, 0.0, 0.5, 0.5, complex(math.inf, 0.0), 0j), "state-not-finite"),
    ]

    @pytest.mark.parametrize("entries, code", BAD)
    def test_arrays_fail_as_their_failing_sample(self, rng, entries, code):
        with pytest.raises(InvalidStateError) as one:
            XState(*entries)
        assert one.value.code == code
        good = [random_x_state(rng) for _ in range(5)]
        columns = [[getattr(s, f) for s in good] for f in ("p_gg", "p_ee", "p_aa", "p_ss",
                                                          "c_as", "c_ge")]
        for column, value in zip(columns, entries):
            column[3] = value
        with pytest.raises(InvalidStateError) as stacked:
            _check_entries(*(np.array(column) for column in columns))
        assert (stacked.value.code, str(stacked.value)) == (code, str(one.value))

    def test_good_arrays_pass(self, rng):
        good = [random_x_state(rng) for _ in range(50)]
        _check_entries(*(np.array([getattr(s, f) for s in good])
                         for f in ("p_gg", "p_ee", "p_aa", "p_ss", "c_as", "c_ge")))

    def test_stack_is_the_per_set_flow(self, rng):
        accel, sep = 10.0 ** rng.uniform(-3.0, 2.5, 40), 10.0 ** rng.uniform(-4.0, 2.5, 40)
        rates = rate_constants(accel, sep, 1.0, True)
        s0 = random_x_state(rng)
        stack = _flow_stack(s0, rates)
        for k in range(40):
            c = Coefficients(*(float(v[k]) for v in rates))
            one = _flow_rows(s0, c)
            assert (k in stack.expm) == bool(one.expm)
            for got, want in zip(stack[:3], one[:3]):  # a complex stack rounds differently
                np.testing.assert_allclose(got[k], want, rtol=0.0,
                                           atol=1e-13 * max(1.0, np.abs(want).max()))

    def test_stacked_generator_checks(self):
        m = np.stack([diagonal_generator(coefficients(SimConfig(1.0, 1.0))).matrix] * 3)
        m[1, 0, 0] = np.inf
        with pytest.raises(InvalidStateError) as exc:
            _eigen_flow(m)
        assert exc.value.code == "generator-not-finite"
        m[1, 0, 0] = m[0, 0, 0] - 1.0
        with pytest.raises(InvalidStateError) as exc:
            _eigen_flow(m)
        assert exc.value.code == "generator-not-tracefree"


class TestDiagonalGenerator:
    def test_columns_sum_to_zero(self, rng):
        for _ in range(30):
            m = diagonal_generator(random_coefficients(rng)).matrix
            assert np.max(np.abs(m.sum(axis=0))) < 1e-14

    def test_doubly_excited_decay_rate_inertial(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1.0))
        m = diagonal_generator(c).matrix
        assert m[1, 1] == pytest.approx(-2.0 * c.gamma0, rel=1e-15)

    def test_subradiant_channel_decouples_at_unit_factor(self):
        # binary-exact rates so the cancellations are exact zeros
        c = Coefficients(a1=0.5, a2=0.5, b1=0.25, b2=0.25, d=0.0, f=1.0)
        m = diagonal_generator(c).matrix
        assert np.max(np.abs(m[2, :])) == 0.0  # antisymmetric row all zero
        assert np.max(np.abs(m[:, 2])) == 0.0  # nothing feeds in or out

    def test_off_diagonal_rates_nonnegative(self, rng):
        for _ in range(30):
            m = diagonal_generator(random_coefficients(rng)).matrix
            off = m - np.diag(np.diag(m))
            assert off.min() >= 0.0

    def test_overflowed_entries_rejected(self):
        # the columns sum to NaN, which slips past every comparison
        m = np.array([[-np.inf, 0.0, 1.0, np.inf], [0.0, -1.0, 0.0, 1.0],
                      [np.inf, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -np.inf]])
        with pytest.raises(InvalidStateError) as exc:
            DiagonalGenerator(matrix=m)
        assert exc.value.code == "generator-not-finite"


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        s = random_x_state(rng)
        c = random_coefficients(rng)
        assert evolve(s, c, 0.0) is s

    def test_negative_time_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            evolve(random_x_state(rng), random_coefficients(rng), -0.1)

    def test_coherence_modulus_closed_form(self):
        c = coefficients(SimConfig(accel_ratio=0.8, separation=0.6))
        s0 = initial_product_eg()
        for tau in (0.1, 1.0, 4.0):
            s = evolve(s0, c, tau)
            assert abs(s.c_as) == pytest.approx(0.5 * math.exp(-4.0 * c.a1 * tau), rel=1e-13)

    def test_exchange_only_rotates_the_coherence(self):
        base = SimConfig(accel_ratio=0.8, separation=0.6)
        on = coefficients(base)
        off = coefficients(SimConfig(accel_ratio=0.8, separation=0.6,
                                     include_interaction=False))
        s0 = initial_product_eg()
        for tau in (0.3, 2.0):
            s_on, s_off = evolve(s0, on, tau), evolve(s0, off, tau)
            assert abs(s_on.c_as) == pytest.approx(abs(s_off.c_as), rel=1e-13)
            assert s_on.populations == pytest.approx(s_off.populations, rel=1e-13)

    def test_trace_preserved_far_out(self, rng):
        for _ in range(20):
            s = random_x_state(rng)
            c = random_coefficients(rng)
            for tau in (0.1, 1.0, 10.0, 100.0):
                assert abs(evolve(s, c, tau).trace - 1.0) < 1e-10

    def test_semigroup_property(self, rng):
        for _ in range(20):
            s = random_x_state(rng)
            c = random_coefficients(rng)
            t1, t2 = rng.uniform(0.05, 3.0, size=2)
            one = evolve(evolve(s, c, t1), c, t2)
            two = evolve(s, c, t1 + t2)
            assert one.populations == pytest.approx(two.populations, abs=1e-10)
            assert one.c_as == pytest.approx(two.c_as, abs=1e-10)
            assert one.c_ge == pytest.approx(two.c_ge, abs=1e-10)

    def test_ge_coherence_stays_zero(self, rng):
        c = random_coefficients(rng)
        s = evolve(initial_product_eg(), c, 1.7)
        assert s.c_ge == 0.0

    def test_relaxation_to_thermal_populations(self):
        c = coefficients(SimConfig(accel_ratio=0.1, separation=0.5))
        s = evolve(initial_product_eg(), c, 700.0)
        r = math.exp(-2.0 * math.pi / 0.1)
        z = (1.0 + r) ** 2
        expected = np.array([1.0, r * r, r, r]) / z  # (gg, ee, aa, ss)
        assert s.populations == pytest.approx(expected, abs=1e-10)
        assert s.populations == pytest.approx(steady_state(c).populations, abs=1e-10)

    def test_eigen_and_expm_routes_agree(self, rng, monkeypatch):
        for _ in range(10):
            c = random_coefficients(rng)
            s = random_x_state(rng)
            assert _population_flow(c)[3] is None  # the eigen route
            eig_rows = _flow_rows(s, c)
            with monkeypatch.context() as m:
                m.setattr(xstate, "_population_flow", lambda c: _population_flow(c, True))
                expm_rows = _flow_rows(s, c)
            assert expm_rows.expm
            for tau in (0.2, 2.0):
                p_eig, _, _ = _x_flow(s, eig_rows, np.asarray(tau))
                p_expm, _, _ = _x_flow(s, expm_rows, np.asarray(tau))
                assert p_eig == pytest.approx(p_expm, abs=1e-12)


class TestTrajectory:
    def test_two_samples_are_the_endpoints(self, rng):
        s = random_x_state(rng)
        c = random_coefficients(rng)
        samples = trajectory(s, c, 5.0, 2)
        assert samples[0][0] == 0.0 and samples[1][0] == 5.0
        assert samples[0][1] is s
        end = evolve(s, c, 5.0)
        assert samples[1][1] == end

    def test_samples_equal_single_shot_evolve(self, rng):
        s = random_x_state(rng)
        c = random_coefficients(rng)
        for tau, state in trajectory(s, c, 3.0, 7):
            direct = evolve(s, c, tau)
            assert state == direct  # same closed-form path, bitwise

    def test_every_sample_has_unit_trace(self, rng):
        s = random_x_state(rng)
        c = random_coefficients(rng)
        assert all(abs(st.trace - 1.0) < 1e-10 for _, st in trajectory(s, c, 20.0, 50))

    def test_invalid_arguments(self, rng):
        s, c = random_x_state(rng), random_coefficients(rng)
        with pytest.raises(InvalidParameterError):
            trajectory(s, c, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            trajectory(s, c, 0.0, 5)


class TestSteadyState:
    def test_matches_independent_linear_solve(self, rng):
        for _ in range(25):
            c = random_coefficients(rng)
            m = diagonal_generator(c).matrix.copy()
            m[0, :] = 1.0  # replace one redundant row with the normalization
            p_ref = np.linalg.solve(m, np.array([1.0, 0.0, 0.0, 0.0]))
            assert steady_state(c).populations == pytest.approx(p_ref, abs=1e-10)

    def test_thermal_closed_form(self):
        for alpha, ell in [(0.2, 0.3), (1.0, 3.0), (5.0, 0.3)]:
            c = coefficients(SimConfig(accel_ratio=alpha, separation=ell))
            r = math.exp(-2.0 * math.pi / alpha)
            expected = np.array([1.0, r * r, r, r]) / (1.0 + r) ** 2
            assert steady_state(c).populations == pytest.approx(expected, abs=1e-10)

    def test_excitation_ratio_at_unit_acceleration(self):
        c = coefficients(SimConfig(accel_ratio=1.0, separation=3.0))
        s = steady_state(c)
        assert s.p_ee / s.p_gg == pytest.approx(math.exp(-4.0 * math.pi), rel=1e-8)

    def test_inertial_ground_state(self):
        c = coefficients(SimConfig(accel_ratio=0.0, separation=1.0))
        s = steady_state(c)
        assert s.populations == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_steady_state_is_separable(self, rng):
        for _ in range(10):
            assert concurrence_x(steady_state(random_coefficients(rng))).c == 0.0

    def test_degenerate_channel_reported(self):
        for f in (1.0, -1.0):
            c = Coefficients(a1=0.3, a2=0.3 * f, b1=0.25, b2=0.25 * f, d=0.0, f=f)
            with pytest.raises(DegenerateGeneratorError):
                steady_state(c)
