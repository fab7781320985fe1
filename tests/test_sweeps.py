import math

import numpy as np
import pytest

from unruh_pair import (
    DegenerateGeneratorError,
    HorizonError,
    InvalidParameterError,
    SimConfig,
    SweepResult,
    asymptotic_concurrence,
    coefficients,
    concurrence_x,
    evolve,
    generation_possible,
    initial_product_eg,
    initial_superposition,
    max_concurrence,
    max_concurrence_sweep,
    monotonicity_report,
    rate_sweep,
    region_scan,
)
from unruh_pair.sweeps import _SAMPLE_BLOCK, _flow_concurrence

from conftest import random_coefficients, random_x_state


class TestRegionScan:
    def test_superset_and_margin(self):
        mask = region_scan((0.02, 6.0), (1.0 / 30, 10.0), 120)
        on, off = mask.with_interaction, mask.without_interaction
        assert not np.any(off & ~on)
        assert on.sum() > off.sum()

    def test_cold_row_generates_everywhere(self):
        mask = region_scan((0.02, 6.0), (1e-3, 10.0), 80)
        assert mask.with_interaction[0].all()
        assert mask.without_interaction[0].all()

    def test_close_column_generates_with_exchange_even_when_hot(self):
        mask = region_scan((0.01, 6.0), (0.5, 10.0), 60)
        assert mask.with_interaction[:, 0].all()

    def test_matches_scalar_condition(self, rng):
        mask = region_scan((0.05, 5.0), (0.1, 8.0), 40)
        for _ in range(60):
            i = int(rng.integers(0, 40))
            j = int(rng.integers(0, 40))
            for with_d, grid in ((True, mask.with_interaction),
                                 (False, mask.without_interaction)):
                c = coefficients(SimConfig(
                    accel_ratio=float(mask.accel[i]),
                    separation=float(mask.omega_l[j]),
                    include_interaction=with_d,
                ))
                assert bool(grid[i, j]) == generation_possible(c)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidParameterError):
            region_scan((0.0, 6.0), (0.1, 10.0), 50)
        with pytest.raises(InvalidParameterError):
            region_scan((0.1, 6.0), (5.0, 1.0), 50)
        with pytest.raises(InvalidParameterError):
            region_scan((0.1, 6.0), (0.1, 10.0), 1)


class TestRateSweep:
    def test_exchange_curve_dominates(self):
        sw = rate_sweep("separation", 0.3, resolution=40)
        assert np.all(sw.with_interaction >= sw.without_interaction - 1e-12)

    def test_monotone_with_exchange_at_close_separation(self):
        sw = rate_sweep("separation", 0.3, resolution=60)
        rep = monotonicity_report(sw)
        assert rep.with_interaction.kind == "monotone-decreasing"

    def test_non_monotone_without_exchange_at_large_separation(self):
        sw = rate_sweep("separation", 30.0, sweep_range=(0.05, 20.0), resolution=60)
        rep = monotonicity_report(sw)
        assert rep.without_interaction.kind == "non-monotone"
        assert rep.without_interaction.argmax is not None

    def test_rate_grows_like_inverse_separation_toward_contact(self):
        from unruh_pair import generation_rate_product
        # at hot accelerations the exchange term dominates: rate*wL -> gamma0
        scaled = []
        for ell in (1e-2, 1e-3, 1e-4):
            c = coefficients(SimConfig(accel_ratio=10.0, separation=ell))
            scaled.append(generation_rate_product(c) * ell)
        assert scaled[-1] == pytest.approx(1.0, rel=1e-3)
        assert scaled[0] < scaled[1] < scaled[2]  # still approaching from below

    def test_superposition_sweep_with_singular_point_falls_back(self):
        sw = rate_sweep("separation", 0.5, resolution=12,
                        initial="superposition", theta=math.pi / 4, phi=0.0)
        assert np.all(np.isfinite(sw.with_interaction))

    def test_axis_validation(self):
        with pytest.raises(InvalidParameterError):
            rate_sweep("frequency", 1.0)
        with pytest.raises(InvalidParameterError):
            rate_sweep("separation", 0.3, sweep_range=(-1.0, 2.0))


class TestArrayPathMatchesScalarPath:
    @pytest.mark.parametrize("gamma0", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("fixed_axis", ["separation", "accel_ratio"])
    @pytest.mark.parametrize("initial", ["product-eg", "superposition"])
    def test_rate_sweep_equals_the_per_point_formula(self, rng, gamma0, fixed_axis, initial):
        from unruh_pair import generation_rate_product, initial_rate_superposition
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
        fixed = float(10.0 ** rng.uniform(-1.5, 1.5))
        lo = float(10.0 ** rng.uniform(-2.5, -0.5))
        sw = rate_sweep(fixed_axis, fixed, (lo, lo * 10.0 ** rng.uniform(1.0, 3.5)), 40,
                        initial=initial, theta=theta, phi=phi, gamma0=gamma0)
        for x, on, off in zip(sw.values, sw.with_interaction, sw.without_interaction):
            accel, sep = (x, fixed) if sw.axis == "accel_ratio" else (fixed, x)
            for got, with_d in ((on, True), (off, False)):
                c = coefficients(SimConfig(float(accel), float(sep), gamma0, with_d))
                expected = (generation_rate_product(c) if initial == "product-eg"
                            else initial_rate_superposition(c, theta, phi))
                assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_region_scan_equals_per_node_condition(self, rng):
        lo_l, lo_a = 10.0 ** rng.uniform(-2, -0.5, size=2)
        mask = region_scan((lo_l, 8.0), (lo_a, 12.0), (30, 25))
        for i, accel in enumerate(mask.accel):
            for j, sep in enumerate(mask.omega_l):
                for with_d, grid in ((True, mask.with_interaction),
                                     (False, mask.without_interaction)):
                    c = coefficients(SimConfig(float(accel), float(sep), 1.0, with_d))
                    if abs(c.a2 ** 2 + c.d ** 2 - (c.a1 ** 2 - c.b1 ** 2)) < 1e-12:
                        continue  # too close to the boundary to decide
                    assert bool(grid[i, j]) == generation_possible(c)

    def test_region_scan_past_the_square_range(self):
        # d passes 1e150 at the smallest separations and a1 at the hottest accelerations
        mask = region_scan((1e-300, 1e-150), (1e-3, 1e300), 5)
        assert mask.with_interaction[:, 0].all()
        assert not mask.without_interaction[-1].any()


class TestMaxConcurrence:
    def test_protected_bell_state(self):
        c = coefficients(SimConfig(accel_ratio=0.1, separation=1e-3))
        c_max, tau_star = max_concurrence(initial_superposition(0.0, 0.0), c)
        assert c_max == pytest.approx(1.0, abs=1e-9)
        assert tau_star == pytest.approx(0.0, abs=0.1)

    def test_exchange_raises_the_maximum(self):
        on = coefficients(SimConfig(accel_ratio=0.1, separation=0.5))
        off = coefficients(SimConfig(accel_ratio=0.1, separation=0.5,
                                     include_interaction=False))
        s0 = initial_product_eg()
        c_on, _ = max_concurrence(s0, on)
        c_off, _ = max_concurrence(s0, off)
        assert c_on > c_off

    @pytest.mark.parametrize("accel,sep", [(0.1, 0.5), (1.0, 3.0), (2.0, 0.3)])
    def test_agrees_with_fine_brute_force(self, accel, sep):
        c = coefficients(SimConfig(accel_ratio=accel, separation=sep))
        s0 = initial_product_eg()
        c_max, tau_star = max_concurrence(s0, c, tau_max=20.0)
        # two-stage brute force: 10x-finer global grid, then a dense zoom
        step = 1.0 / (400.0 * c.a1)
        if c.d:
            step = min(step, math.pi / (200.0 * abs(c.d)))
        taus = np.arange(0.0, 20.0, step)
        cs = [concurrence_x(evolve(s0, c, float(t))).c for t in taus]
        k = int(np.argmax(cs))
        zoom = np.linspace(max(taus[k] - step, 0.0), taus[k] + step, 2001)
        brute = max(concurrence_x(evolve(s0, c, float(t))).c for t in zoom)
        assert c_max >= max(cs) - 1e-9   # refinement never loses to a sample
        assert c_max == pytest.approx(brute, abs=1e-6)

    def test_refined_max_dominates_every_sample(self, rng):
        c = random_coefficients(rng)
        s0 = initial_product_eg()
        c_max, _ = max_concurrence(s0, c, tau_max=20.0)
        taus = np.arange(0.0, 20.0, 1.0 / (40.0 * c.a1))
        samples = _flow_concurrence(s0, [c], np.zeros(len(taus), dtype=int))(taus)
        assert np.all(c_max >= samples - 1e-12)
        for k in rng.choice(len(taus), 5, replace=False):
            assert samples[k] == pytest.approx(
                concurrence_x(evolve(s0, c, float(taus[k]))).c, abs=1e-13)

    def test_interior_peak_above_the_start_is_refined(self):
        # C(0) = 0.60899 beats every other sample; the samples at tau = 0.1,
        # 0.2, 0.3 read 0.5883, 0.6059, 0.6055, so the true peak near 0.25 is
        # a local sample maximum below the global one
        c = coefficients(SimConfig(accel_ratio=0.0375053, separation=0.309735))
        s0 = initial_superposition(1.08846, -0.264994)
        c_max, tau_star = max_concurrence(s0, c)
        assert c_max == pytest.approx(0.6098748, abs=1e-7)
        assert tau_star == pytest.approx(0.251, abs=1e-3)
        assert c_max >= concurrence_x(evolve(s0, c, tau_star)).c - 1e-15

    def test_horizon_error_when_still_rising(self):
        c = coefficients(SimConfig(accel_ratio=0.1, separation=0.5))
        with pytest.raises(HorizonError):
            max_concurrence(initial_product_eg(), c, tau_max=0.3, auto_extend=False)

    def test_sequence_reports_the_first_failing_set(self):
        s0 = initial_product_eg()
        ok = coefficients(SimConfig(accel_ratio=0.1, separation=0.5))
        fine = coefficients(SimConfig(accel_ratio=0.1, separation=1e-9))  # d ~ 2.5e8
        with pytest.raises(InvalidParameterError) as exc:
            max_concurrence(s0, [ok, fine])
        assert exc.value.code == "sampling-too-fine"
        with pytest.raises(HorizonError):
            max_concurrence(s0, [ok, fine], tau_max=0.3, auto_extend=False)

    def test_auto_extension_recovers(self):
        c = coefficients(SimConfig(accel_ratio=0.1, separation=0.5))
        c_ref, t_ref = max_concurrence(initial_product_eg(), c, tau_max=20.0)
        c_ext, t_ext = max_concurrence(initial_product_eg(), c, tau_max=0.6)
        assert c_ext == pytest.approx(c_ref, abs=1e-9)
        assert t_ext == pytest.approx(t_ref, abs=1e-3)

    def test_flow_shortcut_matches_public_route(self, rng):
        sets = [random_coefficients(rng) for _ in range(20)]
        for _ in range(5):
            s0 = random_x_state(rng)
            owner = rng.integers(0, len(sets), size=40)
            taus = rng.uniform(0.0, 5.0, size=40)
            fast = _flow_concurrence(s0, sets, owner)(taus)
            slow = [concurrence_x(evolve(s0, sets[s], float(t))).c for s, t in zip(owner, taus)]
            np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-13)

    def test_sequence_form_matches_single_calls(self, rng):
        sets = [random_coefficients(rng, include_interaction=bool(k % 2)) for k in range(8)]
        s0 = initial_superposition(0.4, 1.1)
        peaks, taus = max_concurrence(s0, sets)
        assert peaks.shape == taus.shape == (8,)
        for c, peak, tau in zip(sets, peaks, taus):
            assert (peak, tau) == max_concurrence(s0, c)
        empty = max_concurrence(s0, [])
        assert empty[0].shape == empty[1].shape == (0,)

    def test_expm_route_is_searched_in_the_same_batch(self, monkeypatch):
        from unruh_pair import sweeps, xstate
        sets = [coefficients(SimConfig(accel_ratio=a, separation=0.5, include_interaction=with_d))
                for a in (0.5, 2.0) for with_d in (True, False)]
        s0 = initial_superposition(0.4, 1.1)
        ref_c, ref_t = max_concurrence(s0, sets)
        forced = {sets[1], sets[2]}
        monkeypatch.setattr(sweeps, "_population_flow",
                            lambda c: xstate._PopulationFlow(c, force_expm=c in forced))
        got_c, got_t = max_concurrence(s0, sets)
        np.testing.assert_allclose(got_c, ref_c, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_t, ref_t, rtol=0.0, atol=1e-6)

    def test_long_grid_is_sampled_in_blocks(self):
        c = coefficients(SimConfig(accel_ratio=0.1, separation=0.05))  # fine exchange step
        s0 = initial_superposition(0.3, 0.2)
        tau_max = 1.5 * _SAMPLE_BLOCK * math.pi / (20.0 * abs(c.d))
        c_max, tau_star = max_concurrence(s0, c, tau_max=tau_max)
        assert c_max >= concurrence_x(evolve(s0, c, tau_star)).c - 1e-15
        assert c_max == pytest.approx(max_concurrence(s0, c, tau_max=2.0)[0], abs=1e-12)


class TestMaxConcurrenceSweep:
    def test_dominance_everywhere(self):
        sw = max_concurrence_sweep("separation", 0.5, resolution=16)
        assert np.all(sw.with_interaction >= sw.without_interaction - 1e-9)

    def test_sweep_equals_per_point_calls(self):
        s0 = initial_superposition(0.5, -0.7)
        sw = max_concurrence_sweep("separation", 0.3, resolution=12, state0=s0)
        for value, on, off in zip(sw.values, sw.with_interaction, sw.without_interaction):
            for with_d, peak in ((True, on), (False, off)):
                c = coefficients(SimConfig(accel_ratio=float(value), separation=0.3,
                                           include_interaction=with_d))
                assert abs(max_concurrence(s0, c)[0] - peak) <= 1e-15

    def test_brute_force_never_beats_the_refined_peak(self):
        rng = np.random.default_rng(4242)
        taus = (np.arange(200) + 0.5) * (20.0 / 200)  # midpoints, off the sample grid
        for _ in range(20):
            accel = float(10.0 ** rng.uniform(-3, math.log10(3e2)))
            sep = float(10.0 ** rng.uniform(math.log10(0.03), math.log10(3e2)))
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
            for s0 in (initial_product_eg(), initial_superposition(theta, phi)):
                for with_d in (True, False):
                    c = coefficients(SimConfig(accel_ratio=accel, separation=sep,
                                               include_interaction=with_d))
                    peak, _ = max_concurrence(s0, c)
                    brute = max(concurrence_x(evolve(s0, c, float(t))).c for t in taus)
                    assert brute <= peak + 1e-12, (accel, sep, theta, phi, with_d)

    def test_anti_unruh_disappears_with_exchange(self):
        sw = max_concurrence_sweep("separation", 3.0, sweep_range=(0.05, 20.0),
                                   resolution=24)
        rep = monotonicity_report(sw)
        assert rep.with_interaction.kind == "monotone-decreasing"
        assert rep.without_interaction.kind == "non-monotone"


class TestAsymptotics:
    def test_exchange_cannot_touch_the_asymptotic_state(self, rng):
        for _ in range(10):
            a = float(10.0 ** rng.uniform(-1, 1))
            ell = float(10.0 ** rng.uniform(-1, 1))
            on = coefficients(SimConfig(accel_ratio=a, separation=ell))
            off = coefficients(SimConfig(accel_ratio=a, separation=ell,
                                         include_interaction=False))
            assert abs(asymptotic_concurrence(on) - asymptotic_concurrence(off)) <= 1e-10

    def test_vanishes_for_any_acceleration(self):
        for a in (0.0, 0.1, 1.0, 12.0):
            c = coefficients(SimConfig(accel_ratio=a, separation=0.7))
            assert asymptotic_concurrence(c) == 0.0

    def test_degenerate_limit_reported(self):
        from unruh_pair import Coefficients
        c = Coefficients(a1=0.5, a2=0.5, b1=0.25, b2=0.25, d=0.0, f=1.0)
        with pytest.raises(DegenerateGeneratorError):
            asymptotic_concurrence(c)


class TestMonotonicityReport:
    @staticmethod
    def _sweep(on, off):
        x = np.linspace(1.0, 2.0, len(on))
        return SweepResult(axis="accel_ratio", values=x,
                           with_interaction=np.asarray(on, dtype=float),
                           without_interaction=np.asarray(off, dtype=float),
                           quantity="initial-rate")

    def test_decreasing(self):
        values = np.linspace(1.0, 0.0, 10)
        rep = monotonicity_report(self._sweep(values, values))
        assert rep.with_interaction.kind == "monotone-decreasing"

    def test_increasing(self):
        values = np.linspace(0.0, 1.0, 10)
        rep = monotonicity_report(self._sweep(values, values))
        assert rep.with_interaction.kind == "monotone-increasing"

    def test_non_monotone_with_argmax(self):
        values = np.array([0.0, 0.5, 1.0, 0.7, 0.4, 0.2, 0.1, 0.05])
        rep = monotonicity_report(self._sweep(values, values))
        assert rep.with_interaction.kind == "non-monotone"
        assert rep.with_interaction.argmax == 2

    def test_jitter_absorbed_by_relative_tolerance(self):
        values = np.linspace(1.0, 0.0, 10)
        values[4] += 1e-11  # below 1e-9 * max|curve|
        rep = monotonicity_report(self._sweep(values, values))
        assert rep.with_interaction.kind == "monotone-decreasing"

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            monotonicity_report(self._sweep(np.zeros(5), np.zeros(5)))


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        a = rate_sweep("separation", 0.3, resolution=20)
        b = rate_sweep("separation", 0.3, resolution=20)
        assert np.array_equal(a.with_interaction, b.with_interaction)
        assert np.array_equal(a.without_interaction, b.without_interaction)

