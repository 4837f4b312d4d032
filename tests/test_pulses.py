import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from iongrover import dynamics
from iongrover.dynamics import (
    HamiltonianSpec,
    IntegratorConfig,
    fit_hr_phase,
    hamiltonian_from_pulse,
    hr_distance,
    propagator,
)
from iongrover.householder import generalized_hr, standard_hr
from iongrover.model import (
    VALID_SHAPES,
    CouplingVector,
    PulseSettings,
    PulseShape,
    PulseSpec,
    local_chi,
    uniform_chi,
    uniform_register,
)
from iongrover.pulses import (
    NoSolutionError,
    _calibrate,
    _wrap_phase,
    build_global_pulse,
    detuning_for_phase,
    phase_from_detuning,
    rms_area,
)

GAUSS = PulseShape("gaussian", 1.0)


class TestPulseShape:
    def test_sech_full_integral(self):
        shape = PulseShape("sech", 2.0)
        assert shape.integral() == pytest.approx(2 * math.pi, rel=1e-15)

    def test_sech_window_truncation_is_tiny(self):
        shape = PulseShape("sech", 1.0)
        full, windowed = shape.integral(), shape.integral(15.0)
        assert 0 < (full - windowed) / full < 1e-5

    def test_gaussian_integral(self):
        shape = PulseShape("gaussian", 1.5)
        assert shape.integral() == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-15)
        assert shape.integral(10.0) == pytest.approx(shape.integral(), rel=1e-12)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            PulseShape("square", 1.0)
        with pytest.raises(ValueError):
            PulseShape("sech", 0.0)
        with pytest.raises(ValueError):
            PulseShape("tabulated", 1.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, True, "1.0"])
    def test_non_finite_or_non_number_width_rejected(self, width):
        with pytest.raises(ValueError):
            PulseShape("sech", width)

    @pytest.mark.parametrize("kind", VALID_SHAPES)
    @pytest.mark.parametrize("window", [2.0, 6.0])
    def test_windowed_integral_matches_scipy_trapezoid(self, kind, window):
        shape = PulseShape(kind, 1.3)
        fine = np.linspace(-window * shape.width, window * shape.width, 200001)
        expected = float(trapezoid(shape.envelope(fine), fine))
        assert shape.integral(window) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", VALID_SHAPES + ("tabulated", "square"))
    def test_settings_and_shape_accept_the_same_kinds(self, kind):
        if kind in VALID_SHAPES:
            assert PulseShape(kind, 1.0).kind == PulseSettings(shape=kind).shape == kind
            return
        with pytest.raises(ValueError, match="unknown pulse shape"):
            PulseShape(kind, 1.0)
        with pytest.raises(ValueError, match="unknown pulse shape"):
            PulseSettings(shape=kind)


class TestPulseSpecGates:
    @pytest.mark.parametrize("field,value", [
        ("rms_peak", math.nan), ("rms_peak", math.inf), ("rms_peak", -1.0),
        ("detuning", math.nan), ("detuning", math.inf), ("detuning", -math.inf),
        ("center", math.nan), ("center", math.inf), ("center", -math.inf),
    ])
    def test_bad_number_rejected(self, field, value):
        kwargs = {"rms_peak": 2.0, field: value}
        with pytest.raises(ValueError):
            PulseSpec(PulseShape("sech", 1.0), uniform_chi(3), **kwargs)


class TestRmsArea:
    def test_sech_two_pi(self):
        # g = 2/T integrates to an rms area of exactly 2 pi
        pulse = PulseSpec(PulseShape("sech", 1.0), uniform_chi(15), 2.0)
        assert rms_area(pulse) == pytest.approx(2 * math.pi, rel=1e-12)
        assert rms_area(pulse, window=15.0) == pytest.approx(2 * math.pi, rel=1e-5)

    def test_zero_peak(self):
        pulse = PulseSpec(PulseShape("sech", 1.0), uniform_chi(4), 0.0)
        assert rms_area(pulse) == 0.0

    def test_init_pulse_area_pi(self):
        pulse = PulseSpec(PulseShape("sech", 1.0), uniform_chi(15), 1.0)
        assert rms_area(pulse) == pytest.approx(math.pi, rel=1e-12)

    def test_per_ion_amplitude_scaling(self):
        # uniform chi splits the rms peak as g/sqrt(N) per ion
        pulse = PulseSpec(PulseShape("sech", 1.0), uniform_chi(15), 2.0)
        np.testing.assert_allclose(np.abs(pulse.couplings), 2.0 / math.sqrt(15))


class TestPhaseFromDetuning:
    def test_resonant_is_pi(self):
        assert phase_from_detuning(0.0, 1) == pytest.approx(math.pi, abs=1e-15)

    def test_fig3_working_point(self):
        # 2*arg(0.589 + i) = 0.66113...pi, the printed 0.661 pi rounded
        phi = phase_from_detuning(0.589, 1)
        assert phi == pytest.approx(2.0770086520033932, abs=1e-15)
        assert phi == pytest.approx(0.661 * math.pi, abs=1e-3)

    def test_large_detuning_degenerates_to_identity(self):
        assert phase_from_detuning(1e8, 1) == pytest.approx(0.0, abs=1e-6)

    def test_even_area_index_resonance_is_zero(self):
        # two full returns at resonance: no net reflection
        assert phase_from_detuning(0.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            phase_from_detuning(0.5, 0)


class TestDetuningForPhase:
    def test_pi_gives_resonance(self):
        assert detuning_for_phase(math.pi, 1) == pytest.approx(0.0, abs=1e-15)

    def test_fig3_value(self):
        delta_t = detuning_for_phase(0.661 * math.pi, 1)
        assert delta_t == pytest.approx(0.589, abs=2e-3)
        assert delta_t == pytest.approx(1 / math.tan(0.3305 * math.pi), rel=1e-14)

    def test_half_pi_closed_form(self):
        assert detuning_for_phase(0.5 * math.pi, 1) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("phi", [0.0, -0.3, 3.5])
    def test_unattainable_phase(self, phi):
        with pytest.raises(NoSolutionError):
            detuning_for_phase(phi, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        phi=st.floats(0.01 * math.pi, 0.995 * math.pi),
        l=st.integers(1, 3),
    )
    def test_round_trip(self, phi, l):
        delta_t = detuning_for_phase(phi, l)
        assert phase_from_detuning(delta_t, l) == pytest.approx(phi, abs=1e-10)

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_matches_brentq(self, l):
        # the bracketed root search this solver replaced, kept as an oracle
        def raw(x):
            return 2.0 * sum(math.atan2(2 * j + 1, x) for j in range(l))

        for phi in np.linspace(0.02 * math.pi, 0.99 * math.pi, 41):
            phi = float(phi)
            hi = 4.0 * l / math.tan(phi / 2.0) + 4.0 * l
            while raw(hi) > phi:
                hi *= 2.0
            expected = brentq(lambda x: raw(x) - phi, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
            delta_t = detuning_for_phase(phi, l)
            assert abs(delta_t - expected) <= 1e-12
            assert abs(phase_from_detuning(delta_t, l) - phi) <= 1e-13

    @pytest.mark.parametrize("l", [2, 3, 50])
    def test_extreme_phases(self, l):
        # near pi the root is finite; for tiny phases delta*T ~ 2 l^2 / phi
        for phi in (math.pi, math.nextafter(math.pi, 0.0)):
            phase = phase_from_detuning(detuning_for_phase(phi, l), l)
            assert abs(_wrap_phase(phase - phi)) <= 1e-13  # pi and -pi are one phase
        for phi in (1e-9, 1e-160, 1e-300):
            assert detuning_for_phase(phi, l) == pytest.approx(2 * l * l / phi, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 5])
    @pytest.mark.parametrize("phi", [5e-324, 1e-310])
    def test_phase_beyond_float_range(self, phi, l):
        # phi/2 underflows to 0 at 5e-324; delta*T ~ 2 l^2 / phi overflows at 1e-310
        with pytest.raises(NoSolutionError):
            detuning_for_phase(phi, l)

    def test_wrap_phase_branch(self):
        assert _wrap_phase(math.pi) == pytest.approx(math.pi)
        assert _wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert _wrap_phase(2.5 * math.pi) == pytest.approx(0.5 * math.pi)


class TestPulseBuilders:
    def test_global_standard(self):
        pulse = build_global_pulse(uniform_chi(15))
        assert pulse.rms_peak == pytest.approx(2.0, rel=1e-12)
        assert pulse.detuning == 0.0
        assert rms_area(pulse) == pytest.approx(2 * math.pi, rel=1e-12)
        # per-ion temporal area 2*pi/sqrt(N)
        per_ion = abs(pulse.couplings[0]) * pulse.shape.integral()
        assert per_ion == pytest.approx(2 * math.pi / math.sqrt(15), rel=1e-12)

    def test_global_generalized_pi_equals_standard(self):
        a = build_global_pulse(uniform_chi(6), phase=math.pi)
        b = build_global_pulse(uniform_chi(6))
        assert a.detuning == b.detuning == 0.0
        assert a.rms_peak == b.rms_peak
        np.testing.assert_array_equal(a.chi.components, b.chi.components)

    def test_global_generalized_deterministic_point(self):
        pulse = build_global_pulse(uniform_chi(15), phase=0.661 * math.pi)
        assert pulse.detuning * pulse.shape.width == pytest.approx(0.589, abs=2e-3)

    def test_local_oracle(self):
        pulse = build_global_pulse(local_chi(15, 3))
        np.testing.assert_allclose(pulse.chi.components, local_chi(15, 3).components)
        assert pulse.rms_peak == pytest.approx(2.0, rel=1e-12)
        assert pulse.detuning == 0.0

    def test_local_detuned(self):
        pulse = build_global_pulse(local_chi(15, 3), phase=0.661 * math.pi)
        assert pulse.detuning == pytest.approx(0.589, abs=2e-3)

    def test_local_bad_index(self):
        with pytest.raises(IndexError):
            build_global_pulse(local_chi(15, 0))

    def test_resonant_non_sech_keeps_the_two_pi_area(self):
        pulse = build_global_pulse(uniform_chi(15), math.pi, GAUSS)
        assert pulse.shape == GAUSS
        assert pulse.detuning == 0.0
        assert rms_area(pulse) == pytest.approx(2 * math.pi, rel=1e-12)
        assert build_global_pulse(uniform_chi(15), math.pi, GAUSS, 3.0).rms_peak == 3.0

    def test_detuned_non_sech_is_calibrated_on_the_integrator_grid(self):
        # the sech detuning on a Gaussian envelope realized 0.812*pi, not 0.661*pi
        phi = 0.661 * math.pi
        for cfg in (None, IntegratorConfig(steps_per_pulse=3000, window=10.0)):
            pulse = build_global_pulse(uniform_chi(15), phi, GAUSS, integrator=cfg)
            cfg = cfg or IntegratorConfig()
            assert (pulse.rms_peak, pulse.detuning) == _calibrate(
                GAUSS, phi, cfg.steps_per_pulse, cfg.window)
            # an exact reflection on the chain that integrator runs
            u = propagator(pulse, cfg)
            assert hr_distance(u, generalized_hr(pulse.chi, phi)) < 1e-9

    def test_detuned_non_sech_refuses_a_peak_coupling(self):
        with pytest.raises(ValueError, match="peak_coupling") as info:
            build_global_pulse(uniform_chi(15), 0.661 * math.pi, GAUSS, 3.0)
        assert not isinstance(info.value, NoSolutionError)


class TestSimulationConsistency:
    def test_fitted_phases_match_formula(self):
        rng = np.random.default_rng(42)
        cfg = IntegratorConfig()
        shape = PulseShape("sech", 1.0)
        for _ in range(20):
            delta_t = rng.uniform(0.05, 2.0)
            spec = HamiltonianSpec(2.0 * local_chi(2, 1).components, shape, delta_t)
            fitted = fit_hr_phase(propagator(spec, cfg), local_chi(2, 1))
            assert fitted == pytest.approx(phase_from_detuning(delta_t, 1), abs=1e-3)

    def test_resonant_area_law(self):
        # rms areas 2 pi and 6 pi give the standard reflection, 4 pi does not
        chi = CouplingVector([0.6, 0.8])
        cfg = IntegratorConfig()
        target = standard_hr(chi)
        for area in (2 * math.pi, 6 * math.pi):
            spec = HamiltonianSpec((area / math.pi) * chi.components,
                                   PulseShape("sech", 1.0), 0.0)
            assert hr_distance(propagator(spec, cfg), target) < 1e-5
        spec = HamiltonianSpec(4.0 * chi.components, PulseShape("sech", 1.0), 0.0)
        assert hr_distance(propagator(spec, cfg), target) > 0.5

    @pytest.mark.slow
    def test_gaussian_calibration(self):
        phi = 0.661 * math.pi
        chi = CouplingVector([0.5, 0.5, math.sqrt(0.5)])
        pulse = build_global_pulse(chi, phi, GAUSS,
                                   integrator=IntegratorConfig(steps_per_pulse=1500))
        u = propagator(hamiltonian_from_pulse(pulse),
                       IntegratorConfig(steps_per_pulse=6000))
        assert hr_distance(u, generalized_hr(chi, phi)) < 1e-5
        assert fit_hr_phase(u, chi) == pytest.approx(phi, abs=1e-6)


class TestCalibration:
    """The Newton calibrator behind ``build_global_pulse`` against the sech
    closed form, and the Gaussian solution the nested scipy root finder it
    replaced selected."""

    @pytest.mark.parametrize("fraction", [0.5, 0.661, 0.9])
    def test_sech_matches_closed_form(self, fraction):
        phi = fraction * math.pi
        shape = PulseShape("sech", 1.0)
        peak, detuning = _calibrate(shape, phi, 1500, 15.0)
        assert peak * shape.integral() == pytest.approx(2 * math.pi, rel=2e-6)
        assert abs(detuning - detuning_for_phase(phi, 1)) <= 1e-5

    def test_gaussian_reference_branch(self):
        # rms_peak and detuning of the scipy solver, whose area bracket was
        # (1.2 pi, 3.2 pi); other branches also close the leakage
        pulse = build_global_pulse(local_chi(2, 1), 0.661 * math.pi, GAUSS,
                                   integrator=IntegratorConfig(steps_per_pulse=1500))
        assert abs(pulse.rms_peak - 3.3974833) <= 1e-6
        assert abs(pulse.detuning - 1.0594504) <= 1e-6
        assert pulse.shape == GAUSS

    def test_probes_leave_the_pulse_memo_alone(self):
        dynamics.evolve_schedule(uniform_register(3), [build_global_pulse(uniform_chi(3))])
        _calibrate.cache_clear()
        before = dynamics._pulse_chain.cache_info()
        build_global_pulse(uniform_chi(3), 0.661 * math.pi, GAUSS)
        assert _calibrate.cache_info().misses == 1  # the solve ran
        assert dynamics._pulse_chain.cache_info() == before

    def test_one_solve_per_shape_phase_and_grid(self):
        _calibrate.cache_clear()
        pulses = [build_global_pulse(chi, 0.7 * math.pi, GAUSS)
                  for chi in (uniform_chi(3), local_chi(3, 2), uniform_chi(5))]
        assert _calibrate.cache_info().misses == 1
        assert len({(p.rms_peak, p.detuning) for p in pulses}) == 1

    @pytest.mark.parametrize("phi", [0.0, math.pi, -0.5, 4.0])
    def test_phase_outside_the_open_interval(self, phi):
        with pytest.raises(NoSolutionError):
            _calibrate(GAUSS, phi, 1500, 15.0)
        if phi != math.pi:  # phase pi is the resonant pulse, no calibration
            with pytest.raises(NoSolutionError):
                build_global_pulse(uniform_chi(3), phi, GAUSS)
