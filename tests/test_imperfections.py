import dataclasses
import math

import numpy as np
import pytest

from iongrover import dynamics, grover
from iongrover.cli import main
from iongrover.dynamics import IntegrationError
from iongrover.imperfections import adapted_advantage, infidelity_sweep
from iongrover.model import (
    ImperfectionSettings,
    IntegratorConfig,
    PulseSpec,
    SearchConfig,
    beam_factors,
)
from iongrover.grover import build_plan, initialize, run_search


class TestBeamFactors:
    def test_no_deficit_is_flat(self):
        np.testing.assert_array_equal(beam_factors(12, 0.0), np.ones(12))

    def test_n20_field_scaling(self):
        f = beam_factors(20, 0.1, "field")
        assert f[0] == pytest.approx(0.9, abs=1e-15)
        assert f[-1] == pytest.approx(0.9, abs=1e-15)
        x_center = 1.0 / 19.0
        assert f[9] == pytest.approx(0.9 ** (x_center**2), rel=1e-12)
        assert f[10] == pytest.approx(f[9], rel=1e-12)

    def test_intensity_scaling_cuts_field_by_sqrt(self):
        f = beam_factors(20, 0.1, "intensity")
        assert f[0] == pytest.approx(math.sqrt(0.9), rel=1e-12)
        # edge intensity deficit is epsilon in this convention
        assert f[0] ** 2 == pytest.approx(0.9, rel=1e-12)

    def test_two_ions_both_edges(self):
        np.testing.assert_allclose(beam_factors(2, 0.25), [0.75, 0.75])

    def test_symmetry(self):
        f = beam_factors(17, 0.15)
        np.testing.assert_allclose(f, f[::-1])

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            beam_factors(10, eps)


class TestAdaptedChi:
    """The adapted global reflection of a plan follows the beam profile."""

    @staticmethod
    def reflection_chi(n_ions, **imperfection):
        cfg = SearchConfig(n_ions=n_ions, marked_index=1,
                           imperfection=ImperfectionSettings(**imperfection))
        return build_plan(cfg).reflection.chi.components

    def test_uniform_register_gives_w_vector(self):
        np.testing.assert_allclose(self.reflection_chi(6, epsilon=0.0),
                                   np.full(6, 1 / math.sqrt(6)), atol=1e-15)

    def test_already_normalized_passthrough(self):
        np.testing.assert_allclose(self.reflection_chi(2, custom_factors=[0.6, 0.8]),
                                   [0.6, 0.8], atol=1e-15)

    def test_beam_profiled_register(self):
        factors = beam_factors(20, 0.1)
        np.testing.assert_allclose(self.reflection_chi(20, epsilon=0.1),
                                   factors / np.linalg.norm(factors), atol=1e-12)


class TestPerturbedRegister:
    """The exact start register of ideal mode under a beam profile."""

    @staticmethod
    def start(n_ions, epsilon, calibration="calibrated"):
        return initialize(SearchConfig(
            n_ions=n_ions, marked_index=1,
            imperfection=ImperfectionSettings(epsilon=epsilon, calibration=calibration)))

    def test_calibrated_has_no_residual(self):
        reg = self.start(10, 0.2)
        assert abs(reg.amplitudes[0]) < 1e-15
        assert np.linalg.norm(reg.amplitudes[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_uncalibrated_residual(self):
        factors = beam_factors(10, 0.2)
        reg = self.start(10, 0.2, calibration="uncalibrated")
        half_area = math.pi * np.linalg.norm(factors) / (2 * math.sqrt(10))
        assert abs(reg.amplitudes[0]) == pytest.approx(abs(math.cos(half_area)),
                                                  rel=1e-12)

    def test_full_state_round_trip(self):
        factors = beam_factors(8, 0.1)
        state = self.start(8, 0.1)
        np.testing.assert_allclose(state.amplitudes[1:],
                                   factors / np.linalg.norm(factors), atol=1e-15)


class TestSweep:
    def test_epsilon_zero_matches_uniform_run_bitwise(self):
        plain = run_search(SearchConfig(n_ions=8, marked_index=4))
        profiled = run_search(SearchConfig(
            n_ions=8, marked_index=4,
            imperfection=ImperfectionSettings(epsilon=0.0),
        ))
        np.testing.assert_array_equal(plain.final_state.amplitudes,
                                      profiled.final_state.amplitudes)
        assert plain.success_probability == profiled.success_probability

    def test_ideal_sweep_epsilon_zero_anchor(self):
        rows = infidelity_sweep(20, [5], [0.0], steps=3, mode="ideal")
        ideal = 1 - math.sin(7 * math.asin(1 / math.sqrt(20))) ** 2
        assert rows[0].infidelity == pytest.approx(ideal, abs=1e-12)

    def test_sweep_grid_order_and_jobs_merge(self):
        eps = [0.0, 0.05, 0.1]
        serial = infidelity_sweep(6, [1, 3], eps, steps=1, mode="ideal")
        two_jobs = infidelity_sweep(6, [1, 3], eps, steps=1, mode="ideal", jobs=2)
        assert [(r.epsilon, r.marked_index) for r in serial] == [
            (e, m) for e in eps for m in (1, 3)
        ]
        for a, b in zip(serial, two_jobs):
            assert a == b

    def test_physical_sweep_jobs_merge(self):
        eps = [0.0, 0.1]
        serial = infidelity_sweep(6, [1, 3], eps, steps=1, mode="physical")
        two_jobs = infidelity_sweep(6, [1, 3], eps, steps=1, mode="physical", jobs=2)
        assert len(serial) == 4
        assert serial == two_jobs

    @pytest.mark.parametrize("kwargs", [{"jobs": 0}, {"steps": 0}])
    def test_sweep_rejects_counts_below_one(self, kwargs):
        with pytest.raises(ValueError, match="at least one"):
            infidelity_sweep(6, [1], [0.0], **{"steps": 1, **kwargs})

    def test_uniform_reflection_option(self):
        rows = infidelity_sweep(10, [2], [0.1], steps=2, mode="ideal",
                                reflection="uniform")
        adapted = infidelity_sweep(10, [2], [0.1], steps=2, mode="ideal")
        assert rows[0].infidelity != adapted[0].infidelity


def sweep_by_search(n_ions, marked, epsilons, steps, mode, reflection):
    """The sweep as one ``run_search`` per cell, in grid order: the oracle for
    the register block that runs every cell at once."""
    return [(eps, m, 1.0 - run_search(SearchConfig(
                n_ions=n_ions, marked_index=m, mode=mode, iterations=steps,
                imperfection=ImperfectionSettings(epsilon=eps, reflection=reflection),
                integrator=IntegratorConfig(trajectory_stride=1000))).success_probability)
            for eps in epsilons for m in marked]


class TestSweepBlock:
    """All cells of a sweep advance as the columns of one register block."""

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("reflection", ["adapted", "uniform"])
    @pytest.mark.parametrize("n_ions", [2, 6, 20])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_one_search_per_cell(self, mode, reflection, n_ions, steps):
        marked = sorted({1, n_ions // 2 + 1})  # an edge ion and a centre ion
        epsilons = [0.0, 0.1, 0.2]
        rows = infidelity_sweep(n_ions, marked, epsilons, steps, mode=mode,
                                reflection=reflection)
        oracle = sweep_by_search(n_ions, marked, epsilons, steps, mode, reflection)
        assert [(r.epsilon, r.marked_index) for r in rows] == [o[:2] for o in oracle]
        np.testing.assert_allclose([r.infidelity for r in rows],
                                   [o[2] for o in oracle], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("marked, epsilons", [([], [0.0, 0.1]), ([1, 3], [])])
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_empty_grid(self, marked, epsilons, mode):
        assert infidelity_sweep(6, marked, epsilons, steps=2, mode=mode) == []

    @pytest.mark.parametrize("k, role", [(0, "init_pulse"), (1, "oracle"),
                                         (2, "reflection")])
    def test_cells_must_share_their_pulses(self, monkeypatch, k, role):
        real = grover.build_plan

        def plan(cfg):  # the profiled cells' pulse of this role a little stronger
            p = real(cfg)
            pulse = getattr(p, role)
            stronger = PulseSpec(pulse.shape, pulse.chi,
                                 pulse.rms_peak * (1.0 + cfg.imperfection.epsilon),
                                 pulse.detuning)
            return dataclasses.replace(p, **{role: stronger})

        monkeypatch.setattr(grover, "build_plan", plan)
        with pytest.raises(ValueError, match=rf"of pulse {k} \({role}\)"):
            infidelity_sweep(6, [1], [0.0, 0.1], steps=1)

    @staticmethod
    def bent_chain(monkeypatch, bend):
        """Every full-window chain product the sweep looks up, passed through
        ``bend``."""
        real = dynamics._pulse_chain
        monkeypatch.setattr(dynamics, "_pulse_chain",
                            lambda *a: (real(*a)[0], bend(real(*a)[1])))

    def test_norm_drift_raises_naming_the_cell(self, monkeypatch):
        self.bent_chain(monkeypatch, lambda products: products * (1.0 + 1e-6))
        with pytest.raises(IntegrationError, match=r"epsilon=0\.1, ion 3: norm drift"):
            infidelity_sweep(6, [3], [0.1], steps=1)

    @pytest.mark.parametrize("bend, message", [
        (lambda products: products * (1.0 + 1e-6), "norm drift"),
        (lambda products: products * np.nan, "non-finite"),
    ])
    def test_cli_exits_3_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                            bend, message):
        self.bent_chain(monkeypatch, bend)
        assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numerical failure: sweep cell")
        assert message in err[0]
        assert not (tmp_path / "fig4_infidelity.csv").exists()


def dense_advantage(n_ions, epsilon, marked_index, max_steps=1000):
    """adapted_advantage in raw numpy: full-register reflections on the
    profile-shaped register, the best marked population over the steps."""
    x = (2.0 * np.arange(1, n_ions + 1) - n_ions - 1) / (n_ions - 1)
    start = (1.0 - epsilon) ** (x**2)
    start /= np.linalg.norm(start)
    eye = np.eye(n_ions)
    oracle = eye - 2.0 * np.outer(eye[marked_index - 1], eye[marked_index - 1])
    best = []
    for chi in (start, np.full(n_ions, 1.0 / math.sqrt(n_ions))):
        step = (eye - 2.0 * np.outer(chi, chi)) @ oracle
        state, top = start, 0.0
        for _ in range(max_steps):
            state = step @ state
            top = max(top, state[marked_index - 1] ** 2)
        best.append(top)
    return best[0], best[1]


class TestAdaptedAdvantage:
    @pytest.mark.parametrize("eps, m", [(0.05, 1), (0.2, 5), (0.3, 10)])
    def test_matches_dense_reference(self, eps, m):
        np.testing.assert_allclose(adapted_advantage(20, eps, m),
                                   dense_advantage(20, eps, m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_adapted_beats_uniform_at_optimal_steps(self, eps, m):
        best_adapted, best_uniform = adapted_advantage(20, eps, m)
        assert best_adapted >= best_uniform - 1e-9

    def test_robustness_small_deficit(self):
        # a 5 percent edge deficit moves the 3-step infidelity by well under
        # the coarse robustness budget
        rows = infidelity_sweep(20, [5], [0.0, 0.05], steps=3, mode="ideal")
        assert rows[1].infidelity - rows[0].infidelity < 0.05
