import math

import numpy as np
import pytest

from iongrover.imperfections import (
    adapted_advantage,
    beam_factors,
    infidelity_sweep,
    register_from_factors,
)
from iongrover.model import ImperfectionSettings, SearchConfig
from iongrover.grover import build_plan, run_search


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
    def test_calibrated_has_no_residual(self):
        reg = register_from_factors(beam_factors(10, 0.2))
        assert abs(reg.amplitudes[0]) < 1e-15
        assert np.linalg.norm(reg.amplitudes[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_uncalibrated_residual(self):
        factors = beam_factors(10, 0.2)
        reg = register_from_factors(factors, calibrated=False)
        half_area = math.pi * np.linalg.norm(factors) / (2 * math.sqrt(10))
        assert abs(reg.amplitudes[0]) == pytest.approx(abs(math.cos(half_area)),
                                                  rel=1e-12)

    def test_full_state_round_trip(self):
        factors = beam_factors(8, 0.1)
        state = register_from_factors(factors)
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
