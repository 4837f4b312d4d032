import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.model import (
    CouplingVector,
    DimensionMismatchError,
    NormalizationError,
    RegisterState,
    SearchConfig,
    SearchResult,
    Trajectory,
    basis_register,
    check_number,
    fidelity,
    marked_probability,
    uniform_register,
)


def random_state(seed: int, n: int) -> RegisterState:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return RegisterState(amp / np.linalg.norm(amp))


class TestUniformRegister:
    def test_n4_amplitudes(self):
        state = uniform_register(4)
        np.testing.assert_allclose(state.amplitudes, [0, 0.5, 0.5, 0.5, 0.5])

    def test_n15_amplitude_value(self):
        state = uniform_register(15)
        np.testing.assert_allclose(state.amplitudes[1:], 1 / math.sqrt(15))
        assert abs(state.amplitudes[1] - 0.2581988897471611) < 1e-15
        assert state.amplitudes[0] == 0

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_small_rejected(self, n):
        with pytest.raises(ValueError):
            uniform_register(n)


class TestNormalizationPolicy:
    def test_small_error_repaired(self):
        amp = np.zeros(5, dtype=complex)
        amp[2] = 1.0 + 4e-10
        state = RegisterState(amp)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15

    def test_large_error_rejected(self):
        amp = np.zeros(5, dtype=complex)
        amp[2] = 1.0 + 5e-9
        with pytest.raises(NormalizationError):
            RegisterState(amp)

    def test_amplitudes_frozen(self):
        state = uniform_register(3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_coupling_vector_same_policy(self):
        with pytest.raises(NormalizationError):
            CouplingVector([0.7, 0.7])
        chi = CouplingVector([0.6, 0.8])
        np.testing.assert_allclose(chi.components, [0.6, 0.8])

    def test_nan_register_rejected(self):
        with pytest.raises(ValueError):
            RegisterState([math.nan, 1, 0])

    def test_nan_coupling_vector_rejected(self):
        with pytest.raises(ValueError):
            CouplingVector([math.nan, 1])


class TestFidelity:
    def test_identical_basis_states(self):
        a = basis_register(5, 3)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_basis_states(self):
        assert fidelity(basis_register(4, 1), basis_register(4, 2)) == 0.0

    def test_w_against_basis(self):
        assert fidelity(uniform_register(4), basis_register(4, 1)) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(uniform_register(4), uniform_register(5))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), phase=st.floats(0.0, 2 * math.pi))
    def test_global_phase_invariance(self, seed, phase):
        a = random_state(seed, 6)
        b = random_state(seed + 1, 6)
        rotated = RegisterState(np.exp(1j * phase) * b.amplitudes)
        assert fidelity(a, rotated) == pytest.approx(fidelity(a, b), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, seed):
        a = random_state(seed, 5)
        b = random_state(seed + 7, 5)
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert f == pytest.approx(fidelity(b, a), abs=1e-14)


class TestMarkedProbability:
    def test_w_state_any_ion(self):
        state = uniform_register(15)
        for m in (1, 7, 15):
            assert marked_probability(state, m) == pytest.approx(
                1 / 15, abs=1e-15
            )
        assert marked_probability(state, 3) == pytest.approx(0.06666666666666667)

    def test_basis_state_self_and_other(self):
        state = basis_register(6, 4)
        assert marked_probability(state, 4) == 1.0
        assert marked_probability(state, 5) == 0.0

    @pytest.mark.parametrize("m", [0, 16, -1])
    def test_out_of_range(self, m):
        with pytest.raises(IndexError):
            marked_probability(uniform_register(15), m)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [
        0, -2, 1.5, 10**30, -10**30, 2**1023, np.float32(2.5), np.int64(7), None])
    def test_finite_numbers_pass(self, value):
        check_number(value, "x")

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 10**400, -10**400, 2**1024,
        np.float32("inf"), np.float64("nan")])
    def test_non_finite_numbers_rejected(self, value):
        # an int too large for a float is refused like an infinity, not by
        # numpy's "ufunc 'isfinite' not supported" text
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            check_number(value, "x")

    @pytest.mark.parametrize("value", [True, "1", [1.0], 1j])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            check_number(value, "x")

    def test_counts_up_to_int64(self):
        check_number(2**63 - 1, "n", integer=True)
        for value in (2**63, 10**400):
            with pytest.raises(ValueError, match=r"^n must be at most 2\*\*63 - 1"):
                check_number(value, "n", integer=True)
        with pytest.raises(ValueError, match="^n must be an integer"):
            check_number(1.0, "n", integer=True)


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig(n_ions=15, marked_index=8)
        assert cfg.mode == "ideal"
        assert cfg.integrator.steps_per_pulse == 4000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_ions": 1, "marked_index": 1},
            {"n_ions": 5, "marked_index": 0},
            {"n_ions": 5, "marked_index": 6},
            {"n_ions": 5, "marked_index": 2, "mode": "exactish"},
            {"n_ions": 5, "marked_index": 2, "variant": "det"},
            {"n_ions": 5, "marked_index": 2, "iterations": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestSearchResult:
    def test_success_must_match_final_state(self):
        state = basis_register(4, 2)
        with pytest.raises(ValueError):
            SearchResult(
                final_state=state,
                success_probability=0.5,
                trajectory_times=np.array([0.0]),
                trajectory=Trajectory(np.eye(5, dtype=complex),
                                      np.array([state.amplitudes])),
                iterations_executed=1,
                parameters_used={"marked_index": 2},
            )

    @staticmethod
    def result(trajectory):
        state = uniform_register(4)
        return SearchResult(final_state=state, success_probability=0.25,
                            trajectory_times=np.arange(2.0), trajectory=trajectory,
                            iterations_executed=1, parameters_used={"marked_index": 2})

    def test_trajectory_slots_and_totals(self):
        registers = [basis_register(4, 0).amplitudes, uniform_register(4).amplitudes]
        result = self.result(Trajectory(np.eye(5, dtype=complex), np.array(registers)))
        np.testing.assert_array_equal(result.trajectory.slots(slice(None)),
                                      [[1, 0, 0, 0, 0], [0] + [0.25] * 4])
        np.testing.assert_array_equal(result.trajectory.totals(), [1, 1])

    def test_columns_clip_the_marked_slot_at_one(self):
        # a row whose marked amplitude rounds above 1, as an ideal run's can
        over = math.sqrt(1 + 4 * 2.0**-52)
        trajectory = Trajectory(np.eye(3, dtype=complex), np.array([[0.6, 0.8, 0],
                                                                    [0, over, 0]]))
        assert trajectory.slots(1)[1] > 1.0
        columns = trajectory.columns(1)
        assert columns[1, 0] == 1.0 and columns[0, 0] == 0.8 ** 2
        # the other slots' total comes from the unclipped slot
        assert columns[1, 2] == trajectory.totals()[1] - trajectory.slots(1)[1]

    def test_needs_a_trajectory(self):
        rows = np.array([uniform_register(4).populations] * 2)
        with pytest.raises(TypeError):
            self.result(rows)
