import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.grover import deterministic_params, iteration_count, run_search
from iongrover.householder import (
    Operator,
    Reflection,
    apply,
    generalized_hr,
    standard_hr,
)
from iongrover.imperfections import adapted_advantage
from iongrover.model import (
    CouplingVector,
    DimensionMismatchError,
    RegisterState,
    SearchConfig,
    l2_norm,
    local_chi,
    uniform_chi,
    uniform_register,
)


def random_chi(seed: int, n: int, real: bool = False) -> CouplingVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + (0 if real else 1j * rng.normal(size=n))
    return CouplingVector(v / np.linalg.norm(v))


def random_register(seed: int, n: int) -> RegisterState:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return RegisterState(amp / np.linalg.norm(amp))


def brute_reflection(chi: np.ndarray, phi: float = math.pi) -> np.ndarray:
    """Independent construction straight from the outer-product definition."""
    n = len(chi)
    mat = np.eye(n + 1, dtype=complex)
    mat[1:, 1:] += (np.exp(1j * phi) - 1.0) * np.outer(chi, chi.conj())
    return mat


class TestStandardHR:
    def test_basis_direction_is_diagonal_flip(self):
        op = standard_hr(local_chi(3, 1))
        np.testing.assert_allclose(op.matrix, np.diag([1, -1, 1, 1]), atol=1e-15)

    def test_w_direction_elements(self):
        # diagonal 1 - 2/N, off-diagonal -2/N on the manifold
        op = standard_hr(uniform_chi(4))
        block = op.matrix[1:, 1:]
        for i in range(4):
            for j in range(4):
                expected = 0.5 if i == j else -0.5
                assert block[i, j] == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        op = standard_hr(random_chi(seed, 5))
        product = op.matrix @ op.matrix
        assert np.linalg.norm(product - np.eye(6)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_outer_product_definition(self, seed):
        chi = random_chi(seed, 4)
        op = standard_hr(chi)
        np.testing.assert_allclose(op.matrix, brute_reflection(chi.components),
                                   atol=1e-14)

    def test_manifold_spectrum(self):
        # one -1 eigenvalue, the rest +1, determinant -1 on the manifold block
        block = standard_hr(random_chi(11, 7)).matrix[1:, 1:]
        eigs = np.linalg.eigvals(block)
        assert np.sum(np.abs(eigs + 1) < 1e-9) == 1
        assert np.sum(np.abs(eigs - 1) < 1e-9) == 6

    def test_ancilla_row_and_column_untouched(self):
        op = generalized_hr(random_chi(3, 6), 1.234)
        np.testing.assert_allclose(op.matrix[0], np.eye(7)[0], atol=1e-15)
        np.testing.assert_allclose(op.matrix[:, 0], np.eye(7)[:, 0], atol=1e-15)


class TestGeneralizedHR:
    def test_zero_phase_is_identity(self):
        op = generalized_hr(random_chi(5, 4), 0.0)
        np.testing.assert_allclose(op.matrix, np.eye(5), atol=1e-15)

    def test_pi_reduces_to_standard(self):
        chi = random_chi(9, 5)
        np.testing.assert_allclose(
            generalized_hr(chi, math.pi).matrix, standard_hr(chi).matrix, atol=1e-15
        )

    def test_basis_direction_puts_phase_on_diagonal(self):
        phi = 0.661 * math.pi
        op = generalized_hr(local_chi(5, 2), phi)
        expected = np.ones(6, dtype=complex)
        expected[2] = np.exp(1j * phi)
        np.testing.assert_allclose(op.matrix, np.diag(expected), atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           phi=st.floats(-math.pi, math.pi, allow_nan=False))
    def test_opposite_phases_invert(self, seed, phi):
        chi = random_chi(seed, 4)
        product = generalized_hr(chi, phi).matrix @ generalized_hr(chi, -phi).matrix
        assert np.linalg.norm(product - np.eye(5)) < 1e-12


class TestApply:
    def test_identity(self):
        state = uniform_register(6)
        out = apply(generalized_hr(random_chi(6, 6), 0.0), state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_oracle_flips_marked_amplitude(self):
        state = uniform_register(5)
        out = apply(standard_hr(local_chi(5, 3)), state)
        expected = state.amplitudes.copy()
        expected[3] *= -1
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_single_iteration_exact_for_n4(self):
        # one oracle + one global reflection moves W exactly onto the mark
        state = uniform_register(4)
        state = apply(standard_hr(local_chi(4, 2)), state)
        state = apply(standard_hr(uniform_chi(4)), state)
        assert abs(state.amplitudes[2]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(standard_hr(uniform_chi(4)), uniform_register(5))


class TestCompose:
    """Products of reflections, composed by applying them in turn."""

    def test_single(self):
        op = standard_hr(random_chi(2, 4))
        state = random_register(1, 4)
        np.testing.assert_allclose(apply(op, state).amplitudes,
                                   op.matrix @ state.amplitudes, atol=1e-15)

    def test_involution_pair(self):
        op = standard_hr(random_chi(3, 4))
        state = random_register(2, 4)
        np.testing.assert_allclose(apply(op, apply(op, state)).amplitudes,
                                   state.amplitudes, atol=1e-14)

    def test_application_order(self):
        # the reflection applied first acts first on the state
        oracle = standard_hr(local_chi(4, 2))
        diffusion = standard_hr(uniform_chi(4))
        state = random_register(3, 4)
        out = apply(diffusion, apply(oracle, state)).amplitudes
        np.testing.assert_allclose(
            out, diffusion.matrix @ oracle.matrix @ state.amplitudes, atol=1e-15)
        assert not np.allclose(
            out, oracle.matrix @ diffusion.matrix @ state.amplitudes, atol=1e-6)

    def test_mismatched_dimensions(self):
        # a sequence mixing chain sizes fails at the first mismatched step
        state = apply(standard_hr(uniform_chi(3)), uniform_register(3))
        with pytest.raises(DimensionMismatchError):
            apply(standard_hr(uniform_chi(4)), state)


class TestGroverEquivalence:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_marked_probability_closed_form(self, n):
        theta = math.asin(1 / math.sqrt(n))
        for m in range(1, n + 1):
            oracle, diffusion = standard_hr(local_chi(n, m)), standard_hr(uniform_chi(n))
            state = uniform_register(n)
            for k in range(1, 5):
                state = apply(diffusion, apply(oracle, state))
                expected = math.sin((2 * k + 1) * theta) ** 2
                assert abs(state.amplitudes[m]) ** 2 == pytest.approx(
                    expected, abs=1e-12
                )

    def test_textbook_diffusion_differs_by_global_phase_only(self):
        # reflection convention vs textbook inversion-about-the-mean: on the
        # manifold the composites differ by an overall sign, so per-step
        # probabilities agree
        n, m = 8, 3
        ours = (standard_hr(uniform_chi(n)).matrix
                @ standard_hr(local_chi(n, m)).matrix)[1:, 1:]
        w = np.ones(n) / math.sqrt(n)
        diffusion = 2 * np.outer(w, w) - np.eye(n)
        oracle = np.eye(n)
        oracle[m - 1, m - 1] = -1
        textbook = diffusion @ oracle
        np.testing.assert_allclose(ours, -textbook, atol=1e-14)
        start = w.copy()
        a, b = start.copy(), start.copy()
        for _ in range(4):
            a = ours @ a
            b = textbook @ b
            assert abs(a[m - 1]) ** 2 == pytest.approx(abs(b[m - 1]) ** 2, abs=1e-13)

    def test_three_iterations_n15(self):
        oracle = standard_hr(local_chi(15, 4))
        diffusion = standard_hr(uniform_chi(15))
        final = uniform_register(15)
        for _ in range(3):
            final = apply(diffusion, apply(oracle, final))
        # closed form sin^2(7 asin(1/sqrt(15)))
        expected = math.sin(7 * math.asin(1 / math.sqrt(15))) ** 2
        assert expected == pytest.approx(0.9352421018747142, abs=1e-15)
        assert abs(final.amplitudes[4]) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_unitarity_gate(self):
        with pytest.raises(ValueError):
            Operator(np.diag([1.0, 1.0, 1.0 + 1e-6]))


class TestRankOneReflection:
    @pytest.mark.parametrize("n", [2, 15, 64])
    @pytest.mark.parametrize("phi", [0.0, 0.661 * math.pi, math.pi])
    def test_apply_matches_dense_matvec(self, n, phi):
        for seed in range(3):
            op = generalized_hr(random_chi(100 + seed, n), phi)
            state = random_register(200 + seed, n)
            out = apply(op, state).amplitudes
            assert np.abs(out - op.matrix @ state.amplitudes).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.661 * math.pi, math.pi, -2.0])
    def test_is_unitary(self, n, phi):
        # a unit chi and a finite phase are all it takes: nothing is checked
        # when a reflection is built
        for seed in range(4):
            op = generalized_hr(random_chi(10 * n + seed, n, real=seed % 2 == 1), phi)
            assert np.linalg.norm(op.matrix.conj().T @ op.matrix - np.eye(n + 1)) <= 1e-14

    @pytest.mark.parametrize("exponent", [-100, 0, 100])
    def test_is_unitary_for_any_unit_chi_and_finite_phase(self, exponent):
        rng = np.random.default_rng(exponent + 500)
        for n in (2, 17, 64):
            v = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** (
                exponent * rng.uniform(-1, 1, size=n))
            chi = CouplingVector(v / l2_norm(v))
            for phi in (1e-12, 2.5, -7.0, 1e300):
                m = generalized_hr(chi, phi).matrix
                assert np.linalg.norm(m.conj().T @ m - np.eye(n + 1)) <= 1e-14

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ValueError):
            generalized_hr(uniform_chi(4), phi)

    def test_nan_operator_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.diag([1, 1, math.nan]))

    def test_matrix_is_read_only(self):
        op = standard_hr(random_chi(4, 5))
        assert op.dim == 6
        with pytest.raises(ValueError):
            op.matrix[1, 1] = 0.0
        block = op.matrix[1:, 1:]
        assert block.shape == (5, 5)
        with pytest.raises(ValueError):
            block[0, 0] = 0.0


class TestNoDenseSearchPath:
    """Ideal searches never build an (N+1)^2 matrix: every dense builder raises."""

    @pytest.fixture(autouse=True)
    def forbid_dense(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense (N+1)^2 operator built on the search path")

        monkeypatch.setattr(Reflection, "matrix", property(refuse))
        monkeypatch.setattr(Operator, "__post_init__", refuse)

    def test_guard_is_armed(self):
        with pytest.raises(AssertionError):
            standard_hr(uniform_chi(3)).matrix
        with pytest.raises(AssertionError):
            Operator(np.eye(4))

    @pytest.mark.parametrize("variant", ["probabilistic", "deterministic"])
    def test_ideal_search_n2048(self, variant):
        n, marked = 2048, 7
        result = run_search(SearchConfig(n, marked, mode="ideal", variant=variant))
        if variant == "probabilistic":
            beta = math.asin(1 / math.sqrt(n))
            expected = math.sin((2 * iteration_count(n) + 1) * beta) ** 2
            assert result.success_probability == pytest.approx(expected, abs=1e-12)
        else:
            assert result.iterations_executed == deterministic_params(n)[0]
            assert 1.0 - result.success_probability <= 1e-9

    def test_adapted_advantage(self):
        best_adapted, best_uniform = adapted_advantage(20, 0.3, 5)
        assert best_adapted >= best_uniform - 1e-9
