import math
from types import SimpleNamespace

import numpy as np
import pytest

from iongrover import dynamics, grover
from iongrover.dynamics import (
    HamiltonianSpec,
    IntegrationError,
    IntegratorConfig,
    evolve_schedule,
    hamiltonian_from_pulse,
    hr_distance,
    propagator,
    _integrate_pulse,
)
from iongrover.grover import run_search
from iongrover.householder import generalized_hr, standard_hr
from iongrover.model import (
    CouplingVector,
    DimensionMismatchError,
    PulseSettings,
    PulseShape,
    PulseSpec,
    SearchConfig,
    basis_register,
    fidelity,
    local_chi,
    uniform_chi,
    uniform_register,
    RegisterState,
)
from iongrover.pulses import build_global_pulse, phase_from_detuning

SECH = PulseShape("sech", 1.0)


def random_chi(seed: int, n: int) -> CouplingVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return CouplingVector(v / np.linalg.norm(v))


class TestHamiltonianSpecAlias:
    def test_couplings_become_peak_and_direction(self):
        g = np.array([0.4, 0.3 + 0.2j, -1.1])
        spec = HamiltonianSpec(g, SECH, 0.7)
        assert isinstance(spec, PulseSpec)
        assert spec.rms_peak == pytest.approx(np.linalg.norm(g), rel=1e-15)
        np.testing.assert_allclose(spec.chi.components, g / np.linalg.norm(g),
                                   atol=1e-15)
        np.testing.assert_allclose(spec.couplings, g, atol=1e-15)
        assert (spec.shape, spec.detuning, spec.center) == (SECH, 0.7, 0.0)

    def test_zero_couplings_give_zero_peak(self):
        spec = HamiltonianSpec(np.zeros(3), SECH)
        assert spec.rms_peak == 0.0 and spec.n_ions == 3
        np.testing.assert_array_equal(spec.couplings, np.zeros(3))

    @pytest.mark.parametrize("g", [[1.0], [0.0], [1.0, math.nan]])
    def test_bad_couplings_rejected(self, g):
        with pytest.raises(ValueError):
            HamiltonianSpec(np.array(g), SECH)

    def test_from_pulse_is_the_pulse(self):
        pulse = PulseSpec(SECH, uniform_chi(4), 2.0, detuning=0.3, center=5.0)
        assert hamiltonian_from_pulse(pulse) is pulse


class TestHamiltonianMatrix:
    """H = [[delta, g^dag/2], [g/2, 0]] (ancilla first), seen through the
    propagator it generates over the full pulse window."""

    def test_zero_envelope_zero_detuning(self):
        spec = HamiltonianSpec(np.array([0.0, 0.0]), SECH, 0.0)
        np.testing.assert_array_equal(propagator(spec).matrix, np.eye(3))

    def test_two_ion_structure(self):
        # the ancilla couples to the bright ion state g/|g| only; the dark
        # state orthogonal to it is left untouched
        g = np.array([0.4, 0.3 + 0.2j])
        u = propagator(HamiltonianSpec(g, SECH, 0.0)).matrix
        dark = np.array([0.0, -np.conj(g[1]), np.conj(g[0])])
        np.testing.assert_allclose(u @ dark, dark, atol=1e-12)
        assert abs(u[1, 0] * g[1] - u[2, 0] * g[0]) < 1e-12
        assert abs(u[1, 0]) > 0.1

    def test_detuning_sits_on_ancilla_diagonal(self):
        # without coupling the detuning only phases the ancilla, at rate delta
        # over the 2 * window * T long integration window
        spec = HamiltonianSpec(np.array([0.0, 0.0]), SECH, 0.7)
        u = propagator(spec).matrix
        duration = 2.0 * 15.0 * SECH.width
        assert u[0, 0] == pytest.approx(np.exp(-0.7j * duration), abs=1e-9)
        np.testing.assert_array_equal(u[1:, 1:], np.eye(2))
        np.testing.assert_array_equal(u[0, 1:], 0.0)
        np.testing.assert_array_equal(u[1:, 0], 0.0)

    def test_hermitian_for_random_specs(self):
        # a Hermitian generator integrates to a unitary propagator; the
        # fine grid keeps the RK4 defect of strong random pulses far below 1e-9
        rng = np.random.default_rng(3)
        fine = IntegratorConfig(steps_per_pulse=16000)
        for _ in range(10):
            g = rng.normal(size=5) + 1j * rng.normal(size=5)
            u = propagator(HamiltonianSpec(g, SECH, rng.normal()), fine).matrix
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-9

    def test_envelope_scales_couplings(self):
        # area = g * integral(sech) = g * pi: g = 1 is a pi pulse (full
        # transfer), g = 2 a 2*pi pulse (the standard reflection on the ions)
        half = propagator(HamiltonianSpec(np.array([1.0, 0.0]), SECH, 0.0)).matrix
        assert abs(half[1, 0]) == pytest.approx(1.0, abs=1e-5)
        full = propagator(HamiltonianSpec(np.array([2.0, 0.0]), SECH, 0.0)).matrix
        np.testing.assert_allclose(full[1:, 1:],
                                   standard_hr(local_chi(2, 1)).matrix[1:, 1:],
                                   atol=1e-5)


class TestEvolve:
    def test_zero_coupling_leaves_state(self):
        state = uniform_register(4)
        spec = HamiltonianSpec(np.zeros(4), SECH, 0.0)
        out = evolve_schedule(state, [spec])[0]
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_two_pi_pulse_flips_driven_state(self):
        # a resonant rms-2pi pulse on chi = e1 sends |psi_1> to -|psi_1>
        state = basis_register(2, 1)
        spec = HamiltonianSpec(2.0 * local_chi(2, 1).components, SECH, 0.0)
        out = evolve_schedule(state, [spec])[0]
        target = RegisterState(-state.amplitudes)
        assert fidelity(out, target) > 1 - 1e-6
        assert out.amplitudes[1].real == pytest.approx(-1.0, abs=1e-6)

    def test_rms_pi_pulse_builds_w_state(self):
        for n in (4, 15):
            state = basis_register(n, 0)
            spec = HamiltonianSpec(1.0 * uniform_chi(n).components, SECH, 0.0)
            out = evolve_schedule(state, [spec])[0]
            np.testing.assert_allclose(out.populations[1:], 1.0 / n, atol=1e-6)
            assert out.populations[0] < 1e-6

    def test_dimension_mismatch(self):
        spec = HamiltonianSpec(np.zeros(3), SECH, 0.0)
        with pytest.raises(DimensionMismatchError):
            evolve_schedule(uniform_register(4), [spec])

    def test_norm_drift_raises_not_renormalizes(self):
        # unresolvably coarse stepping on a strong pulse must fail loudly
        spec = HamiltonianSpec(40.0 * uniform_chi(2).components, SECH, 0.0)
        with pytest.raises(IntegrationError):
            evolve_schedule(basis_register(2, 0), [spec],
                            IntegratorConfig(steps_per_pulse=64))


class TestPropagator:
    def test_zero_pulse_identity(self):
        spec = HamiltonianSpec(np.zeros(3), SECH, 0.0)
        np.testing.assert_allclose(propagator(spec).matrix, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 15])
    def test_resonant_two_pi_is_standard_reflection(self, n):
        chi = random_chi(n * 7 + 1, n)
        spec = HamiltonianSpec(2.0 * chi.components, SECH, 0.0)
        assert hr_distance(propagator(spec), standard_hr(chi)) < 1e-5

    def test_detuned_is_generalized_reflection(self):
        chi = random_chi(5, 4)
        delta_t = 0.589
        spec = HamiltonianSpec(2.0 * chi.components, SECH, delta_t)
        target = generalized_hr(chi, phase_from_detuning(delta_t, 1))
        assert hr_distance(propagator(spec), target) < 1e-4

    def test_columns_are_basis_evolutions(self):
        chi = random_chi(9, 3)
        spec = HamiltonianSpec(2.0 * chi.components, SECH, 0.3)
        u = propagator(spec)
        for k in range(4):
            col = evolve_schedule(basis_register(3, k), [spec])[0]
            np.testing.assert_allclose(u.matrix[:, k], col.amplitudes, atol=1e-9)

    def test_memo_is_keyed_on_the_pulse(self):
        # one pulse, one chain: the key is the spec's rms peak, not the norm
        # of its couplings, which rounds differently for each chi
        dynamics._pulse_chain.cache_clear()
        for n in (2, 5, 15):
            for seed in range(3):
                propagator(build_global_pulse(random_chi(100 * n + seed, n)))
        assert dynamics._pulse_chain.cache_info().misses == 1

    def test_unitarity_defect_budget(self):
        spec = HamiltonianSpec(2.0 * uniform_chi(15).components, SECH, 0.589)
        u = propagator(spec)
        defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(16))
        assert defect < 1e-9


class TestIntegratorContracts:
    def test_norm_drift_within_budget(self):
        spec = HamiltonianSpec(2.0 * uniform_chi(5).components, SECH, 0.589)
        raw = _integrate_pulse(basis_register(5, 0).amplitudes.copy(),
                               spec.couplings, spec.detuning, SECH, 4000, 15.0)
        assert abs(np.linalg.norm(raw) - 1.0) < 1e-10

    def test_fourth_order_convergence(self):
        spec = HamiltonianSpec(2.0 * CouplingVector([0.6, 0.8]).components,
                               SECH, 0.589)
        ref = propagator(spec, IntegratorConfig(steps_per_pulse=32000))
        errs = [
            np.linalg.norm(
                propagator(spec, IntegratorConfig(steps_per_pulse=s),
                           unitarity_tol=1e-6).matrix - ref.matrix
            )
            for s in (500, 1000)
        ]
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_total_population_conserved(self):
        spec = HamiltonianSpec(2.0 * uniform_chi(6).components, SECH, 0.4)
        out = evolve_schedule(uniform_register(6), [spec])[0]
        assert out.populations.sum() == pytest.approx(1.0, abs=1e-12)

    def test_area_law_same_shape_family(self):
        # equal rms area and direction but different widths: same propagator
        chi = uniform_chi(3)
        narrow = HamiltonianSpec(2.0 * chi.components, PulseShape("sech", 1.0), 0.0)
        wide = HamiltonianSpec(1.0 * chi.components, PulseShape("sech", 2.0), 0.0)
        d = np.linalg.norm(propagator(narrow).matrix - propagator(wide).matrix)
        assert d < 1e-5


class TestTouchingWindows:
    """Windows spaced exactly twice the window apart touch: each pulse is a
    lone pulse at any width, though the rounded centers put some neighbours'
    spans a few ulps into each other."""

    @staticmethod
    def first_window(monkeypatch, pulses, cfg):
        def no_cluster(*args):
            raise AssertionError("touching windows integrated as one cluster")

        monkeypatch.setattr(dynamics, "_chain", no_cluster)
        monkeypatch.setattr(dynamics, "_pulse_chain", lambda *args: (None, None))
        column = {id(pulses[0].chi): np.array([0.0, 1.0])}
        return next(dynamics._windows(pulses, column, cfg, cfg.trajectory_stride))

    @staticmethod
    def timeline(count, width, spacing, first=0):
        # centered as IterationPlan.timeline centers them; what _windows reads
        # of a PulseSpec, without its checks, which dominated the test's time
        shape, chi = PulseShape("sech", width), uniform_chi(2)
        return [SimpleNamespace(shape=shape, chi=chi, rms_peak=1.0, detuning=0.0,
                                center=(0.5 + k) * (spacing * width))
                for k in range(first, first + count)]

    # pulses 0..count-1 of a schedule, and 27 pulses of a schedule of 10^7
    @pytest.mark.parametrize("count, first", [(27, 0), (403, 0), (1609, 0),
                                              (27, 10**7)])
    def test_touching_windows_are_lone_pulses(self, monkeypatch, count, first):
        cfg = IntegratorConfig()
        widths = 10.0 ** np.random.default_rng(count + first).uniform(-3, 4, 200)
        for width in widths.tolist():
            pulses = self.timeline(count, width, 2.0 * cfg.window, first)
            lo, h, *_ = self.first_window(monkeypatch, pulses, cfg)
            assert lo == pulses[0].center - cfg.window * width
            assert h == 2.0 * cfg.window * width / cfg.steps_per_pulse

    def test_overlapping_windows_are_one_cluster(self, monkeypatch):
        cfg = IntegratorConfig()
        pulses = self.timeline(27, 8.168, 2.0 * cfg.window * (1.0 - 1e-6))
        with pytest.raises(AssertionError, match="one cluster"):
            self.first_window(monkeypatch, pulses, cfg)

    def test_a_grid_beyond_the_float_range_is_an_integration_error(self):
        # 4000 steps times a span of 2e307 overflow: the message names the grid
        cfg = IntegratorConfig(window=1e307)
        pulses = [PulseSpec(SECH, uniform_chi(2), 1.0, center=(0.5 + k) * 30.0)
                  for k in range(3)]
        with pytest.raises(IntegrationError, match="global grid"):
            evolve_schedule(basis_register(2, 0), pulses, cfg)


class TestSchedule:
    def test_sequential_equals_manual(self):
        chi = uniform_chi(3)
        pulses = [
            PulseSpec(SECH, local_chi(3, 2), 2.0, center=15.0),
            PulseSpec(SECH, chi, 2.0, center=45.0),
        ]
        state = uniform_register(3)
        final, times, pops = evolve_schedule(state, pulses)
        manual = state
        for p in pulses:
            manual = evolve_schedule(manual, [p])[0]  # one pulse: its center only places it
        assert fidelity(final, manual) > 1 - 1e-12
        assert times[0] == 0.0 and times[-1] == pytest.approx(60.0)
        assert pops.slots(slice(None)).shape[1] == 4

    def test_overlapping_windows_use_summed_hamiltonian(self):
        # two simultaneous half-strength pulses on the same chi act like one
        chi = uniform_chi(2)
        together = [
            PulseSpec(SECH, chi, 1.0, center=0.0),
            PulseSpec(SECH, chi, 1.0, center=0.0),
        ]
        single = PulseSpec(SECH, chi, 2.0, center=0.0)
        start = basis_register(2, 0)
        merged, _, _ = evolve_schedule(start, together)
        alone, _, _ = evolve_schedule(start, [single])
        assert fidelity(merged, alone) > 1 - 1e-9

    def test_record_stride(self):
        # weak pulse so the deliberately coarse grid stays inside the norm budget
        pulses = [PulseSpec(SECH, uniform_chi(2), 0.2, center=15.0)]
        cfg = IntegratorConfig(steps_per_pulse=400, trajectory_stride=100)
        _, times, pops = evolve_schedule(basis_register(2, 0), pulses, cfg)
        assert len(times) == 5  # initial point plus 4 strided samples
        assert len(pops) == len(times)

    def test_an_empty_schedule_records_its_start(self):
        state = uniform_register(3)
        final, times, pops = evolve_schedule(state, [])
        np.testing.assert_allclose(final.amplitudes, state.amplitudes, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(times, [0.0])
        assert pops.coords.dtype == np.complex128 and len(pops) == 1
        np.testing.assert_allclose(pops.basis @ pops.coords[0], state.amplitudes,
                                   rtol=0, atol=1e-15)

    @staticmethod
    def window_by_window(state, pulses, cfg):
        """The record as each window's rows, stepped from the last row of the
        window before and joined at the end."""
        pulses = sorted(pulses, key=lambda p: p.center)
        distinct = list({id(p.chi): p.chi for p in pulses}.values())
        q, coords = dynamics._basis([state.amplitudes[1:],
                                     *(c.components for c in distinct)])
        z = np.append(state.amplitudes[0], coords[0, 1:])
        column = dict(zip(map(id, distinct), coords[1:]))
        times = [[min((p.center - cfg.window * p.shape.width for p in pulses),
                      default=0.0)]]
        rows = [z[None]]
        for t0, h, marks, e, products in dynamics._windows(pulses, column, cfg,
                                                           cfg.trajectory_stride):
            w = e.conj().T @ z
            rows.append(z + (np.einsum("ijm,j->mi", products, w) - w) @ e.T)
            times.append(t0 + marks * h)
            z = rows[-1][-1]
        return np.concatenate(times), np.concatenate(rows)

    @pytest.mark.parametrize("schedule", ["search", "search-stride-7", "overlapping",
                                          "empty"])
    def test_record_is_the_windows_joined(self, schedule):
        # evolve_schedule counts the rows first and fills one record
        cfg = IntegratorConfig(trajectory_stride=7 if schedule.endswith("7") else 8)
        if schedule.startswith("search"):
            plan = grover.build_plan(SearchConfig(15, 8, mode="physical",
                                                  variant="deterministic"))
            state, pulses = basis_register(15, 0), plan.timeline()
        else:
            state = uniform_register(3)
            pulses = ([PulseSpec(SECH, local_chi(3, 2), 2.0, center=15.0),
                       PulseSpec(SECH, uniform_chi(3), 2.0, center=25.0)]
                      if schedule == "overlapping" else [])
        _, times, trajectory = evolve_schedule(state, pulses, cfg)
        ref_times, ref_rows = self.window_by_window(state, pulses, cfg)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(trajectory.coords, ref_rows)
        assert times.dtype == np.float64 and trajectory.coords.dtype == np.complex128
        # the start, then 4000 / stride marks in each of N = 15's 7 pulses
        rows = {"search": 1 + 7 * 500, "search-stride-7": 1 + 7 * 572, "empty": 1}
        if schedule in rows:
            assert len(times) == rows[schedule]
        else:  # the overlapping pair, one window on a global grid
            assert len(times) > 2

    def test_crowded_schedules_sample_only_live_pulses(self, envelope_calls):
        # spacing 29.9 overlaps all 13 windows of N = 64 into one global grid
        # of 26 chunks; each pulse is sampled only on the chunks its window
        # meets (114 envelope calls, against 1,014 for every pulse everywhere)
        def run(spacing):
            cfg = SearchConfig(64, 3, mode="physical",
                               pulse=PulseSettings(spacing=spacing))
            return run_search(cfg).success_probability

        crowded = run(29.9)
        assert envelope_calls[0] <= 150
        assert abs(crowded - run(30.0)) <= 1e-9


class TestSubspace:
    """One Gram-Schmidt for a stack of cells: each cell's rows are orthonormal
    and its vectors are their coordinates in them."""

    def test_cells_rebuild_their_vectors(self):
        # cell 0: independent; cell 1: its third vector repeats its first, so
        # only there row 2 stays zero; no cell keeps a zero first vector
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(2, 4, 6)) + 1j * rng.normal(size=(2, 4, 6))
        vectors[:, 0] = 0.0
        vectors[1, 3] = vectors[1, 1]
        ions, coords = dynamics.subspace(vectors)
        assert ions.shape == (2, 4, 6) and coords.shape == (2, 4, 5)
        assert not ions[:, 3].any() and not coords[:, :, 4].any()  # not formed
        assert not ions[1, 2].any() and not coords[1, :, 3].any()  # dropped
        rebuilt = np.einsum("cki,cin->ckn", coords[:, :, 1:], ions)
        assert np.abs(rebuilt - vectors).max() <= 1e-14
        for c, formed in ((0, 3), (1, 2)):
            rows = ions[c, :formed]
            np.testing.assert_allclose(rows.conj() @ rows.T, np.eye(formed),
                                       rtol=0, atol=1e-15)


COUNTS = [0, 1, 2, 3, 5, 8, 17, 64]


class TestSearchStepper:
    """``_search_rows`` and ``_search_last`` step any start row under any r x r
    operator, unitary or not, by doubling."""

    @staticmethod
    def complex_normal(rng, *shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def operator(self, rng, cells, r):
        """Random non-unitary U's, scaled to spectral radius 1 so U^64 stays
        of order one."""
        u = self.complex_normal(rng, cells, r, r)
        return u / abs(np.linalg.eigvals(u)).max(axis=1)[:, None, None]

    @staticmethod
    def repeated(start, u, count):
        """Rows start (U^k)^T for k = 0..count, one multiplication at a time."""
        rows = [start[:, 0]]
        for _ in range(count):
            rows.append(np.einsum("cij,cj->ci", u, rows[-1]))
        return np.stack(rows, axis=1)

    @staticmethod
    def relative(a, b):
        """The largest row-wise |a - b| / |b|."""
        return (np.linalg.norm(a - b, axis=-1) / np.linalg.norm(b, axis=-1)).max()

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("count", COUNTS)
    def test_rows_are_repeated_multiplication(self, r, count):
        rng = np.random.default_rng(100 * r + count)
        start, u = self.complex_normal(rng, 5, 1, r), self.operator(rng, 5, r)
        expected = self.repeated(start, u, count)
        rows = dynamics._search_rows(start, u, count)
        assert rows.shape == (5, count + 1, r)
        assert self.relative(rows, expected) <= 1e-12
        last = dynamics._search_last(start, u, count)
        assert last.shape == (5, 1, r)
        assert self.relative(last[:, 0], expected[:, -1]) <= 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("count", COUNTS)
    def test_block_triangular_u_steps_a_derivative(self, r, count):
        # U = [[A, B], [0, A]] from [0, x]: the first r coordinates of row k are
        # d/de x ((A + e B)^k)^T at e = 0 (Van Loan, IEEE TAC 23, 395 (1978))
        rng = np.random.default_rng(200 * r + count)
        a, b = self.operator(rng, 5, r), self.complex_normal(rng, 5, r, r)
        x = self.complex_normal(rng, 5, 1, r)
        u = np.block([[a, b], [np.zeros_like(a), a]])
        start = np.concatenate([np.zeros_like(x), x], axis=2)
        rows = dynamics._search_rows(start, u, count)[:, :, :r]
        eps = 1e-6
        central = (self.repeated(x, a + eps * b, count)
                   - self.repeated(x, a - eps * b, count)) / (2.0 * eps)
        assert not rows[:, 0].any()  # x itself does not depend on e
        if count:
            assert self.relative(rows[:, 1:], central[:, 1:]) <= 1e-6
            last = dynamics._search_last(start, u, count)[:, 0, :r]
            assert self.relative(last, rows[:, -1]) <= 1e-12
