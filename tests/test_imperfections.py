import cmath
import math
import os

import numpy as np
import pytest

from iongrover import dynamics, grover
from iongrover.cli import FIG4_EPSILONS, FIG4_IONS, main
from iongrover.dynamics import IntegrationError, _integrate_pulse
from iongrover.imperfections import adapted_advantage, infidelity_sweep
from iongrover.model import (
    ImperfectionSettings,
    IntegratorConfig,
    PulseShape,
    SearchConfig,
    beam_factors,
)
from iongrover.grover import build_plan, initialize, iteration_count, run_search

SECH = PulseShape("sech", 1.0)


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
    """The sweep as one ``run_search`` per cell, in grid order: an oracle for
    the per-cell subspaces that run every cell at once."""
    return [(eps, m, 1.0 - run_search(SearchConfig(
                n_ions=n_ions, marked_index=m, mode=mode, iterations=steps,
                imperfection=ImperfectionSettings(epsilon=eps, reflection=reflection),
                integrator=IntegratorConfig(trajectory_stride=1000))).success_probability)
            for eps in epsilons for m in marked]


ROLES = ("init_pulse", "oracle", "reflection")


def column_update(y, chis, products):
    """y + Q (P - 1) Q^dagger y for each column of y, Q = [e0, chi]: column c
    takes the 2x2 ``products[c]`` on its (ancilla, chis[:, c]) pair."""
    q = np.zeros((len(y), 2, y.shape[1]), dtype=complex)  # (ancilla, bright)
    q[0, 0] = 1.0
    q[1:, 1] = chis
    z = np.einsum("nic,nc->ic", q.conj(), y)
    return y + np.einsum("nic,ic->nc", q, np.einsum("cij,jc->ic", products, z) - z)


def sweep_by_block(n_ions, marked, epsilons, steps, mode, reflection):
    """The sweep as the columns of one (N+1, cells) register block, each cell
    planned by its own ``build_plan``, in grid order: every pulse slot is one
    ``column_update`` of the block along each column's own chi and by its own
    plan's 2x2 (the chain in physical mode; ideal, the init product, then
    diag(1, e^{i phi})), in the order init, then (oracle, reflection)
    ``steps`` times.  An oracle that is O(N) per pulse per cell."""
    cells = [SearchConfig(n_ions=n_ions, marked_index=m, mode=mode, iterations=steps,
                          imperfection=ImperfectionSettings(epsilon=eps,
                                                            reflection=reflection))
             for eps in epsilons for m in marked]
    plans = [build_plan(c) for c in cells]
    integ = IntegratorConfig()

    def role(k, name):
        pulses = [getattr(plan, name) for plan in plans]
        if mode == "physical":
            products = [dynamics._pulse_chain(p.rms_peak, p.detuning, p.shape,
                                              integ.steps_per_pulse, integ.window,
                                              integ.trajectory_stride)[1][:, :, -1]
                        for p in pulses]
        elif k == 0:
            products = [plan.init_product for plan in plans]
        else:
            products = [np.diag([1.0, cmath.exp(1j * plan.phi)]) for plan in plans]
        return np.stack([p.chi.components for p in pulses], axis=1), np.stack(products)

    roles = [role(k, name) for k, name in enumerate(ROLES)]
    block = np.eye(n_ions + 1, 1, dtype=complex).repeat(len(cells), axis=1)
    for chis, products in [roles[0], *roles[1:] * steps]:
        block = column_update(block, chis, products)
    marked_amplitudes = block[[c.marked_index for c in cells], range(len(cells))]
    p = np.abs(marked_amplitudes / np.linalg.norm(block, axis=0)) ** 2
    return [(c.imperfection.epsilon, c.marked_index, 1.0 - min(1.0, q))
            for c, q in zip(cells, p.tolist())]


class TestSweepByBlock:
    """The block oracle itself: against one pulse integration per column, and
    against one search per cell."""

    @pytest.mark.parametrize("delta", [0.0, 0.589])
    def test_one_chi_per_column_matches_separate_calls(self, delta):
        # a block of registers, each column driven along its own direction by
        # one shared chain; unit chis of 0, +-1/2 and +-i/2 entries make
        # |2 chi| exactly 2, so every separate call keys that same chain
        rng = np.random.default_rng(11)
        chis = np.zeros((4, 9), dtype=complex)
        chis[:, 0] = [1.0, 0.0, 0.0, 0.0]
        chis[:, 1:] = rng.choice([0.5, -0.5, 0.5j, -0.5j], size=(4, 8))
        y = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
        y /= np.linalg.norm(y, axis=0)
        product = dynamics._pulse_chain(2.0, delta, SECH, 600, 15.0, 0)[1][:, :, -1]
        got = column_update(y, chis, np.broadcast_to(product, (9, 2, 2)))
        for c in range(9):
            ref = _integrate_pulse(y[:, c], 2.0 * chis[:, c], delta, SECH, 600, 15.0)
            assert np.abs(got[:, c] - ref).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("reflection", ["adapted", "uniform"])
    def test_matches_one_search_per_cell(self, mode, reflection):
        args = (6, [1, 4], [0.0, 0.2], 2, mode, reflection)
        np.testing.assert_allclose([row[2] for row in sweep_by_block(*args)],
                                   [row[2] for row in sweep_by_search(*args)],
                                   rtol=0, atol=1e-12)


class TestSweepBlock:
    """All cells of a sweep advance together, each in its own subspace."""

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

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("reflection", ["adapted", "uniform"])
    def test_matches_the_block_at_n256(self, mode, reflection):
        # the optimal count, an edge, a quarter and a centre ion
        args = (256, [1, 64, 128], [0.0, 0.1, 0.2], iteration_count(256), mode,
                reflection)
        rows = infidelity_sweep(*args[:4], mode=mode, reflection=reflection)
        oracle = sweep_by_block(*args)
        assert [(r.epsilon, r.marked_index) for r in rows] == [o[:2] for o in oracle]
        np.testing.assert_allclose([r.infidelity for r in rows],
                                   [o[2] for o in oracle], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("marked, epsilons", [([], [0.0, 0.1]), ([1, 3], [])])
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_empty_grid(self, marked, epsilons, mode):
        assert infidelity_sweep(6, marked, epsilons, steps=2, mode=mode) == []

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("n_ions, marked, epsilons, reflection", [
        (20, FIG4_IONS, FIG4_EPSILONS, "adapted"),
        (9, [1, 3, 5], [0.0, 0.05, 0.3], "uniform"),
    ])
    def test_one_plan_holds_for_every_cell(self, monkeypatch, mode, n_ions, marked,
                                           epsilons, reflection):
        # the grid's cells share one plan; every cell's own plan has the same
        # role pulses but for their chis, the same phase and init product
        real, plans = grover.build_plan, []
        monkeypatch.setattr(grover, "build_plan",
                            lambda cfg: plans.append(real(cfg)) or plans[-1])
        infidelity_sweep(n_ions, marked, epsilons, steps=3, mode=mode,
                         reflection=reflection)
        assert len(plans) == 1
        for eps in epsilons:
            for m in marked:
                own = real(SearchConfig(
                    n_ions=n_ions, marked_index=m, mode=mode, iterations=3,
                    imperfection=ImperfectionSettings(epsilon=eps,
                                                      reflection=reflection)))
                for role in ROLES:
                    a, b = getattr(own, role), getattr(plans[0], role)
                    assert (a.shape, a.rms_peak, a.detuning) == (b.shape, b.rms_peak,
                                                                 b.detuning)
                assert own.phi == plans[0].phi
                np.testing.assert_array_equal(own.init_product, plans[0].init_product)

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_runs_no_search_and_no_schedule(self, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran a search or a schedule")

        monkeypatch.setattr(grover, "run_search", refuse)
        monkeypatch.setattr(grover, "evolve_schedule", refuse)
        monkeypatch.setattr(dynamics, "evolve_schedule", refuse)
        assert len(infidelity_sweep(20, FIG4_IONS, FIG4_EPSILONS, steps=3,
                                    mode=mode)) == 63

    @pytest.mark.parametrize("marked, epsilons, message", [
        ([1, 7], [0.0], "marked index 7 out of range for N=6"),
        ([7, 1], [0.0, 0.1], "marked index 7 out of range for N=6"),
        ([1, True], [0.0], "marked_index must be an integer, got True"),
        ([True, 1], [0.1, 0.2], "marked_index must be an integer, got True"),
        ([1, 2.0], [0.0], "marked_index must be an integer, got 2.0"),
        ([1, 3], [0.1, 1.0], r"epsilon must be in \[0, 1\), got 1.0"),
        ([1, 3], [1.0, 0.1], r"epsilon must be in \[0, 1\), got 1.0"),
        ([1, 3], [0.1, 0.2, -0.5], r"epsilon must be in \[0, 1\), got -0.5"),
    ])
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_every_listed_value_is_checked(self, marked, epsilons, message, mode):
        with pytest.raises(ValueError, match=f"^{message}$"):
            infidelity_sweep(6, marked, epsilons, steps=1, mode=mode)

    def test_the_first_failing_cell_names_the_error(self):
        # cells are checked in grid order: the first epsilon, every ion, then
        # the other epsilons, so a bad ion is named before a later bad epsilon
        with pytest.raises(ValueError, match="marked index 9 out of range"):
            infidelity_sweep(6, [1, 9], [0.0, 2.0], steps=1)
        with pytest.raises(ValueError, match="epsilon must be in"):
            infidelity_sweep(6, [1, 9], [2.0, 0.0], steps=1)

    def test_ions_and_epsilons_keep_their_listed_values(self):
        rows = infidelity_sweep(6, [np.int64(3), 1, 3], [0, 0.1, 0], steps=1,
                                mode="ideal")
        assert [(r.epsilon, r.marked_index) for r in rows] == [
            (e, m) for e in (0.0, 0.1, 0.0) for m in (3, 1, 3)]
        assert all(type(r.epsilon) is float for r in rows)
        assert rows[0] == rows[2] == rows[6] == rows[8]

    @staticmethod
    def bent_chain(monkeypatch, bend):
        """Every full-window chain product the sweep looks up, passed through
        ``bend``."""
        real = dynamics._pulse_chain
        monkeypatch.setattr(dynamics, "_pulse_chain",
                            lambda *a: (real(*a)[0], bend(real(*a)[1])))

    def test_norm_drift_raises_naming_the_cell(self, monkeypatch):
        self.bent_chain(monkeypatch, lambda products: products * (1.0 + 1e-6))
        with pytest.raises(IntegrationError, match=r"ion 3, epsilon=0\.1\): norm drift"):
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


# the peak is read from VmHWM: ru_maxrss also keeps the peak of the forked
# parent that exec replaced
SWEEP_MEMORY_PROBE = """
import sys
from iongrover.cli import FIG4_EPSILONS, FIG4_IONS
from iongrover.imperfections import infidelity_sweep

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

def sweep(steps):
    return infidelity_sweep(20, FIG4_IONS, FIG4_EPSILONS, steps, mode="ideal",
                            reflection="uniform")

sweep(3)  # every module and memo the sweep touches, before the baseline
before = peak_kib()
rows = sweep(int(sys.argv[1]))
print(len(rows), peak_kib() - before)
"""


class TestSweepLastRow:
    """The sweep steps each cell to its last iteration only."""

    @staticmethod
    def cells(mode, reflection):
        """fig4's cells as the sweep forms them (``grover._cells``): r <= 4
        coordinates of each cell's chis, its start row and its iteration U."""
        _, _, coords, start, u = grover._cells([
            SearchConfig(n_ions=20, marked_index=m, mode=mode, iterations=3,
                         imperfection=ImperfectionSettings(epsilon=eps,
                                                           reflection=reflection))
            for eps in FIG4_EPSILONS for m in FIG4_IONS])
        return coords, start, u

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("reflection", ["adapted", "uniform"])
    @pytest.mark.parametrize("count", [*range(1, 10), 15, 16, 17, 10**4])
    def test_matches_the_last_of_the_rows(self, mode, reflection, count):
        coords, start, u = self.cells(mode, reflection)
        last = dynamics._search_last(start, u, count)
        rows = dynamics._search_rows(start, u, count)
        assert last.shape == (63, 1, coords.shape[2])
        assert np.abs(last - rows[:, -1:]).max() <= 1e-12

    def test_forms_no_rows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep formed every row")

        monkeypatch.setattr(dynamics, "_search_rows", refuse)
        assert len(infidelity_sweep(20, FIG4_IONS, FIG4_EPSILONS, steps=3)) == 63

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak from /proc/self/status")
    def test_peak_memory_does_not_grow_with_steps(self):
        # every row of the 63 cells at 10^4 steps is 63 x 10001 x 4 complexes,
        # 38 MiB; a fresh interpreter, so the growth is the sweep's
        import subprocess
        import sys
        from pathlib import Path

        import iongrover

        src = str(Path(iongrover.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP_MEMORY_PROBE, str(10**4)], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        cells, growth_kib = map(int, proc.stdout.split())
        assert cells == 63
        assert growth_kib < 2 * 1024


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
