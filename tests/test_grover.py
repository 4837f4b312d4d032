import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover import dynamics, grover
from iongrover.cli import FIG4_EPSILONS, FIG4_IONS, main
from iongrover.dynamics import (
    IntegrationError,
    hamiltonian_from_pulse,
    hr_distance,
    propagator,
    subspace,
)
from iongrover.grover import (
    build_plan,
    detect,
    deterministic_params,
    initialize,
    iteration_count,
    run_search,
    sample_detection,
    sweep,
)
from iongrover.householder import Reflection, apply, generalized_hr
from iongrover.model import (
    CouplingVector,
    ImperfectionSettings,
    IntegratorConfig,
    PulseSettings,
    RegisterState,
    SearchConfig,
    basis_register,
    beam_factors,
    fidelity,
    local_chi,
    uniform_register,
)


def closed_form(n: int, k: int) -> float:
    return math.sin((2 * k + 1) * math.asin(1 / math.sqrt(n))) ** 2


class TestIterationCount:
    @pytest.mark.parametrize("n,expected", [(15, 3), (4, 1), (20, 3), (2, 1), (3, 1)])
    def test_reference_values(self, n, expected):
        assert iteration_count(n) == expected

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_large_n_asymptotic(self, n):
        assert abs(iteration_count(n) - (math.pi / 4) * math.sqrt(n)) <= 1.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            iteration_count(1)


class TestDeterministicParams:
    def test_n15(self):
        count, phi = deterministic_params(15)
        assert count == 3
        assert phi == pytest.approx(0.661 * math.pi, abs=0.001 * math.pi)

    def test_n4_reduces_to_standard(self):
        count, phi = deterministic_params(4)
        assert count == 1
        assert phi == pytest.approx(math.pi, abs=1e-7)

    def test_n100_unit_fidelity(self):
        cfg = SearchConfig(n_ions=100, marked_index=42, variant="deterministic")
        assert run_search(cfg).success_probability > 1 - 1e-9

    @pytest.mark.parametrize("n", range(3, 65))
    def test_unit_fidelity_sweep(self, n):
        cfg = SearchConfig(n_ions=n, marked_index=1 + n // 2, variant="deterministic")
        assert run_search(cfg).success_probability > 1 - 1e-9

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_unit_fidelity_at_longer_counts(self, extra):
        # phase matching admits any count at or above the minimal one
        count = deterministic_params(15)[0] + extra
        cfg = SearchConfig(n_ions=15, marked_index=8, variant="deterministic",
                           iterations=count)
        result = run_search(cfg)
        assert result.iterations_executed == count
        assert result.success_probability > 1 - 1e-9


class TestInitialize:
    def test_ideal_uniform(self):
        state = initialize(SearchConfig(n_ions=8, marked_index=1))
        np.testing.assert_allclose(state.amplitudes[1:], 1 / math.sqrt(8), atol=1e-15)
        assert state.amplitudes[0] == 0

    def test_physical_reaches_w_state(self):
        cfg = SearchConfig(n_ions=15, marked_index=1, mode="physical")
        state = initialize(cfg)
        assert fidelity(state, uniform_register(15)) > 1 - 1e-6
        assert state.populations[0] < 1e-6

    def test_physical_beam_profile_matches_bright_state(self):
        eps = 0.1
        cfg = SearchConfig(
            n_ions=15, marked_index=1, mode="physical",
            imperfection=ImperfectionSettings(epsilon=eps),
        )
        state = initialize(cfg)
        factors = beam_factors(15, eps)
        expected = np.concatenate(([0.0], factors / np.linalg.norm(factors)))
        # register amplitudes proportional to the profile factors
        overlap = abs(np.vdot(expected, state.amplitudes)) ** 2
        assert overlap > 1 - 1e-6
        assert state.populations[0] < 1e-6

    def test_uncalibrated_profile_leaves_residual(self):
        cfg = SearchConfig(
            n_ions=15, marked_index=1, mode="physical",
            imperfection=ImperfectionSettings(epsilon=0.3,
                                              calibration="uncalibrated"),
        )
        state = initialize(cfg)
        factors = beam_factors(15, 0.3)
        # analytic two-level rotation in the ancilla/bright subspace
        half_area = math.pi * np.linalg.norm(factors) / (2 * math.sqrt(15))
        assert state.populations[0] == pytest.approx(math.cos(half_area) ** 2,
                                                     abs=1e-6)

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_reads_only_the_init_part_of_the_plan(self, mode):
        # this config's detuned Gaussian oracle and reflection find no
        # calibration (NoSolutionError); the resonant init pulse needs none
        cfg = SearchConfig(n_ions=15, marked_index=8, mode=mode,
                           variant="deterministic", iterations=55,
                           pulse=PulseSettings(shape="gaussian"))
        state = initialize(cfg)
        assert fidelity(state, uniform_register(15)) > 1 - 1e-6
        assert state.populations[0] < 1e-6

    @pytest.mark.parametrize("n_ions", [4, 15, 20])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("calibration", ["calibrated", "uncalibrated"])
    @pytest.mark.parametrize("profile", ["beam", "custom"])
    def test_exact_start_matches_the_integrated_one(self, n_ions, epsilon,
                                                    calibration, profile):
        # custom factors: a ramp from 1 down to 1 - epsilon along the chain
        custom = (tuple(1.0 - epsilon * np.linspace(0.0, 1.0, n_ions))
                  if profile == "custom" else None)
        imperfection = ImperfectionSettings(epsilon=epsilon, calibration=calibration,
                                            custom_factors=custom)
        ideal, physical = (
            initialize(SearchConfig(n_ions=n_ions, marked_index=1, mode=mode,
                                    imperfection=imperfection)).populations
            for mode in ("ideal", "physical"))
        np.testing.assert_allclose(ideal, physical, rtol=0, atol=1e-6)


class TestInitializeIsTheRunsStart:
    """``initialize`` applies the 2x2 a run applies first: the plan's exact
    one in ideal mode, the init pulse's memoized chain in physical mode."""

    @pytest.mark.parametrize("imperfection", [
        ImperfectionSettings(),
        ImperfectionSettings(epsilon=0.2, calibration="uncalibrated"),
    ], ids=["eps0", "uncalibrated"])
    def test_physical_is_the_end_of_the_first_window(self, imperfection):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           imperfection=imperfection)
        trajectory = run_search(cfg).trajectory
        i = cfg.integrator
        end = i.steps_per_pulse // i.trajectory_stride  # row 0 is the start
        run = trajectory.basis @ trajectory.coords[end]
        assert np.abs(initialize(cfg).amplitudes - run).max() <= 1e-15

    @pytest.mark.parametrize("imperfection", [
        ImperfectionSettings(),
        ImperfectionSettings(epsilon=0.2, calibration="uncalibrated"),
    ], ids=["eps0", "uncalibrated"])
    def test_ideal_is_the_first_row(self, imperfection):
        cfg = SearchConfig(n_ions=15, marked_index=8, imperfection=imperfection)
        trajectory = run_search(cfg).trajectory
        run = trajectory.basis @ trajectory.coords[0]
        assert np.abs(initialize(cfg).amplitudes - run).max() <= 1e-15

    def test_a_run_integrates_no_second_init_chain(self, chained):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical")
        run_search(cfg)
        alone = len(chained)
        dynamics._pulse_chain.cache_clear()
        chained.clear()
        initialize(cfg)
        assert len(chained) == 1
        run_search(cfg)
        assert len(chained) == alone

    def test_coarse_steps_exceed_the_drift_budget(self):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           integrator=IntegratorConfig(steps_per_pulse=16))
        with pytest.raises(IntegrationError,
                           match=r"^norm drift \S+ exceeds schedule budget 1e-09$"):
            initialize(cfg)


class TestRunSearchIdeal:
    def test_probabilistic_n15(self):
        result = run_search(SearchConfig(n_ions=15, marked_index=8))
        assert result.iterations_executed == 3
        assert result.success_probability == pytest.approx(closed_form(15, 3),
                                                           abs=1e-12)

    def test_probabilistic_n4_single_step_exact(self):
        result = run_search(SearchConfig(n_ions=4, marked_index=2))
        assert result.iterations_executed == 1
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_n15_unity(self):
        result = run_search(
            SearchConfig(n_ions=15, marked_index=8, variant="deterministic")
        )
        assert result.success_probability > 1 - 1e-9

    def test_success_probability_never_exceeds_one(self):
        # |amplitude|^2 of this search rounds to 1.0000000000000004; a value
        # above 1 would turn into a negative infidelity in the sweeps
        result = run_search(
            SearchConfig(n_ions=2048, marked_index=7, variant="deterministic")
        )
        assert result.success_probability <= 1.0
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 23, 40, 64])
    def test_trajectory_matches_closed_form(self, n):
        result = run_search(SearchConfig(n_ions=n, marked_index=1))
        marked = result.trajectory.slots(1)
        for k in range(result.iterations_executed + 1):
            assert marked[k] == pytest.approx(closed_form(n, k), abs=1e-12)

    def test_iteration_override(self):
        result = run_search(SearchConfig(n_ions=15, marked_index=8, iterations=5))
        assert result.iterations_executed == 5
        assert result.success_probability == pytest.approx(closed_form(15, 5),
                                                           abs=1e-12)

    def test_marked_symmetry(self):
        probs = {
            m: run_search(SearchConfig(n_ions=9, marked_index=m)).success_probability
            for m in range(1, 10)
        }
        spread = max(probs.values()) - min(probs.values())
        assert spread <= 1e-9


class TestReducedReflections:
    @pytest.mark.parametrize("cfg", [
        SearchConfig(n_ions=15, marked_index=8),
        SearchConfig(n_ions=2048, marked_index=7, variant="deterministic"),
        SearchConfig(n_ions=20, marked_index=5, imperfection=ImperfectionSettings(
            epsilon=0.2, reflection="uniform", calibration="uncalibrated")),
    ], ids=["N15", "N2048-deterministic", "N20-uniform"])
    def test_an_ideal_search_builds_two_reflections_and_no_matrix(self, cfg,
                                                                  monkeypatch):
        # the plan holds pulses; the oracle and the reflection are one rank-1
        # operator each, read for its eigenvalue and never as a dense matrix
        import iongrover.grover as grover

        chis = []

        def recording(chi, phi):
            chis.append(chi)
            return generalized_hr(chi, phi)

        def refuse(self):
            raise AssertionError("a reflection's dense matrix was built")

        monkeypatch.setattr(grover, "generalized_hr", recording)
        monkeypatch.setattr(Reflection, "matrix", property(refuse))
        grover.run_search(cfg)
        assert len(chis) == 2


class TestIdealRecord:
    @pytest.mark.parametrize("n", [2, 15, 64, 257, 2048, 65536])
    def test_every_iterate_matches_the_closed_form(self, n):
        # the float closed form agrees with a 40-digit evaluation to ~1e-16
        for m in sorted({1, 1 + n // 2, n}):
            result = run_search(SearchConfig(n_ions=n, marked_index=m))
            got = result.trajectory.slots(m)
            expected = [closed_form(n, k) for k in range(result.iterations_executed + 1)]
            assert np.abs(got - expected).max() <= 1e-14


def apply_loop(cfg: SearchConfig) -> np.ndarray:
    """The ideal rows as two ``apply`` calls an iteration form them, each
    reflected state a new, re-normalized ``RegisterState`` on r - 1 virtual
    ions: the span of the start and the chis, empty slots dropped."""
    plan = build_plan(cfg)
    start = initialize(cfg).amplitudes
    _, coords = subspace(np.array([[start[1:], plan.oracle.chi.components,
                                    plan.reflection.chi.components]]))
    z, *chis = coords[0][:, :1 + np.count_nonzero(coords[0].any(axis=0))]  # rows formed
    z[0] = start[0]
    oracle, reflection = (generalized_hr(CouplingVector(c[1:]), plan.phi)
                          for c in chis)
    states = [RegisterState(z)]
    for _ in range(plan.count):
        states.append(apply(reflection, apply(oracle, states[-1])))
    return np.array([s.amplitudes for s in states])


class TestIdealStep:
    """Ideal rows step by one r x r matrix; ``apply_loop`` is the reference."""

    @pytest.mark.parametrize("imperfection", [
        ImperfectionSettings(),
        *(ImperfectionSettings(epsilon=0.2, reflection=r, calibration=c)
          for r in ("adapted", "uniform") for c in ("calibrated", "uncalibrated")),
    ], ids=["eps0", "adapted-calibrated", "adapted-uncalibrated",
            "uniform-calibrated", "uniform-uncalibrated"])
    @pytest.mark.parametrize("variant", ["probabilistic", "deterministic"])
    @pytest.mark.parametrize("n", [2, 3, 15, 2048])
    # counts on both sides of powers of two, where the doubling's last block
    # is full or one row long
    @pytest.mark.parametrize("iterations", [None, 1, 2, 3, 4, 5, 7, 8, 9, 1000])
    def test_rows_match_the_apply_loop(self, n, variant, imperfection, iterations):
        cfg = SearchConfig(n_ions=n, marked_index=1, variant=variant,
                           iterations=iterations, imperfection=imperfection)
        rows = run_search(cfg).trajectory.coords
        expected = apply_loop(cfg)
        # a uniform reflection off the start's profile adds a fourth coordinate
        # (at N = 2 the ion space has only two)
        uniform = imperfection.epsilon and imperfection.reflection == "uniform"
        assert rows.shape == (len(expected), 4 if uniform and n > 2 else 3)
        assert np.abs(rows - expected).max() <= 1e-12


@st.composite
def lone_pulse_configs(draw):
    """Small configs of either mode and variant, every imperfection key drawn,
    at a spacing of at least twice the window: physical pulses stay lone."""
    n = draw(st.integers(2, 12))
    custom = draw(st.none() | st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    integrator = IntegratorConfig(window=draw(st.sampled_from([6.0, 15.0])))
    spacing = 2.0 * integrator.window + draw(st.sampled_from([0.0, 3.0]))  # touch or part
    return SearchConfig(
        n_ions=n, marked_index=draw(st.integers(1, n)),
        mode=draw(st.sampled_from(["ideal", "physical"])),
        variant=draw(st.sampled_from(["probabilistic", "deterministic"])),
        iterations=draw(st.none() | st.integers(1, 4)),
        pulse=PulseSettings(width=draw(st.sampled_from([0.5, 1.0, 1.7])),
                            spacing=spacing),
        imperfection=ImperfectionSettings(
            epsilon=draw(st.floats(0.0, 0.6)),
            scaling=draw(st.sampled_from(["field", "intensity"])),
            calibration=draw(st.sampled_from(["calibrated", "uncalibrated"])),
            reflection=draw(st.sampled_from(["adapted", "uniform"])),
            custom_factors=None if custom is None else tuple(custom)),
        integrator=integrator)


class TestSweep:
    """``sweep`` steps ideal and lone-pulse physical configs as one batch."""

    @settings(max_examples=25, deadline=None)
    @given(configs=st.lists(lone_pulse_configs(), min_size=1, max_size=3))
    def test_last_rows_are_the_runs_success(self, configs):
        # every config whose own run integrates is compared; a config whose
        # run refuses makes the whole batch refuse, naming the first such cell
        runs = {}
        for c, cfg in enumerate(configs):
            try:
                runs[c] = run_search(cfg)
            except IntegrationError:
                pass
        refused = [c for c in range(len(configs)) if c not in runs]
        if refused:
            with pytest.raises(IntegrationError,
                               match=f"^sweep cell {refused[0]} .*norm drift"):
                sweep(configs)
        populations = sweep([configs[c] for c in runs])
        for result, p in zip(runs.values(), populations, strict=True):
            assert len(p) == result.iterations_executed + 1
            assert abs(p[-1] - result.success_probability) <= 1e-12

    def test_a_cell_its_run_refuses_refuses_the_batch(self):
        # at 4,000 RK4 steps over a 15-width window each detuned pulse of the
        # deterministic search loses up to 1.9e-8 of norm, 19 budgets; the
        # uncalibrated start at N = 2 meets that loss, the calibrated one not
        coarse = SearchConfig(
            n_ions=2, marked_index=1, mode="physical", variant="deterministic",
            iterations=3, pulse=PulseSettings(spacing=30.0),
            imperfection=ImperfectionSettings(epsilon=0.5, calibration="uncalibrated"),
            integrator=IntegratorConfig(window=15.0))
        calibrated = dataclasses.replace(coarse, imperfection=ImperfectionSettings(0.5))
        with pytest.raises(IntegrationError, match="^norm drift 1.172e-08 exceeds "
                                                   "schedule budget 7e-09$"):
            run_search(coarse)
        with pytest.raises(IntegrationError, match=r"^sweep cell 1 \(N=2, ion 1, "
                                                   r"epsilon=0.5\): norm drift 1.17"):
            sweep([calibrated, coarse])
        [p] = sweep([calibrated])
        assert abs(p[-1] - run_search(calibrated).success_probability) <= 1e-12

    @staticmethod
    def mixed():
        return [SearchConfig(n_ions=n, marked_index=1 + n // 3, mode=mode,
                             variant=variant, iterations=count,
                             imperfection=ImperfectionSettings(epsilon=0.2,
                                                               reflection=reflection))
                for n in (2, 3, 5, 8, 15, 16, 33, 64)
                for reflection in ("adapted", "uniform")
                for mode, variant, count in (("ideal", "probabilistic", 1),
                                             ("ideal", "deterministic", 2),
                                             ("physical", "probabilistic", 3),
                                             ("ideal", "probabilistic", 1000))]

    def test_a_mixed_batch_is_its_cells_one_at_a_time(self):
        configs = self.mixed()
        batch = sweep(configs)
        assert sweep([]) == []
        for cfg, p in zip(configs, batch):
            alone, = sweep([cfg])
            assert p.shape == alone.shape
            assert np.abs(p - alone).max() <= 1e-15

    def test_ideal_run_search_is_a_one_cell_sweep(self):
        for cfg in self.mixed()[::4]:
            rows = run_search(cfg).trajectory.slots(cfg.marked_index)
            assert np.abs(rows - sweep([cfg])[0]).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_cells_that_share_their_pulses_share_one_plan(self, monkeypatch, mode):
        def grid(steps):
            return [SearchConfig(n_ions=20, marked_index=m, mode=mode, iterations=steps,
                                 imperfection=ImperfectionSettings(epsilon=eps))
                    for eps in FIG4_EPSILONS for m in FIG4_IONS]

        fig4, longer = grid(3), grid(5)
        interleaved = [cfg for pair in zip(fig4, longer) for cfg in pair]
        alone = [p for pair in zip(sweep(fig4), sweep(longer)) for p in pair]
        validate = [SearchConfig(n_ions=n, marked_index=1 + n // 2,
                                 variant="deterministic") for n in range(2, 17)]
        real, plans = grover.build_plan, []
        monkeypatch.setattr(grover, "build_plan",
                            lambda cfg: plans.append(cfg) or real(cfg))
        for configs, count in ((fig4, 1), (validate, 15), (interleaved, 2)):
            plans.clear()
            batch = sweep(configs)
            assert len(plans) == count
        # the interleaved batch is each grid swept alone
        for p, q in zip(batch, alone, strict=True):
            assert p.shape == q.shape
            assert np.abs(p - q).max() <= 1e-15

    def test_overlapping_windows_raise(self):
        lone = SearchConfig(n_ions=15, marked_index=3, mode="physical")
        crowded = SearchConfig(n_ions=15, marked_index=3, mode="physical",
                               pulse=PulseSettings(spacing=29.9))
        with pytest.raises(ValueError, match=r"sweep cell 1 \(N=15, ion 3, epsilon=0\): "
                                             "pulse windows overlap"):
            sweep([lone, crowded])

    # the run's one overlap rule: windows that touch within 1e-9 of a width,
    # and at width 1.36 round into each other, are lone pulses in both; at
    # spacing 30 - 1e-9 the rounded spans overlap by 1.0000036e-9, one grid
    @pytest.mark.parametrize("spacing, width, crowded", [
        (30.0, 1.0, False), (30.0 - 1e-12, 1.0, False), (30.0 - 1e-9, 1.0, True),
        (30.0, 1.36, False), (29.9, 1.0, True), (20.0, 1.0, True)])
    def test_the_sweep_refuses_what_the_run_integrates_on_one_grid(
            self, monkeypatch, spacing, width, crowded):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           pulse=PulseSettings(spacing=spacing, width=width))
        grids, chain = [], dynamics._chain
        monkeypatch.setattr(dynamics, "_chain", lambda *a: grids.append(a) or chain(*a))
        run = run_search(cfg)
        assert len(grids) == crowded  # one global-grid window, or none
        if grids:
            with pytest.raises(ValueError, match=r"sweep cell 0 \(N=15, ion 8, "
                                                 r"epsilon=0\): pulse windows overlap"):
                sweep([cfg])
        else:
            [populations] = sweep([cfg])
            assert abs(populations[-1] - run.success_probability) <= 1e-12

    def test_overlap_is_refused_before_any_cell_is_stepped(self, monkeypatch):
        stepped, integrated, products = [], [], grover._role_products
        monkeypatch.setattr(dynamics, "_search_rows", lambda *a: stepped.append(a))
        monkeypatch.setattr(grover, "_role_products", lambda plan, cfg: (
            integrated.append(cfg.pulse.spacing) or products(plan, cfg)))
        configs = [SearchConfig(n_ions=15, marked_index=3, mode="physical",
                                pulse=PulseSettings(spacing=s)) for s in (30.0, 20.0, 29.9)]
        # the first crowded cell in batch order, before its pulses or any cell's rows
        with pytest.raises(ValueError, match=r"sweep cell 1 \(N=15, ion 3, epsilon=0\): "
                                             "pulse windows overlap"):
            sweep(configs)
        assert integrated == [30.0] and stepped == []

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_non_finite_cell_is_named(self, monkeypatch):
        products = grover._role_products

        def poisoned(plan, cfg):
            return products(plan, cfg) * (np.nan if cfg.n_ions == 7 else 1.0)

        monkeypatch.setattr(grover, "_role_products", poisoned)
        configs = [SearchConfig(n_ions=n, marked_index=2) for n in (5, 7)]
        with pytest.raises(IntegrationError, match=r"sweep cell 1 \(N=7, ion 2, "
                                                   r"epsilon=0\): non-finite marked"):
            sweep(configs)

    @staticmethod
    def drifting(monkeypatch):
        """Ideal N = 15, ion 8, with every reflection's 2x2 scaled by 1 + 1e-6:
        the last row's norm drifts 1.003e-06 against 7 pulses' budget."""
        products = grover._role_products
        monkeypatch.setattr(grover, "_role_products", lambda plan, cfg: (
            products(plan, cfg) * np.array([1.0, 1.0, 1.0 + 1e-6])[:, None, None]))
        return SearchConfig(n_ions=15, marked_index=8)

    def test_the_ideal_run_keeps_the_cells_drift_rule(self, monkeypatch):
        cfg = self.drifting(monkeypatch)
        drift = r"norm drift 1\.003e-06 exceeds schedule budget 7e-09$"
        with pytest.raises(IntegrationError,
                           match=r"^sweep cell 0 \(N=15, ion 8, epsilon=0\): " + drift):
            sweep([cfg])
        with pytest.raises(IntegrationError, match="^" + drift):
            run_search(cfg)

    def test_a_drifting_ideal_run_exits_3(self, monkeypatch, tmp_path, capsys):
        cfg = self.drifting(monkeypatch)
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps({"n_ions": cfg.n_ions, "marked_index": cfg.marked_index,
                                    "mode": "ideal"}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: numerical failure: norm drift 1.003e-06 exceeds schedule budget 7e-09"]
        assert not out.exists()


class TestRecordSize:
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_record_is_o_of_n_plus_samples(self, mode):
        # O(N + M r) bytes: one basis plus r coordinates per recorded sample
        n = 65536
        result = run_search(SearchConfig(n_ions=n, marked_index=7, mode=mode,
                                         variant="deterministic"))
        trajectory = result.trajectory
        assert trajectory.nbytes <= 16 * 5 * (n + 1 + len(trajectory))


class TestRunSearchPhysical:
    def test_probabilistic_n15_band(self):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical")
        result = run_search(cfg)
        assert 0.90 <= result.success_probability <= 0.94
        assert result.success_probability == pytest.approx(closed_form(15, 3),
                                                           abs=1e-4)

    def test_deterministic_n15(self):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           variant="deterministic")
        result = run_search(cfg)
        assert result.success_probability >= 0.999
        assert result.parameters_used["phi"] == pytest.approx(
            0.661 * math.pi, abs=0.001 * math.pi
        )
        assert result.parameters_used["delta_t"] == pytest.approx(0.589, abs=0.002)

    def test_converges_to_ideal_with_step_budget(self):
        # per-pulse propagators within 1e-5 of the exact reflections keeps the
        # final probability within 1e-3 of ideal mode
        n, m = 5, 2
        cfg = SearchConfig(n_ions=n, marked_index=m, mode="physical")
        plan = build_plan(cfg)
        for pulse in (plan.oracle, plan.reflection):
            u = propagator(hamiltonian_from_pulse(pulse), cfg.integrator)
            assert hr_distance(u, generalized_hr(pulse.chi, math.pi)) <= 1e-5
        ideal = run_search(SearchConfig(n_ions=n, marked_index=m))
        physical = run_search(cfg)
        assert abs(physical.success_probability - ideal.success_probability) <= 1e-3

    def test_oracle_locality(self):
        # the oracle pulse must leave every unmarked slot magnitude alone
        from iongrover.dynamics import evolve_schedule
        from iongrover.pulses import build_global_pulse

        cfg = SearchConfig(n_ions=6, marked_index=3, mode="physical")
        state = initialize(cfg)
        pulse = build_global_pulse(local_chi(6, 3))
        after = evolve_schedule(state, [pulse], cfg.integrator)[0]
        before_mag = np.abs(state.amplitudes)
        after_mag = np.abs(after.amplitudes)
        for k in range(1, 7):
            if k != 3:
                assert abs(after_mag[k] - before_mag[k]) < 1e-6

    def test_physical_marked_symmetry(self):
        probs = [
            run_search(SearchConfig(n_ions=4, marked_index=m,
                                    mode="physical")).success_probability
            for m in (1, 3)
        ]
        assert abs(probs[0] - probs[1]) <= 1e-5

    def test_trajectory_shape(self):
        cfg = SearchConfig(n_ions=4, marked_index=2, mode="physical")
        result = run_search(cfg)
        assert result.trajectory.slots(slice(None)).shape[1] == 5
        assert len(result.trajectory_times) == len(result.trajectory)
        assert np.all(np.diff(result.trajectory_times) > 0)
        # populations always sum to one along the trace
        np.testing.assert_allclose(result.trajectory.totals(), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_deterministic_gaussian_unit_fidelity(self, n):
        # every reflection is one calibrated Gaussian pulse, detuned to the
        # matched phase
        cfg = SearchConfig(n_ions=n, marked_index=1 + n // 2, mode="physical",
                           variant="deterministic",
                           pulse=PulseSettings(shape="gaussian"))
        result = run_search(cfg)
        assert 1.0 - result.success_probability <= 1e-9
        plan = build_plan(cfg)
        assert plan.reflection.shape.kind == "gaussian"
        assert plan.phi == deterministic_params(n)[1]
        assert plan.reflection.detuning == plan.oracle.detuning


class TestDetection:
    def test_deterministic_final_state(self):
        result = run_search(
            SearchConfig(n_ions=15, marked_index=11, variant="deterministic")
        )
        det = detect(result.final_state)
        assert det.found == 11
        assert det.probabilities[10] > 1 - 1e-9
        assert not det.residual_flagged

    def test_w_state_uniform(self):
        det = detect(uniform_register(10))
        np.testing.assert_allclose(det.probabilities, 0.1, atol=1e-12)
        assert det.residual == 0.0

    def test_ancilla_flagged(self):
        det = detect(basis_register(5, 0))
        np.testing.assert_allclose(det.probabilities, 0.0)
        assert det.residual == pytest.approx(1.0)
        assert det.residual_flagged

    def test_shot_sampling_deterministic_per_seed(self):
        state = uniform_register(5)
        a = sample_detection(state, 1000, seed=7)
        b = sample_detection(state, 1000, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == 1000
        assert len(a) == 6


class TestPlan:
    def test_physical_plan_layout(self):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           variant="deterministic")
        plan = build_plan(cfg)
        assert plan.count == 3
        timeline = plan.timeline()
        assert len(timeline) == 2 * plan.count + 1
        # bit for bit: every center is (k + 1/2) * spacing * width
        assert [p.center for p in timeline] == [
            (k + 0.5) * (cfg.pulse.spacing * cfg.pulse.width)
            for k in range(2 * plan.count + 1)]
        np.testing.assert_allclose([p.center for p in timeline],
                                   [15, 45, 75, 105, 135, 165, 195])
        assert timeline[0].chi is plan.init_pulse.chi
        assert timeline[0].detuning == 0.0
        assert timeline[0].rms_peak == plan.init_pulse.rms_peak
        oracles, reflections = timeline[1::2], timeline[2::2]
        # evolve_schedule keys chis by identity: one object per kind of pulse
        assert all(p.chi is plan.oracle.chi for p in oracles)
        assert all(p.chi is plan.reflection.chi for p in reflections)
        assert plan.oracle.chi is not plan.reflection.chi
        for p in timeline[1:]:
            assert p.detuning == pytest.approx(plan.reflection.detuning)
            assert p.rms_peak == plan.reflection.rms_peak

    @pytest.mark.parametrize("reflection", ["adapted", "uniform"])
    def test_adapted_reflection_shares_the_init_chi(self, reflection):
        # evolve_schedule keys chis by identity: with the adapted reflection the
        # run spans {ancilla, mark, profile}, with the uniform one a fourth chi
        cfg = SearchConfig(n_ions=20, marked_index=5, mode="physical",
                           imperfection=ImperfectionSettings(epsilon=0.1,
                                                             reflection=reflection))
        plan = build_plan(cfg)
        shared = plan.init_pulse.chi is plan.reflection.chi
        assert shared == (reflection == "adapted")
        if not shared:
            np.testing.assert_allclose(plan.reflection.chi.components,
                                       np.full(20, 1 / math.sqrt(20)))
        rank = 3 if shared else 4
        assert run_search(cfg).trajectory.basis.shape == (21, rank)

    def test_both_modes_report_the_reflection_pulse(self):
        settings = PulseSettings(shape="gaussian", width=1.3)
        cfgs = [SearchConfig(n_ions=15, marked_index=8, mode=mode,
                             variant="deterministic", pulse=settings)
                for mode in ("ideal", "physical")]
        pulse = build_plan(cfgs[1]).reflection
        for cfg in cfgs:
            used = run_search(cfg).parameters_used
            assert used["delta_t"] == pulse.detuning * 1.3
            assert used["peak_coupling"] == pulse.rms_peak
        # the init pulse keeps the rms-pi area the calibration does not set
        assert build_plan(cfgs[1]).init_pulse.rms_peak * pulse.shape.integral() == (
            pytest.approx(math.pi, rel=1e-12))
        assert abs(pulse.rms_peak * pulse.shape.integral() - 2 * math.pi) > 0.1

    @pytest.mark.parametrize("variant, pulse, imperfection", [
        ("probabilistic", PulseSettings(), ImperfectionSettings()),
        ("deterministic", PulseSettings(shape="gaussian", width=1.3),
         ImperfectionSettings()),
        ("probabilistic", PulseSettings(spacing=12.0),
         ImperfectionSettings(epsilon=0.2, reflection="uniform",
                              calibration="uncalibrated")),
    ], ids=["sech", "gaussian-deterministic", "uniform-uncalibrated"])
    def test_both_modes_hold_the_same_pulses(self, variant, pulse, imperfection):
        ideal, physical = (
            build_plan(SearchConfig(n_ions=15, marked_index=8, mode=mode,
                                    variant=variant, pulse=pulse,
                                    imperfection=imperfection))
            for mode in ("ideal", "physical"))
        assert (ideal.count, ideal.phi, ideal.spacing) == (
            physical.count, physical.phi, physical.spacing)
        for name in ("init_pulse", "oracle", "reflection"):
            a, b = getattr(ideal, name), getattr(physical, name)
            assert (a.shape, a.rms_peak, a.detuning, a.center) == (
                b.shape, b.rms_peak, b.detuning, b.center), name
            np.testing.assert_array_equal(a.chi.components, b.chi.components)
        np.testing.assert_array_equal(ideal.init_product, physical.init_product)
