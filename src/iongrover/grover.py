"""End-to-end search orchestration: init, iteration schedule, detection.

A search is init followed by repeated (oracle, global reflection) pairs.
Every reflection is one laser pulse, and both modes read one plan of them:
ideal mode applies the exact reflections about the pulses' chis at the plan's
phase, physical mode integrates the whole schedule as time-dependent
dynamics.  The probabilistic variant uses resonant pulses
(reflection phase pi); the deterministic variant detunes both pulses of each
iteration to the matched phase that makes the final fidelity exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded lazily by numpy; here it loads with the package

from . import imperfections
from .dynamics import IntegrationError, evolve, evolve_schedule, subspace
from .householder import apply, generalized_hr
from .model import (
    CouplingVector,
    RegisterState,
    SearchConfig,
    SearchResult,
    Trajectory,
    basis_register,
    local_chi,
    marked_probability,
    uniform_chi,
)
from .pulses import PulseShape, PulseSpec, build_global_pulse

#: Detection flags the run when this much population never left the ancilla.
RESIDUAL_FLAG_LEVEL = 0.01


def iteration_count(n_ions: int) -> int:
    """Optimal number of search iterations, [pi / (2 asin(2 sqrt(N-1)/N))]."""
    if n_ions < 2:
        raise ValueError(f"need at least 2 ions, got {n_ions}")
    angle = math.asin(2.0 * math.sqrt(n_ions - 1) / n_ions)
    return int(math.floor(math.pi / (2.0 * angle) + 1e-12))


def deterministic_params(n_ions: int, count: int | None = None) -> tuple[int, float]:
    """Iteration count and matched reflection phase for a unit-fidelity search.

    With beta = asin(1/sqrt(N)), J is the smallest count admitting phase
    matching and phi = 2 asin(sin(pi/(4J+2)) / sin(beta)); running J
    iterations with both reflections at phase phi ends exactly on the marked
    state.  A requested ``count`` re-solves the matching: any count at or
    above J still ends exactly on the mark, below it the ratio clips and the
    search falls back to phase pi.
    """
    if n_ions < 2:
        raise ValueError(f"need at least 2 ions, got {n_ions}")
    beta = math.asin(1.0 / math.sqrt(n_ions))
    if count is None:
        count = math.ceil((math.pi / 2.0 - beta) / (2.0 * beta) - 1e-12)
    ratio = math.sin(math.pi / (4 * count + 2)) / math.sin(beta)
    phi = 2.0 * math.asin(min(1.0, ratio))
    return count, phi


def count_and_phase(cfg: SearchConfig) -> tuple[int, float]:
    """Iteration count and reflection phase of a config: the matched pair of
    the deterministic variant, else the requested (default optimal) count at
    phase pi."""
    if cfg.variant == "deterministic":
        return deterministic_params(cfg.n_ions, cfg.iterations)
    return cfg.iterations or iteration_count(cfg.n_ions), math.pi


@dataclass(frozen=True)
class IterationPlan:
    """Resolved schedule: the count, the phase and the pulses of one iteration.

    A search is ``init_pulse`` followed by ``count`` repeats of (``oracle``,
    ``reflection``), pulses centered at t = 0 that realize the reflections
    about their chis at phase ``phi``, the same in either mode.  Physical mode
    integrates the ``timeline``, which lays them out ``spacing`` apart; ideal
    mode reads only the chis and ``phi``.  A run reports the ``reflection``
    pulse's detuning and rms peak, as built or calibrated.
    """

    count: int
    phi: float
    init_pulse: PulseSpec
    oracle: PulseSpec
    reflection: PulseSpec
    spacing: float

    def timeline(self) -> list[PulseSpec]:
        """The physical schedule: the init pulse, then the 2 * count pulses of
        the iterations, pulse k centered at (k + 1/2) * spacing.  Every oracle
        pulse shares one chi object, and so does every reflection pulse."""
        pulses = [self.init_pulse, *(self.oracle, self.reflection) * self.count]
        return [PulseSpec(p.shape, p.chi, p.rms_peak, p.detuning,
                          (0.5 + k) * self.spacing) for k, p in enumerate(pulses)]


def _profile_factors(cfg: SearchConfig) -> np.ndarray:
    imp = cfg.imperfection
    if imp.custom_factors is not None:
        return np.asarray(imp.custom_factors, dtype=float)
    return imperfections.beam_factors(cfg.n_ions, imp.epsilon, imp.scaling)


def build_plan(cfg: SearchConfig) -> IterationPlan:
    """Resolve the pulses of a config, one plan for both modes: the init beam
    along the (possibly profile-shaped) beam, the oracle on the marked ion,
    and the global reflection along the adapted profile or the uniform beam."""
    count, phi = count_and_phase(cfg)
    factors = _profile_factors(cfg)
    norm = float(np.linalg.norm(factors))
    # evolve_schedule keys chis by identity: the init beam and the adapted
    # reflection share this object, so the run's basis needs no third chi
    profile = CouplingVector(factors / norm)
    chis = (local_chi(cfg.n_ions, cfg.marked_index),
            uniform_chi(cfg.n_ions) if cfg.imperfection.reflection == "uniform"
            else profile)
    shape = PulseShape(cfg.pulse.shape, cfg.pulse.width)
    oracle, reflection = (build_global_pulse(chi, phi, shape, cfg.pulse.peak_coupling,
                                             cfg.integrator) for chi in chis)
    # Same beam as a resonant 2-pi pulse at half the Rabi frequency; calibrated
    # means the power is trimmed for an exact rms-pi transfer, uncalibrated
    # leaves it at the uniform-beam setting.
    init_peak = (cfg.pulse.peak_coupling or 2.0 * math.pi / shape.integral()) / 2.0
    if cfg.imperfection.calibration == "uncalibrated":
        init_peak *= norm / math.sqrt(cfg.n_ions)
    return IterationPlan(count, phi, PulseSpec(shape, profile, init_peak), oracle,
                         reflection, cfg.pulse.spacing * cfg.pulse.width)


def initialize(cfg: SearchConfig) -> RegisterState:
    """Prepare the start register: the bright state of the (possibly
    profile-shaped) init beam, exact in ideal mode, integrated in physical."""
    if cfg.mode == "ideal":
        return imperfections.register_from_factors(
            _profile_factors(cfg),
            calibrated=cfg.imperfection.calibration == "calibrated",
        )
    return evolve(basis_register(cfg.n_ions, 0), build_plan(cfg).init_pulse,
                  cfg.integrator)


def run_search(cfg: SearchConfig) -> SearchResult:
    """Execute init, all iterations, and detection for one config."""
    plan = build_plan(cfg)
    params = {
        "n_ions": cfg.n_ions,
        "marked_index": cfg.marked_index,
        "mode": cfg.mode,
        "variant": cfg.variant,
        "iterations": plan.count,
        "phi": plan.phi,
        "delta_t": plan.reflection.detuning * plan.reflection.shape.width,
        "peak_coupling": plan.reflection.rms_peak,
        "pulse_shape": cfg.pulse.shape,
        "pulse_width": cfg.pulse.width,
        "pulse_spacing": cfg.pulse.spacing,
        "epsilon": cfg.imperfection.epsilon,
        "scaling": cfg.imperfection.scaling,
        "calibration": cfg.imperfection.calibration,
        "reflection": cfg.imperfection.reflection,
    }

    if cfg.mode == "ideal":
        # a search on r-1 virtual ions: the coordinates of the start in its
        # subspace with the chis, reflected about the chis' coordinates
        q, z, coords = subspace(initialize(cfg).amplitudes,
                                [plan.oracle.chi, plan.reflection.chi])
        oracle, reflection = (generalized_hr(CouplingVector(c[1:]), plan.phi)
                              for c in coords)
        states = [RegisterState(z)]
        for _ in range(plan.count):
            states.append(apply(reflection, apply(oracle, states[-1])))
        times = np.arange(plan.count + 1, dtype=float)
        trajectory = Trajectory(q, np.array([s.amplitudes for s in states]))
        state = RegisterState(q @ states[-1].amplitudes)
    else:
        state, times, trajectory = evolve_schedule(
            basis_register(cfg.n_ions, 0), plan.timeline(), cfg.integrator, record=True
        )
    columns = trajectory.columns(cfg.marked_index)
    if not (np.all(np.isfinite(state.amplitudes)) and trajectory.is_finite()
            and np.all(np.isfinite(columns))):
        raise IntegrationError("non-finite final state or trajectory")
    # ideal: the last recorded row, which the final register may round apart
    success = (min(1.0, float(columns[-1, 0])) if cfg.mode == "ideal"
               else marked_probability(state, cfg.marked_index))

    return SearchResult(
        final_state=state,
        success_probability=success,
        trajectory_times=np.asarray(times, dtype=float),
        trajectory=trajectory,
        iterations_executed=plan.count,
        parameters_used=params,
    )


@dataclass(frozen=True)
class Detection:
    """Projective readout: per-ion probabilities plus the ancilla residual."""

    probabilities: np.ndarray
    residual: float
    found: int
    residual_flagged: bool


def detect(state: RegisterState) -> Detection:
    """Read out which ion carries the excitation."""
    pops = state.populations
    probs = pops[1:].copy()
    probs.setflags(write=False)
    residual = float(pops[0])
    return Detection(
        probabilities=probs,
        residual=residual,
        found=int(np.argmax(probs)) + 1,
        residual_flagged=residual > RESIDUAL_FLAG_LEVEL,
    )


def sample_detection(state: RegisterState, shots: int, seed: int) -> np.ndarray:
    """Multinomial shot counts over (no-click, ion 1..N); excluded from any
    accuracy guarantees, provided for realistic-looking records only."""
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    pvals = state.populations
    pvals = pvals / pvals.sum()
    return rng.multinomial(shots, pvals)
