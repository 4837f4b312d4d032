"""End-to-end search orchestration: init, iteration schedule, detection.

A search is init followed by repeated (oracle, global reflection) pairs.
Every reflection is one laser pulse, and both modes read one plan of them.
``sweep`` steps configs as cells of one batch, each a start row and iteration
U = R O in r <= 4 coordinates, planned once per group that shares its pulses,
an ideal run as one cell; physical mode integrates the whole schedule.
The probabilistic variant uses resonant pulses (reflection phase pi); the
deterministic variant detunes both pulses of each iteration to the matched
phase that makes the final fidelity exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import IntegrationError, evolve_schedule
from .householder import apply, generalized_hr  # noqa: F401 (tracers wrap apply)
from .model import (
    CouplingVector,
    ImperfectionSettings,
    PulseShape,
    PulseSpec,
    RegisterState,
    SearchConfig,
    SearchResult,
    Trajectory,
    basis_register,
    beam_factors,
    local_chi,
    marked_probability,
    uniform_chi,
)
from .pulses import build_global_pulse, nominal_pulse

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
    """Resolved schedule: the start, the count, the phase and the pulses.

    A search is ``init_pulse`` followed by ``count`` repeats of (``oracle``,
    ``reflection``), pulses centered at t = 0 that realize the reflections
    about their chis at phase ``phi``, the same in either mode.  Physical mode
    integrates the ``timeline``, which lays them out ``spacing`` apart; ideal
    mode reads only the chis, ``phi`` and ``init_product``, the init pulse's
    exact 2x2 on (ancilla, its chi): the one source of the start register.
    A run reports the ``reflection`` pulse's detuning and rms peak, as built
    or calibrated.
    """

    count: int
    phi: float
    init_pulse: PulseSpec
    init_product: np.ndarray
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


def _beam_chi(n_ions: int, imp: ImperfectionSettings) -> tuple[np.ndarray, float]:
    """The unit chi of the (custom or Gaussian) beam factors, and their norm."""
    factors = (np.asarray(imp.custom_factors, dtype=float)
               if imp.custom_factors is not None
               else beam_factors(n_ions, imp.epsilon, imp.scaling))
    # the norm of the factors scaled exactly into [1, 2): tiny ones' squares underflow
    scale = 2.0 ** (1 - math.frexp(factors.max())[1])
    norm = float(np.linalg.norm(factors * scale)) / scale
    return factors / norm, norm


def _init_part(cfg: SearchConfig) -> tuple[PulseSpec, np.ndarray]:
    """The plan's init pulse, resonant so never calibrated, and its exact 2x2
    on (ancilla, chi): the beam chi at half the Rabi frequency of a 2-pi
    pulse.  Calibrated trims the power for an rms-pi transfer,
    [[0, -1], [1, 0]]; uncalibrated keeps the uniform-beam power, a rotation
    by pi ||f|| / (2 sqrt(N))."""
    chi, norm = _beam_chi(cfg.n_ions, cfg.imperfection)
    shape = PulseShape(cfg.pulse.shape, cfg.pulse.width)
    peak = nominal_pulse(shape, math.pi, cfg.pulse.peak_coupling)[0] / 2.0
    product = np.array([[0.0, -1.0], [1.0, 0.0]])
    if cfg.imperfection.calibration == "uncalibrated":
        peak *= norm / math.sqrt(cfg.n_ions)
        half_area = math.pi * norm / (2.0 * math.sqrt(cfg.n_ions))
        product = np.array([[math.cos(half_area), -math.sin(half_area)],
                            [math.sin(half_area), math.cos(half_area)]])
    product.setflags(write=False)
    return PulseSpec(shape, CouplingVector(chi), peak), product


def build_plan(cfg: SearchConfig) -> IterationPlan:
    """Resolve the pulses of a config, one plan for both modes: the init beam
    along the (possibly profile-shaped) beam with its exact 2x2, the oracle on
    the marked ion, and the global reflection along the adapted profile or the
    uniform beam."""
    count, phi = count_and_phase(cfg)
    init_pulse, init_product = _init_part(cfg)
    # evolve_schedule keys chis by identity: the init beam and the adapted
    # reflection share one object, so the run's basis needs no third chi
    chis = (local_chi(cfg.n_ions, cfg.marked_index),
            uniform_chi(cfg.n_ions) if cfg.imperfection.reflection == "uniform"
            else init_pulse.chi)
    oracle, reflection = (build_global_pulse(chi, phi, init_pulse.shape,
                                             cfg.pulse.peak_coupling, cfg.integrator)
                          for chi in chis)
    return IterationPlan(count, phi, init_pulse, init_product, oracle, reflection,
                         cfg.pulse.spacing * cfg.pulse.width)


def initialize(cfg: SearchConfig) -> RegisterState:
    """Prepare the start register from the init part of the plan alone (the
    oracle and reflection are neither built nor calibrated): the ancilla under
    the init 2x2 that a run applies, the exact one or in physical mode the
    memoized chain's, then the drift check of one pulse."""
    init_pulse, product = _init_part(cfg)
    i = cfg.integrator
    if cfg.mode == "physical":
        product = dynamics._spec_chain(init_pulse, i, i.trajectory_stride)[1][:, :, -1]
    start = dynamics._bright_update(basis_register(cfg.n_ions, 0).amplitudes,
                                    init_pulse.chi.components, product)
    dynamics._check_drift(float(np.linalg.norm(start)), 1)
    return RegisterState(start)


def _role_products(plan: IterationPlan, cfg: SearchConfig) -> np.ndarray:
    """The (init, oracle, reflection) 2x2s on (ancilla, chi), (3, 2, 2): ideal,
    the init product, then each exact reflection's eigenvalue at the phase;
    physical, each pulse's memoized chain product at the config's stride."""
    roles, i = (plan.init_pulse, plan.oracle, plan.reflection), cfg.integrator
    if cfg.mode == "ideal":
        return np.array([plan.init_product, *(np.diag(
            [1.0, 1.0 + generalized_hr(p.chi, plan.phi).factor]) for p in roles[1:])])
    return np.array([dynamics._spec_chain(p, i, i.trajectory_stride)[1][:, :, -1]
                     for p in roles])


def _where(c, cfg):
    """The prefix of a sweep error that names cell ``c`` by its config."""
    return (f"sweep cell {c} (N={cfg.n_ions}, ion {cfg.marked_index}, "
            f"epsilon={cfg.imperfection.epsilon:g}): ")


def _cells(configs):
    """Plan configs as the cells of one batch: configs equal but for their
    chis (the ion; with a calibrated init the beam) share one ``build_plan``
    and role products, each distinct chi is formed once, and one ``subspace``
    serves each group of cells with as many chis and N of one bit length,
    zero-padded to its largest N.  Returns each cell's plan, ion rows (k, N)
    by cell, chi coordinates (cells, 3, r), start row (cells, 1, r) and U = R O
    (cells, r, r), each role I + Q (P - 1) Q^dagger, Q = [e0, chi], P its 2x2.
    A physical plan whose windows overlap (``dynamics._overlaps``) raises
    ``ValueError`` for its first cell, before its pulses are integrated."""
    plans, beams, oracles, cells, groups = {}, {}, {}, [], {}
    for c, cfg in enumerate(configs):
        n, m, imp = cfg.n_ions, cfg.marked_index, cfg.imperfection
        # a custom beam is its cell's own: comparing its factors costs O(N) a lookup
        beam = (n, imp.epsilon, imp.scaling, None if imp.custom_factors is None else c)
        key = (n, cfg.mode, cfg.variant, cfg.iterations, cfg.pulse, cfg.integrator,
               imp.reflection, None if imp.calibration == "calibrated" else beam)
        cell = plans.get(key)
        if cell is None:
            plan = build_plan(cfg)
            pulses = plan.timeline() if cfg.mode == "physical" else []
            if dynamics._overlaps([p.center for p in pulses],
                                  [p.shape.width for p in pulses], cfg.integrator.window):
                raise ValueError(f"{_where(c, cfg)}pulse windows overlap")
            cell = plans[key] = plan, _role_products(plan, cfg)
            beams.setdefault(beam, plan.init_pulse.chi.components)
            oracles.setdefault((n, m), plan.oracle.chi.components)
        if beam not in beams:
            beams[beam] = CouplingVector(_beam_chi(n, imp)[0]).components
        if (n, m) not in oracles:
            oracles[n, m] = local_chi(n, m).components
        cells.append(cell)
        chis = [beams[beam], oracles[n, m]]
        if imp.reflection == "uniform":
            chis.append(cell[0].reflection.chi.components)
        groups.setdefault((len(chis), len(chis[0]).bit_length()), []).append((c, chis))
    coords, ions = np.zeros((len(cells), 3, 4), dtype=complex), {}
    for (k, _), members in groups.items():
        padded = np.zeros((len(members), k, max(len(v[0]) for _, v in members)), complex)
        for row, (_, chis) in zip(padded, members):
            row[:, :len(chis[0])] = chis
        index = [c for c, _ in members]
        rows, x = dynamics.subspace(padded)
        coords[index, :, :k + 1] = x[:, [0, 1, 2 % k]]
        ions.update(zip(index, rows))  # zero-padded past each cell's own N
    r = 1 + np.count_nonzero(coords.any(axis=(0, 1)))  # the slots some cell keeps
    coords = coords[:, :, :r]
    q = coords[..., None] * np.array([0.0, 1.0])  # Q = [e0, chi]; chi's slot 0 is empty
    q[:, :, 0, 0] = 1.0
    p = np.array([products for _, products in cells]).reshape(-1, 3, 2, 2) - np.eye(2)
    ops = np.eye(r) + np.einsum("cxia,cxab,cxjb->cxij", q, p, q.conj())
    plans = [plan for plan, _ in cells]
    return plans, ions, coords, ops[:, 0, None, :, 0], ops[:, 2] @ ops[:, 1]


def _populations(configs, step):
    """Each config's marked population at every row up to its count that
    ``step`` (``dynamics._search_rows``, or ``_search_last`` for cells of one
    count) forms from ``_cells``.  A non-finite population or drift raises
    ``IntegrationError``."""
    plans, _, coords, start, u = _cells(configs)
    count = max((p.count for p in plans), default=0)  # an empty batch steps no cell
    rows = step(start, u, count)
    norms = np.linalg.norm(rows, axis=2)
    populations = abs(np.einsum("ci,cki->ck", coords[:, 1].conj(), rows) / norms) ** 2
    # each cell's last row: the rows stop at the largest count
    cells, last = range(len(plans)), [rows.shape[1] - 1 - count + p.count for p in plans]
    finite = np.logical_and.accumulate(np.isfinite(populations), axis=1)[cells, last]
    for c, cfg, plan, norm, ok in zip(cells, configs, plans, norms[cells, last].tolist(),
                                      finite.tolist()):
        if not ok:
            raise IntegrationError(f"{_where(c, cfg)}non-finite marked population")
        try:
            dynamics._check_drift(norm, 1 + 2 * plan.count)
        except IntegrationError as exc:  # the prefix is formed only for a failure
            raise IntegrationError(f"{_where(c, cfg)}{exc}") from None
    return [p[:end + 1] for p, end in zip(populations, last)]


def sweep(configs: list[SearchConfig]) -> list[np.ndarray]:
    """Each config's marked population at every iteration from the start, all
    run as the cells of one batch (``_cells``) through ``_search_rows``."""
    return _populations(configs, dynamics._search_rows)


def run_search(cfg: SearchConfig) -> SearchResult:
    """Execute init, all iterations, and detection for one config."""
    if cfg.mode == "ideal":  # one cell of the sweep engine
        (plan,), ions, _, start, u = _cells([cfg])
        rows = dynamics._search_rows(start, u, plan.count)[0]
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        dynamics._check_drift(float(norms[-1, 0]), 1 + 2 * plan.count)  # as a sweep cell
        q = np.eye(cfg.n_ions + 1, rows.shape[1], dtype=complex)
        q[1:, 1:] = ions[0][:rows.shape[1] - 1].T
        # U is unitary only to rounding: each row back to norm 1
        trajectory = Trajectory(q, rows / norms)
        times = np.arange(plan.count + 1, dtype=float)
        state = RegisterState(q @ trajectory.coords[-1])
    else:
        plan = build_plan(cfg)
        state, times, trajectory = evolve_schedule(
            basis_register(cfg.n_ions, 0), plan.timeline(), cfg.integrator
        )
    if not (np.all(np.isfinite(state.amplitudes)) and trajectory.is_finite()):
        raise IntegrationError("non-finite final state or trajectory")
    # ideal: the last recorded row, which the final register may round apart
    last = Trajectory(trajectory.basis, trajectory.coords[-1:])
    success = (min(1.0, float(last.slots(cfg.marked_index)[0])) if cfg.mode == "ideal"
               else marked_probability(state, cfg.marked_index))

    return SearchResult(
        final_state=state,
        success_probability=success,
        trajectory_times=np.asarray(times, dtype=float),
        trajectory=trajectory,
        iterations_executed=plan.count,
        parameters_used={
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
        },
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
