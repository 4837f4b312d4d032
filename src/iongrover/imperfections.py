"""Inhomogeneous-beam models and the robustness studies run on them.

Ion positions are abstract uniformly spaced coordinates x_n in [-1, 1]; the
spatial beam profile is parametrized purely by the coupling deficit epsilon
seen by the edge ions, with the center of the chain normalized to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import IntegrationError
from .model import ImperfectionSettings, RegisterState, SearchConfig


def beam_factors(n_ions: int, epsilon: float, scaling: str = "field") -> np.ndarray:
    """Per-ion coupling factors of a Gaussian beam with edge deficit epsilon.

    ``field`` scaling applies the deficit to the couplings directly
    (f_n = (1-eps)^(x_n^2)); ``intensity`` scaling treats epsilon as an
    intensity deficit, so the couplings, which go as the field, lose only
    1 - sqrt(1-eps) at the edges.
    """
    if n_ions < 2:
        raise ValueError(f"need at least 2 ions, got {n_ions}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if scaling == "field":
        eff = epsilon
    elif scaling == "intensity":
        eff = 1.0 - math.sqrt(1.0 - epsilon)
    else:
        raise ValueError(f"scaling must be 'field' or 'intensity', got {scaling!r}")
    x = (2.0 * np.arange(1, n_ions + 1) - n_ions - 1) / (n_ions - 1)
    return (1.0 - eff) ** (x**2)


def register_from_factors(factors: np.ndarray, calibrated: bool = True) -> RegisterState:
    """Analytic outcome of the init pulse under a beam profile.

    The init pulse drives the two-level system {ancilla, bright state of the
    profile}; ``calibrated`` means the rms area is forced to pi (complete
    transfer into the profile-shaped bright state), otherwise the laser power
    is set as if the beam were uniform, leaving an ancilla residual in slot 0.
    """
    f = np.asarray(factors, dtype=float)
    norm = float(np.linalg.norm(f))
    if norm <= 0:
        raise ValueError("factors must not all vanish")
    if calibrated:
        return RegisterState(np.concatenate(([0.0], f / norm)))
    half_area = math.pi * norm / (2.0 * math.sqrt(len(f)))
    return RegisterState(np.concatenate(([math.cos(half_area)],
                                         math.sin(half_area) * f / norm)))


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    marked_index: int
    infidelity: float


def infidelity_sweep(
    n_ions: int,
    marked: list[int],
    epsilons: list[float],
    steps: int,
    mode: str = "physical",
    reflection: str = "adapted",
    jobs: int = 1,
) -> list[SweepRow]:
    """Infidelity table over a (epsilon, marked ion) grid, in grid order.

    Each cell is planned by ``build_plan``, then all cells run as the columns
    of one (N+1, cells) register block.  Their pulses differ only in chi, so
    pulse slot k is one 2x2 P on each column's own (ancilla, chi) pair, one
    ``_bright_update`` of the block: the slot's memoized full-window chain in
    physical mode, from the ancilla, and diag(1, e^{i phi}) in ideal mode,
    from each cell's exact ``initialize`` register.  Cells whose slot k
    differs in shape, rms peak, detuning or center raise ``ValueError``; a
    norm drift past the budget of ``evolve_schedule``, or a non-finite marked
    population, raises ``IntegrationError`` naming the cell.  ``jobs``
    selects nothing: it is checked (at least 1) and otherwise ignored, kept
    only for the callers that still pass it.
    """
    from .grover import build_plan, initialize  # deferred: grover imports this module

    if steps < 1:
        raise ValueError("need at least one search step")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    cells = [
        SearchConfig(n_ions=n_ions, marked_index=m, mode=mode, iterations=steps,
                     imperfection=ImperfectionSettings(epsilon=float(eps),
                                                       reflection=reflection))
        for eps in epsilons
        for m in marked
    ]
    if not cells:
        return []
    plans = [build_plan(c) for c in cells]
    slots = list(zip(*(plan.timeline() for plan in plans)))
    for k, slot in enumerate(slots):
        if len({(p.shape, p.rms_peak, p.detuning, p.center) for p in slot}) > 1:
            raise ValueError(f"sweep cells differ in the shape, rms peak, detuning "
                             f"or center of pulse {k}")
    integrator = cells[0].integrator
    budget = integrator.norm_tolerance * len(slots)
    if mode == "ideal":  # the exact start register: the init slot is skipped
        block = np.stack([initialize(c).amplitudes for c in cells], axis=1)
        slots = slots[1:]
    else:  # every cell starts in the ancilla
        block = np.eye(n_ions + 1, 1, dtype=complex).repeat(len(cells), axis=1)
    for slot in slots:
        pulse = slot[0]
        if mode == "ideal":
            product = np.diag([1.0, cmath.exp(1j * plans[0].phi)])
        else:
            # at the cells' own stride: the memo entry a search of them uses
            product = dynamics._pulse_chain(pulse.rms_peak, pulse.detuning, pulse.shape,
                                            integrator.steps_per_pulse, integrator.window,
                                            integrator.trajectory_stride)[1][:, :, -1]
        chis = np.stack([p.chi.components for p in slot], axis=1)
        block = dynamics._bright_update(block, chis, product)

    norms = np.linalg.norm(block, axis=0)
    rows = []
    for c, cell in enumerate(cells):
        p = float(abs(block[cell.marked_index, c] / norms[c]) ** 2)
        drift = abs(norms[c] - 1.0)
        where = f"sweep cell epsilon={cell.imperfection.epsilon:g}, ion {cell.marked_index}"
        if not math.isfinite(p):
            raise IntegrationError(f"{where}: non-finite marked population")
        if not drift <= budget:
            raise IntegrationError(f"{where}: norm drift {drift:.3e} exceeds "
                                   f"schedule budget {budget:g}")
        rows.append(SweepRow(cell.imperfection.epsilon, cell.marked_index,
                             1.0 - min(1.0, p)))
    return rows


def adapted_advantage(
    n_ions: int,
    epsilon: float,
    marked_index: int,
    max_steps: int = 1000,
    scaling: str = "field",
) -> tuple[float, float]:
    """Best success probability over step counts: adapted chi vs uniform chi.

    Two ideal searches of ``max_steps`` iterations on the profile-shaped
    register, one per global reflection, each read off its trajectory record.
    The adapted reflection turns the search into a clean two-level rotation
    whose peak approaches 1, while the uniform reflection is capped by the
    register's overlap with its rotation plane; the ordering only becomes
    visible once the horizon is long enough for the adapted peaks to sample
    near pi/2, hence the generous default.
    """
    from .grover import run_search  # deferred: grover imports this module

    best = []
    for reflection in ("adapted", "uniform"):
        imperfection = ImperfectionSettings(epsilon=epsilon, scaling=scaling,
                                            reflection=reflection)
        trajectory = run_search(SearchConfig(n_ions, marked_index, iterations=max_steps,
                                             imperfection=imperfection)).trajectory
        best.append(min(1.0, float(trajectory.slots(marked_index)[1:].max())))
    return best[0], best[1]
