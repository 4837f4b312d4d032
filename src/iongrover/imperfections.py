"""Robustness studies on inhomogeneous beams: the infidelity sweep over
(epsilon, marked ion) and the adapted-versus-uniform reflection advantage.

The beam profile itself is ``model.beam_factors``.  Searches are planned and
run through ``grover.build_plan`` and ``grover.run_search``, looked up on the
module at each call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, grover
from .dynamics import IntegrationError
from .model import ImperfectionSettings, SearchConfig


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

    Each cell is planned by ``build_plan``, then all cells run from the
    ancilla as the columns of one (N+1, cells) register block.  Their pulses
    differ only in chi, so each of the plans' three roles (init, oracle,
    reflection) is one 2x2 P on each column's own (ancilla, chi) pair, one
    ``_bright_update`` of the block, applied in the order init, then (oracle,
    reflection) ``steps`` times.  P is the role's memoized full-window chain in
    physical mode; in ideal mode it is the plan's ``init_product``, then
    diag(1, e^{i phi}).  Cells whose pulse of one role differs in shape, rms
    peak or detuning raise ``ValueError``; a norm drift past the budget of
    ``evolve_schedule``, or a non-finite marked population, raises
    ``IntegrationError`` naming the cell.  ``jobs`` selects nothing: it is
    checked (at least 1) and otherwise ignored, kept only for the callers
    that still pass it.
    """
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
    plans = [grover.build_plan(c) for c in cells]
    integrator = cells[0].integrator
    roles = []  # (P, chis) of the init, oracle and reflection pulses
    for k, role in enumerate(("init_pulse", "oracle", "reflection")):
        pulses = [getattr(plan, role) for plan in plans]
        if len({(p.shape, p.rms_peak, p.detuning) for p in pulses}) > 1:
            raise ValueError(f"sweep cells differ in the shape, rms peak or detuning "
                             f"of pulse {k} ({role})")
        pulse = pulses[0]
        if mode == "physical":
            # at the cells' own stride: the memo entry a search of them uses
            product = dynamics._pulse_chain(pulse.rms_peak, pulse.detuning, pulse.shape,
                                            integrator.steps_per_pulse, integrator.window,
                                            integrator.trajectory_stride)[1][:, :, -1]
        elif k == 0:
            product = plans[0].init_product
        else:
            product = np.diag([1.0, cmath.exp(1j * plans[0].phi)])
        roles.append((product, np.stack([p.chi.components for p in pulses], axis=1)))
    block = np.eye(n_ions + 1, 1, dtype=complex).repeat(len(cells), axis=1)
    for product, chis in [roles[0], *roles[1:] * steps]:
        block = dynamics._bright_update(block, chis, product)
    budget = integrator.norm_tolerance * (1 + 2 * steps)  # one per pulse applied

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


def adapted_advantage(n_ions: int, epsilon: float,
                      marked_index: int) -> tuple[float, float]:
    """Best success probability over step counts: adapted chi vs uniform chi.

    Two ideal searches of 1000 iterations on the profile-shaped register
    (field scaling), one per global reflection, each read off its trajectory
    record.  The adapted reflection turns the search into a clean two-level
    rotation whose peak approaches 1, while the uniform reflection is capped
    by the register's overlap with its rotation plane; the ordering only
    becomes visible once the horizon is long enough for the adapted peaks to
    sample near pi/2, hence the generous horizon.
    """
    best = []
    for reflection in ("adapted", "uniform"):
        imperfection = ImperfectionSettings(epsilon=epsilon, reflection=reflection)
        trajectory = grover.run_search(SearchConfig(
            n_ions, marked_index, iterations=1000, imperfection=imperfection)).trajectory
        best.append(min(1.0, float(trajectory.slots(marked_index)[1:].max())))
    return best[0], best[1]
