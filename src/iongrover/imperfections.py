"""Robustness studies on inhomogeneous beams: the infidelity sweep over
(epsilon, marked ion) and the adapted-versus-uniform reflection advantage.

The beam profile itself is ``model.beam_factors``.  Searches are planned and
run through ``grover.build_plan`` and ``grover.run_search``, looked up on the
module at each call.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import dynamics, grover
from .dynamics import IntegrationError
from .model import ImperfectionSettings, SearchConfig, local_chi


@dataclasses.dataclass(frozen=True)
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

    Each listed epsilon and ion is checked as its cells' configs check it.
    The cells share their pulses but for the chis, so the first cell's
    ``build_plan`` gives each role's 2x2 P on (ancilla, chi): the memoized
    chain in physical mode; in ideal mode the init product, then
    diag(1, e^{i phi}).  A cell's chis (its epsilon's init chi from
    ``grover._init_part``, which the adapted reflection shares, its ion's
    ``local_chi`` and a uniform reflection's chi) take it to r <= 4
    coordinates by one Gram-Schmidt over all cells.  There each role is
    I + Q (P - 1) Q^dagger, Q = [e0, chi], and every cell steps from the
    ancilla through the init, then by U = R O ``steps`` times.  A norm drift
    past the budget of ``evolve_schedule``, or a non-finite marked
    population, raises ``IntegrationError`` naming the cell.  ``jobs``
    selects nothing: it is checked (at least 1) and otherwise ignored, kept
    only for the callers that still pass it.
    """
    if steps < 1:
        raise ValueError("need at least one search step")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    if len(marked) == 0 or len(epsilons) == 0:
        return []
    starts, values = {}, []  # each distinct epsilon's init chi; each listed epsilon
    for eps in epsilons:  # the first epsilon, every ion, then the other epsilons
        imperfection = ImperfectionSettings(epsilon=float(eps), reflection=reflection)
        if not values:
            first = [SearchConfig(n_ions=n_ions, marked_index=m, mode=mode,
                                  iterations=steps, imperfection=imperfection)
                     for m in marked]
        if imperfection.epsilon not in starts:
            cfg = dataclasses.replace(first[0], imperfection=imperfection)
            starts[imperfection.epsilon] = grover._init_part(cfg)[0].chi.components
        values.append(imperfection.epsilon)
    plan = grover.build_plan(first[0])
    integrator = first[0].integrator
    oracles = {m: local_chi(n_ions, m).components for m in marked}  # each checked above
    cells = [(eps, m) for eps in values for m in marked]
    uniform = [plan.reflection.chi.components] if reflection == "uniform" else []
    coords = _cell_coordinates(np.array([[starts[eps], oracles[m], *uniform]
                                         for eps, m in cells]))
    if mode == "physical":
        # at the cells' own stride: the memo entry a search of them uses
        products = [dynamics._pulse_chain(p.rms_peak, p.detuning, p.shape,
                                          integrator.steps_per_pulse, integrator.window,
                                          integrator.trajectory_stride)[1][:, :, -1]
                    for p in (plan.init_pulse, plan.oracle, plan.reflection)]
    else:
        turn = np.diag([1.0, cmath.exp(1j * plan.phi)])
        products = [plan.init_product, turn, turn]
    # each role's Q = [e0, chi] and I + Q (P - 1) Q^dagger: init, oracle and
    # reflection, whose adapted chi is the init chi
    q = np.zeros((len(cells), 3, coords.shape[2], 2), dtype=complex)
    q[:, :, 0, 0] = 1.0
    q[:, :, :, 1] = coords[:, [0, 1, 2 if reflection == "uniform" else 0]]
    ops = np.eye(q.shape[2]) + np.einsum("cxia,xab,cxjb->cxij", q,
                                         np.array(products) - np.eye(2), q.conj())
    step = np.einsum("cij,cjk->cik", ops[:, 2], ops[:, 1])
    z = ops[:, 0, :, 0]  # the init pulse on the ancilla
    for _ in range(steps):
        z = np.einsum("cij,cj->ci", step, z)
    budget = integrator.norm_tolerance * (1 + 2 * steps)  # one per pulse applied

    norms = np.linalg.norm(z, axis=1)
    populations = abs(np.einsum("ci,ci->c", coords[:, 1].conj(), z) / norms) ** 2
    rows = []
    for (eps, m), p, norm in zip(cells, populations.tolist(), norms.tolist()):
        drift = abs(norm - 1.0)
        where = f"sweep cell epsilon={eps:g}, ion {m}"
        if not math.isfinite(p):
            raise IntegrationError(f"{where}: non-finite marked population")
        if not drift <= budget:
            raise IntegrationError(f"{where}: norm drift {drift:.3e} exceeds "
                                   f"schedule budget {budget:g}")
        rows.append(SweepRow(eps, m, 1.0 - min(1.0, p)))
    return rows


def _cell_coordinates(vectors: np.ndarray) -> np.ndarray:
    """Coordinates (cells, k, k + 1) of each cell's k unit ion vectors
    (cells, k, N), ancilla slot first: ``dynamics.subspace`` for all cells at
    once.  A remainder below 1e-10 adds no column; its slot stays zero."""
    cells, k, _ = vectors.shape
    ions = np.zeros_like(vectors)
    coords = np.zeros((cells, k, k + 1), dtype=complex)
    for j in range(k):
        w = vectors[:, j].copy()
        for _ in range(2 if j else 0):
            a = np.add.reduce(ions[:, :j].conj() * w[:, None], axis=2)
            w -= np.einsum("ci,cin->cn", a, ions[:, :j])
            coords[:, j, 1:j + 1] += a
        norm = np.sqrt(np.add.reduce(w.view(float) ** 2, axis=1))
        kept = norm > 1e-10
        ions[kept, j] = w[kept] / norm[kept, None]
        coords[kept, j, j + 1] = norm[kept]
    return coords


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
