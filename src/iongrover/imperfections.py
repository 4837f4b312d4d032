"""Robustness studies on inhomogeneous beams: the infidelity sweep over
(epsilon, marked ion) and the adapted-versus-uniform reflection advantage.

The beam profile itself is ``model.beam_factors``.  Searches are planned and
run through ``grover`` and ``dynamics``, looked up on the module at each
call: the sweep as one batch of cells, the advantage as a sweep of two.
"""

from __future__ import annotations

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
    ``build_plan`` gives each role's 2x2 on (ancilla, chi).  A cell's chis
    (its epsilon's beam chi, which the adapted reflection shares, its ion's
    ``local_chi`` and a uniform reflection's chi) take it to r <= 4
    coordinates by one ``subspace`` over all cells, where every cell steps
    as a search would, to its last row only (``_search_last``).  A
    non-finite marked population, then a run's drift check for 1 + 2 ``steps``
    pulses, raises ``IntegrationError`` naming the first failing cell.  ``jobs``
    selects nothing: it is checked (at least 1)
    and otherwise ignored, kept only for the callers that still pass it.
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
            cfg, *_ = [SearchConfig(n_ions=n_ions, marked_index=m, mode=mode,
                                    iterations=steps, imperfection=imperfection)
                       for m in marked]
        if imperfection.epsilon not in starts:
            starts[imperfection.epsilon] = grover._beam_chi(n_ions, imperfection)[0]
        values.append(imperfection.epsilon)
    plan = grover.build_plan(cfg)
    oracles = {m: local_chi(n_ions, m).components for m in marked}  # each checked above
    cells = [(eps, m) for eps in values for m in marked]
    # the adapted reflection's chi is the init chi
    uniform = [plan.reflection.chi.components] if reflection == "uniform" else []
    _, coords = dynamics.subspace([[starts[eps], oracles[m], *uniform]
                                   for eps, m in cells])
    z = dynamics._search_last(coords, grover._role_products(plan, cfg), steps)
    norms = np.linalg.norm(z, axis=1)
    populations = abs(np.einsum("ci,ci->c", coords[:, 1].conj(), z) / norms) ** 2
    rows = []
    for (eps, m), p, norm in zip(cells, populations.tolist(), norms.tolist()):
        where = f"sweep cell epsilon={eps:g}, ion {m}: "
        if not math.isfinite(p):
            raise IntegrationError(f"{where}non-finite marked population")
        dynamics._check_drift(norm, 1 + 2 * steps, where)
        rows.append(SweepRow(eps, m, 1.0 - min(1.0, p)))
    return rows


def adapted_advantage(n_ions: int, epsilon: float,
                      marked_index: int) -> tuple[float, float]:
    """Best success probability over step counts: adapted chi vs uniform chi.

    Two ideal searches of 1000 iterations on the profile-shaped register
    (field scaling), one per global reflection, as one ``grover.sweep``.
    The adapted reflection turns the search into a clean two-level rotation
    whose peak approaches 1, while the uniform reflection is capped
    by the register's overlap with its rotation plane; the ordering only
    becomes visible once the horizon is long enough for the adapted peaks to
    sample near pi/2, hence the generous horizon.
    """
    configs = [SearchConfig(n_ions, marked_index, iterations=1000,
                            imperfection=ImperfectionSettings(epsilon=epsilon,
                                                              reflection=reflection))
               for reflection in ("adapted", "uniform")]
    adapted, uniform = (min(1.0, float(p[1:].max())) for p in grover.sweep(configs))
    return adapted, uniform
