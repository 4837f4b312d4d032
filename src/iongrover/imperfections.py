"""Robustness studies on inhomogeneous beams (``model.beam_factors``): the
infidelity sweep over (epsilon, marked ion) and the adapted-versus-uniform
reflection advantage, each a list of configs on ``grover``'s batch planner,
looked up on the module at each call.
"""

from __future__ import annotations

import dataclasses

from . import dynamics, grover
from .model import ImperfectionSettings, IntegratorConfig, PulseSettings, SearchConfig


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
    """Infidelity table over a (epsilon, marked ion) grid: one config per cell,
    built in grid order so the first failing cell is named first, and all run
    as one batch of ``grover``'s planner to their last row only
    (``_search_last``).  ``jobs`` selects nothing: it is checked (at least 1)
    and kept only for the callers that still pass it."""
    if steps < 1:
        raise ValueError("need at least one search step")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    pulse, integrator = PulseSettings(), IntegratorConfig()  # shared: validated once
    beams = (ImperfectionSettings(float(eps), reflection=reflection) for eps in epsilons)
    configs = [SearchConfig(n_ions, m, mode, iterations=steps, pulse=pulse,
                            imperfection=beam, integrator=integrator)
               for beam in beams for m in marked]
    last = grover._populations(configs, dynamics._search_last)
    return [SweepRow(cfg.imperfection.epsilon, cfg.marked_index,
                     1.0 - min(1.0, float(p[-1]))) for cfg, p in zip(configs, last)]


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
