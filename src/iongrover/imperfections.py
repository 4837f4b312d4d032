"""Inhomogeneous-beam models and the robustness studies run on them.

Ion positions are abstract uniformly spaced coordinates x_n in [-1, 1]; the
spatial beam profile is parametrized purely by the coupling deficit epsilon
seen by the edge ions, with the center of the chain normalized to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ImperfectionSettings, IntegratorConfig, RegisterState, SearchConfig


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

    The cells run one after another in this process, each an independent
    search of well under a millisecond once its two pulses are memoized.
    ``jobs`` selects nothing: it is checked (at least 1) and otherwise
    ignored, kept only for the callers that still pass it.
    """
    # deferred: grover imports this module
    from .grover import run_search

    if steps < 1:
        raise ValueError("need at least one search step")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    integrator = IntegratorConfig(trajectory_stride=1000)
    cells = [
        SearchConfig(n_ions=n_ions, marked_index=m, mode=mode, iterations=steps,
                     imperfection=ImperfectionSettings(epsilon=float(eps),
                                                       reflection=reflection),
                     integrator=integrator)
        for eps in epsilons
        for m in marked
    ]
    return [SweepRow(c.imperfection.epsilon, c.marked_index,
                     1.0 - run_search(c).success_probability) for c in cells]


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
