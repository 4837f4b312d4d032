"""Grover search in a trapped-ion chain driven by Householder-reflection pulses.

Exact operator products (``ideal`` mode) and time-dependent pulse integration
(``physical`` mode) of the same search protocol, plus beam-inhomogeneity
robustness studies and a reproduction CLI.
"""

__version__ = "0.1.0"

from .dynamics import (
    IntegrationError,
    evolve_schedule,
    fit_hr_phase,
    hr_distance,
    propagator,
)
from .grover import (
    Detection,
    IterationPlan,
    build_plan,
    detect,
    deterministic_params,
    initialize,
    iteration_count,
    run_search,
    sample_detection,
)
from .householder import (
    Operator,
    Reflection,
    apply,
    generalized_hr,
    standard_hr,
)
from .imperfections import (
    SweepRow,
    adapted_advantage,
    infidelity_sweep,
)
from .model import (
    CouplingVector,
    DimensionMismatchError,
    ImperfectionSettings,
    IntegratorConfig,
    NormalizationError,
    PulseSettings,
    PulseShape,
    PulseSpec,
    RegisterState,
    SearchConfig,
    SearchResult,
    basis_register,
    beam_factors,
    fidelity,
    local_chi,
    marked_probability,
    uniform_chi,
    uniform_register,
)
from .pulses import (
    NoSolutionError,
    build_global_pulse,
    detuning_for_phase,
    phase_from_detuning,
    rms_area,
)

__all__ = [name for name in dir() if not name.startswith("_")]
