"""Self-check suites behind the ``validate`` CLI command.

Each check returns its measured value, the tolerance it was held to and the
margin (tolerance - value, positive when passing), so regressions show up as
shrinking margins before they become failures.  The random chis, phases and
detunings come from the stdlib's ``random.Random(20080301)``, so a suite is
reproducible and loads no ``numpy.random``.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from . import dynamics, grover, householder, model, pulses


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str

    @property
    def margin(self) -> float:
        return self.tolerance - self.value

    def to_dict(self) -> dict:
        d = asdict(self)
        d["margin"] = self.margin
        return d


def _check(name: str, value: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(name, bool(value <= tolerance), float(value),
                       float(tolerance), detail)


def _random_chi(rng: random.Random, n: int) -> model.CouplingVector:
    v = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)])
    return model.CouplingVector(v / np.linalg.norm(v))


def _hr_algebra(rng: random.Random) -> list[CheckResult]:
    chi = _random_chi(rng, 6)
    m = householder.standard_hr(chi)
    invol = np.linalg.norm((m.matrix @ m.matrix) - np.eye(m.dim))
    phi = rng.uniform(0.2, 3.0)
    g1 = householder.generalized_hr(chi, phi)
    g2 = householder.generalized_hr(chi, -phi)
    inverse = np.linalg.norm(g1.matrix @ g2.matrix - np.eye(m.dim))
    return [
        _check("hr_involution", invol, 1e-12, "||M(chi)^2 - 1||_F, random chi, N=6"),
        _check("ghr_inverse", inverse, 1e-12,
               "||M(chi;phi) M(chi;-phi) - 1||_F, random phase"),
    ]


def _detuning_round_trip() -> CheckResult:
    worst = 0.0
    for l in (1, 2, 3):
        for phi in np.linspace(0.02 * math.pi, 0.99 * math.pi, 41):
            dt = pulses.detuning_for_phase(float(phi), l)
            worst = max(worst, abs(pulses.phase_from_detuning(dt, l) - phi))
    return _check("detuning_round_trip", worst, 1e-10,
                  "max |phase(detuning(phi)) - phi| over l in {1,2,3}")


def _deterministic_fidelity(n_max: int) -> CheckResult:
    worst = 0.0
    for n in range(3, n_max + 1):
        cfg = model.SearchConfig(n_ions=n, marked_index=1 + n // 2,
                                 variant="deterministic")
        worst = max(worst, 1.0 - grover.run_search(cfg).success_probability)
    return _check("deterministic_fidelity_ideal", worst, 1e-9,
                  f"max final infidelity, exact operators, N=3..{n_max}")


def _probabilistic_closed_form(n_max: int) -> CheckResult:
    worst = 0.0
    for n in range(2, n_max + 1):
        cfg = model.SearchConfig(n_ions=n, marked_index=1 + n // 2)
        result = grover.run_search(cfg)
        theta = math.asin(1.0 / math.sqrt(n))
        marked = result.trajectory.slots(cfg.marked_index)
        for k in range(1, result.iterations_executed + 1):
            expected = math.sin((2 * k + 1) * theta) ** 2
            worst = max(worst, abs(marked[k] - expected))
    return _check("probabilistic_closed_form", worst, 1e-12,
                  f"max |p_k - sin^2((2k+1) theta)|, N=2..{n_max}")


def _propagator_checks(rng: random.Random, trials: int) -> list[CheckResult]:
    worst_std = 0.0
    worst_gen = 0.0
    phi = 0.661 * math.pi
    for _ in range(trials):
        for n in (2, 5):
            chi = _random_chi(rng, n)
            std = pulses.build_global_pulse(chi)
            u = dynamics.propagator(std)
            worst_std = max(worst_std, dynamics.hr_distance(
                u, householder.standard_hr(chi)))
            gen = pulses.build_global_pulse(chi, phase=phi)
            u = dynamics.propagator(gen)
            worst_gen = max(worst_gen, dynamics.hr_distance(
                u, householder.generalized_hr(chi, phi)))
    return [
        _check("propagator_standard_hr", worst_std, 1e-5,
               "Frobenius distance, resonant rms-2pi sech vs exact reflection"),
        _check("propagator_generalized_hr", worst_gen, 1e-4,
               "distance at the 0.661pi working point vs exact reflection"),
    ]


def _fitted_phase(rng: random.Random, trials: int) -> CheckResult:
    # detuning capped at 2/T: the RK4 norm defect grows as (delta*h)^6 per
    # step, and beyond that the default step count would need raising
    worst = 0.0
    for _ in range(trials):
        dt = rng.uniform(0.05, 2.0)
        chi = _random_chi(rng, 2)
        spec = model.PulseSpec(model.PulseShape("sech", 1.0), chi, 2.0, detuning=dt)
        fitted = dynamics.fit_hr_phase(dynamics.propagator(spec), chi)
        worst = max(worst, abs(fitted - pulses.phase_from_detuning(dt, 1)))
    return _check("fitted_phase_vs_formula", worst, 1e-3,
                  "reflection phase fitted from dynamics vs closed form, rad")


def _integrator_checks() -> list[CheckResult]:
    chi = model.CouplingVector(np.array([0.6, 0.8]))
    shape = model.PulseShape("sech", 1.0)
    spec = model.PulseSpec(shape, chi, 2.0, detuning=0.589)
    ref = dynamics.propagator(spec, dynamics.IntegratorConfig(steps_per_pulse=32000))
    errs = []
    for steps in (500, 1000):
        u = dynamics.propagator(spec, dynamics.IntegratorConfig(steps_per_pulse=steps),
                                unitarity_tol=1e-6)
        errs.append(np.linalg.norm(u.matrix - ref.matrix))
    ratio = errs[0] / errs[1]
    ratio_err = abs(ratio - 16.0)
    # drift must be read off the raw integrator output; the state constructor
    # repairs anything inside tolerance
    product = dynamics._spec_chain(spec, model.IntegratorConfig(), 0)[1][:, :, -1]
    raw = dynamics._bright_update(model.basis_register(2, 0).amplitudes,
                                  chi.components, product)
    drift = abs(float(np.linalg.norm(raw)) - 1.0)
    return [
        _check("integrator_order", ratio_err, 4.0,
               f"|error ratio - 16| for step halving (ratio {ratio:.2f})"),
        _check("norm_drift", drift, 1e-10, "per-pulse norm drift at defaults"),
    ]


def _deterministic_physical() -> CheckResult:
    cfg = model.SearchConfig(n_ions=15, marked_index=8, mode="physical",
                             variant="deterministic")
    result = grover.run_search(cfg)
    return _check("deterministic_n15_physical", 1.0 - result.success_probability,
                  1e-3, "pulse-level deterministic search infidelity, N=15")


def _w_init_physical() -> CheckResult:
    worst = 0.0
    for n in (4, 15, 20):
        cfg = model.SearchConfig(n_ions=n, marked_index=1, mode="physical")
        state = grover.initialize(cfg)
        fid = model.fidelity(state, model.uniform_register(n))
        worst = max(worst, 1.0 - fid, float(state.populations[0]))
    return _check("w_init_physical", worst, 1e-6,
                  "init infidelity and ancilla residual, N in {4, 15, 20}")


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"suite must be 'fast' or 'full', got {suite!r}")
    rng = random.Random(20080301)
    full = suite == "full"
    # in this order: the checks share rng
    return [*_hr_algebra(rng), _detuning_round_trip(),
            _deterministic_fidelity(64 if full else 16),
            _probabilistic_closed_form(64 if full else 16),
            *_propagator_checks(rng, trials=4 if full else 1),
            _fitted_phase(rng, trials=20 if full else 4),
            *([_w_init_physical()] if full else []),
            *_integrator_checks(), _deterministic_physical()]
