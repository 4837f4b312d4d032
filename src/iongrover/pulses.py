"""Pulse area accounting, the detuning <-> phase calculus and the pulse builder.

A pulse with rms area 2*pi*l and a constant detuning delta realizes a
generalized Householder reflection whose phase depends only on the
dimensionless product delta*T.  For the sech envelope the map is the closed
form ``phase_from_detuning``; ``build_global_pulse`` calibrates the (area,
detuning) pair of any other envelope on its 2x2 (ancilla, bright) chain.  The
pulse value types live in ``model``, and this module re-exports them.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import dynamics
from .model import CouplingVector, IntegratorConfig, PulseShape, PulseSpec


class NoSolutionError(ValueError):
    """The requested reflection phase is not attainable at the given area."""


def _wrap_phase(phi: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    r = math.remainder(phi, 2.0 * math.pi)
    return r + 2.0 * math.pi if r <= -math.pi else r


def rms_area(pulse: PulseSpec, window: float | None = None) -> float:
    """Temporal rms area g * integral(f) in radians."""
    return pulse.rms_peak * pulse.shape.integral(window)


def phase_from_detuning(delta_t: float, l: int = 1) -> float:
    """Reflection phase of a sech pulse with rms area 2*pi*l at detuning delta*T
    (other envelopes map delta*T to other phases).

    phi = 2 * sum_{j=0}^{l-1} arg(delta*T + i(2j+1)), reduced to (-pi, pi].
    Resonance gives phi = pi for odd l and phi = 0 for even l.
    """
    if l < 1:
        raise ValueError(f"area index l must be a positive integer, got {l}")
    raw = 2.0 * sum(math.atan2(2 * j + 1, delta_t) for j in range(l))
    return _wrap_phase(raw)


def detuning_for_phase(phi: float, l: int = 1) -> float:
    """Invert ``phase_from_detuning`` on its principal positive branch.

    Valid targets are 0 < phi <= pi; the underlying unwrapped map decreases
    monotonically from l*pi to 0 as delta*T grows, so the solution is unique.
    For l = 1 the closed form is delta*T = cot(phi/2).
    """
    if l < 1:
        raise ValueError(f"area index l must be a positive integer, got {l}")
    if not 0.0 < phi <= math.pi:
        raise NoSolutionError(
            f"phase {phi!r} not attainable on the principal branch (0, pi]"
        )
    if l == 1:
        u = math.tan(phi / 2.0)
    else:
        # In u = 1/(delta*T) the map 2 sum_j atan((2j+1) u) rises and is concave
        # on u >= 0: Newton steps from its tangent at 0, u = phi/(2 l^2), climb to
        # the root, which atan((2j+1) u) >= atan(u) bounds by tan(phi/(2l));
        # off-bracket steps bisect.
        odd = range(1, 2 * l, 2)
        lo, hi = phi / (2.0 * l * l), math.tan(phi / (2.0 * l))
        u = lo
        for _ in range(64):
            g = 2.0 * sum(math.atan(a * u) for a in odd) - phi
            lo, hi = (u, hi) if g < 0.0 else (lo, u)
            step = g / (2.0 * sum(a / (1.0 + (a * u) ** 2) for a in odd))
            nxt = u - step if lo <= u - step <= hi else 0.5 * (lo + hi)
            u, last = nxt, u
            if abs(u - last) <= 4e-16 * u:
                break
    if not u > 0.0 or math.isinf(1.0 / u):
        # phi/2 underflowed, or delta*T ~ 2 l^2 / phi lies beyond the float range
        raise NoSolutionError(f"phase {phi!r} needs a detuning beyond the float range")
    return 1.0 / u


def build_global_pulse(
    chi: CouplingVector,
    phase: float = math.pi,
    shape: PulseShape = PulseShape("sech", 1.0),
    peak_coupling: float | None = None,
    integrator: IntegratorConfig | None = None,
) -> PulseSpec:
    """Pulse along chi realizing M(chi; phase), centered at t = 0.

    Sech and resonant (phase pi) pulses take the closed-form detuning and
    ``peak_coupling``, by default the exact 2*pi area.  Any other pulse gets
    both from a calibration on the ``integrator`` grid, so it is an exact
    reflection on the chain a run integrates; a configured peak is refused.
    """
    if not calibrates(shape, phase):
        peak, delta_t = nominal_pulse(shape, phase, peak_coupling)
        return PulseSpec(shape, chi, peak, detuning=delta_t / shape.width)
    if peak_coupling is not None:
        raise ValueError(f"peak_coupling cannot be set for a detuned {shape.kind!r} "
                         "pulse: its calibration fixes the area")
    cfg = integrator or IntegratorConfig()
    peak, detuning = _calibrate(shape, phase, cfg.steps_per_pulse, cfg.window)
    return PulseSpec(shape, chi, peak, detuning=detuning)


def nominal_pulse(shape: PulseShape, phase: float,
                  peak_coupling: float | None) -> tuple[float, float]:
    """(rms peak, delta*T) of a pulse that is not calibrated: ``peak_coupling``,
    by default the exact 2*pi area 2*pi/integral(f), and the closed-form sech
    detuning of ``phase``, 0 on resonance."""
    peak = 2.0 * math.pi / shape.integral() if peak_coupling is None else peak_coupling
    return peak, 0.0 if phase == math.pi else detuning_for_phase(phase, 1)


def calibrates(shape: PulseShape, phase: float) -> bool:
    """Whether ``build_global_pulse`` calibrates the area: detuned, not sech."""
    return shape.kind != "sech" and phase != math.pi


@functools.lru_cache(maxsize=32)
def _calibrate(shape: PulseShape, phase: float, steps: int, window: float):
    """(rms peak, detuning) realizing ``phase`` on the ``steps``-step RK4
    chain over the half window ``window * T``.

    A 2-D Newton solve in (area, delta*T) with finite-difference Jacobians on
    the window product P of the (ancilla, bright) chain, seeded by the sech
    solution.  Both residuals are signed, so their roots are crossings: the
    phase error arg P[1, 1] - phase, and the leakage Im(P[0, 1] e^{i delta w T}),
    where w T is the half window.  tr H = delta gives det P = e^{-2 i delta w T},
    so e^{i delta w T} P is special unitary, and a real coupling on an
    envelope symmetric in time makes it symmetric: its off-diagonal element
    is imaginary.
    """
    if not 0.0 < phase < math.pi:
        raise NoSolutionError("calibration targets phases strictly inside (0, pi)")

    def residuals(x):
        area, delta_t = x
        # the uncached chain: probes must not evict the process memo's pulses
        p = dynamics._pulse_chain.__wrapped__(area / shape.integral(),
                                              delta_t / shape.width, shape, steps,
                                              window, 0)[1][:, :, -1]
        return np.array([(p[0, 1] * cmath.exp(1j * delta_t * window)).imag,
                         math.remainder(cmath.phase(p[1, 1]) - phase, 2.0 * math.pi)])

    x = np.array([2.0 * math.pi, detuning_for_phase(phase, 1)])
    for _ in range(32):  # sech and Gaussian need at most 10 from 0.1*pi up
        r = residuals(x)
        if np.abs(r).max() <= 1e-12 and x[0] > 0.0:
            return float(x[0]) / shape.integral(), float(x[1]) / shape.width
        jac = np.column_stack([(residuals(x + 1e-7 * e) - r) / 1e-7 for e in np.eye(2)])
        if not abs(np.linalg.det(jac)) > 0.0:  # a flat or non-finite residual
            break
        x = x - np.linalg.solve(jac, r)
    raise NoSolutionError(f"no (area, detuning) found for phase {phase!r}")
