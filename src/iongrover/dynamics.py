"""Time-dependent Schrodinger integration of the driven N-pod.

The Hamiltonian couples the ancilla slot to every ion slot through a shared
pulse envelope (units with hbar = 1 throughout, couplings in rad/s):

    H(t)[n, 0] = g_n f(t) / 2        n = 1..N
    H(t)[0, n] = conj(g_n) f(t) / 2
    H(t)[0, 0] = delta

Conventions, fixed by numerical calibration: the coupling amplitudes sit on
the ancilla *column*, so the bright superposition that couples to the ancilla
is exactly the normalized coupling vector chi even when the g_n are complex;
and the ancilla diagonal carries the full detuning delta (the half-detuning
written with its hermitian twin), which is the choice under which a sech
pulse of rms area 2*pi at delta*T = 0.589 yields reflection phase +0.661*pi
and resonance yields phase pi.

Bright/dark reduction (Morris & Shore, PRA 27, 906 (1983)): the ancilla
couples only to the bright ion state g/|g|, and the ion states orthogonal to
it are dark and frozen.  A pulse is thus the 2x2 problem
[[delta, f|g|/2], [f|g|/2, 0]] on (ancilla, bright); overlapping pulses act on
span{ancilla, chi_1..chi_k}.  Fixed-step classical RK4 (bit-for-bit
reproducible) is a polynomial in the stage Hamiltonians, so on this invariant
space it is the same scheme as on the full register.  The one-step matrices of
all steps are built at once and chained by a log-depth prefix product; the
register is then rebuilt by a rank-r update, O(N) per pulse.  The recorded
trajectory stays in the same form: the register before the pulse, the driven
basis and the r driven components at each recorded step (``Trajectory``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .householder import Operator, Reflection
from .model import (
    CouplingVector,
    DimensionMismatchError,
    RegisterState,
    Trajectory,
    check_number,
    local_chi,
    state_segment,
)
from .pulses import PulseShape, PulseSpec


class IntegrationError(RuntimeError):
    """The integrator violated its norm or unitarity budget."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    ``window`` is the truncation half-width in units of the envelope width;
    at the default 15 the discarded sech tail area is a few 1e-6 radians,
    well below the operator tolerances used anywhere in the package.
    """

    steps_per_pulse: int = 4000
    window: float = 15.0
    norm_tolerance: float = 1e-9
    trajectory_stride: int = 8

    def __post_init__(self) -> None:
        check_number(self.steps_per_pulse, "steps_per_pulse", integer=True)
        check_number(self.trajectory_stride, "trajectory_stride", integer=True)
        check_number(self.window, "window")
        if self.steps_per_pulse < 16:
            raise ValueError("need at least 16 steps per pulse")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if not 0.0 < self.norm_tolerance <= 1e-9:
            raise ValueError("norm tolerance must be in (0, 1e-9]")
        if self.trajectory_stride < 1:
            raise ValueError("trajectory stride must be at least 1")


#: one-step matrices held in memory at once; longer grids are chained in
#: chunks that carry the running product
CHUNK_STEPS = 2048


def _matmul(a, b):
    """Products of stacked r x r matrices laid out (r, r, steps)."""
    return np.einsum("ikn,kjn->ijn", a, b)


def _chain(terms, t0, h, steps, stride):
    """Running products of the RK4 one-step matrices of a reduced Hamiltonian.

    Each term is (r x r coupling block without envelope, detuning, shape,
    center, span); a span (a, b) switches its pulse on for a <= t <= b only.
    Returns the recorded step counts (every ``stride`` steps, and the last)
    and the products up to each of them, shape (r, r, len(marks)).
    """
    eye = np.eye(len(terms[0][0]))[:, :, None]

    def stage(t):  # -i h H(t), one r x r matrix per time in t
        out = np.zeros(eye.shape[:2] + t.shape, dtype=complex)
        for block, delta, shape, center, span in terms:
            on = 1.0 if span is None else (span[0] <= t) & (t <= span[1])
            out += block[:, :, None] * (shape.envelope(t - center) * on)
            out[0, 0] += delta * on
        return (-1j * h) * out

    marks = np.append(np.arange(stride or steps, steps, stride or steps), steps)
    carry, out = eye, []
    for first in range(0, steps, CHUNK_STEPS):
        grid = t0 + h * np.arange(first, min(first + CHUNK_STEPS, steps))
        k1, mid = stage(grid), stage(grid + h / 2.0)
        k2 = _matmul(mid, eye + k1 / 2.0)
        k3 = _matmul(mid, eye + k2 / 2.0)
        k4 = _matmul(stage(grid + h), eye + k3)
        m = eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        d = 1  # Hillis-Steele scan: m[..., k] becomes the product of steps <= k
        while d < len(grid):
            m[:, :, d:] = _matmul(m[:, :, d:], m[:, :, :-d])
            d *= 2
        m = _matmul(m, carry)
        carry = m[:, :, -1:]
        picked = marks[(marks > first) & (marks <= first + len(grid))]
        out.append(m[:, :, picked - first - 1])
    return marks, np.concatenate(out, axis=2)


def _advance(y, q, marks, products, t0, h, times, segments):
    """Apply chained reduced propagators to y (vector or matrix of columns).

    The orthonormal columns of ``q`` span the driven states, ancilla first;
    the rest of the register is dark.  Unless ``times`` is None, the times of
    the recorded steps are appended to it and the ``Trajectory`` segment of
    the leading column to ``segments``.
    """
    z = q.conj().T @ y
    if times is not None:
        lead = z if z.ndim == 1 else z[:, 0]
        times.extend((t0 + marks * h).tolist())
        segments.append((y if y.ndim == 1 else y[:, 0], q,
                         np.einsum("ijm,j->mi", products, lead) - lead))
    return y + q @ (products[:, :, -1] @ z - z)


def _driven(directions):
    """Isometry onto the ancilla followed by the given ion-space directions."""
    q = np.zeros((directions.shape[0] + 1, directions.shape[1] + 1), dtype=complex)
    q[0, 0] = 1.0
    q[1:, 1:] = directions
    return q


def _integrate_pulse(y, couplings, delta, shape, steps, window, *,
                     center=0.0, stride=0, times=None, segments=None, chains=None):
    """Advance y (vector or matrix of columns) across one pulse window with RK4.

    When ``stride`` > 0 the leading column is recorded every ``stride`` steps
    and at the window end: times to ``times``, one segment to ``segments``.
    ``chains`` caches the reduced propagators by (|g|, delta, shape, grid), so
    pulses that differ only in their bright direction are integrated once.
    """
    g = np.asarray(couplings, dtype=complex)
    strength = float(np.linalg.norm(g))
    half = window * shape.width
    h = 2.0 * window * shape.width / steps
    chains = {} if chains is None else chains
    key = (strength, delta, shape, steps, window, stride)
    if key not in chains:  # in the pulse's own time, centered at 0
        block = np.array([[0.0, strength / 2.0], [strength / 2.0, 0.0]])
        chains[key] = _chain([(block, delta, shape, 0.0, None)], -half, h, steps, stride)
    return _advance(y, _driven(g[:, None] / (strength or 1.0)), *chains[key],
                    center - half, h, times if stride else None, segments)


def _integrate_cluster(y, pulses, spans, cfg, stride, times, segments):
    """Integrate pulses with overlapping windows under their summed Hamiltonian.

    One global grid, refined so the narrowest pulse keeps its step count,
    runs on span{ancilla, chi_1..chi_k}; the basis is rank-revealing, so
    repeated or dependent chis add no dimension.  Each pulse, detuning
    included, acts only while a <= t <= b for its window (a, b).
    """
    lo = min(s[0] for s in spans)
    hi = max(s[1] for s in spans)
    base = 2.0 * cfg.window * min(p.shape.width for p in pulses)
    steps = int(math.ceil(cfg.steps_per_pulse * (hi - lo) / base))
    g = np.column_stack([p.couplings for p in pulses])
    u, sv, _ = np.linalg.svd(g, full_matrices=False)
    q = _driven(u[:, sv > sv[0] * max(g.shape) * np.finfo(float).eps])
    terms = []
    for p, span in zip(pulses, spans):
        block = np.zeros((q.shape[1],) * 2, dtype=complex)
        block[1:, 0] = q[1:, 1:].conj().T @ p.couplings / 2.0
        block[0, 1:] = block[1:, 0].conj()
        terms.append((block, p.detuning, p.shape, p.center, span))
    h = (hi - lo) / steps
    return _advance(y, q, *_chain(terms, lo, h, steps, stride), lo, h, times,
                    segments)


def evolve(state: RegisterState, spec: PulseSpec,
           cfg: IntegratorConfig | None = None) -> RegisterState:
    """Propagate a register state across the full pulse window (its center
    only places the pulse in time, so it is ignored here).

    Raises ``IntegrationError`` if the norm drifts beyond the configured
    tolerance; drift inside the tolerance is repaired, never hidden above it.
    """
    cfg = cfg or IntegratorConfig()
    if spec.n_ions != state.n_ions:
        raise DimensionMismatchError(
            f"pulse drives {spec.n_ions} ions but register has {state.n_ions}"
        )
    y = _integrate_pulse(state.amplitudes, spec.couplings, spec.detuning,
                         spec.shape, cfg.steps_per_pulse, cfg.window)
    drift = abs(float(np.linalg.norm(y)) - 1.0)
    if not drift <= cfg.norm_tolerance:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds tolerance {cfg.norm_tolerance:g}"
        )
    return RegisterState(y)


def propagator(spec: PulseSpec, cfg: IntegratorConfig | None = None,
               unitarity_tol: float = 1e-9) -> Operator:
    """Full-window propagator, column k being the evolution of basis slot k.

    The default unitarity gate suits production step counts; convergence
    studies that integrate deliberately coarsely may loosen it.
    """
    cfg = cfg or IntegratorConfig()
    u = _integrate_pulse(np.eye(spec.n_ions + 1), spec.couplings, spec.detuning,
                         spec.shape, cfg.steps_per_pulse, cfg.window)
    try:
        return Operator(u, unitarity_tol=unitarity_tol)
    except ValueError as exc:
        raise IntegrationError(str(exc)) from exc


def HamiltonianSpec(couplings, envelope: PulseShape, detuning: float = 0.0) -> PulseSpec:
    """The pulse with per-ion couplings g: rms peak |g| along chi = g/|g|.

    Kept as an alias for callers that describe a pulse by its couplings;
    zero couplings give a pulse of rms peak 0.
    """
    g = np.asarray(couplings, dtype=complex)
    strength = float(np.linalg.norm(g))
    check_number(strength, "coupling strength")
    chi = CouplingVector(g / strength) if strength else local_chi(len(g), 1)
    return PulseSpec(envelope, chi, strength, detuning=detuning)


def hamiltonian_from_pulse(pulse: PulseSpec) -> PulseSpec:
    """Alias kept for callers written against ``HamiltonianSpec``: the pulse itself."""
    return pulse


def evolve_schedule(
    state: RegisterState,
    pulses: Sequence[PulseSpec],
    cfg: IntegratorConfig | None = None,
    record: bool = False,
):
    """Run a sequence of pulses; returns (final state, times, ``Trajectory``).

    Non-overlapping windows (the default spacing) are integrated pulse by
    pulse; nothing evolves between windows because the drive and its rotating
    frame are only defined while a pulse is on.  If windows overlap, the
    overlapping stretch is integrated under the summed pulse Hamiltonians on
    a proportionally refined global grid (an exploration mode for studying
    pulse-crowding effects).
    """
    cfg = cfg or IntegratorConfig()
    pulses = sorted(pulses, key=lambda p: p.center)
    for p in pulses:
        if p.n_ions != state.n_ions:
            raise DimensionMismatchError("pulse and register sizes differ")
    times: list[float] = []
    segments: list = []
    stride = cfg.trajectory_stride if record else 0
    y = state.amplitudes

    spans = [(p.center - cfg.window * p.shape.width,
              p.center + cfg.window * p.shape.width) for p in pulses]
    overlap = any(spans[i][1] > spans[i + 1][0] + 1e-12 for i in range(len(spans) - 1))

    if record and pulses:
        times.append(spans[0][0])
        segments.append(state_segment([y]))

    if overlap:
        y = _integrate_cluster(y, pulses, spans, cfg, stride,
                               times if stride else None, segments)
    else:
        # oracle and global pulses share (|g|, delta), so a search integrates
        # each distinct pulse once and applies it along every bright direction
        chains: dict = {}
        for p in pulses:
            y = _integrate_pulse(y, p.couplings, p.detuning, p.shape,
                                 cfg.steps_per_pulse, cfg.window, center=p.center,
                                 stride=stride, times=times, segments=segments,
                                 chains=chains)

    drift = abs(float(np.linalg.norm(y)) - 1.0)
    budget = cfg.norm_tolerance * max(1, len(pulses))
    if not drift <= budget:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds schedule budget {budget:g}"
        )
    final = RegisterState(y / np.linalg.norm(y))
    return final, np.asarray(times, dtype=float), Trajectory(tuple(segments))


def hr_distance(candidate: Operator | Reflection | np.ndarray,
                reference: Operator | Reflection | np.ndarray) -> float:
    """Frobenius distance between a simulated propagator and an analytic reflection.

    The ancilla's return phase is not observable in the search protocol (the
    ancilla is unpopulated between pulses), so the candidate's ancilla
    diagonal element is replaced by its modulus before comparing; its
    magnitude deficit and any leakage into the ancilla row/column still count.
    """
    u = np.array(getattr(candidate, "matrix", candidate), dtype=complex)
    v = np.asarray(getattr(reference, "matrix", reference), dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError("operators must share a shape")
    u[0, 0] = abs(u[0, 0])
    return float(np.linalg.norm(u - v))


def fit_hr_phase(candidate: Operator | Reflection | np.ndarray,
                 chi: CouplingVector) -> float:
    """Reflection phase carried by chi under a (near-)reflection propagator."""
    u = np.asarray(getattr(candidate, "matrix", candidate))
    block = u[1:, 1:]
    if block.shape[0] != chi.n_ions:
        raise DimensionMismatchError("operator and coupling vector sizes differ")
    return float(np.angle(np.vdot(chi.components, block @ chi.components)))
