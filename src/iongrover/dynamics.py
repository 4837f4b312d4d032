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
[[delta, f|g|/2], [f|g|/2, 0]] on (ancilla, bright).  A whole schedule stays
in span{ancilla, start state, chi_1..chi_K} (Biham et al., PRA 60, 2742
(1999)), so a run, or a stack of sweep cells, is carried as r <= K + 2
coordinates in one orthonormal basis of that span each (``subspace``): O(N)
once, O(r) per step after; ``_search_rows`` steps any start row under any
r x r operator by doubling, and ``_search_last`` forms only the last row.
Fixed-step classical RK4 (bit-for-bit reproducible) is a polynomial in the
stage Hamiltonians, so on this invariant space it is the same scheme as on
the full register.  A lone pulse's 2x2 Hamiltonian is real, so its one-step
matrices are that polynomial written out in the envelope samples
(``_pulse_chain``); overlapping pulses take stage-matrix products (``_chain``)
on one global grid, each pulse sampled only on the chunks its window meets.
One rule, ``_overlaps``, tells them from windows that only touch, as at the
default spacing of twice the window: lone pulses at any width, run or sweep.
Every reader of a pulse's 2x2 takes its one memo entry from ``_spec_chain``,
and every schedule, start register and sweep cell keeps one drift rule
(``_check_drift``: ``NORM_REPAIR_TOL`` per pulse applied).
Every envelope is even about its center, so a lone pulse's step steps-1-k is
the transpose of step k (RK4 is time-reversible for a real time-symmetric H):
on an even grid whose recorded steps mirror about the middle, only the first
half L is integrated and the window is L^T L.  Either way the one-step
matrices of a chunk are built at once and ``_products`` multiplies them:
pairwise trees between recorded steps and a log-depth prefix scan over those
segments.  The recorded trajectory is the basis and the coordinates at each
recorded step (``Trajectory``).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .householder import Operator, Reflection
from .model import (
    NORM_REPAIR_TOL,
    CouplingVector,
    DimensionMismatchError,
    IntegratorConfig,
    PulseShape,
    PulseSpec,
    RegisterState,
    Trajectory,
    check_number,
    local_chi,
)


class IntegrationError(RuntimeError):
    """The integrator violated its norm or unitarity budget."""


#: one-step matrices held in memory at once; longer grids are chained in
#: chunks that carry the running product
CHUNK_STEPS = 2048


def _matmul(a, b):
    """Products of stacked r x r matrices laid out (r, r, ...steps)."""
    return np.einsum("ik...,kj...->ij...", a, b)


def _products(step, r, steps, stride):
    """Recorded running products of the one-step r x r matrices that
    ``step(first, n)`` returns for steps first..first + n - 1, laid out
    (r, r, n).  Returns the recorded step counts (every ``stride`` steps, and
    the last) and the products up to each of them, shape (r, r, len(marks)).

    Only these are formed: pairwise trees multiply the steps up to each mark
    and each chunk's end, and a Hillis-Steele scan chains those segments.  This
    is the association, so the bits, of a scan of every step at stride 0 and at
    a power of two dividing ``CHUNK_STEPS`` and ``steps``; elsewhere, rounding.
    """
    eye = np.eye(r)[:, :, None]

    def tree(x):  # x[..., -1] becomes the product along x's last axis
        x, d = x[..., ::-1], 1  # paired from the end, as the scan pairs them
        while d < x.shape[-1]:
            x[..., :-d:2 * d] = _matmul(x[..., :-d:2 * d], x[..., d::2 * d])
            d *= 2

    marks = np.append(np.arange(stride or steps, steps, stride or steps), steps)
    carry, out = eye, []
    for first in range(0, steps, CHUNK_STEPS):
        n = min(CHUNK_STEPS, steps - first)
        m = step(first, n)
        picked = marks[(marks > first) & (marks <= first + n)]
        ends = picked - first - 1  # segment ends: the marks and the last step
        ends = np.append(ends[ends < n - 1], n - 1)
        a, b = ends[0] + 1, ends[:-1].max(initial=ends[0]) + 1
        tree(m[:, :, :a])  # the segments: first, those a stride long, last
        # (none if stride >= n: then r * r * stride complexes can overflow int64 bytes)
        tree(m[:, :, a:b].reshape((r, r, -1, max(1, min(stride, n)))))
        tree(m[:, :, b:])
        m, d = m.take(ends, 2), 1
        while d < len(ends):  # Hillis-Steele scan over the segment products
            m[:, :, d:] = _matmul(m[:, :, d:], m[:, :, :-d])
            d *= 2
        m = _matmul(m, carry)
        carry = m[:, :, -1:]
        out.append(m[:, :, :len(picked)])
    return marks, np.concatenate(out, axis=2)


def _chain(terms, t0, h, steps, stride):
    """``_products`` of the RK4 one-step matrices of a reduced Hamiltonian on
    the grid t0 + h k.

    Each term is (r x r coupling block without envelope, detuning, shape,
    center, span (a, b)): the pulse is on for a <= t <= b only, and sampled
    only where a chunk's stage times meet its span.  A step evaluates the stage
    matrices -i h H at t, t + h/2 and t + h and multiplies them as RK4 does.
    """
    eye = np.eye(len(terms[0][0]))[:, :, None]

    def stage(t):  # -i h H(t), one r x r matrix per time in t, t ascending
        out = np.zeros(eye.shape[:2] + t.shape, dtype=complex)
        for block, delta, shape, center, (a, b) in terms:
            if a <= t[-1] and t[0] <= b:  # else it would add only zeros
                on = (a <= t) & (t <= b)
                # clipped: a chunk straddling an edge reaches where cosh overflows
                f = shape.envelope(np.clip(t, a, b) - center) * on
                out += block[:, :, None] * f
                out[0, 0] += delta * on
        return (-1j * h) * out

    def rk4(first, n):
        grid = t0 + h * np.arange(first, first + n)
        k1, mid = stage(grid), stage(grid + h / 2.0)
        k2 = _matmul(mid, eye + k1 / 2.0)
        k3 = _matmul(mid, eye + k2 / 2.0)
        k4 = _matmul(stage(grid + h), eye + k3)
        return eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    return _products(rk4, len(eye), steps, stride)


@functools.lru_cache(maxsize=32)  # a search has two or three distinct pulses
def _pulse_chain(strength, delta, shape, steps, window, stride):
    """The RK4 chain of one pulse on (ancilla, bright), in its own time
    (centered at 0): the Hamiltonian [[delta, f|g|/2], [f|g|/2, 0]], which is
    what ``_chain`` integrates for this one term, up to rounding.  Memoized for
    the process, so its arrays are shared by every caller and read-only.

    H is real, so with S = h H = [[d, a], [a, 0]] at the stages 1, 2, 3 (t,
    t + h/2, t + h) an RK4 step is the polynomial
        1 - i (S1 + 4 S2 + S3)/6 - (S2 S1 + S2^2 + S3 S2)/6
          + i (S2^2 S1 + S3 S2^2)/12 + S3 S2^2 S1/24,
    whose eight real parts are written out below in d and a1, a2, a3.  The
    envelope is sampled once at a chunk's step points and once at its
    midpoints: stage 3 of one step is stage 1 of the next.

    Every envelope is even and the window is centered, so step steps-1-k has
    the stages of step k with a1 and a3 swapped, which transposes it:
    M_{steps-1-k} = M_k^T, up to the rounding of the grid (RK4 of a real
    time-symmetric H is time-reversible).  When ``steps`` is even and
    ``stride`` is 0 or divides half = steps/2, only the first half is
    integrated: with L = P(half) the window is P(steps) = L^T L, and a mark
    after the middle is P(half + m) = S_m^T L, where S_m = M_{half-1}..M_{half-m}
    = L P(half - m)^-1 by the 2x2 adjugate.  Other (steps, stride) take every
    step.  Either way it is one ``_products`` call.
    """
    t0, h = -window * shape.width, 2.0 * window * shape.width / steps
    d, dd, scale = h * delta, (h * delta) ** 2, h * strength / 2.0

    def rk4(first, n):
        grid = t0 + h * np.arange(first, first + n + 1)
        a = scale * shape.envelope(grid)
        a1, a2, a3 = a[:-1], scale * shape.envelope(grid[:-1] + h / 2.0), a[1:]
        q, s13 = dd + a2 * a2, a1 + a3  # q: the (0, 0) element of S2^2
        a12, a23 = a1 * a2, a2 * a3
        p, u, w = a2 * (s13 + a2), q + a12, dd + a12
        lin = (s13 + 4.0 * a2) / 6.0
        m = np.empty((2, 2, n), dtype=complex)
        # the diagonal adds 1 last, once: rounding twice near 1 biased every
        # step alike, 3e-12 over 32,000 steps
        m.real[0, 0] = 1.0 + ((dd * u + a23 * w) / 24.0 - (3.0 * dd + p) / 6.0)
        m.real[0, 1] = d * a1 * (q + a23) / 24.0 - d * (a1 + 2.0 * a2) / 6.0
        m.real[1, 0] = d * a3 * u / 24.0 - d * (2.0 * a2 + a3) / 6.0
        m.real[1, 1] = 1.0 + (a1 * a3 * q / 24.0 - p / 6.0)
        m.imag[0, 0] = d * (2.0 * q + a2 * s13) / 12.0 - d
        m.imag[0, 1] = (a1 * q + a2 * (dd + a23)) / 12.0 - lin
        m.imag[1, 0] = (a2 * w + a3 * q) / 12.0 - lin
        m.imag[1, 1] = d * a2 * s13 / 12.0
        return m

    half = steps // 2
    if steps % 2 or stride and half % stride:  # the marks do not mirror
        chain = _products(rk4, 2, steps, stride)
    else:
        marks, p = _products(rk4, 2, half, stride)
        # P(half + m) = S_m^T L = adj(Q)^T L^T L / det Q, with Q = P(half - m)
        q = np.concatenate([np.eye(2)[:, :, None], p[:, :, :-1]], axis=2)[:, :, ::-1]
        adj_t = np.array([[q[1, 1], -q[1, 0]], [-q[0, 1], q[0, 0]]])
        tail = np.einsum("ikm,lk,lj->ijm", adj_t, p[:, :, -1], p[:, :, -1])
        tail /= q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        chain = ((np.append(marks, half + marks), np.append(p, tail, axis=2))
                 if stride else (half + marks, tail))
    for a in chain:
        a.setflags(write=False)
    return chain


def _spec_chain(spec, cfg, stride):
    """The memoized ``_pulse_chain`` of a pulse, keyed on its own rms peak,
    detuning and shape, on ``cfg``'s grid at ``stride``."""
    return _pulse_chain(spec.rms_peak, spec.detuning, spec.shape,
                        cfg.steps_per_pulse, cfg.window, stride)


def _check_drift(norm, pulses):
    """Raise ``IntegrationError`` for a norm off 1 by more than
    ``NORM_REPAIR_TOL`` per pulse applied."""
    drift, budget = abs(norm - 1.0), NORM_REPAIR_TOL * max(1, pulses)
    if not drift <= budget:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds "
                               f"schedule budget {budget:g}")


def _integrate_pulse(y, couplings, delta, shape, steps, window):
    """Advance y (vector or matrix of columns) across one pulse window with RK4:
    the full-window chain of the pulse with couplings g (``HamiltonianSpec``)."""
    spec = HamiltonianSpec(couplings, shape, delta)
    product = _spec_chain(spec, IntegratorConfig(steps, window), 0)[1][:, :, -1]
    return _bright_update(y, spec.chi.components, product)


def _bright_update(y, chi, product):
    """y + Q (P - 1) Q^dagger y with Q = [e0, chi]: the 2x2 ``product`` P acts
    on each column's (ancilla, chi) pair and leaves the dark rest alone."""
    q = np.zeros((len(y), 2), dtype=complex)  # (ancilla, bright)
    q[0, 0] = 1.0
    q[1:, 1] = chi
    z = q.conj().T @ y
    return y + q @ (product @ z - z)


def subspace(vectors):
    """Orthonormal ion rows (cells, k, N) spanning each cell's k ion vectors
    (cells x k x N), and the vectors' coordinates (cells, k, k + 1): slot 0
    (the ancilla) empty, slot i + 1 row i.  Gram-Schmidt, applied twice; a
    remainder below 1e-10 leaves that cell's row and slot zero, and a row no
    cell keeps is not formed.  The coordinates are the projection
    coefficients, summed pairwise, so they stay exact where projecting the
    whole vector afterwards would cancel."""
    ions = np.array(vectors, dtype=complex)  # orthonormalized in place
    k = ions.shape[1]
    coords = np.zeros((len(ions), k, k + 1), dtype=complex)
    n = 0  # rows formed
    for j in range(k):
        if n < j:
            ions[:, n] = ions[:, j]
        w = ions[:, n]
        for _ in range(2 if n else 0):
            a = np.add.reduce(ions[:, :n].conj() * w[:, None], axis=2)
            w -= np.matmul(a[:, None], ions[:, :n])[:, 0]
            coords[:, j, 1:n + 1] += a
        norm = np.sqrt(np.add.reduce(w.view(float) ** 2, axis=1))
        kept = norm > 1e-10  # else the cell's row (w / inf) and slot stay zero
        w /= np.where(kept, norm, np.inf)[:, None]
        coords[:, j, n + 1] = np.where(kept, norm, 0.0)
        n += bool(kept.any())
    ions[:, n:] = 0.0
    return ions, coords


def _basis(vectors):
    """``subspace`` of one cell's k ion vectors, its empty slots dropped: the
    basis q (N + 1, r), ancilla first, and the coordinates (k, r)."""
    ions, coords = subspace([vectors])
    r = 1 + np.count_nonzero(coords[0].any(axis=0))
    q = np.eye(ions.shape[2] + 1, r, dtype=complex)
    q[1:, 1:] = ions[0, :r - 1].T
    return q, coords[0, :, :r]


def _search_rows(start, u, count):
    """Rows (cells, count + 1, r) of each cell's search: its ``start`` row
    (cells, 1, r), then ``count`` times its operator ``u`` (cells, r, r), any
    r x r matrix.  Doubling, a scan (Blelloch, CMU-CS-90-190 (1990)):
    rows[n:2n] = rows[:n] (U^n)^T, then U <- U^2, ceil(log2(count + 1)) times."""
    rows = np.empty((len(start), count + 1, start.shape[2]), dtype=complex)
    rows[:, :1] = start
    n = 1
    while n <= count:
        m = min(n, count + 1 - n)
        rows[:, n:n + m] = rows[:, :m] @ u.swapaxes(1, 2)
        u, n = u @ u, 2 * n
    return rows


def _search_last(start, u, count):
    """The last row of ``_search_rows`` alone, (cells, 1, r): U^(2^i) applied
    for each set bit i of ``count``, the lowest first, as the doubling forms it."""
    row = start
    for bit in reversed(f"{count:b}"):
        if bit == "1":
            row = row @ u.swapaxes(1, 2)
        u = u @ u
    return row


def _overlaps(centers, widths, window):
    """Whether windows about ascending ``centers`` overlap a neighbour: by more than
    1e-9 of the narrower width and 4 ulps of their times (the centers' rounding)."""
    spans = [(c - window * w, c + window * w) for c, w in zip(centers, widths)]
    return any(a[1] - b[0] > max(1e-9 * min(v, w), 4.0 * math.ulp(a[1]))
               for a, b, v, w in zip(spans, spans[1:], widths, widths[1:]))


def _windows(pulses, column, cfg, stride):
    """Each integrated window as (start, step, recorded step counts, e, P): P
    holds the running propagators on the orthonormal columns e of the run's
    coordinates, where ``column`` maps each chi, by identity, to its own.

    A pulse alone drives e = [e0, c_chi], by its (ancilla, bright) chain from
    the process memo ``_pulse_chain``.  Windows that ``_overlaps`` finds
    overlapping form one window on all coordinates: a global grid, refined so
    the narrowest pulse keeps its step count, with each pulse (detuning
    included) on only in its own span.  A grid whose step count leaves the
    float range raises ``IntegrationError``.
    """
    spans = [(p.center - cfg.window * p.shape.width,
              p.center + cfg.window * p.shape.width) for p in pulses]
    if _overlaps([p.center for p in pulses], [p.shape.width for p in pulses], cfg.window):
        e = np.eye(len(column[id(pulses[0].chi)]))
        lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
        base = 2.0 * cfg.window * min(p.shape.width for p in pulses)
        steps = cfg.steps_per_pulse * (hi - lo) / base
        if not math.isfinite(steps):
            raise IntegrationError(f"the global grid of the overlapping windows from "
                                   f"{lo!r} to {hi!r} needs {steps} steps")
        steps = int(math.ceil(steps))
        terms = []
        for p, span in zip(pulses, spans):
            block = np.zeros(e.shape, dtype=complex)
            block[:, 0] = p.rms_peak * column[id(p.chi)] / 2.0
            block[0] = block[:, 0].conj()
            terms.append((block, p.detuning, p.shape, p.center, span))
        h = (hi - lo) / steps
        marks, products = _chain(terms, lo, h, steps, stride)
        yield lo, h, marks, e, products
        return
    for p, (lo, _) in zip(pulses, spans):
        marks, products = _spec_chain(p, cfg, stride)
        e = np.eye(len(column[id(p.chi)]), 2, dtype=complex)  # [e0, c_chi]
        e[:, 1] = column[id(p.chi)]
        yield (lo, 2.0 * cfg.window * p.shape.width / cfg.steps_per_pulse,
               marks, e, products)


def propagator(spec: PulseSpec, cfg: IntegratorConfig | None = None,
               unitarity_tol: float = 1e-9) -> Operator:
    """Full-window propagator, column k being the evolution of basis slot k.

    The default unitarity gate suits production step counts; convergence
    studies that integrate deliberately coarsely may loosen it.
    """
    product = _spec_chain(spec, cfg or IntegratorConfig(), 0)[1][:, :, -1]
    u = _bright_update(np.eye(spec.n_ions + 1), spec.chi.components, product)
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
):
    """Run a sequence of pulses; returns (final state, times, ``Trajectory``).

    The run is carried as its coordinates in the ``subspace`` of the state
    and the distinct chis (by identity), one cell with its empty slots
    dropped.  Non-overlapping windows (the default spacing) are integrated
    pulse by pulse; nothing evolves between windows because the drive and
    its rotating frame are only defined while a pulse is on.  If windows
    overlap (``_overlaps``), the whole schedule is integrated under the summed
    pulse Hamiltonians on a proportionally refined global grid, as the
    crowding figure's spacings below 30 are.  A norm drift
    beyond ``NORM_REPAIR_TOL`` per pulse raises ``IntegrationError``; drift
    inside it is repaired, never hidden above it.  Every schedule is recorded
    at its start, the earliest window start (0.0 if it is empty), every
    ``cfg.trajectory_stride`` steps of each window and each window's last step:
    the rows are counted from the windows' marks before any is stepped, and
    each window writes its rows and times into the one preallocated record.
    """
    cfg = cfg or IntegratorConfig()
    pulses = sorted(pulses, key=lambda p: p.center)
    for p in pulses:
        if p.n_ions != state.n_ions:
            raise DimensionMismatchError("pulse and register sizes differ")
    distinct = list({id(p.chi): p.chi for p in pulses}.values())
    q, coords = _basis([state.amplitudes[1:], *(c.components for c in distinct)])
    z = np.append(state.amplitudes[0], coords[0, 1:])
    column = dict(zip(map(id, distinct), coords[1:]))
    windows = list(_windows(pulses, column, cfg, cfg.trajectory_stride))
    total = 1 + sum(len(marks) for _, _, marks, _, _ in windows)
    times, rows = np.empty(total), np.empty((total, len(z)), dtype=complex)
    times[0] = min((p.center - cfg.window * p.shape.width for p in pulses), default=0.0)
    rows[0] = z
    end = 1
    for t0, h, marks, e, products in windows:
        w = e.conj().T @ z
        first, end = end, end + len(marks)
        rows[first:end] = z + (np.einsum("ijm,j->mi", products, w) - w) @ e.T
        times[first:end] = t0 + marks * h
        z = rows[end - 1]

    norm = float(np.linalg.norm(z))
    _check_drift(norm, len(pulses))
    return RegisterState(q @ (z / norm)), times, Trajectory(q, rows)


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
