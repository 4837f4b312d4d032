"""The bright/dark RK4 engine against independent oracles.

``dense_integrate_pulse`` and ``dense_overlap`` are the straightforward
integrators: classical RK4 on the full (N+1)-slot register, one dense matvec
per stage.  They are kept here as test-only references.  The reduced engine
runs the same scheme on the invariant (ancilla, bright) subspace, so both must
agree to rounding.  The Rosen-Zener solution of the sech pulse is a second,
closed-form oracle for the 2x2 propagator.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma, hyp2f1

from iongrover import dynamics
from iongrover.grover import build_plan, initialize, run_search
from iongrover.householder import apply, generalized_hr
from iongrover.dynamics import (
    HamiltonianSpec,
    IntegratorConfig,
    _integrate_pulse,
    evolve_schedule,
    propagator,
    subspace,
)
from iongrover.model import (
    CouplingVector,
    ImperfectionSettings,
    PulseSettings,
    RegisterState,
    SearchConfig,
    basis_register,
    local_chi,
    uniform_chi,
)
from iongrover.pulses import PulseShape, PulseSpec

SECH = PulseShape("sech", 1.0)
GAUSS = PulseShape("gaussian", 1.3)
EQUIVALENCE_TOL = 1e-12


@pytest.fixture
def chained(monkeypatch):
    """The arguments of every ``_chain`` call, counted from an empty
    ``_pulse_chain`` memo (it is process-wide, so earlier tests fill it)."""
    dynamics._pulse_chain.cache_clear()
    calls = []
    real_chain = dynamics._chain
    monkeypatch.setattr(dynamics, "_chain", lambda *a: calls.append(a) or real_chain(*a))
    return calls


def coupling_matrix(couplings):
    n = len(couplings)
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[1:, 0] = couplings / 2.0
    c[0, 1:] = np.conj(couplings) / 2.0
    return c


def dense_integrate_pulse(y, couplings, delta, shape, steps, window, *,
                          center=0.0, stride=0, times=None, pops=None):
    c = coupling_matrix(couplings)
    t0 = center - window * shape.width
    h = 2.0 * window * shape.width / steps
    grid = t0 + h * np.arange(steps)
    f_lo = np.asarray(shape.envelope(grid - center), dtype=float)
    f_mid = np.asarray(shape.envelope(grid + (h / 2.0) - center), dtype=float)
    f_hi = np.asarray(shape.envelope(grid + h - center), dtype=float)

    def deriv(f, v):
        out = f * (c @ v)
        if delta != 0.0:
            out[0] += delta * v[0]
        return -1j * out

    for i in range(steps):
        k1 = deriv(f_lo[i], y)
        k2 = deriv(f_mid[i], y + (h / 2.0) * k1)
        k3 = deriv(f_mid[i], y + (h / 2.0) * k2)
        k4 = deriv(f_hi[i], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if stride and ((i + 1) % stride == 0 or i + 1 == steps):
            times.append(t0 + (i + 1) * h)
            lead = y if y.ndim == 1 else y[:, 0]
            pops.append(np.abs(lead) ** 2)
    return y


def dense_overlap(y, pulses, cfg, stride, times, pops):
    """Summed pulse Hamiltonians on one refined global grid, each pulse gated
    to its own window."""
    pulses = sorted(pulses, key=lambda p: p.center)
    spans = [(p.center - cfg.window * p.shape.width,
              p.center + cfg.window * p.shape.width) for p in pulses]
    lo = min(s[0] for s in spans)
    hi = max(s[1] for s in spans)
    base = 2.0 * cfg.window * min(p.shape.width for p in pulses)
    steps = int(math.ceil(cfg.steps_per_pulse * (hi - lo) / base))
    mats = [coupling_matrix(p.couplings) for p in pulses]

    def deriv(t, v):
        out = np.zeros_like(v)
        for p, (a, b), c in zip(pulses, spans, mats):
            if a <= t <= b:
                out += float(p.shape.envelope(t - p.center)) * (c @ v)
                if p.detuning != 0.0:
                    out[0] += p.detuning * v[0]
        return -1j * out

    h = (hi - lo) / steps
    t = lo
    for i in range(steps):
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2.0, y + (h / 2.0) * k1)
        k3 = deriv(t + h / 2.0, y + (h / 2.0) * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = lo + (i + 1) * h
        if stride and ((i + 1) % stride == 0 or i + 1 == steps):
            times.append(t)
            pops.append(np.abs(y) ** 2)
    return y


def random_couplings(rng, n, strength):
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return strength * g / np.linalg.norm(g)


def random_state(rng, n):
    y = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return y / np.linalg.norm(y)


def raw_windows(y, pulses, cfg, stride):
    """The reduced engine without the schedule's norm gate: the final register,
    the recorded times and the dense rows at them, rebuilt from the run's
    basis."""
    q, z, coords = subspace(y, [p.chi for p in pulses])
    column = {id(p.chi): c for p, c in zip(pulses, coords)}
    times, rows = [], []
    for t0, h, marks, e, products in dynamics._windows(pulses, column, cfg, stride):
        w = e.conj().T @ z
        zs = z + (np.einsum("ijm,j->mi", products, w) - w) @ e.T
        z = zs[-1]
        times.extend((t0 + marks * h).tolist())
        rows.append(np.abs(zs @ q.T) ** 2)
    return q @ z, times, np.concatenate(rows)


class TestDenseEquivalence:
    @pytest.mark.parametrize("n", [2, 15, 64])
    @pytest.mark.parametrize("delta", [0.0, 0.589, -1.3])
    def test_vector_with_strided_trajectory(self, n, delta):
        rng = np.random.default_rng(100 * n + int(10 * delta))
        g = random_couplings(rng, n, 2.0)
        y = random_state(rng, n)
        pulse = PulseSpec(SECH, CouplingVector(g / 2.0), 2.0, detuning=delta,
                          center=7.5)
        got, got_t, got_p = raw_windows(y, [pulse],
                                        IntegratorConfig(steps_per_pulse=1000), 7)
        ref_t, ref_p = [], []
        ref = dense_integrate_pulse(y.copy(), g, delta, SECH, 1000, 15.0,
                                    center=7.5, stride=7, times=ref_t, pops=ref_p)
        assert np.abs(got - ref).max() <= EQUIVALENCE_TOL
        assert got_t == ref_t
        assert len(got_p) == len(ref_p) == 1000 // 7 + 1
        assert np.abs(got_p - np.asarray(ref_p)).max() <= EQUIVALENCE_TOL

    @pytest.mark.parametrize("n", [2, 15, 64])
    def test_matrix_input(self, n):
        rng = np.random.default_rng(n)
        g = random_couplings(rng, n, 1.7)
        y = np.eye(n + 1, dtype=complex)[:, : min(n + 1, 9)]
        y[:, 0] = random_state(rng, n)
        got = _integrate_pulse(y.copy(), g, 0.4, GAUSS, 800, 6.0)
        ref = dense_integrate_pulse(y.copy(), g, 0.4, GAUSS, 800, 6.0)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= EQUIVALENCE_TOL

    def test_propagator_matches_dense(self):
        rng = np.random.default_rng(7)
        spec = HamiltonianSpec(random_couplings(rng, 15, 2.0), SECH, 0.589)
        ref = dense_integrate_pulse(np.eye(16, dtype=complex), spec.couplings,
                                    spec.detuning, SECH, 4000, 15.0)
        assert np.abs(propagator(spec).matrix - ref).max() <= EQUIVALENCE_TOL

    def test_real_couplings_and_real_input(self):
        g = np.array([0.3, -1.2, 0.0, 0.8])
        y = np.array([0.0, 0.5, 0.5, 0.5, 0.5])
        got = _integrate_pulse(y.copy(), g, 0.2, SECH, 600, 15.0)
        ref = dense_integrate_pulse(y.astype(complex), g, 0.2, SECH, 600, 15.0)
        assert np.abs(got - ref).max() <= EQUIVALENCE_TOL

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_zero_coupling(self, delta):
        rng = np.random.default_rng(3)
        y = random_state(rng, 5)
        got = _integrate_pulse(y.copy(), np.zeros(5), delta, SECH, 500, 15.0)
        ref = dense_integrate_pulse(y.copy(), np.zeros(5), delta, SECH, 500, 15.0)
        assert np.abs(got - ref).max() <= EQUIVALENCE_TOL
        # the ions are dark, and only the ancilla picks up the detuning phase
        np.testing.assert_array_equal(got[1:], y[1:])

    def test_schedule_reuses_one_integration_per_distinct_pulse(self, chained):
        # oracle and global pulses differ in direction only: one integration
        # serves both, and the schedule still matches pulse-by-pulse dense
        # integration
        n = 15
        cfg = IntegratorConfig(steps_per_pulse=1000, trajectory_stride=9)
        pulses = [PulseSpec(SECH, uniform_chi(n), 1.0, center=15.0)]
        for k in range(3):
            pulses.append(PulseSpec(SECH, local_chi(n, 8), 2.0, detuning=0.589,
                                    center=45.0 + 60.0 * k))
            pulses.append(PulseSpec(SECH, uniform_chi(n), 2.0, detuning=0.589,
                                    center=75.0 + 60.0 * k))
        start = RegisterState(np.eye(n + 1)[0])
        final, times, pops = evolve_schedule(start, pulses, cfg, record=True)
        assert len(chained) == 2  # init, then oracle and global alike
        y = start.amplitudes.copy()
        ref_t, ref_p = [0.0], [np.abs(y) ** 2]
        for p in pulses:
            y = dense_integrate_pulse(y, p.couplings, p.detuning, p.shape, 1000,
                                      15.0, center=p.center, stride=9,
                                      times=ref_t, pops=ref_p)
        assert np.abs(final.amplitudes - y / np.linalg.norm(y)).max() <= EQUIVALENCE_TOL
        np.testing.assert_array_equal(times, ref_t)
        assert np.abs(pops.slots(slice(None)) - np.asarray(ref_p)).max() <= EQUIVALENCE_TOL

    @pytest.mark.parametrize("n", [2, 15])
    def test_overlapping_detuned_cluster(self, n):
        # raw cluster window: switching a detuned pulse on or off
        # mid-grid costs unitarity of order h * delta, far above the schedule
        # norm budget, so evolve_schedule would refuse this cluster
        rng = np.random.default_rng(11 + n)
        cfg = IntegratorConfig(steps_per_pulse=1500)
        chis = [CouplingVector(random_couplings(rng, n, 1.0)) for _ in range(2)]
        pulses = [
            PulseSpec(SECH, chis[0], 1.1, detuning=0.3, center=0.0),
            PulseSpec(GAUSS, chis[1], 1.6, center=4.0),
            PulseSpec(SECH, chis[0], 0.9, detuning=-0.2, center=7.0),
            PulseSpec(SECH, local_chi(n, n), 2.0, center=20.0),
        ]
        y = random_state(rng, n)
        got, got_t, got_p = raw_windows(y, pulses, cfg, 13)
        ref_t, ref_p = [], []
        ref = dense_overlap(y.copy(), pulses, cfg, 13, ref_t, ref_p)
        assert np.abs(got - ref).max() <= EQUIVALENCE_TOL
        assert got_t == ref_t
        assert np.abs(got_p - np.asarray(ref_p)).max() <= EQUIVALENCE_TOL

    @pytest.mark.parametrize("n", [2, 15])
    def test_overlapping_schedule(self, n):
        rng = np.random.default_rng(21 + n)
        cfg = IntegratorConfig(steps_per_pulse=1500, trajectory_stride=13)
        pulses = [
            PulseSpec(SECH, CouplingVector(random_couplings(rng, n, 1.0)), 1.0,
                      center=0.0),
            PulseSpec(SECH, uniform_chi(n), 2.0, center=6.0),
            PulseSpec(SECH, local_chi(n, 1), 2.0, center=12.0),
        ]
        start = RegisterState(random_state(rng, n))
        final, times, pops = evolve_schedule(start, pulses, cfg, record=True)
        y = start.amplitudes.copy()
        ref_t, ref_p = [-15.0], [np.abs(y) ** 2]
        y = dense_overlap(y, pulses, cfg, 13, ref_t, ref_p)
        assert np.abs(final.amplitudes - y / np.linalg.norm(y)).max() <= EQUIVALENCE_TOL
        np.testing.assert_array_equal(times, ref_t)
        assert np.abs(pops.slots(slice(None)) - np.asarray(ref_p)).max() <= EQUIVALENCE_TOL

    @pytest.mark.parametrize("steps,stride", [(4000, 0), (4000, 160), (4000, 3), (7, 7)])
    def test_chain_marks(self, steps, stride):
        # recorded step counts: every stride steps and the last, sorted and unique
        term = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 0.3, SECH, 0.0, None)
        marks, products = dynamics._chain([term], -15.0, 30.0 / steps, steps, stride)
        expected = np.union1d(np.arange(stride or steps, steps, stride or steps), [steps])
        np.testing.assert_array_equal(marks, expected)
        assert marks.dtype == expected.dtype
        assert products.shape == (2, 2, len(expected))

    def test_overlap_with_repeated_chi(self):
        # the same chi twice spans one bright direction, not two
        chi = uniform_chi(3)
        pulses = [PulseSpec(SECH, chi, 1.0, center=0.0),
                  PulseSpec(SECH, chi, 1.0, center=1.0)]
        cfg = IntegratorConfig(steps_per_pulse=1500)
        start = RegisterState(np.eye(4)[0])
        final, _, _ = evolve_schedule(start, pulses, cfg)
        y = dense_overlap(start.amplitudes.copy(), pulses, cfg, 0, [], [])
        assert np.abs(final.amplitudes - y / np.linalg.norm(y)).max() <= EQUIVALENCE_TOL


class TestPulseChainMemo:
    """``_pulse_chain`` is one memo per process, shared by every schedule."""

    @pytest.mark.parametrize("stride", [0, 8, 1000])
    def test_hit_is_bitwise_a_recomputation(self, chained, stride):
        args = (2.0, 0.589, SECH, 4000, 15.0, stride)
        first = dynamics._pulse_chain(*args)
        hit = dynamics._pulse_chain(*args)
        assert len(chained) == 1
        assert hit[0] is first[0] and hit[1] is first[1]
        cold = dynamics._pulse_chain.__wrapped__(*args)
        for got, ref in zip(hit, cold):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_returned_arrays_are_read_only(self):
        marks, products = dynamics._pulse_chain(2.0, 0.0, SECH, 800, 15.0, 8)
        with pytest.raises(ValueError):
            marks[0] = 0
        with pytest.raises(ValueError):
            products[0, 0, 0] = 0.0

    def test_sweep_cells_share_two_integrations(self, chained):
        # fig4 cells differ only in the beam profile, that is in chi: the init
        # pulse and the 2-pi pulse are integrated once for the whole sweep
        def cell(eps):
            return run_search(SearchConfig(
                n_ions=20, marked_index=5, mode="physical", iterations=3,
                imperfection=ImperfectionSettings(epsilon=eps),
                integrator=IntegratorConfig(trajectory_stride=1000)))

        warm = [cell(eps).success_probability for eps in (0.0, 0.1)]
        assert len(chained) == 2
        cold = []
        for eps in (0.0, 0.1):
            dynamics._pulse_chain.cache_clear()
            cold.append(cell(eps).success_probability)
        assert warm == cold


def reduced_cases():
    """Searches whose reduced trajectory is checked against its dense rows;
    the physical ones at 800 steps per pulse (within the norm budget) to keep
    the dense references quick."""
    for n in (2, 15, 64):
        marked = 1 + n // 2
        for variant in ("probabilistic", "deterministic"):
            yield SearchConfig(n, marked, mode="ideal", variant=variant)
            for stride in (1, 8, 4000):
                yield SearchConfig(n, marked, mode="physical", variant=variant,
                                   integrator=IntegratorConfig(
                                       steps_per_pulse=800, trajectory_stride=stride))
        # windows 30 widths long, centers 10 apart: one overlapping cluster
        yield SearchConfig(n, marked, mode="physical",
                           pulse=PulseSettings(spacing=10.0),
                           integrator=IntegratorConfig(steps_per_pulse=800))


def search_with_dense_rows(cfg):
    """A search plus its population rows from the full-register references:
    |state|^2 of every ideal iterate by ``apply`` of the full-register
    reflections about the plan's chis, or the dense RK4 state at every
    recorded step of the schedule."""
    plan = build_plan(cfg)
    if cfg.mode == "ideal":
        oracle, reflection = (generalized_hr(pulse.chi, plan.phi)
                              for pulse in (plan.oracle, plan.reflection))
        state = initialize(cfg)
        rows = [state.populations]
        for _ in range(plan.count):
            state = apply(reflection, apply(oracle, state))
            rows.append(state.populations)
        return run_search(cfg), np.array(rows)
    schedule = plan.timeline()
    integrator = cfg.integrator
    y = basis_register(cfg.n_ions, 0).amplitudes
    rows = [np.abs(y) ** 2]
    if cfg.pulse.spacing < 2.0 * integrator.window:
        dense_overlap(y, schedule, integrator, integrator.trajectory_stride, [], rows)
    else:
        for p in schedule:
            y = dense_integrate_pulse(y, p.couplings, p.detuning, p.shape,
                                      integrator.steps_per_pulse, integrator.window,
                                      center=p.center,
                                      stride=integrator.trajectory_stride,
                                      times=[], pops=rows)
    return run_search(cfg), np.array(rows)


class TestReducedTrajectory:
    """Slots, totals and the CSV columns of the reduced record against the
    dense rows of full-register references: 1e-14 for ideal iterates, the
    dense-equivalence bound for integrated ones."""

    @pytest.mark.parametrize("cfg", list(reduced_cases()),
                             ids=lambda c: f"{c.mode}-{c.variant}-N{c.n_ions}-"
                                           f"stride{c.integrator.trajectory_stride}-"
                                           f"spacing{c.pulse.spacing:g}")
    def test_slots_and_totals_match_dense_rows(self, cfg):
        result, dense = search_with_dense_rows(cfg)
        tol = 1e-14 if cfg.mode == "ideal" else EQUIVALENCE_TOL
        trajectory, m = result.trajectory, cfg.marked_index
        assert dense.shape == (len(result.trajectory_times), cfg.n_ions + 1)
        assert len(trajectory) == len(dense)
        assert np.abs(trajectory.slots([m, 0]) - dense[:, [m, 0]]).max() <= tol
        assert np.abs(trajectory.totals() - dense.sum(axis=1)).max() <= max(tol, 1e-13)
        # p_other_total as the per-row writer computed it from the dense rows
        other = [float(row.sum()) - row[m] - row[0] for row in dense]
        columns = trajectory.columns(m)
        assert np.abs(columns[:, :2] - dense[:, [m, 0]]).max() <= tol
        assert np.abs(columns[:, 2] - other).max() <= max(tol, 1e-13)
        # and every slot at once
        assert np.abs(trajectory.slots(slice(None)) - dense).max() <= tol


def rosen_zener_window(alpha, t, width):
    """Fundamental solutions (ancilla, bright) of the resonant sech pulse at t.

    With z = (1 + tanh(t/T))/2 the bright amplitude obeys the hypergeometric
    equation z(1-z)b'' + (1/2 - z)b' + alpha^2 b = 0, alpha = g T / 2, and the
    ancilla amplitude is (i/alpha) sqrt(z(1-z)) b'.
    """
    z = (1.0 + math.tanh(t / width)) / 2.0
    w = z * (1.0 - z)
    y1 = hyp2f1(alpha, -alpha, 0.5, z)
    d1 = -2.0 * alpha**2 * hyp2f1(alpha + 1, 1 - alpha, 1.5, z)
    f2 = hyp2f1(alpha + 0.5, 0.5 - alpha, 1.5, z)
    y2 = math.sqrt(z) * f2
    d2 = f2 / (2.0 * math.sqrt(z)) + math.sqrt(z) * (
        (0.25 - alpha**2) / 1.5 * hyp2f1(alpha + 1.5, 1.5 - alpha, 2.5, z))
    amp = 1j / alpha * math.sqrt(w)
    return np.array([[amp * d1, amp * d2], [y1, y2]])


def reduced_propagator(strength, delta, shape, cfg=None):
    """(ancilla, bright) block of the propagator of a two-ion pulse along e1."""
    spec = HamiltonianSpec(np.array([strength, 0.0]), shape, delta)
    return propagator(spec, cfg).matrix[:2, :2]


class TestRosenZener:
    @pytest.mark.parametrize("strength", [1.0, 1.37, 2.0, 3.0])
    def test_resonant_window_propagator(self, strength):
        # exact on the truncated window, so only the RK4 error remains
        # the series converge only for z < 1, so the second half-window comes
        # from the first by the t -> -t symmetry of the resonant equation
        # (bright amplitude even, ancilla amplitude odd): U = D V^-1 D V with
        # V the propagator from -15T to 0 and D = diag(-1, 1)
        width = 1.0
        alpha = strength * width / 2.0
        half = rosen_zener_window(alpha, 0.0, width) @ np.linalg.inv(
            rosen_zener_window(alpha, -15.0 * width, width))
        flip = np.diag([-1.0, 1.0])
        exact = flip @ np.linalg.inv(half) @ flip @ half
        got = reduced_propagator(strength, 0.0, PulseShape("sech", width))
        assert np.abs(got - exact).max() < 1e-10

    @pytest.mark.parametrize("strength, delta_t", [
        (2.0, 0.0), (2.0, 0.589), (2.0, -1.1), (1.37, 0.8), (4.0, 0.3)])
    def test_full_line_bright_amplitude(self, strength, delta_t):
        # connection formula at z = 1: b(+inf) = G(c)^2 / (G(c-a) G(c+a)),
        # c = (1 + i delta T)/2; the finite window misses the sech tails,
        # whose area is about 4 g T exp(-15)
        width = 1.0
        alpha = strength * width / 2.0
        c = 0.5 + 0.5j * delta_t
        exact = gamma(c) ** 2 / (gamma(c - alpha) * gamma(c + alpha))
        got = reduced_propagator(strength, delta_t / width, SECH)
        tail = 4.0 * strength * width * math.exp(-15.0)
        assert abs(got[1, 1] - exact) < 2.0 * tail
        # transition probability sin^2(pi alpha) sech^2(pi delta T / 2)
        p = math.sin(math.pi * alpha) ** 2 / math.cosh(math.pi * delta_t / 2.0) ** 2
        assert abs(abs(got[0, 1]) ** 2 - p) < 2.0 * tail
