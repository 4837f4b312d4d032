"""Machine-speed probe for the timed metrics.

The reference machine is a shared VM whose vCPUs change speed by tens of
percent from one second to the next, and stay slow or fast for seconds to
minutes.  That moves every time a sample measures, by far more than the
bounds of the benchmark.  So each sample (child.py) runs this probe in a
thread of its own process, on the vCPU its main thread is pinned to: every
``INTERVAL_S`` the probe runs a fixed unit of work and records the thread
CPU time it took, as a multiple of the unit's time at reference speed.  A
slow vCPU makes the unit take longer, for the probe and for the program
alike.  During set-up the unit is a pure-Python loop.  Once the program has
imported numpy (``use_numpy``), the unit is made of parts that do the kind
of work the workload does (``workloads.PROBE_PARTS``): a few RK4 steps on a
small complex state, and for ``ideal_large`` also a few dense complex matrix
products.  On the reference machine, over 4 minutes of samples each, the
slowdown of ``validate --suite fast`` followed the RK4 part with a log-log
slope of 1.03 (1.37 for the loop), and that of ``ideal_large`` followed
RK4 + dense with a slope of 1.03 (0.83 for RK4 alone).

``speed(start, end)`` is one over the mean of those multiples in the
interval, and the sample's times are multiplied by it: the reported times
are seconds of a vCPU running at reference speed.  The raw times and the
speed factors are kept in each run's record.  The probe costs the program
about 2% of one vCPU, the same on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: pause between two probe units
INTERVAL_S = 0.04
#: pure-Python additions in the set-up unit
LOOP_ITERATIONS = 20_000
#: RK4 steps on a 32-wide complex state in the "rk4" part
RK4_STEPS = 36
#: 80x80 complex matrix products in the "dense" part
DENSE_PRODUCTS = 6
#: thread CPU time of each part on the reference machine's vCPU at calm
#: speed (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = {"loop": 0.00075, "rk4": 0.00049, "dense": 0.00034}


def _loop_unit() -> None:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i


def _rk4_part(np):
    h = ((np.arange(32 * 32).reshape(32, 32) % 7 - 3.0) * 0.01).astype(complex)
    h = -1j * (h + h.T)
    psi0 = np.ones(32, dtype=complex) / np.sqrt(32)
    dt = 0.01

    def part() -> None:
        psi = psi0
        for _ in range(RK4_STEPS):
            k1 = h @ psi
            k2 = h @ (psi + 0.5 * dt * k1)
            k3 = h @ (psi + 0.5 * dt * k2)
            k4 = h @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return part


def _dense_part(np):
    g = (np.arange(80 * 80).reshape(80, 80) % 11 - 5.0) * 0.01 + 0.5j

    def part() -> None:
        for _ in range(DENSE_PRODUCTS):
            g @ g

    return part


PARTS = {"rk4": _rk4_part, "dense": _dense_part}


class Probe:
    """Runs probe units in a daemon thread until ``stop``."""

    def __init__(self) -> None:
        #: (perf_counter at the unit's start, its thread CPU time over the
        #: reference time of its kind)
        self.units: list[tuple[float, float]] = []
        #: the unit and its reference time, swapped as one by ``use_numpy``
        self._current = (_loop_unit, REFERENCE_S["loop"])
        # held while a unit runs; a fork (fig4's pool) waits for the unit to
        # end, so no worker starts with a lock the probe held inside numpy
        self._busy = threading.Lock()
        os.register_at_fork(before=self._busy.acquire,
                            after_in_parent=self._busy.release,
                            after_in_child=self._busy.release)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe",
                                        daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            unit, reference = self._current
            with self._busy:
                start, cpu = time.perf_counter(), time.thread_time()
                unit()
                cpu = time.thread_time() - cpu
            self.units.append((start, cpu / reference))

    def use_numpy(self, parts: tuple[str, ...]) -> None:
        """Switch to a unit made of ``parts`` (keys of ``PARTS``); call once
        numpy is fully imported."""
        import numpy as np

        fns = [PARTS[name](np) for name in parts]

        def unit() -> None:
            for fn in fns:
                fn()

        self._current = (unit, sum(REFERENCE_S[name] for name in parts))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def speed(self, start: float, end: float) -> float:
        """Speed of the vCPU over ``[start, end]`` (perf_counter seconds),
        relative to the reference.  An interval too short to hold a unit
        takes the mean of every unit so far."""
        units = ([slow for t, slow in self.units if start <= t <= end]
                 or [slow for _, slow in self.units])
        return 1.0 / statistics.fmean(units)
