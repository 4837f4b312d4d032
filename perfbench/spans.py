"""Spans around the calls into each module of the package, recorded from
outside the program.

The tracer replaces the names the callers look up (``cli.run_search``,
``grover.evolve_schedule``, ``PulseShape.envelope`` ...) with wrappers that
record a span per call: name, start, end and the span that was open when the
call was made.  Spans stay in memory until the run ends.  Counters that are
cheap to derive from a call's arguments or return value (pulses, RK4 steps,
bytes) are recorded at the same boundaries.  ``*_bytes`` counters are
computed from array shapes, not measured.

Pool workers inherit the wrappers but their spans stay in the worker
processes and are not collected.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from collections import Counter

COMPLEX_BYTES = 16

#: per-layer metric -> span name whose self times it sums
SELF_TIME_METRICS = {
    "cli.write_s": "cli.command",
    "grover.run_search_s": "grover.run_search",
    "grover.build_plan_s": "grover.build_plan",
    "householder.generalized_hr_s": "householder.generalized_hr",
    "householder.apply_s": "householder.apply",
    "dynamics.evolve_schedule_s": "dynamics.evolve_schedule",
    "dynamics.propagator_s": "dynamics.propagator",
    "pulses.envelope_s": "pulses.envelope",
    "imperfections.infidelity_sweep_s": "imperfections.infidelity_sweep",
    "validation.run_suite_s": "validation.run_suite",
}

#: per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "grover.run_search_calls": "grover.run_search",
    "householder.generalized_hr_calls": "householder.generalized_hr",
    "householder.apply_calls": "householder.apply",
    "dynamics.propagator_calls": "dynamics.propagator",
    "pulses.envelope_calls": "pulses.envelope",
}

#: per-layer metric -> counter it reports as is
COUNTER_METRICS = ("cli.output_bytes", "householder.apply_bytes", "dynamics.pulses",
                   "dynamics.rk4_steps", "dynamics.rk4_bytes",
                   "dynamics.trajectory_bytes", "imperfections.cells",
                   "validation.checks")

#: why a per-layer metric is not a plain measurement, printed with the result
NOTES = {
    "cli.write_s": "self time of the run/reproduce/validate command functions minus "
                   "the traced layer calls below them",
    "cli.output_bytes": "computed, not measured: length of the text passed to "
                        "cli._write_text",
    "householder.apply_bytes": "computed, not measured: 16*(N+1)^2 per apply call",
    "dynamics.rk4_steps": "computed, not measured: pulses * steps_per_pulse per "
                          "evolve_schedule call (no workload overlaps windows)",
    "dynamics.rk4_bytes": "computed, not measured: 4*16*(N+1)^2 per RK4 step, the "
                          "dense coupling matrix read once per stage",
    "dynamics.trajectory_bytes": "computed, not measured: nbytes of the time and "
                                 "population arrays evolve_schedule returns",
    "dynamics.s_per_pulse": "inclusive evolve_schedule time divided by dynamics.pulses",
    "imperfections.worker_busy": "children's CPU / (jobs * sweep wall); children's "
                                 "CPU is read from getrusage after the pool is joined",
    "trace.overhead": "traced wall_s / untraced wall_s - 1, medians of this run",
}

POOL_NOTE = ("spans inside pool workers are not collected: calls made by the fig4 "
             "sweep cells in the worker processes are missing from every count "
             "and self time except imperfections.*")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, span: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before()`` runs before the call and its value is handed to
        ``after(counters, arguments, result, seconds, token)``, where
        ``arguments`` maps parameter names to the values bound for the call.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before() if before else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            start = time.perf_counter()
            tracer.spans.append([span, start, None, parent])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                end = time.perf_counter()
                tracer.spans[index][2] = end
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer.counters, bound.arguments, result, end - start, token)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, after) -> None:
        """Replace ``owner.attr`` with a wrapper that only updates counters."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            after(counters, bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the package, at the names callers look up."""
    from iongrover import cli, dynamics, grover, householder, pulses, validation

    def on_apply(counters, a, result, seconds, token):
        counters["householder.apply_bytes"] += COMPLEX_BYTES * a["op"].dim ** 2

    def on_schedule(counters, a, result, seconds, token):
        pulses_run = len(a["pulses"])
        steps = (a["cfg"] or dynamics.IntegratorConfig()).steps_per_pulse
        dim = a["state"].n_ions + 1
        counters["dynamics.pulses"] += pulses_run
        counters["dynamics.rk4_steps"] += pulses_run * steps
        counters["dynamics.rk4_bytes"] += 4 * COMPLEX_BYTES * dim ** 2 * pulses_run * steps
        counters["dynamics.trajectory_bytes"] += result[1].nbytes + result[2].nbytes
        counters["dynamics.evolve_schedule_inclusive_s"] += seconds

    def on_sweep(counters, a, result, seconds, children_before):
        counters["imperfections.cells"] += len(result)
        counters["imperfections.children_cpu_s"] += _children_cpu() - children_before
        counters["imperfections.jobs_wall_s"] += max(1, a["jobs"]) * seconds

    def on_suite(counters, a, result, seconds, token):
        counters["validation.checks"] += len(result)

    def on_write(counters, a, result):
        counters["cli.output_bytes"] += len(a["text"].encode())

    for name in ("_cmd_run", "_cmd_reproduce", "_cmd_validate"):
        tracer.wrap(cli, name, "cli.command")
    tracer.count(cli, "_write_text", on_write)
    for owner in (cli, grover):
        tracer.wrap(owner, "run_search", "grover.run_search")
        tracer.wrap(owner, "build_plan", "grover.build_plan")
    for owner in (grover, householder):
        tracer.wrap(owner, "generalized_hr", "householder.generalized_hr")
        tracer.wrap(owner, "apply", "householder.apply", after=on_apply)
    for owner in (grover, dynamics):
        tracer.wrap(owner, "evolve_schedule", "dynamics.evolve_schedule",
                    after=on_schedule)
    tracer.wrap(dynamics, "propagator", "dynamics.propagator")
    tracer.wrap(pulses.PulseShape, "envelope", "pulses.envelope")
    tracer.wrap(cli, "infidelity_sweep", "imperfections.infidelity_sweep",
                after=on_sweep, before=_children_cpu)
    tracer.wrap(validation, "run_suite", "validation.run_suite", after=on_suite)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, trace.overhead excluded."""
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        metrics[metric] = sum(t for span, t in zip(spans, own) if span[0] == name)
    for metric, name in CALL_METRICS.items():
        metrics[metric] = sum(1 for span in spans if span[0] == name)
    for metric in COUNTER_METRICS:
        metrics[metric] = counters.get(metric, 0)
    pulses_run = counters.get("dynamics.pulses", 0)
    metrics["dynamics.s_per_pulse"] = (
        counters.get("dynamics.evolve_schedule_inclusive_s", 0.0) / pulses_run
        if pulses_run else 0.0)
    jobs_wall = counters.get("imperfections.jobs_wall_s", 0.0)
    metrics["imperfections.worker_busy"] = (
        counters.get("imperfections.children_cpu_s", 0.0) / jobs_wall
        if jobs_wall else 0.0)
    return metrics
