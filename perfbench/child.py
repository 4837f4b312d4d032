"""One fresh interpreter of a benchmark run.

Usage: python3 perfbench/child.py '<json spec>'   (started by run.py)

The spec names the workload, seed, work directory, the report file to write,
the monotonic time at which the parent spawned this process, whether to run
the commands or only set up (a set-up probe), and whether to trace.

The process pins itself to one vCPU and starts the speed probe (speed.py)
first; pool workers it forks get every vCPU back.  Each time it reports is
also reported with the probe's speed factor over the same interval.

Set-up is everything from the spawn until ``iongrover.cli`` is imported and
the workload's input files are written.  The timed interval then calls
``iongrover.cli.main`` once per command, in this process, and ends before the
outputs are checked.  A fresh process per sample is what makes the peak RSS
of each sample its own.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _call(main, argv: list[str]):
    """Exit code of one CLI command; a crash counts as a failed operation."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


def _openblas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _library_facts() -> dict:
    import numpy
    import scipy

    facts = {"python": sys.version.split()[0], "numpy": numpy.__version__,
             "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        facts["blas"] = None
    try:
        facts["blas_threads"] = _openblas_threads()
    except OSError as exc:
        facts["blas_threads"] = f"unknown ({exc})"
    facts["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return facts


def _pin_to_one_vcpu() -> None:
    """Keep the program and the probe on one vCPU, so that the probe measures
    the vCPU the program runs on; forked pool workers may use every vCPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))


def main() -> int:
    child_start = time.perf_counter()
    _pin_to_one_vcpu()
    probe = speed.Probe()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t_import = time.monotonic()
    import iongrover.cli as cli
    import_s = time.monotonic() - t_import
    probe.use_numpy(workloads.PROBE_PARTS[spec["workload"]])  # numpy is imported now
    ops = workloads.prepare(spec["workload"], spec["seed"], Path(spec["work_dir"]))
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable
    setup_s = time.monotonic() - spec["t_spawn"]
    setup_end = time.perf_counter()

    report = {"setup_s": setup_s, "import_s": import_s, "program": cli.__file__,
              "setup_speed": probe.speed(child_start, setup_end)}
    if spec["measure"]:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        codes, op_ends = [], []
        for op in ops:
            codes.append(_call(cli.main, op.argv))
            op_ends.append(time.perf_counter())
        wall_s = op_ends[-1] - t0
        cpu_s = _cpu_seconds() - cpu0
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        outcomes = [workloads.check(op, code) for op, code in zip(ops, codes)]
        report.update(
            wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_kib / 1024.0,
            speed=probe.speed(t0, op_ends[-1]),
            operations=[{"name": o.name, "ok": o.ok, "reasons": o.reasons,
                         "wall_s": end - begin, "fingerprints": o.fingerprints,
                         "facts": o.facts}
                        for o, begin, end in zip(outcomes, [t0] + op_ends, op_ends)],
            libraries=_library_facts(),
        )
        if tracer is not None:
            report.update(spans=tracer.spans, counters=dict(tracer.counters))
    probe.stop()
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
