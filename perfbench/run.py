"""iongrover benchmark: time to solution, CPU, memory and correctness of the
CLI on four workloads, with a traced per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload physical_large --seed 1 --seconds 30 --trace 0

Workloads: physical_large, ideal_large, reproduce, validate_fast (see
workloads.py and README.md).  Each sample is a fresh interpreter
(child.py) that imports ``iongrover.cli`` from ``src/`` of this checkout,
writes the workload's inputs and calls ``cli.main`` once per command.
Samples repeat while the next one is expected to end within ``--seconds``;
there is always at least one.

With ``--trace 0`` the result holds the end-to-end metrics: set-up time, wall
and CPU time of the command list, peak RSS.  With ``--trace 1`` untraced and
traced samples alternate, and the result holds the per-layer metrics of the
traced samples plus the tracing overhead.

Every sample runs with one BLAS thread and measures the speed of its vCPU
while it runs (speed.py): the reported times are scaled to the reference
machine's speed; the raw ones stay in the record.

Every command is gated on its correctness check; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (samples, fingerprints, run facts) goes to
``.perfbench_out/`` and, for traced runs, the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS thread in every sample and every pool worker it forks.  A sample
# pins itself to one vCPU (child.py), where two BLAS threads would take turns;
# and two fig4 workers of two BLAS threads each would overfill a 2-vCPU
# machine and measure the scheduler more than the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: a run ends within this many seconds of its start, whatever --seconds says
RUN_DEADLINE_S = 170.0
#: set-up samples per run; set-up probes top up runs with fewer timed samples
MIN_SETUP_SAMPLES = 5


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, a crashed or hung sample."""


def _kill(proc: subprocess.Popen) -> None:
    """Stop a child and the pool workers that share its session, and wait
    (up to 10 s) until none of them is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def _spawn(spec: dict, deadline: float) -> dict:
    """Run one child interpreter to completion and return its report."""
    report = Path(spec["report"])
    report.unlink(missing_ok=True)
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"{spec['workload']} sample did not finish before the "
                         f"{RUN_DEADLINE_S:.0f} s deadline") from None
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0 or not report.is_file():
        raise BenchError(f"{spec['workload']} sample exited with code "
                         f"{proc.returncode}:\n{out}{err}")
    return json.loads(report.read_text())


def _sample_until(specs: list[dict], seconds: float, deadline: float) -> list[dict]:
    """Timed samples cycling through ``specs``.  Each spec runs once; further
    samples run while the next is expected to end within ``seconds``."""
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(samples) >= len(specs) and elapsed * (1 + 1 / len(samples)) > seconds:
            return samples
        spec = specs[len(samples) % len(specs)]
        samples.append(_spawn(dict(spec, measure=True), deadline))


def _run_facts(seed: int) -> dict:
    """Machine and source facts, read only."""
    facts: dict = {"seed": seed, "nproc": os.cpu_count(),
                   "affinity_cpus": len(os.sched_getaffinity(0)),
                   "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                       if line.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    facts["caches_cpu0"] = caches
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        facts["git_sha"] = git.stdout.strip() if git.returncode == 0 else None
    else:
        facts["git_sha"] = None
        facts["git_sha_note"] = "the checkout is not a git repository"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()
    return facts


def _gate(samples: list[dict]) -> tuple[int, int, list[dict]]:
    """Attempted and failed operation counts, plus every failure's reasons."""
    ops = [op for s in samples for op in s["operations"]]
    failures = [op for op in ops if not op["ok"]]
    return len(ops), len(failures), failures


def _end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians; times in seconds at reference speed (see speed.py)."""
    return {
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"] for s in setups),
        "wall_s": statistics.median(s["wall_s"] * s["speed"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] * s["speed"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    per_sample = [spans.layer_metrics(s["spans"], s["counters"]) for s in traced]
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in per_sample[0]}
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in untraced + traced)
    metrics["trace.overhead"] = (
        statistics.median(s["wall_s"] * s["speed"] for s in traced)
        / statistics.median(s["wall_s"] * s["speed"] for s in untraced) - 1.0)
    return metrics


def _write_spans(path: Path, workload: str, traced: list[dict]) -> None:
    with open(path, "w") as fh:
        for run_id, sample in enumerate(traced):
            for name, start, end, parent in sample["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "workload": workload,
                                     "run_id": run_id}) + "\n")


def _fingerprints(samples: list[dict]) -> dict:
    """Fingerprints and facts of the first sample, with any sample that differs."""
    first = {op["name"]: op for op in samples[0]["operations"]}
    record = {name: {"fingerprints": op["fingerprints"], "facts": op["facts"]}
              for name, op in first.items()}
    for i, sample in enumerate(samples[1:], start=1):
        for op in sample["operations"]:
            if op["fingerprints"] != first[op["name"]]["fingerprints"]:
                record[op["name"]].setdefault("differs_in_sample", []).append(i)
    return record


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[dict]]:
    """One benchmark run; returns the full record and the traced samples."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    spec = {"workload": workload, "seed": seed, "src": str(ROOT / "src"),
            "work_dir": str(work / "inputs"), "report": str(work / "report.json"),
            "measure": False, "trace": False}
    work.mkdir(parents=True, exist_ok=True)
    try:
        # traced and untraced samples alternate, so drift affects both alike
        specs = [spec, dict(spec, trace=True)] if trace else [spec]
        samples = _sample_until(specs, seconds, deadline)
        setups = list(samples)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(_spawn(dict(spec), deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    programs = {s["program"] for s in samples}
    if programs != {str(ROOT / "src" / "iongrover" / "cli.py")}:
        raise BenchError(f"samples imported the program from {sorted(programs)}, "
                         f"not from {ROOT / 'src'}")
    attempted, failed, failures = _gate(samples)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples": [{"setup_s": s["setup_s"], "speed": s["setup_speed"]}
                          for s in setups],
        "speed_reference_s": speed.REFERENCE_S,
        "speed_note": "reported times are raw times x speed (see perfbench/speed.py)",
        "samples": [{"traced": "spans" in s, "setup_s": s["setup_s"],
                     "wall_s": s["wall_s"], "cpu_s": s["cpu_s"], "speed": s["speed"],
                     "peak_rss_mb": s["peak_rss_mb"],
                     "operation_wall_s": [op["wall_s"] for op in s["operations"]]}
                    for s in samples],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": failures,
        "operations": _fingerprints(samples),
        "libraries": samples[0]["libraries"],
        "facts": _run_facts(seed),
        "run_s": time.monotonic() - started,
    }
    traced = [s for s in samples if "spans" in s]
    if trace:
        untraced = [s for s in samples if "spans" not in s]
        record["metrics"] = _per_layer(untraced, traced)
        record["notes"] = dict(spans.NOTES, pool=spans.POOL_NOTE)
    else:
        record["metrics"] = _end_to_end(samples, setups)
    return record, traced


def _select(record: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not produce: "
                         f"{missing}")
    return {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iongrover" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'iongrover'} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    # a terminated run stops the sample it is waiting for (see _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record, traced = measure(args.workload, args.seed, args.seconds, trace)
        metrics = _select(record, declared["per_layer" if trace else "end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _write_spans(spans_path, args.workload, traced)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    print(f"{args.workload} seed {args.seed}: {len(record['samples'])} samples "
          f"({len(record['setup_samples'])} set-ups) in {record['run_s']:.1f} s")
    for name, m in metrics.items():
        note = record.get("notes", {}).get(name)
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    if not trace:
        raw = record["samples"]
        print(f"  raw medians: wall {statistics.median(x['wall_s'] for x in raw):.4g} s, "
              f"cpu {statistics.median(x['cpu_s'] for x in raw):.4g} s, machine speed "
              f"{statistics.median(x['speed'] for x in raw):.3f} of reference")
    print(f"  {'error_rate':34s} {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"]:
        print(f"  FAILED {failure['name']}: {'; '.join(failure['reasons'])}")
    if trace:
        print(f"  note: {spans.POOL_NOTE}")
    print(f"  record: {(out_dir / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
