"""Run the benchmark once per seed and summarize each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads reproduce,validate_fast --seeds 1-10 \
        [--out perfbench/baseline.json]

For each workload and metric it prints the median of the per-run values and
their spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out`` merges the summary into a JSON
file, one entry per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} operations failed")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        record = json.loads((ROOT / ".perfbench_out" /
                             f"{workload}-seed{seed}-trace0.json").read_text())
        summary[workload] = {name: dict(summarize(v), values=v)
                             for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:15s} {name:12s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}", flush=True)
        summary[workload]["facts"] = dict(record["facts"], seeds=args.seeds,
                                          run_seconds=declared["run_seconds"],
                                          libraries=record["libraries"])
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.is_file() else {}
        merged.update(summary)
        out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
