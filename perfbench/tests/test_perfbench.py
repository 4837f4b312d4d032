"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
The end-to-end tests run the benchmark once per workload, traced and untraced,
which takes about four minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_follows_the_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    assert DECLARED["paths"] == ["perfbench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"]), m
        if m["name"].endswith("_s"):
            assert m["unit"] == "s", m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in DECLARED["end_to_end"])}]


def test_per_layer_metrics_are_exactly_what_the_trace_computes():
    computed = set(spans.layer_metrics([], {})) | {"cli.import_s", "trace.overhead"}
    assert {m["name"] for m in DECLARED["per_layer"]} == computed


def test_self_time_subtracts_direct_children_only():
    recorded = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                ["b", 5.0, 6.0, 0]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    metrics = spans.layer_metrics(
        [["grover.run_search", 0.0, 2.0, None], ["pulses.envelope", 0.5, 1.0, 0]],
        {"dynamics.pulses": 4, "dynamics.evolve_schedule_inclusive_s": 2.0})
    assert metrics["grover.run_search_s"] == 1.5
    assert metrics["pulses.envelope_calls"] == 1
    assert metrics["dynamics.s_per_pulse"] == 0.5


def test_speed_is_one_over_the_mean_slowdown_in_the_interval():
    probe = speed.Probe()
    probe.stop()
    probe.units = [(1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (9.0, 4.0)]
    assert probe.speed(1.5, 3.5) == 1.0
    assert probe.speed(0.0, 3.5) == pytest.approx(0.75)
    # an interval without a unit falls back to every unit
    assert probe.speed(4.0, 5.0) == pytest.approx(0.5)


def test_probe_units_measure_against_their_reference():
    probe = speed.Probe()
    deadline = time.monotonic() + 5.0
    while len(probe.units) < 3 and time.monotonic() < deadline:
        time.sleep(0.05)
    probe.use_numpy(("rk4", "dense"))
    while len(probe.units) < 6 and time.monotonic() < deadline:
        time.sleep(0.05)
    probe.stop()
    assert not probe._thread.is_alive()
    assert len(probe.units) >= 6
    # each unit is its CPU time over its reference: near 1 on any machine
    # within a factor of ten of the reference one
    assert all(0.1 < slow < 10.0 for _, slow in probe.units)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.prepare(workload, 7, tmp_path / "a")
        b = workloads.prepare(workload, 7, tmp_path / "b")
        assert [op.expect for op in a] == [op.expect for op in b]
    first = workloads.prepare("physical_large", 1, tmp_path / "c")[0]
    marked = {workloads.prepare("physical_large", s, tmp_path / "c")[0]
              .expect["marked_index"] for s in range(20)}
    assert len(marked) > 1 and first.expect["marked_index"] in marked


def test_csv_comparison_is_numeric(tmp_path):
    ref = workloads.REFERENCE_DIR / "fig4_infidelity.csv"
    lines = ref.read_text().splitlines()
    eps, ion, value = lines[-1].split(",")

    def variant(delta: float) -> Path:
        path = tmp_path / f"fig4_{delta}.csv"
        shifted = format(float(value) + delta, ".17g")
        path.write_text("\n".join(lines[:-1] + [f"{eps},{ion},{shifted}"]) + "\n")
        return path

    assert workloads.compare_csv(variant(1e-14), ref) == []
    assert workloads.compare_csv(variant(1e-10), ref) != []
    assert workloads.compare_csv(variant(math.nan), ref) != []


@pytest.fixture(scope="module")
def fig3_outputs(tmp_path_factory):
    """Real fig3 outputs of the program, written in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from iongrover import cli

    work = tmp_path_factory.mktemp("fig3")
    op = workloads.prepare("reproduce", 0, work)[0]
    assert op.name == "reproduce fig3"
    code = cli.main(op.argv)
    return op, code


def _sample(outcomes: list[workloads.Outcome]) -> dict:
    return {"operations": [{"name": o.name, "ok": o.ok, "reasons": o.reasons}
                           for o in outcomes]}


def test_gate_passes_the_reference(fig3_outputs):
    op, code = fig3_outputs
    outcome = workloads.check(op, code)
    assert outcome.ok, outcome.reasons
    assert outcome.fingerprints["fig3_deterministic_final_p_marked"] > 1 - 1e-6
    assert outcome.facts == {"n_ions": 15, "pulses": 14}


def test_perturbed_reference_raises_error_rate(fig3_outputs, tmp_path):
    op, code = fig3_outputs
    perturbed = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, perturbed)
    path = perturbed / "fig3_probabilistic.csv"
    rows = path.read_text().splitlines()
    cells = rows[100].split(",")
    cells[1] = format(float(cells[1]) + 1e-9, ".17g")
    rows[100] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")

    good = workloads.check(op, code)
    bad = workloads.check(op, code, reference_dir=perturbed)
    assert not bad.ok and "fig3_probabilistic.csv row 100" in bad.reasons[0]
    attempted, failed, _ = run._gate([_sample([good]), _sample([bad])])
    assert (attempted, failed) == (2, 1)
    assert failed / attempted > 0


def test_gate_fails_on_exit_code_and_tampered_output(fig3_outputs, tmp_path):
    op, _ = fig3_outputs
    assert not workloads.check(op, 3).ok
    copy = tmp_path / "out"
    shutil.copytree(op.out_dir, copy)
    with open(copy / "fig3_pulses.csv", "a") as fh:
        fh.write("\n")
    tampered = workloads.Operation(op.name, op.argv, copy, op.kind, op.expect)
    reasons = workloads.check(tampered, 0).reasons
    assert any("manifest hash of fig3_pulses.csv" in r for r in reasons)


def _check_output(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    assert any(line.split()[:1] == ["error_rate"] for line in lines[:-1])
    return result


#: per workload, layer counts that only its own commands produce
LAYER_COUNTS = {
    "physical_large": {"dynamics.pulses": 27, "grover.run_search_calls": 1,
                       "householder.apply_calls": 0, "validation.checks": 0},
    "ideal_large": {"householder.generalized_hr_calls": 4, "dynamics.pulses": 0,
                    "grover.run_search_calls": 2},
    "reproduce": {"imperfections.cells": 63, "dynamics.pulses": 14,
                  "grover.run_search_calls": 2},
    "validate_fast": {"validation.checks": 11, "dynamics.propagator_calls": 11,
                      "imperfections.cells": 0},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_prints_every_end_to_end_metric(workload):
    result = _check_output(_run_bench("--workload", workload, "--seed", "3",
                                      "--seconds", "1", "--trace", "0"), "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed3-trace0.json").read_text())
    assert {"nproc", "cpu_model", "caches_cpu0", "git_sha", "seed"} <= set(record["facts"])
    assert {"numpy", "scipy", "blas", "blas_threads"} <= set(record["libraries"])
    assert record["libraries"]["blas_threads"] == 1
    # reported times are raw times scaled by each sample's vCPU speed
    walls = [s["wall_s"] * s["speed"] for s in record["samples"]]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(walls))
    for op in record["operations"].values():
        assert op["fingerprints"] and op["facts"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result = _check_output(_run_bench("--workload", workload, "--seed", "3",
                                      "--seconds", "1", "--trace", "1"), "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name, count in LAYER_COUNTS[workload].items():
        assert metrics[name] == count, name
    span_lines = (ROOT / ".perfbench_out" /
                  f"spans-{workload}-seed3.jsonl").read_text().splitlines()
    assert set(json.loads(span_lines[0])) == {"name", "start", "end", "parent",
                                              "workload", "run_id"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "validate_fast", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
