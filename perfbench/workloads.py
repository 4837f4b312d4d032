"""The four benchmark workloads: inputs drawn from a seed, the CLI commands
that consume them, and the correctness gate applied to every command.

This module imports only the standard library, so importing it adds nothing
to the measured set-up time beyond the program's own imports.

Every workload is a closed loop: one process sends one CLI command at a time
and waits for it.  The only concurrency is the 2-worker pool of the fig4
sweep in ``reproduce``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

N_PHYSICAL = 256
N_IDEAL = 2048
FIG4_ANCHOR_EPSILON = 0.2
FIG4_ANCHOR_IONS = (1, 5, 10)
CSV_TOLERANCE = 1e-12

WORKLOADS = ("physical_large", "ideal_large", "reproduce", "validate_fast")

#: parts of the speed probe's unit in each workload's timed interval
#: (speed.py): work of the kind the workload spends its time on.  Three run
#: RK4 steps on small states; ideal_large builds and multiplies dense complex
#: operators, whose slowdown RK4 steps alone under-estimate.
PROBE_PARTS = {"physical_large": ("rk4",), "ideal_large": ("rk4", "dense"),
               "reproduce": ("rk4",), "validate_fast": ("rk4",)}


@dataclass
class Operation:
    """One CLI command of a workload and the gate its outputs must pass."""

    name: str
    argv: list[str]
    out_dir: Path
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Verdict on one operation: failure reasons plus recorded fingerprints."""

    name: str
    reasons: list[str] = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.reasons


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def prepare(workload: str, seed: int, work_dir: Path) -> list[Operation]:
    """Write the workload's input files under ``work_dir`` and list its commands.

    The same seed always yields the same inputs.  ``reproduce`` and
    ``validate_fast`` take no inputs, so for them the seed changes nothing.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "physical_large":
        cfg = {"schema_version": 1, "n_ions": N_PHYSICAL,
               "marked_index": rng.randint(1, N_PHYSICAL),
               "mode": "physical", "variant": "deterministic"}
        _write_config(work_dir / "physical.json", cfg)
        out = work_dir / "out_physical"
        return [Operation("run physical deterministic",
                          ["run", "--config", str(work_dir / "physical.json"),
                           "--out", str(out)], out, "run",
                          {"n_ions": N_PHYSICAL, "mode": "physical",
                           "variant": "deterministic",
                           "marked_index": cfg["marked_index"]})]
    if workload == "ideal_large":
        ops = []
        for variant in ("probabilistic", "deterministic"):
            cfg = {"schema_version": 1, "n_ions": N_IDEAL,
                   "marked_index": rng.randint(1, N_IDEAL),
                   "mode": "ideal", "variant": variant}
            path = work_dir / f"ideal_{variant}.json"
            _write_config(path, cfg)
            out = work_dir / f"out_ideal_{variant}"
            ops.append(Operation(f"run ideal {variant}",
                                 ["run", "--config", str(path), "--out", str(out)],
                                 out, "run",
                                 {"n_ions": N_IDEAL, "mode": "ideal",
                                  "variant": variant,
                                  "marked_index": cfg["marked_index"]}))
        return ops
    if workload == "reproduce":
        fig3, fig4 = work_dir / "out_fig3", work_dir / "out_fig4"
        return [
            Operation("reproduce fig3",
                      ["reproduce", "--figure", "fig3", "--out", str(fig3)],
                      fig3, "reproduce",
                      {"files": ["fig3_probabilistic.csv", "fig3_deterministic.csv",
                                 "fig3_pulses.csv"]}),
            Operation("reproduce fig4",
                      ["reproduce", "--figure", "fig4", "--out", str(fig4),
                       "--jobs", "2"],
                      fig4, "reproduce", {"files": ["fig4_infidelity.csv"]}),
        ]
    if workload == "validate_fast":
        out = work_dir / "out_validate"
        return [Operation("validate fast",
                          ["validate", "--suite", "fast", "--out", str(out)],
                          out, "validate")]
    raise ValueError(f"unknown workload {workload!r}")


def _non_finite(value, where: str) -> list[str]:
    """Paths of every non-finite number inside a parsed JSON value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [where]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return [f"{where} (unexpected type {type(value).__name__})"]


def _load_json(path: Path, outcome: Outcome):
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        outcome.reasons.append(f"{path.name}: unreadable ({exc})")
        return None
    bad = _non_finite(payload, path.name)
    if bad:
        outcome.reasons.append(f"non-finite number at {bad[0]} ({len(bad)} in all)")
    return payload


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _csv_non_finite(rows: list[list[str]], name: str) -> list[str]:
    return [f"{name} row {i} column {j}" for i, row in enumerate(rows[1:], start=1)
            for j, cell in enumerate(row)
            if _cell_is_float(cell) and not math.isfinite(float(cell))]


def compare_csv(got: Path, reference: Path, tol: float = CSV_TOLERANCE) -> list[str]:
    """Differences between a written CSV and its reference copy.

    Numeric cells must agree within ``tol`` absolute, so an engine that moves
    only the last bits still passes; text cells must match exactly.
    """
    try:
        rows, ref = _read_csv(got), _read_csv(reference)
    except OSError as exc:
        return [f"{got.name}: unreadable ({exc})"]
    problems = _csv_non_finite(rows, got.name)
    if len(rows) != len(ref):
        return problems + [f"{got.name}: {len(rows)} rows, reference has {len(ref)}"]
    if rows and rows[0] != ref[0]:
        return problems + [f"{got.name}: header {rows[0]} != {ref[0]}"]
    worst, where = 0.0, None
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(ref_row):
            return problems + [f"{got.name} row {i}: {len(row)} cells, "
                               f"reference has {len(ref_row)}"]
        for j, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            if _cell_is_float(cell) and _cell_is_float(ref_cell):
                diff = abs(float(cell) - float(ref_cell))
                if diff > worst:
                    worst, where = diff, (i, j)
            elif cell != ref_cell:
                return problems + [f"{got.name} row {i} column {j}: "
                                   f"{cell!r} != {ref_cell!r}"]
    if not worst <= tol:
        problems.append(f"{got.name} row {where[0]} column {where[1]}: differs from "
                        f"the reference by {worst:.3g} > {tol:g}")
    return problems


def _check_manifest(out_dir: Path, outcome: Outcome) -> dict | None:
    manifest = _load_json(out_dir / "manifest.json", outcome)
    if manifest is None:
        return None
    for entry in manifest.get("outputs", []):
        try:
            data = (out_dir / entry["path"]).read_bytes()
        except OSError as exc:
            outcome.reasons.append(f"manifest lists unreadable {entry['path']} ({exc})")
            continue
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            outcome.reasons.append(f"manifest hash of {entry['path']} does not match the file")
    return manifest


def _check_run(op: Operation, outcome: Outcome) -> None:
    result = _load_json(op.out_dir / "result.json", outcome)
    traj = op.out_dir / "trajectory.csv"
    try:
        bad = _csv_non_finite(_read_csv(traj), traj.name)
    except OSError as exc:
        bad = [f"{traj.name}: unreadable ({exc})"]
    if bad:
        outcome.reasons.append(f"non-finite number at {bad[0]} ({len(bad)} in all)")
    _check_manifest(op.out_dir, outcome)
    if result is None:
        return
    p = result["success_probability"]
    iterations = result["iterations_executed"]
    n = op.expect["n_ions"]
    outcome.fingerprints["success_probability"] = p
    outcome.facts.update(n_ions=n, pulses=2 * iterations + 1)
    found = result["detection"]["found"]
    if op.expect["mode"] == "ideal" and op.expect["variant"] == "probabilistic":
        expected = math.sin((2 * iterations + 1) * math.asin(1.0 / math.sqrt(n))) ** 2
        if not abs(p - expected) <= 1e-12:
            outcome.reasons.append(f"p_marked {p!r} differs from the closed form "
                                   f"{expected!r} by more than 1e-12")
    else:
        limit = 1e-9 if op.expect["mode"] == "ideal" else 1e-6
        if not 1.0 - p <= limit:
            outcome.reasons.append(f"1 - p_marked = {1.0 - p:.3g} > {limit:g}")
    if found != op.expect["marked_index"]:
        outcome.reasons.append(f"detection found ion {found}, "
                               f"marked ion is {op.expect['marked_index']}")


def _check_reproduce(op: Operation, outcome: Outcome, reference_dir: Path) -> None:
    manifest = _check_manifest(op.out_dir, outcome)
    for name in op.expect["files"]:
        outcome.reasons.extend(compare_csv(op.out_dir / name, reference_dir / name))
    if manifest is None:
        return
    resolved = manifest["resolved_parameters"]
    if "fig4_infidelity.csv" in op.expect["files"]:
        anchors = {}
        for eps, ion, infidelity in _read_csv(op.out_dir / "fig4_infidelity.csv")[1:]:
            if abs(float(eps) - FIG4_ANCHOR_EPSILON) < 1e-12 and int(ion) in FIG4_ANCHOR_IONS:
                anchors[f"eps={FIG4_ANCHOR_EPSILON},ion={ion}"] = float(infidelity)
        outcome.fingerprints["fig4_anchor_infidelity"] = anchors
        cells = len(resolved["ions"]) * len(resolved["epsilons"])
        outcome.facts.update(n_ions=resolved["n_ions"], cells=cells,
                             pulses=cells * (2 * resolved["steps"] + 1))
    else:
        for variant in ("probabilistic", "deterministic"):
            last = _read_csv(op.out_dir / f"fig3_{variant}.csv")[-1]
            outcome.fingerprints[f"fig3_{variant}_final_p_marked"] = float(last[1])
        outcome.facts.update(
            n_ions=resolved["probabilistic"]["n_ions"],
            pulses=sum(2 * resolved[v]["iterations"] + 1
                       for v in ("probabilistic", "deterministic")))


def _check_validate(op: Operation, outcome: Outcome) -> None:
    report = _load_json(op.out_dir / "validation_report.json", outcome)
    if report is None:
        return
    if not report.get("passed"):
        outcome.reasons.append("the validation report says the suite failed")
    for check in report.get("checks", []):
        if not check["passed"]:
            outcome.reasons.append(f"check {check['name']} failed: value "
                                   f"{check['value']:.3g} > tolerance {check['tolerance']:g}")
        outcome.fingerprints[check["name"]] = {"value": check["value"],
                                               "margin": check["margin"]}
    outcome.facts.update(checks=len(report.get("checks", [])))


def check(op: Operation, exit_code, reference_dir: Path = REFERENCE_DIR) -> Outcome:
    """Gate one operation: exit code 0, finite outputs, and its reference check."""
    outcome = Outcome(op.name)
    if exit_code != 0:
        outcome.reasons.append(f"exit code {exit_code!r}")
        return outcome
    try:
        if op.kind == "run":
            _check_run(op, outcome)
        elif op.kind == "reproduce":
            _check_reproduce(op, outcome, reference_dir)
        else:
            _check_validate(op, outcome)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        outcome.reasons.append(f"output does not have the expected layout ({exc!r})")
    return outcome
