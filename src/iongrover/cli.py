"""Command-line front end: run configs, reproduce figure data, self-validate.

Outputs are plot-ready CSV (LF line endings, 17-significant-digit floats) and
JSON result/manifest files; nothing is rendered.  Runs are bit-for-bit
reproducible: the only randomness anywhere is shot sampling, which is off
unless a shot count is configured together with an explicit --seed.

Exit codes: 0 success, 1 validation-suite failure, 2 bad config (a register
too large for physical memory included), 3 numerical or internal failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import locale  # argparse's gettext loads it per parser; here it loads with the package
import os
import sys
from pathlib import Path


from . import __version__
from .dynamics import IntegrationError
from .grover import build_plan, count_and_phase, detect, run_search, sample_detection
from .imperfections import infidelity_sweep
from .model import (
    ImperfectionSettings,
    IntegratorConfig,
    PulseSettings,
    SearchConfig,
    SearchResult,
)
from .pulses import NoSolutionError, rms_area

FIG4_EPSILONS = [round(0.01 * i, 2) for i in range(21)]
FIG4_IONS = [1, 5, 10]
#: peak memory of ``run`` per ion: 750 to 1030 bytes at N = 2^18 and 2^20 in
#: either mode, most of it the JSON text of the final state
BYTES_PER_ION = 1024
#: peak memory of ``run`` per trajectory row, above that of a short run: 486
#: bytes (physical) and 433 (ideal) at N = 15 and 10^6 rows
BYTES_PER_ROW = 512
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class ConfigError(ValueError):
    """The run config file is malformed or fails validation."""


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


#: JSON may write these integers as 15.0
INTEGER_KEYS = {"n_ions", "marked_index", "iterations", "shots", "steps_per_pulse",
                "trajectory_stride"}
SECTIONS = {"pulse": PulseSettings, "imperfection": ImperfectionSettings,
            "integrator": IntegratorConfig}


def _arguments(section, cls, where: str) -> dict:
    """Keyword arguments for ``cls`` from a JSON object; omitted keys keep the
    dataclass defaults, and the dataclass validates every value."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    _reject_unknown(section, set(cls.__dataclass_fields__), where)
    return {k: int(v) if k in INTEGER_KEYS and isinstance(v, float) and v.is_integer()
            else v for k, v in section.items()}


def load_config(path: Path) -> SearchConfig:
    """Parse and validate a JSON search config (strict: unknown keys rejected)."""
    try:
        raw = json.loads(path.read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = raw.pop("schema_version", 1)
    if type(version) is not int or version != 1:  # JSON true and 1.0 both equal 1
        raise ConfigError(f"unsupported schema_version {version!r}")
    for key in ("n_ions", "marked_index"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    try:
        args = _arguments(raw, SearchConfig, "config")
        for key, cls in SECTIONS.items():
            args[key] = cls(**_arguments(args.get(key, {}), cls, key))
        cfg = SearchConfig(**args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    # checked before anything is allocated: the register and the record
    count, integ = count_and_phase(cfg)[0], cfg.integrator
    rows = (count + 1 if cfg.mode == "ideal" else
            (2 * count + 1) * -(-integ.steps_per_pulse // integ.trajectory_stride) + 1)
    need = BYTES_PER_ION * cfg.n_ions + BYTES_PER_ROW * rows
    if need > PHYSICAL_MEMORY:
        raise ConfigError(f"n_ions = {cfg.n_ions} with a trajectory record of {rows} "
                          f"rows needs about {need / 2**30:.3g} GiB, more than the "
                          f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory")
    return cfg


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], columns: list[list]) -> None:
    """Write equal-length columns as rows, formatted by one % call over a
    repeated row template: str cells as they are, numbers as %.17g, which
    gives the text of format(float(x), ".17g")."""
    rows = len(columns[0])
    row = ",".join("%s" if rows and isinstance(col[0], str) else "%.17g"
                   for col in columns)
    cells = [None] * (rows * len(columns))
    for j, col in enumerate(columns):
        cells[j::len(columns)] = col
    _write_text(path, ",".join(header) + "\n" + (row + "\n") * rows % tuple(cells))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _trajectory_columns(result: SearchResult, marked_index: int) -> list[list]:
    """time, p_marked, p_slot0, p_other_total, read from the reduced trajectory."""
    return [result.trajectory_times.tolist(),
            *result.trajectory.columns(marked_index).T.tolist()]


def _manifest(out_dir: Path, command: str, arguments: dict, resolved: dict,
              files: list[Path]) -> None:
    outputs = []
    for path in files:
        data = path.read_bytes()
        outputs.append({
            "path": path.name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
    _write_json(out_dir / "manifest.json", {
        "tool": "iongrover",
        "version": __version__,
        "command": command,
        "arguments": arguments,
        "resolved_parameters": resolved,
        "outputs": outputs,
    })


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    cfg = load_config(Path(args.config))
    if cfg.shots is not None and args.seed is None:
        raise ConfigError("shot sampling requires an explicit --seed")
    result = run_search(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    detection = detect(result.final_state)

    payload = {
        "schema_version": 1,
        "success_probability": result.success_probability,
        "iterations_executed": result.iterations_executed,
        "parameters_used": result.parameters_used,
        "detection": {
            "found": detection.found,
            "residual": detection.residual,
            "residual_flagged": detection.residual_flagged,
            "probabilities": detection.probabilities.tolist(),
        },
        "final_state": [[z.real, z.imag] for z in result.final_state.amplitudes],
    }
    if cfg.shots is not None:
        counts = sample_detection(result.final_state, cfg.shots, args.seed)
        payload["shots"] = {
            "count": cfg.shots,
            "seed": args.seed,
            "no_click": int(counts[0]),
            "ion_counts": counts[1:].tolist(),
        }
    result_path = out_dir / "result.json"
    _write_json(result_path, payload)
    traj_path = out_dir / "trajectory.csv"
    _write_csv(traj_path, ["time", "p_marked", "p_slot0", "p_other_total"],
               _trajectory_columns(result, cfg.marked_index))
    _manifest(out_dir, "run", {"config": str(args.config)},
              result.parameters_used, [result_path, traj_path])
    return 0


def _pulse_timeline_columns(cfg: SearchConfig) -> list[list]:
    plan = build_plan(cfg)
    pulses = plan.timeline()
    return [[str(i) for i in range(len(pulses))],
            ["init"] + ["oracle", "global"] * plan.count,
            [p.center for p in pulses], [p.shape.width for p in pulses],
            [rms_area(p) for p in pulses], [p.detuning for p in pulses]]


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    resolved: dict = {}
    if args.figure == "fig3":
        for variant in ("probabilistic", "deterministic"):
            cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                               variant=variant)
            result = run_search(cfg)
            path = out_dir / f"fig3_{variant}.csv"
            _write_csv(path, ["time", "p_marked", "p_slot0", "p_other_total"],
                       _trajectory_columns(result, cfg.marked_index))
            files.append(path)
            resolved[variant] = result.parameters_used
            if variant == "deterministic":
                pulses_path = out_dir / "fig3_pulses.csv"
                _write_csv(pulses_path,
                           ["index", "kind", "center", "width", "rms_area",
                            "detuning"],
                           _pulse_timeline_columns(cfg))
                files.append(pulses_path)
    else:
        rows = infidelity_sweep(20, FIG4_IONS, FIG4_EPSILONS, steps=3,
                                mode="physical", jobs=args.jobs)
        path = out_dir / "fig4_infidelity.csv"
        _write_csv(path, ["epsilon", "ion", "infidelity"],
                   [[r.epsilon for r in rows], [str(r.marked_index) for r in rows],
                    [r.infidelity for r in rows]])
        files.append(path)
        resolved = {"n_ions": 20, "steps": 3, "ions": FIG4_IONS,
                    "epsilons": FIG4_EPSILONS}
    _manifest(out_dir, "reproduce", {"figure": args.figure}, resolved, files)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import run_suite

    checks = run_suite(args.suite)
    passed = all(c.passed for c in checks)
    report = {
        "suite": args.suite,
        "passed": passed,
        "checks": [c.to_dict() for c in checks],
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "validation_report.json", report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.3e} tol={c.tolerance:.0e}",
              file=sys.stderr)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iongrover",
        description="Grover search on a trapped-ion chain, exact or pulse-level.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one search from a JSON config")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="RNG seed, required iff the config enables shots")
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("reproduce", help="emit the data behind a figure")
    rep_p.add_argument("--figure", required=True, choices=("fig3", "fig4"))
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.add_argument("--jobs", type=int, default=1,
                       help="accepted and checked (at least 1) but has no effect: "
                            "sweep cells run in this process")
    rep_p.set_defaults(func=_cmd_reproduce)

    val_p = sub.add_parser("validate", help="run the self-check suite")
    val_p.add_argument("--suite", required=True, choices=("fast", "full"))
    val_p.add_argument("--out", default=None,
                       help="directory for the JSON report (default: stdout)")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    # what is alive now (the imported modules above all) outlives the command;
    # frozen, it stays out of the collections the command triggers
    gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IntegrationError, NoSolutionError) as exc:
        # NoSolutionError subclasses ValueError, so numerical failures must be
        # picked off before the config-error net below
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: config invalid: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output not written: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
