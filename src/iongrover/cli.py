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
import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import locale  # argparse's gettext loads it per parser; here it loads with the package
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from ._csvtext import CHUNK_ROWS, csv_pieces
from .dynamics import IntegrationError
from .grover import build_plan, count_and_phase, detect, run_search, sample_detection
from .imperfections import infidelity_sweep
from .model import PulseSettings, PulseShape, SearchConfig, SearchResult
from .pulses import NoSolutionError, calibrates, nominal_pulse, rms_area

FIG4_EPSILONS = [round(0.01 * i, 2) for i in range(21)]
FIG4_IONS = [1, 5, 10]
#: peak memory of ``run`` per ion, its whole peak RSS over N (the highest of
#: three runs): 316 and 211 bytes in ideal mode at N = 2^18 and 2^20, 330 and
#: 227 in physical mode, whose runs record 402,501 and 804,501 rows
BYTES_PER_ION = 1024
#: peak memory of ``run`` per trajectory row, above that of a short run (the
#: highest of three runs): 10 bytes (physical, which holds its windows and 8
#: bytes of time a row; 59 with every row stored) and 118 (ideal) at N = 15
#: and 10^6 rows
BYTES_PER_ROW = 512
#: RK4 steps a pulse may take: about 2.5 s for each distinct 2x2 pulse chain
#: at 0.25 us a step recorded every 8 steps (0.1 us a step unrecorded), where
#: an even grid integrates half its window; odd grids take 0.3-0.5 us a step
MAX_STEPS_PER_PULSE = 10**7
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class ConfigError(ValueError):
    """The run config file is malformed or fails validation."""


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


@functools.cache
def _hints(cls) -> dict:
    """The field types of a ``model`` dataclass, evaluated once a process:
    ``model`` postpones its annotations, so each evaluation compiles them."""
    return typing.get_type_hints(cls)


def _build(cls, section, where: str):
    """``cls`` from the JSON object ``section``, read by the types of its
    fields: a dataclass field from its own object, an int field from an
    integral float too (JSON may write 15 as 15.0).  Omitted keys keep the
    dataclass defaults, and the dataclass validates every value."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING is f.default_factory and f.name not in section:
            raise ConfigError(f"{where} is missing required key {f.name!r}")
    hints = _hints(cls)
    unknown = sorted(set(section) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    args = {}
    for key, value in section.items():
        if dataclasses.is_dataclass(hints[key]):
            value = _build(hints[key], value, key)
        elif (int in (hints[key], *typing.get_args(hints[key]))
              and isinstance(value, float) and value.is_integer()):
            value = int(value)
        args[key] = value
    return cls(**args)


def _check_pulses(cfg: SearchConfig, count: int, phase: float) -> None:
    """Refuse what the plan cannot build: a peak on a calibrated pulse, or pulse
    numbers beyond the float range (times formed as the engine forms them)."""
    pulse, window = cfg.pulse, cfg.integrator.window
    shape = PulseShape(pulse.shape, pulse.width)
    calibrated = calibrates(shape, phase)
    if pulse.peak_coupling is not None and calibrated:
        raise ConfigError(f"peak_coupling cannot be set for a detuned {shape.kind!r} "
                          "pulse: its calibration fixes the area")
    peak, delta_t = nominal_pulse(shape, phase, pulse.peak_coupling)
    if not math.isfinite(max(peak, delta_t / pulse.width)):
        raise ConfigError(f"width = {pulse.width!r} puts the rms peak or the detuning "
                          "beyond the float range")
    end = (0.5 + 2 * count) * (pulse.spacing * pulse.width) + 2.0 * window * pulse.width
    if cfg.mode == "physical" and not math.isfinite(end):
        raise ConfigError(f"spacing = {pulse.spacing!r}, width = {pulse.width!r} and "
                          f"window = {window!r} put the pulse schedule beyond the "
                          "float range")
    if calibrated and not math.isfinite(2.0 * window * pulse.width):
        raise ConfigError(f"width = {pulse.width!r} and window = {window!r} put the "
                          "calibration grid beyond the float range")


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
    try:
        cfg = _build(SearchConfig, raw, "config")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    # checked before anything is allocated or integrated: the pulses the plan
    # derives, the register, the record and the integration work
    (count, phase), integ = count_and_phase(cfg), cfg.integrator
    _check_pulses(cfg, count, phase)
    rows = (count + 1 if cfg.mode == "ideal" else
            (2 * count + 1) * -(-integ.steps_per_pulse // integ.trajectory_stride) + 1)
    need = BYTES_PER_ION * cfg.n_ions + BYTES_PER_ROW * rows
    if need > PHYSICAL_MEMORY:
        raise ConfigError(f"n_ions = {cfg.n_ions} with a trajectory record of {rows} "
                          f"rows needs about {need / 2**30:.3g} GiB, more than the "
                          f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory")
    if integ.steps_per_pulse > MAX_STEPS_PER_PULSE:
        raise ConfigError(f"steps_per_pulse = {integ.steps_per_pulse} is above the "
                          f"budget of {MAX_STEPS_PER_PULSE} RK4 steps per pulse")
    return cfg


def _write_text(sink, text: str) -> None:
    """Append the str piece ``text`` to ``sink``, an open output file and its
    running sha256, as UTF-8."""
    fh, digest = sink
    data = text.encode()
    digest.update(data)
    fh.write(data)


def _write_file(path: Path, pieces) -> dict:
    """Write the str ``pieces`` to ``path`` and return its manifest entry: the
    file name, sha256 and byte count written.  Each piece is encoded, hashed
    and written as it comes, into a temporary name beside ``path`` that
    takes its place when complete, so the file only ever appears whole; if
    the pieces fail, the temporary file is removed and an old ``path`` stays."""
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        digest = hashlib.sha256()
        with open(part, "wb") as fh:
            sink = fh, digest
            for text in pieces:
                _write_text(sink, text)
                del text  # not held while the next piece is formed
            size = fh.tell()
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return {"path": path.name, "sha256": digest.hexdigest(), "bytes": size}


@contextlib.contextmanager
def _output_dir(name: str):
    """The directory ``name``, made with its missing parents.  If the block
    raises and the directory was made here, the files written in it are
    removed, and then the directories made here, deepest first; rmdir leaves
    a directory that holds anything else, so a failed command removes no
    file that was there before it."""
    out_dir = Path(name).resolve()  # "new/.." names the directory above "new"
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        with contextlib.suppress(OSError):  # the command's own error is reported
            if made and made[0] == out_dir:
                for f in out_dir.iterdir():
                    f.unlink()
            for d in made:
                d.rmdir()
        raise


def _json_list(item: str, count: int, indent: str) -> str:
    """A list of ``count`` copies of the template ``item`` at ``indent``, laid
    out as json.dumps(..., indent=2) lays out a list."""
    if not count:
        return "[]"
    return "[\n" + ",\n".join([indent + "  " + item] * count) + "\n" + indent + "]"


def _json_array(value: np.ndarray, indent: str):
    """The text of a finite float64 or int64 array of one or two dimensions
    at ``indent``, as json.dumps(value.tolist(), indent=2) lays it out, yielded
    a block of CHUNK_ROWS rows at a time."""
    if not len(value):
        yield "[]"
        return
    item = indent + "  " + ("%s" if value.ndim == 1 else
                            _json_list("%s", value.shape[1], indent + "  "))
    for start in range(0, len(value), CHUNK_ROWS):
        yield _json_block(value[start:start + CHUNK_ROWS], item, start)
    yield "\n" + indent + "]"


def _json_block(block: np.ndarray, item: str, start: int) -> str:
    """The rows of ``block`` as list items of the template ``item``, opening
    the list at ``start`` 0, each value as json's repr.  Rows are compared by
    bit pattern, so -0.0 stays apart from 0.0.  Where the runs of equal
    adjacent rows number at most half the rows, as in every block of an
    epsilon = 0 run, only each run's first row is formatted, and one join
    lays out each run as that row's text repeated.  Otherwise one % call
    fills every cell."""
    form = float.__repr__ if block.dtype == np.float64 else int.__repr__
    bits = block.view(np.int64).reshape(len(block), block[0].size)
    first = np.zeros(len(block), dtype=bool)  # where each run of equal rows begins
    first[0] = True
    for column in bits.T:  # column by column: any(axis=1) costs several times more
        first[1:] |= column[1:] != column[:-1]
    runs = np.flatnonzero(first)
    if 2 * len(runs) <= len(block):
        text = ("\0".join([",\n" + item] * len(runs))
                % tuple(map(form, block[runs].ravel().tolist()))).split("\0")
        bounds = [*runs.tolist(), len(block)]
        laid = [row * (end - begin) for row, begin, end in zip(text, bounds, bounds[1:])]
        if not start:
            laid[0] = "[" + laid[0][1:]
        return "".join(laid)
    return ((("," if start else "[") + "\n" + ",\n".join([item] * len(block)))
            % tuple(map(form, block.ravel().tolist())))


def _json_pieces(payload, end: str = ""):
    """json.dumps(payload, indent=2, sort_keys=True) joined with ``end``, numpy
    arrays as their tolist(), yielded as str pieces.  json lays the payload
    out; its ``default`` hook stands a NUL string in for each finite float64
    or int64 array of one or two dimensions, whose text ``_json_array`` then
    yields in place of the placeholder, at the indent of its line.  A payload
    string that spells a placeholder makes the counts differ, and json then
    writes every array as its tolist()."""
    arrays = []

    def stand_in(value):
        if (value.dtype in (np.float64, np.int64) and value.ndim in (1, 2)
                and np.isfinite(value).all()):
            arrays.append(value)
            return "\0"
        return value.tolist()

    parts = json.dumps(payload, indent=2, sort_keys=True, default=stand_in).split(
        '"\\u0000"')
    if len(parts) != len(arrays) + 1:
        yield json.dumps(payload, indent=2, sort_keys=True,
                         default=lambda a: a.tolist()) + end
        return
    parts[-1] += end
    yield parts[0]
    for value, before, after in zip(arrays, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _json_array(value, line[:len(line) - len(line.lstrip(" "))])
        yield after


def _write_json(path: Path, payload: dict) -> dict:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline,
    numpy arrays in the payload written as their tolist()."""
    return _write_file(path, _json_pieces(payload, "\n"))


def _trajectory_table(result: SearchResult, marked_index: int) -> tuple[list, list]:
    """CSV header and columns of time, p_marked, p_slot0, p_other_total from
    the reduced trajectory; a non-finite population raises ``IntegrationError``.
    The populations are formed a chunk of rows at a time, as the CSV kernel
    asks for them, into one reused (chunk, 3) buffer, each chunk checked."""
    trajectory = result.trajectory
    block = np.empty((min(len(trajectory), CHUNK_ROWS), 3))

    @functools.lru_cache(maxsize=1)  # the three columns of a chunk, formed once
    def populations(start, stop):
        out = trajectory.columns(marked_index, slice(start, stop), block[:stop - start])
        if not np.isfinite(out).all():
            raise IntegrationError("non-finite trajectory population")
        return out

    return (["time", "p_marked", "p_slot0", "p_other_total"],
            [result.trajectory_times,
             *(lambda a, b, j=j: populations(a, b)[:, j] for j in range(3))])


def _manifest(out_dir: Path, command: str, arguments: dict, resolved: dict,
              outputs: list[dict]) -> None:
    """Write manifest.json, ``outputs`` the entries the writers returned."""
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
            "probabilities": detection.probabilities,
        },
        "final_state": result.final_state.amplitudes.view(np.float64).reshape(-1, 2),
    }
    if cfg.shots is not None:
        counts = sample_detection(result.final_state, cfg.shots, args.seed)
        payload["shots"] = {
            "count": cfg.shots,
            "seed": args.seed,
            "no_click": int(counts[0]),
            "ion_counts": counts[1:],
        }
    with _output_dir(args.out) as out_dir:
        # each chunk's populations are checked as its rows are written
        trajectory = _write_file(out_dir / "trajectory.csv",
                                 csv_pieces(*_trajectory_table(result, cfg.marked_index)))
        _manifest(out_dir, "run", {"config": str(args.config)}, result.parameters_used,
                  [_write_json(out_dir / "result.json", payload), trajectory])
    return 0


def _fig3(args: argparse.Namespace, resolved: dict):
    """Both variants' physical traces at N = 15, and the deterministic pulses."""
    for variant in ("probabilistic", "deterministic"):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical", variant=variant)
        result = run_search(cfg)
        resolved[variant] = result.parameters_used
        yield f"fig3_{variant}.csv", *_trajectory_table(result, cfg.marked_index)
    plan = build_plan(cfg)
    pulses = plan.timeline()
    yield ("fig3_pulses.csv",
           ["index", "kind", "center", "width", "rms_area", "detuning"],
           [[str(i) for i in range(len(pulses))],
            ["init"] + ["oracle", "global"] * plan.count,
            [p.center for p in pulses], [p.shape.width for p in pulses],
            [rms_area(p) for p in pulses], [p.detuning for p in pulses]])


def _fig4(args: argparse.Namespace, resolved: dict):
    """The N = 20 physical infidelity after 3 steps over fig4's grid."""
    rows = infidelity_sweep(20, FIG4_IONS, FIG4_EPSILONS, steps=3, jobs=args.jobs)
    resolved.update(n_ions=20, steps=3, ions=FIG4_IONS, epsilons=FIG4_EPSILONS)
    yield ("fig4_infidelity.csv", ["epsilon", "ion", "infidelity"],
           [[r.epsilon for r in rows], [str(r.marked_index) for r in rows],
            [r.infidelity for r in rows]])


def _crowding(args: argparse.Namespace, resolved: dict):
    """The N = 15 probabilistic search's final and peak marked population as
    its pulses crowd, from touching windows (spacing 30) to spacing 4."""
    spacings, final, peak = [30.0, 20.0, 12.0, 10.0, 8.0, 7.0, 6.0, 5.0, 4.0], [], []
    for spacing in spacings:
        result = run_search(SearchConfig(n_ions=15, marked_index=8, mode="physical",
                                         pulse=PulseSettings(spacing=spacing)))
        final.append(result.success_probability)
        peak.append(float(np.max(result.trajectory.slots(8))))
    resolved.update(n_ions=15, marked_index=8, mode="physical", spacings=spacings)
    yield ("crowding.csv", ["spacing", "final_probability", "peak_probability"],
           [spacings, final, peak])


#: figure -> a generator of its files' (name, CSV header, columns), each yielded
#: as its search ends and written before the next; it fills the resolved parameters
_FIGURES = {"fig3": _fig3, "fig4": _fig4, "crowding": _crowding}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    resolved: dict = {}
    with _output_dir(args.out) as out_dir:
        outputs = [_write_file(out_dir / name, csv_pieces(header, columns))
                   for name, header, columns in _FIGURES[args.figure](args, resolved)]
        _manifest(out_dir, "reproduce", {"figure": args.figure}, resolved, outputs)
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
        with _output_dir(args.out) as out_dir:
            _write_json(out_dir / "validation_report.json", report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.3e} tol={c.tolerance:.0e}",
              file=sys.stderr)
    return 0 if passed else 1


@functools.cache  # main may run more than once in a process
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

    rep_p = sub.add_parser("reproduce", help="emit the data behind a figure")
    rep_p.add_argument("--figure", required=True, choices=tuple(_FIGURES))
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.add_argument("--jobs", type=int, default=1,
                       help="accepted and checked (at least 1) but has no effect: "
                            "sweep cells run in this process")

    val_p = sub.add_parser("validate", help="run the self-check suite")
    val_p.add_argument("--suite", required=True, choices=("fast", "full"))
    val_p.add_argument("--out", default=None,
                       help="directory for the JSON report (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    # what is alive now (the imported modules above all) outlives the command;
    # frozen, it stays out of the collections the command triggers
    gc.freeze()
    args = _build_parser().parse_args(argv)
    # looked up per call, not bound in the parser: the parser outlives a
    # command function that a caller replaces
    command = globals()[f"_cmd_{args.command}"]
    try:
        with np.errstate(all="ignore"):  # drift and non-finite results exit 3
            return command(args)
    except (IntegrationError, NoSolutionError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
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
