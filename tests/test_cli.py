import json
import math

import numpy as np
import pytest

from iongrover import cli
from iongrover.cli import main
from iongrover.grover import build_plan, run_search
from iongrover.imperfections import SweepRow
from iongrover.model import SearchConfig, Trajectory
from iongrover.pulses import rms_area


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "n_ions": 6,
        "marked_index": 2,
        "mode": "ideal",
        "variant": "probabilistic",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_ideal_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        theta = math.asin(1 / math.sqrt(6))
        expected = math.sin((2 * result["iterations_executed"] + 1) * theta) ** 2
        assert result["success_probability"] == pytest.approx(expected, abs=1e-12)
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,p_marked,p_slot0,p_other_total"
        # ideal mode samples once per iteration
        assert len(lines) == 2 + result["iterations_executed"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert {o["path"] for o in manifest["outputs"]} == {
            "result.json", "trajectory.csv"
        }

    def test_floats_round_trip_17g(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        result = json.loads((out / "result.json").read_text())
        last = lines[-1].split(",")
        assert float(last[1]) == result["success_probability"]

    def test_lf_line_endings(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        raw = (out / "trajectory.csv").read_bytes()
        assert b"\r" not in raw

    def test_invalid_size_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n_ions=1, marked_index=1)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config invalid" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", detuningg=0.5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_shots_require_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", shots=100)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "11"]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["shots"]["count"] == 100
        assert sum(result["shots"]["ion_counts"]) + result["shots"]["no_click"] == 100

    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        # it once ran the search and created --out before the seed was checked
        def fail(cfg):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "run_search", fail)
        cfg = write_config(tmp_path / "cfg.json", shots=100)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: --seed") and err.count("\n") == 1
        assert not out.exists()

    def test_numerical_failure_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="physical",
            pulse={"peak_coupling": 120.0},
            integrator={"steps_per_pulse": 64},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_deterministic_physical_trajectory_ends_high(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8,
                          mode="physical", variant="deterministic")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        final = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert float(final.split(",")[1]) >= 0.999


@pytest.fixture(scope="module")
def fig3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    assert main(["reproduce", "--figure", "fig3", "--out", str(out)]) == 0
    return out


class TestReproduceFig3:

    def test_files_exist(self, fig3_dir):
        for name in ("fig3_probabilistic.csv", "fig3_deterministic.csv",
                     "fig3_pulses.csv", "manifest.json"):
            assert (fig3_dir / name).exists()

    def test_probabilistic_peak(self, fig3_dir):
        rows = (fig3_dir / "fig3_probabilistic.csv").read_text().splitlines()[1:]
        peak = max(float(r.split(",")[1]) for r in rows)
        ideal = math.sin(7 * math.asin(1 / math.sqrt(15))) ** 2
        assert peak == pytest.approx(ideal, abs=0.02)

    def test_deterministic_peak(self, fig3_dir):
        rows = (fig3_dir / "fig3_deterministic.csv").read_text().splitlines()[1:]
        peak = max(float(r.split(",")[1]) for r in rows)
        assert peak >= 0.999

    def test_pulse_timeline(self, fig3_dir):
        lines = (fig3_dir / "fig3_pulses.csv").read_text().splitlines()
        assert lines[0] == "index,kind,center,width,rms_area,detuning"
        kinds = [ln.split(",")[1] for ln in lines[1:]]
        assert kinds == ["init", "oracle", "global"] + ["oracle", "global"] * 2
        areas = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert areas[0] == pytest.approx(math.pi, rel=1e-12)
        np.testing.assert_allclose(areas[1:], 2 * math.pi, rtol=1e-12)

    def test_manifest_checksums(self, fig3_dir):
        import hashlib

        manifest = json.loads((fig3_dir / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((fig3_dir / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]


class TestReproduceFig4:
    @pytest.mark.slow
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "fig4"
        assert main(["reproduce", "--figure", "fig4", "--out", str(out),
                     "--jobs", "4"]) == 0
        lines = (out / "fig4_infidelity.csv").read_text().splitlines()
        assert lines[0] == "epsilon,ion,infidelity"
        assert len(lines) == 1 + 21 * 3
        first = lines[1].split(",")
        ideal = 1 - math.sin(7 * math.asin(1 / math.sqrt(20))) ** 2
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(ideal, abs=1e-3)


class TestValidateCommand:
    def test_fast_suite_passes(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--suite", "fast", "--out", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["passed"] is True
        assert all(c["margin"] >= 0 for c in report["checks"])


class TestOutputDirectory:
    @pytest.mark.parametrize("command", [
        ["run", "--config", "{cfg}"],
        ["reproduce", "--figure", "fig3"],
        ["validate", "--suite", "fast"],
    ], ids=lambda c: c[0])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json")
        taken = tmp_path / "taken"
        taken.write_text("keep")
        argv = [a.format(cfg=cfg) for a in command] + ["--out", str(taken)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == "keep"


class TestRegisterSize:
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_beyond_physical_memory_exits_2_before_allocating(self, tmp_path, capsys,
                                                              monkeypatch, mode):
        import iongrover.imperfections as imperfections

        def refuse(*args, **kwargs):
            raise AssertionError("the beam profile was built for an oversized register")

        monkeypatch.setattr(imperfections, "beam_factors", refuse)
        cfg = write_config(tmp_path / "cfg.json", n_ions=10**17, marked_index=1,
                           mode=mode)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: n_ions = 100000000000000000")
        assert "physical memory" in err and err.count("\n") == 1
        assert not out.exists()


class TestRecordMemory:
    @pytest.mark.parametrize("overrides", [
        {"n_ions": 15, "marked_index": 8, "mode": "physical",
         "integrator": {"steps_per_pulse": 2**31, "trajectory_stride": 1}},
        {"iterations": 10**12},
    ], ids=["physical-steps", "ideal-iterations"])
    def test_oversized_record_is_refused_by_load_config(self, tmp_path, overrides):
        with pytest.raises(cli.ConfigError, match="trajectory record"):
            cli.load_config(write_config(tmp_path / "cfg.json", **overrides))

    def test_record_beyond_physical_memory_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        # 7 pulses of 4000 recorded steps and the start row: 28,001 rows
        monkeypatch.setattr(cli, "PHYSICAL_MEMORY", 4 * 2**20)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8,
                           mode="physical", variant="deterministic",
                           integrator={"trajectory_stride": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: n_ions = 15 with a trajectory "
                              "record of 28001 rows") and err.count("\n") == 1
        assert not out.exists()


class TestInternalFailure:
    @pytest.mark.parametrize("error", [RuntimeError("broken invariant"),
                                       MemoryError()], ids=lambda e: type(e).__name__)
    def test_any_other_exception_exits_3_in_one_line(self, tmp_path, capsys,
                                                     monkeypatch, error):
        def fail(cfg):
            raise error

        monkeypatch.setattr(cli, "run_search", fail)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: internal failure: {type(error).__name__}")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestNonSechShape:
    def test_detuned_gaussian_search_runs(self, tmp_path):
        # the sech closed-form detuning gave p = 0.814 here; the calibrated
        # pulse is what the run reports
        cfg = write_config(tmp_path / "cfg.json", n_ions=5, marked_index=2,
                           mode="physical", variant="deterministic",
                           pulse={"shape": "gaussian"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        used = result["parameters_used"]
        assert used["phi"] < 0.5 * math.pi
        reflection = build_plan(cli.load_config(cfg)).reflection
        assert used["delta_t"] == reflection.detuning * reflection.shape.width
        assert used["peak_coupling"] == reflection.rms_peak
        assert 1.0 - result["success_probability"] <= 1e-9

    def test_detuned_gaussian_peak_coupling_refused(self, tmp_path, capsys):
        # the calibration fixes the area of a detuned non-sech pulse
        cfg = write_config(tmp_path / "cfg.json", n_ions=5, marked_index=2,
                           mode="physical", variant="deterministic",
                           pulse={"shape": "gaussian", "peak_coupling": 3.0})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: peak_coupling")
        assert not out.exists()

    @pytest.mark.parametrize("iterations, code", [(40, 0), (55, 3)])
    def test_small_phase_calibration(self, tmp_path, capsys, iterations, code):
        # 40 iterations match at phi = 0.048*pi; at 0.035*pi (55) the Newton
        # solve finds no root within its 32 steps
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8,
                           mode="physical", variant="deterministic",
                           iterations=iterations, pulse={"shape": "gaussian"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            result = json.loads((out / "result.json").read_text())
            assert 1.0 - result["success_probability"] <= 1e-9
            return
        assert err.startswith("error: numerical failure: no (area, detuning)")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("variant, iterations",
                             [("probabilistic", None), ("deterministic", 1)])
    def test_resonant_gaussian_search_runs(self, tmp_path, variant, iterations):
        # phase pi needs only the 2-pi area, which any envelope gets right; one
        # deterministic iteration at N = 5 clips the matched phase to pi
        cfg = write_config(tmp_path / "cfg.json", n_ions=5, marked_index=2,
                           mode="physical", variant=variant, iterations=iterations,
                           pulse={"shape": "gaussian"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["parameters_used"]["phi"] == math.pi
        ideal = run_search(SearchConfig(n_ions=5, marked_index=2, variant=variant,
                                        iterations=iterations))
        assert result["success_probability"] == pytest.approx(
            ideal.success_probability, abs=1e-5)


class TestConfigHardening:
    """Each probe once exited 0 with NaN output, truncated silently, or ended
    in a traceback."""

    def run_raw(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "out"
        return main(["run", "--config", str(path), "--out", str(out)]), out

    @pytest.mark.parametrize("text", [
        '{"n_ions": 6, "marked_index": 2, "pulse": {"width": NaN}}',
        '{"n_ions": 6, "marked_index": 2, "pulse": {"spacing": Infinity}}',
        '{"n_ions": 6, "marked_index": 2, "imperfection": {"epsilon": -Infinity}}',
        '{"n_ions": 6, "marked_index": 2, "integrator": {"window": 1e400}}',
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, text):
        code, out = self.run_raw(tmp_path, text)
        assert code == 2
        assert "config invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"n_ions": 15.9},
        {"iterations": 2.5},
        {"n_ions": True},
        {"marked_index": "2"},
        {"shots": 10.5},
        {"integrator": {"steps_per_pulse": 4000.5}},
        {"integrator": {"trajectory_stride": False}},
        {"pulse": {"width": "1.0"}},
        {"pulse": {"peak_coupling": True}},
        {"schema_version": True},
        {"imperfection": {"epsilon": False}},
        {"imperfection": {"custom_factors": [True] * 6}},
        {"integrator": {"norm_tolerance": True}},
    ])
    def test_non_integral_or_mistyped_values_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["pulse", "imperfection", "integrator"])
    @pytest.mark.parametrize("value", [[], None, 3, "sech"])
    def test_non_object_section_exit_2(self, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path / "cfg.json", **{section: value})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"shots": 2**63},
        {"mode": "physical", "integrator": {"trajectory_stride": 2**63}},
        {"mode": "physical", "variant": "deterministic", "iterations": 2**63},
    ], ids=["shots", "trajectory_stride", "iterations"])
    def test_counts_beyond_int64_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: ") and err.count("\n") == 1
        assert "at most 2**63 - 1" in err
        assert not out.exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_ions=6.0, iterations=2.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["parameters_used"]["n_ions"] == 6
        assert result["iterations_executed"] == 2

    def test_overflowing_pulse_exits_3_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", mode="physical",
                           pulse={"peak_coupling": 1e300})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def run_with_poisoned_record(tmp_path, monkeypatch, part, value):
        """Exit code of a physical run whose trajectory record carries
        ``value`` in column 1 of the second row of its basis or coordinates."""
        import iongrover.grover as grover

        real = grover.evolve_schedule

        def poisoned(*args, **kwargs):
            state, times, trajectory = real(*args, **kwargs)
            basis, coords = trajectory.basis.copy(), trajectory.coords.copy()
            {"basis": basis, "coords": coords}[part][1, 1] = value
            return state, times, Trajectory(basis, coords)

        monkeypatch.setattr(grover, "evolve_schedule", poisoned)
        cfg = write_config(tmp_path / "cfg.json", mode="physical")
        with np.errstate(all="ignore"):
            return main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_non_finite_trajectory_exits_3_before_writing(self, tmp_path, monkeypatch):
        # NaN in a driven component at a recorded step
        assert self.run_with_poisoned_record(tmp_path, monkeypatch, "coords",
                                             np.nan) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("part, value", [
        ("basis", np.nan),     # a basis direction of the run
        ("coords", 1e200),     # finite, but its population overflows
    ])
    def test_poisoned_record_exits_3_before_writing(self, tmp_path, monkeypatch,
                                                    part, value):
        assert self.run_with_poisoned_record(tmp_path, monkeypatch, part, value) == 3
        assert not (tmp_path / "out").exists()


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path),
                     "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


IMPORT_PROBE = """
import gc, json, sys

UNUSED = ("scipy", "concurrent", "multiprocessing")

def heavy():
    return {m for m in sys.modules if m.split(".")[0] in UNUSED + ("locale",)
            or m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])}

import iongrover.cli
from iongrover.cli import main

found = {"import": sorted(m for m in sys.modules if m.split(".")[0] in UNUSED)}
for name, argv in json.loads(sys.argv[1]):
    before = heavy()
    code = main(argv)
    found[name] = [code, sorted(heavy() - before)]
found["frozen"] = gc.get_freeze_count() > 0
print(json.dumps(found))
"""


SCIPY_BLOCKED_PROBE = """
import json, math, sys

sys.modules["scipy"] = None  # every import of scipy now raises ImportError

from iongrover.cli import main
from iongrover.dynamics import IntegratorConfig, fit_hr_phase, hr_distance, propagator
from iongrover.householder import generalized_hr
from iongrover.model import CouplingVector
from iongrover.pulses import PulseShape, build_global_pulse

out, config = sys.argv[1:]
code = main(["validate", "--suite", "fast", "--out", out])
run_code = main(["run", "--config", config, "--out", out + "-run"])
with open(out + "-run/result.json") as fh:
    p = json.load(fh)["success_probability"]
phi, chi = 0.661 * math.pi, CouplingVector([0.5, 0.5, math.sqrt(0.5)])
pulse = build_global_pulse(chi, phi, PulseShape("gaussian", 1.0),
                           integrator=IntegratorConfig(steps_per_pulse=1500))
u = propagator(pulse, IntegratorConfig(steps_per_pulse=6000))
print(json.dumps([code, run_code, 1.0 - p, hr_distance(u, generalized_hr(chi, phi)),
                  abs(fit_hr_phase(u, chi) - phi)]))
"""


def run_probe(probe, *args):
    """Run a probe script on this package in a fresh interpreter; its last
    stdout line, parsed as JSON."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import iongrover

    src = str(Path(iongrover.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportHygiene:
    def test_runs_without_scipy(self, tmp_path):
        # the fast self-checks, a deterministic Gaussian search and a Gaussian
        # calibration, as in the slow calibration test, with scipy unimportable
        gaussian = write_config(tmp_path / "gaussian.json", n_ions=15, marked_index=8,
                                mode="physical", variant="deterministic",
                                pulse={"shape": "gaussian"})
        code, run_code, infidelity, distance, phase_error = run_probe(
            SCIPY_BLOCKED_PROBE, str(tmp_path / "v"), str(gaussian))
        assert code == run_code == 0
        assert infidelity <= 1e-9
        assert distance < 1e-5
        assert phase_error < 1e-6

    def test_commands_import_no_heavy_module(self, tmp_path):
        # scipy is a test oracle only, no command starts a process pool
        # (concurrent.*, multiprocessing.*), and numpy.ma, numpy.random and
        # locale (argparse's gettext) must load with the package, not inside a
        # timed command;
        # main freezes the import's objects, so no command's collection scans them
        physical = write_config(tmp_path / "physical.json", n_ions=15, marked_index=8,
                                mode="physical", variant="deterministic")
        ideal = write_config(tmp_path / "ideal.json", n_ions=64, marked_index=8)
        commands = [
            ["run_physical", ["run", "--config", str(physical), "--out", str(tmp_path / "p")]],
            ["run_ideal", ["run", "--config", str(ideal), "--out", str(tmp_path / "i")]],
            ["fig3", ["reproduce", "--figure", "fig3", "--out", str(tmp_path / "f")]],
            ["fig4", ["reproduce", "--figure", "fig4", "--jobs", "2",
                      "--out", str(tmp_path / "g")]],
            ["validate", ["validate", "--suite", "fast", "--out", str(tmp_path / "v")]],
        ]
        found = run_probe(IMPORT_PROBE, json.dumps(commands))
        assert found.pop("import") == []
        assert found.pop("frozen") is True
        assert found == {name: [0, []] for name, _ in commands}


def reference_write_csv(path, header, rows):
    """The per-cell writer the bulk ``cli._write_csv`` replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format(float(cell), ".17g") for cell in row
        ))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_trajectory_rows(result, marked_index):
    """The trajectory rows as they were computed from the dense populations."""
    rows = []
    for t, pops in zip(result.trajectory_times, result.trajectory.slots(slice(None))):
        p_marked = pops[marked_index]
        p_slot0 = pops[0]
        rows.append([t, p_marked, p_slot0, float(pops.sum()) - p_marked - p_slot0])
    return rows


def reference_pulse_timeline_rows(cfg):
    plan = cli.build_plan(cfg)
    spacing = cfg.pulse.spacing * cfg.pulse.width
    rows = [[0, "init", 0.5 * spacing, plan.init_pulse.shape.width,
             rms_area(plan.init_pulse), plan.init_pulse.detuning]]
    for k in range(1, plan.count + 1):
        for i, kind, pulse in ((2 * k - 1, "oracle", plan.oracle),
                               (2 * k, "global", plan.reflection)):
            rows.append([i, kind, (i + 0.5) * spacing, pulse.shape.width,
                         rms_area(pulse), pulse.detuning])
    return [[str(r[0]), r[1], r[2], r[3], r[4], r[5]] for r in rows]


class TestBulkCsvWriter:
    """``cli._write_csv`` writes the same bytes as the per-cell reference."""

    def assert_same_bytes(self, tmp_path, header, rows, columns):
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        cli._write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_awkward_floats(self, tmp_path):
        values = [0.0, -0.0, 1.0, 0, 7, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
                  1e-5, 1e-4, 1e16, 1e17, 123456789012345678.0, -1.7976931348623157e308,
                  math.pi, np.float64(2.5), math.inf, -math.inf, math.nan]
        labels = [f"c{i}" for i in range(len(values))]
        self.assert_same_bytes(tmp_path, ["x", "label", "y"],
                               [[v, s, -v] for v, s in zip(values, labels)],
                               [values, labels, [-v for v in values]])

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_trajectory(self, tmp_path, mode):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode=mode, variant="deterministic")
        result = cli.run_search(cfg)
        columns = cli._trajectory_columns(result, cfg.marked_index)
        header = ["time", "p_marked", "p_slot0", "p_other_total"]
        self.assert_same_bytes(tmp_path, header, list(zip(*columns)), columns)
        # the columns agree with the rows computed from the dense populations
        ref = np.array(reference_trajectory_rows(result, cfg.marked_index))
        got = np.array(columns).T
        np.testing.assert_array_equal(got[:, 0], ref[:, 0])
        assert np.abs(got[:, 1:3] - ref[:, 1:3]).max() <= 1e-15
        assert np.abs(got[:, 3] - ref[:, 3]).max() <= 1e-13

    def test_fig3_pulses(self, fig3_dir, tmp_path):
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           variant="deterministic")
        header = ["index", "kind", "center", "width", "rms_area", "detuning"]
        reference_write_csv(tmp_path / "ref.csv", header,
                            reference_pulse_timeline_rows(cfg))
        assert (fig3_dir / "fig3_pulses.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_fig4_rows(self, tmp_path, monkeypatch):
        rows = [SweepRow(eps, ion, 1e-3 * ion + eps ** 2)
                for eps in cli.FIG4_EPSILONS for ion in cli.FIG4_IONS]
        monkeypatch.setattr(cli, "infidelity_sweep", lambda *a, **k: rows)
        assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path)]) == 0
        reference_write_csv(tmp_path / "ref.csv", ["epsilon", "ion", "infidelity"],
                            [[r.epsilon, str(r.marked_index), r.infidelity] for r in rows])
        assert (tmp_path / "fig4_infidelity.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


class TestCommandTrajectories:
    """The searches behind the commands record one row per time, and each
    row carries the register's whole norm."""

    @pytest.fixture
    def searches(self, monkeypatch):
        results = []
        real = cli.run_search
        monkeypatch.setattr(cli, "run_search",
                            lambda cfg: results.append(real(cfg)) or results[-1])
        return results

    @staticmethod
    def check_rows(results):
        for result in results:
            trajectory = result.trajectory
            assert len(trajectory) == len(result.trajectory_times)
            assert trajectory.basis.shape[0] == result.final_state.n_ions + 1
            np.testing.assert_allclose(trajectory.totals(), 1.0, atol=1e-9)

    def test_run_physical_n256(self, tmp_path, searches):
        cfg = write_config(tmp_path / "cfg.json", n_ions=256, marked_index=77,
                           mode="physical", variant="deterministic")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(searches) == 1
        self.check_rows(searches)

    def test_reproduce_fig3(self, tmp_path, searches):
        assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == 0
        assert len(searches) == 2
        self.check_rows(searches)
