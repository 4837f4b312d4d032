import dataclasses
import hashlib
import inspect
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iongrover import _csvtext, cli, grover
from iongrover.cli import main
from iongrover.dynamics import IntegrationError
from iongrover.grover import build_plan, run_search
from iongrover.imperfections import SweepRow
from iongrover.model import ImperfectionSettings, PulseSettings, SearchConfig, Trajectory
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

    @pytest.mark.parametrize("n_ions, marked", [(15, 15), (256, 180)])
    def test_marked_population_is_clipped_at_one(self, tmp_path, n_ions, marked):
        # these deterministic searches end on a marked population that rounds
        # to 1 + 4.4e-16; the CSV holds it clipped, as result.json does
        cfg = write_config(tmp_path / "cfg.json", n_ions=n_ions, marked_index=marked,
                           variant="deterministic")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        result = json.loads((out / "result.json").read_text())
        assert rows[-1, 1] == result["success_probability"] == 1.0
        assert rows[:, 1].max() <= 1.0
        # the total of the other slots is formed before the clip
        assert rows[-1, 3] == -2.220446049250313e-16

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

    def test_norm_tolerance_is_an_unknown_key(self, tmp_path, capsys):
        # the drift budget is NORM_REPAIR_TOL per pulse, not a setting
        cfg = write_config(tmp_path / "cfg.json", integrator={"norm_tolerance": 1e-9})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: config invalid: unknown key(s) "
                                           "in integrator: norm_tolerance\n")
        assert not out.exists()

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


def figure_choices():
    """The choices argparse offers for ``reproduce --figure``."""
    commands = next(a for a in cli._build_parser()._actions if a.choices)
    return next(a for a in commands.choices["reproduce"]._actions
                if a.dest == "figure").choices


@pytest.mark.parametrize("figure", list(cli._FIGURES))
def test_every_figure_of_the_table(tmp_path, figure):
    # two runs give the same bytes, and the manifest lists every file it
    # wrote with its sha256 and byte count
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["reproduce", "--figure", figure, "--out", str(out)]) == 0
    names = sorted(path.name for path in runs[0].iterdir())
    assert names == sorted(path.name for path in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    outputs = json.loads((runs[0] / "manifest.json").read_text())["outputs"]
    assert sorted(entry["path"] for entry in outputs) == [
        name for name in names if name != "manifest.json"]
    for entry in outputs:
        data = (runs[0] / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
    assert list(figure_choices()) == list(cli._FIGURES)


def test_each_figure_file_is_written_before_the_next_search(tmp_path, monkeypatch):
    written, real = [], cli.run_search

    def search(cfg):
        written.append(sorted(path.name for path in tmp_path.iterdir()))
        return real(cfg)

    monkeypatch.setattr(cli, "run_search", search)
    assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == 0
    assert written == [[], ["fig3_probabilistic.csv"]]


def test_crowding_figure(tmp_path):
    # at spacing 30 the windows touch: the closed form sin^2((2J + 1) beta);
    # every row is the run at its spacing, its peak at least its final value
    assert main(["reproduce", "--figure", "crowding", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "crowding.csv").read_text().splitlines()
    assert lines[0] == "spacing,final_probability,peak_probability"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [30, 20, 12, 10, 8, 7, 6, 5, 4]
    assert abs(rows[0][1] - math.sin(7 * math.asin(15 ** -0.5)) ** 2) <= 1e-9
    for spacing, final, peak in rows:
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           pulse=PulseSettings(spacing=spacing))
        assert final == run_search(cfg).success_probability
        assert peak >= final


def test_fig4_passes_jobs_to_the_sweep(tmp_path, monkeypatch):
    jobs, real = [], cli.infidelity_sweep
    monkeypatch.setattr(cli, "infidelity_sweep",
                        lambda *a, **k: jobs.append(k["jobs"]) or real(*a, **k))
    assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path),
                 "--jobs", "2"]) == 0
    assert jobs == [2]


class TestValidateCommand:
    def test_fast_suite_passes(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--suite", "fast", "--out", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["passed"] is True
        assert all(c["margin"] >= 0 for c in report["checks"])

    def test_full_suite_passes(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--suite", "full", "--out", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 12
        assert all(c["passed"] and c["margin"] >= 0 for c in report["checks"])


    @pytest.mark.parametrize("check", ["_deterministic_fidelity",
                                       "_probabilistic_closed_form"])
    def test_ideal_checks_run_as_one_sweep(self, monkeypatch, check):
        from iongrover import grover, validation

        calls = {"run_search": 0, "sweep": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(grover, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(grover, name, counted)
        assert getattr(validation, check)(16).passed
        assert calls == {"run_search": 0, "sweep": 1}


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
        def refuse(*args, **kwargs):
            raise AssertionError("the beam profile was built for an oversized register")

        monkeypatch.setattr(grover, "beam_factors", refuse)
        cfg = write_config(tmp_path / "cfg.json", n_ions=10**17, marked_index=1,
                           mode=mode)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: n_ions = 100000000000000000")
        assert "physical memory" in err and err.count("\n") == 1
        assert not out.exists()


class TestParser:
    def test_built_once_with_commands_looked_up_per_call(self, tmp_path, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "_cmd_reproduce", lambda args: calls.append(args) or 0)
        assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path)]) == 0
        assert [(a.figure, a.jobs) for a in calls] == [("fig4", 1)]
        assert not any(tmp_path.iterdir())


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
    @pytest.mark.parametrize("error", [RuntimeError("broken invariant"), MemoryError(),
                                       ValueError("not a config's fault")],
                             ids=lambda e: type(e).__name__)
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

    def test_detuned_gaussian_peak_coupling_refused(self, tmp_path, capsys, monkeypatch):
        # the calibration fixes the area of a detuned non-sech pulse; the
        # config is refused before a plan is built
        def refuse(cfg):
            raise AssertionError("a search started for a refused config")

        monkeypatch.setattr(cli, "run_search", refuse)
        cfg = write_config(tmp_path / "cfg.json", n_ions=5, marked_index=2,
                           mode="physical", variant="deterministic",
                           pulse={"shape": "gaussian", "peak_coupling": 3.0})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: peak_coupling")
        assert err.count("\n") == 1
        assert not out.exists()
        with pytest.raises(cli.ConfigError, match="peak_coupling"):
            cli.load_config(cfg)

    @pytest.mark.parametrize("iterations, code", [(40, 0), (41, 0), (55, 3)])
    def test_small_phase_calibration(self, tmp_path, capsys, iterations, code):
        # 40 and 41 iterations match at phi = 0.048*pi and 0.047*pi; at
        # 0.035*pi (55) the Newton solve finds no root within its 32 steps.
        # Which small phases converge moves with the chain's rounding: there
        # the leakage residual's gradient (1e-9) is at its finite-difference
        # noise
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

    def test_flat_calibration_is_a_numerical_failure(self, tmp_path, capsys):
        # a window of 0.01 T leaves the chain near the identity, so the Newton
        # Jacobian is singular; numpy's "Singular matrix" once exited 2 as a
        # config error
        cfg = write_config(tmp_path / "cfg.json", n_ions=4, marked_index=2,
                           variant="deterministic", pulse={"shape": "gaussian"},
                           integrator={"window": 0.01, "steps_per_pulse": 16})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: no (area, detuning)")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("overrides, names", [
        ({"mode": "physical", "pulse": {"spacing": 1e308}}, "spacing = 1e+308"),
        ({"mode": "physical", "pulse": {"width": 1e308}}, "width = 1e+308"),
        ({"mode": "physical", "pulse": {"width": 1e-308}}, "width = 1e-308"),
        ({"mode": "physical", "integrator": {"window": 1e308}}, "window = 1e+308"),
        # the detuning, delta*T / T at a small matched phase, overflows
        ({"n_ions": 1000, "variant": "deterministic", "iterations": 100,
          "pulse": {"width": 1e-308, "peak_coupling": 1.0}}, "width = 1e-308"),
        # a calibrated pulse's grid, 2 * window * width, overflows in either mode
        ({"variant": "deterministic", "pulse": {"shape": "gaussian"},
          "integrator": {"window": 1e308}}, "window = 1e+308"),
    ], ids=["spacing", "huge-width", "tiny-width", "window", "detuning",
            "calibration-grid"])
    def test_pulses_the_plan_refuses_exit_2_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, overrides, names):
        # refused by load_config, before a plan is built
        def refuse(cfg):
            raise AssertionError("a search started for a refused config")

        monkeypatch.setattr(cli, "run_search", refuse)
        cfg = write_config(tmp_path / "cfg.json", **{"n_ions": 15, "marked_index": 8,
                                                     **overrides})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: ") and err.count("\n") == 1
        assert names in err
        assert not out.exists()
        with pytest.raises(cli.ConfigError, match=names.replace("+", r"\+")):
            cli.load_config(cfg)

    @pytest.mark.parametrize("overrides", [
        {"pulse": {"spacing": 1e308}},  # ideal mode lays out no schedule
        {"pulse": {"width": 1e308}},
        {"integrator": {"window": 1e308}},
        {"pulse": {"shape": "gaussian", "peak_coupling": 1.0}},  # resonant: not calibrated
    ], ids=["spacing", "width", "window", "resonant-gaussian-peak"])
    def test_what_the_mode_does_not_derive_runs(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert math.isfinite(result["success_probability"])

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
        {"integrator": {"window": True}},
    ])
    def test_non_integral_or_mistyped_values_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("factors, got", [
        ("abc", "'abc'"), ({"a": 1}, "{'a': 1}"), (True, "True"), (5, "5"), ([], "[]")])
    def test_custom_factors_of_the_wrong_type_exit_2(self, tmp_path, capsys, factors,
                                                     got):
        cfg = write_config(tmp_path / "cfg.json",
                           imperfection={"custom_factors": factors})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config invalid: custom_factors must be a non-empty "
                       f"list of numbers, got {got}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("factors", [
        [0.5, 1], (0.5, 1), np.array([0.5, 1.0]), range(1, 2), iter([0.5, 1])],
        ids=["list", "tuple", "ndarray", "range", "iterator"])
    def test_custom_factors_of_any_sequence_are_kept_as_floats(self, factors):
        kept = ImperfectionSettings(custom_factors=factors).custom_factors
        assert type(kept) is tuple and all(type(f) is float for f in kept)
        assert kept == ((1.0,) if isinstance(factors, range) else (0.5, 1.0))

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

    def test_integer_beyond_int64_is_a_number(self, tmp_path, capsys):
        # 10^30 converts to a finite float and runs as 1e30 does; 10^400 does
        # not and is refused in one line
        results = []
        for spacing in (10**30, 1e30):
            cfg = write_config(tmp_path / "cfg.json", pulse={"spacing": spacing})
            out = tmp_path / f"out-{spacing!r}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            results.append(json.loads((out / "result.json").read_text()))
        assert results[0]["success_probability"] == results[1]["success_probability"]
        capsys.readouterr()
        cfg = write_config(tmp_path / "cfg.json", pulse={"spacing": 10**400})
        out = tmp_path / "out-huge"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: spacing must be a finite number")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"mode": "physical", "variant": "deterministic"},
        {"mode": "ideal", "pulse": {"shape": "gaussian"}},  # calibrates on the grid
    ], ids=["physical", "ideal-gaussian"])
    def test_integration_work_beyond_budget_exits_2(self, tmp_path, capsys,
                                                    monkeypatch, overrides):
        # 2^40 steps a pulse, one recorded row each: within memory, but days of RK4
        def refuse(cfg):
            raise AssertionError("a search started beyond the step budget")

        monkeypatch.setattr(cli, "run_search", refuse)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8,
                           integrator={"steps_per_pulse": 2**40,
                                       "trajectory_stride": 2**40}, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid: steps_per_pulse = 1099511627776 "
                              "is above the budget") and err.count("\n") == 1
        assert not out.exists()

    def test_step_budget_is_inclusive(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mode="physical",
                           integrator={"steps_per_pulse": cli.MAX_STEPS_PER_PULSE,
                                       "trajectory_stride": cli.MAX_STEPS_PER_PULSE})
        assert cli.load_config(cfg).integrator.steps_per_pulse == cli.MAX_STEPS_PER_PULSE

    @pytest.mark.parametrize("section, key, value", [
        (None, "n_ions", 6.0), (None, "marked_index", 2.0), (None, "iterations", 3.0),
        (None, "shots", 10.0), ("integrator", "steps_per_pulse", 4000.0),
        ("integrator", "trajectory_stride", 8.0),
    ])
    def test_integral_float_for_each_int_field(self, tmp_path, section, key, value):
        overrides = {key: value} if section is None else {section: {key: value}}
        cfg = cli.load_config(write_config(tmp_path / "cfg.json", **overrides))
        got = getattr(cfg if section is None else getattr(cfg, section), key)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("section, key, value", [
        ("pulse", "width", 2), ("pulse", "spacing", 40), ("pulse", "peak_coupling", 3),
        ("imperfection", "epsilon", 0), ("integrator", "window", 12),
    ])
    def test_integer_for_a_float_field(self, tmp_path, section, key, value):
        cfgs = [cli.load_config(write_config(tmp_path / "cfg.json", **{section: {key: v}}))
                for v in (value, float(value))]
        assert getattr(getattr(cfgs[0], section), key) == value
        assert cfgs[0] == cfgs[1]

    @pytest.mark.parametrize("section", [None, "pulse", "imperfection", "integrator"])
    def test_unknown_keys_are_named_per_section(self, tmp_path, section):
        keys = {"zeta": 1, "alpha": 2}
        cfg = write_config(tmp_path / "cfg.json",
                           **(keys if section is None else {section: keys}))
        with pytest.raises(cli.ConfigError,
                           match=rf"^unknown key\(s\) in {section or 'config'}: alpha, zeta$"):
            cli.load_config(cfg)

    def test_each_class_hints_are_evaluated_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.typing.get_type_hints
        monkeypatch.setattr(cli.typing, "get_type_hints",
                            lambda cls: calls.append(cls) or real(cls))
        cli._hints.cache_clear()
        sections = {"pulse": {"width": 1.0}, "imperfection": {"epsilon": 0.1},
                    "integrator": {"window": 15.0}}
        cfgs = [cli.load_config(write_config(tmp_path / f"cfg{k}.json", **sections))
                for k in range(2)]
        assert cfgs[0] == cfgs[1]
        assert sorted(c.__name__ for c in calls) == [
            "ImperfectionSettings", "IntegratorConfig", "PulseSettings", "SearchConfig"]

    @pytest.mark.parametrize("cold", [True, False])
    def test_key_errors_with_cached_hints(self, tmp_path, cold):
        if cold:
            cli._hints.cache_clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ions": 6, "pulse": {"zeta": 1, "alpha": 2}}))
        with pytest.raises(cli.ConfigError, match=r"^config is missing required key "
                                                  r"'marked_index'$"):
            cli.load_config(cfg)
        cfg.write_text(json.dumps({"n_ions": 6, "marked_index": 2,
                                   "pulse": {"zeta": 1, "alpha": 2}}))
        with pytest.raises(cli.ConfigError,
                           match=r"^unknown key\(s\) in pulse: alpha, zeta$"):
            cli.load_config(cfg)

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_ions=6.0, iterations=2.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["parameters_used"]["n_ions"] == 6
        assert result["iterations_executed"] == 2

    @pytest.mark.parametrize("stride", [2**57, 2**63 - 1])
    @pytest.mark.parametrize("spacing, rows", [(None, 8), (10, 2)],
                             ids=["lone", "overlapping"])
    def test_huge_trajectory_stride_records_each_window_end(self, tmp_path, stride,
                                                            spacing, rows):
        # lone pulses: the start and one row a pulse; overlapping: one window.
        # Any stride past the grid's step count records the same rows.
        texts = []
        for k, s in enumerate((stride, 10**6)):
            cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3,
                               mode="physical", integrator={"trajectory_stride": s},
                               pulse={} if spacing is None else {"spacing": spacing})
            out = tmp_path / f"out{k}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append((out / "trajectory.csv").read_text())
        assert texts[0] == texts[1]
        assert texts[0].count("\n") == 1 + rows

    def test_tiny_custom_factors_run(self, tmp_path):
        # a profile is normalized, so its scale is free: 1e-300 everywhere is
        # the flat beam, though the factors' squares underflow
        files = []
        for k, factor in enumerate((1e-300, 1.0)):
            cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3,
                               mode="physical",
                               imperfection={"custom_factors": [factor] * 15})
            out = tmp_path / f"out{k}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            files.append([(out / n).read_bytes() for n in ("result.json",
                                                           "trajectory.csv")])
        assert files[0] == files[1]
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3,
                           imperfection={"custom_factors": [1e-300] * 15,
                                         "calibration": "uncalibrated"})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_beam_on_the_marked_ion_runs_in_both_modes(self, tmp_path):
        # the beam chi is the marked ion's local chi within 1e-10, so the
        # search's span holds one ion direction only
        p = {}
        for mode in ("ideal", "physical"):
            cfg = write_config(tmp_path / "cfg.json", n_ions=5, marked_index=2,
                               mode=mode, imperfection={
                                   "custom_factors": [1e-12, 1, 1e-12, 1e-12, 1e-12]})
            out = tmp_path / mode
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            p[mode] = json.loads((out / "result.json").read_text())["success_probability"]
        assert abs(p["ideal"] - p["physical"]) <= 1e-9

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


class TestPopulationPass:
    """A run forms its trajectory populations once, in the CSV writer, which
    refuses a non-finite one before any file is written."""

    @staticmethod
    def spy_columns(monkeypatch, poison=None):
        real, calls = Trajectory.columns, []

        def columns(self, marked_index, *chunk):
            calls.append(marked_index)
            out = real(self, marked_index, *chunk)
            if poison is not None:
                out[-1, 1] = poison
            return out

        monkeypatch.setattr(Trajectory, "columns", columns)
        return calls

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_one_pass_per_run(self, tmp_path, monkeypatch, mode):
        calls = self.spy_columns(monkeypatch)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3, mode=mode)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == [3]
        assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path / "f")]) == 0
        assert calls == [3, 8, 8]  # one pass for each of fig3's two runs

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_population_exits_3(self, tmp_path, capsys, monkeypatch, mode,
                                           value):
        self.spy_columns(monkeypatch, poison=value)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3, mode=mode)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: numerical failure: non-finite trajectory population"]
        assert not out.exists()

    def test_a_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        self.spy_columns(monkeypatch, poison=np.nan)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3)
        out = tmp_path / "made" / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("out", ["new/..", "made/new/../out"])
    def test_a_failed_run_keeps_the_files_above_a_dotdot_out(self, tmp_path, monkeypatch,
                                                              out):
        # "new/.." is tmp_path itself, which was there: its files stay
        self.spy_columns(monkeypatch, poison=np.nan)
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=3)
        (tmp_path / "keep.txt").write_text("kept\n")
        (tmp_path / "sub").mkdir()
        assert main(["run", "--config", str(cfg), "--out", f"{tmp_path}/{out}"]) == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "keep.txt",
                                                                    "sub"]
        assert (tmp_path / "keep.txt").read_text() == "kept\n"


class TestPulseGrid:
    """Touching windows (the default spacing is twice the window) are lone
    pulses at any width; a genuinely overlapping schedule whose global grid
    leaves the float range is a numerical failure."""

    @staticmethod
    def run(tmp_path, name, **overrides):
        cfg = write_config(tmp_path / f"{name}.json", **{"mode": "physical", **overrides})
        out = tmp_path / name
        return main(["run", "--config", str(cfg), "--out", str(out)]), out

    def test_touching_windows_at_an_unround_width(self, tmp_path):
        # at width 8.168 the rounded centers push some touching windows a few
        # ulps into each other; they stay lone pulses, recorded as at width 8
        rows, p = [], []
        for width in (8.168, 8.0):
            code, out = self.run(tmp_path, f"w{width}", n_ions=256, marked_index=77,
                                 variant="deterministic", pulse={"width": width})
            assert code == 0
            rows.append((out / "trajectory.csv").read_text().count("\n") - 1)
            p.append(json.loads((out / "result.json").read_text())["success_probability"])
        assert rows == [13501, 13501]
        assert abs(p[0] - p[1]) <= 1e-12

    def test_huge_width_runs_as_width_one(self, tmp_path):
        p = []
        for width in (1e305, 1.0):
            code, out = self.run(tmp_path, f"w{width}", n_ions=15, marked_index=8,
                                 pulse={"width": width})
            assert code == 0
            p.append(json.loads((out / "result.json").read_text())["success_probability"])
        assert p[0] == p[1]

    @pytest.mark.parametrize("overrides, message", [
        # overlapping windows whose step count, 4000 * 2e307 / 2e307, overflows
        ({}, "global grid"),
        # a finite calibration grid too coarse for the pulse
        ({"mode": "ideal", "variant": "deterministic", "pulse": {"shape": "gaussian"}},
         "no (area, detuning) found"),
    ], ids=["physical-overlap", "ideal-calibration"])
    def test_window_1e307_is_a_numerical_failure(self, tmp_path, capsys, overrides,
                                                 message):
        code, out = self.run(tmp_path, "out", n_ions=15, marked_index=8,
                             integrator={"window": 1e307}, **overrides)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


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

found = {"import": sorted(m for m in sys.modules if m.split(".")[0] in UNUSED
                          or m.split(".")[:2] == ["numpy", "random"])}
for name, argv in json.loads(sys.argv[1]):
    before = heavy()
    code = main(argv)
    found[name] = [code, sorted(heavy() - before)]
found["frozen"] = gc.get_freeze_count() > 0
print(json.dumps(found))
"""


MODULES_PROBE = """
import importlib, json, sys

from iongrover.cli import main

found = {}
for name, argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    if argv is None:  # the module ``name`` imported alone, as a reference
        importlib.import_module(name)
        code = 0
    else:
        code = main(argv)
    found[name] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(found))
"""


SCIPY_BLOCKED_PROBE = """
import json, math, sys

sys.modules["scipy"] = None  # every import of scipy now raises ImportError

from iongrover.cli import main
from iongrover.dynamics import IntegratorConfig, fit_hr_phase, hr_distance, propagator
from iongrover.householder import generalized_hr
from iongrover.model import CouplingVector, PulseShape
from iongrover.pulses import build_global_pulse

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


STDERR_PROBE = """
import contextlib, io, json, sys

from iongrover.cli import main

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, err.getvalue()]))
"""


class TestNumpyWarnings:
    def test_overflow_leaves_one_error_line(self, tmp_path):
        # overlapping windows on a coarse grid drift past their budget; each
        # sech is sampled only on the chunks its window meets, clipped to it,
        # but no numpy warning on the way may reach stderr beside the error
        # line.  A fresh interpreter prints warnings as a user sees them
        # (pytest would record them)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ions": 16, "marked_index": 3, "mode": "physical",
                                   "pulse": {"spacing": 150},
                                   "integrator": {"window": 100, "steps_per_pulse": 200}}))
        code, err = run_probe(STDERR_PROBE, "run", "--config", str(cfg),
                              "--out", str(tmp_path / "out"))
        assert code == 3
        assert err.startswith("error: numerical failure: norm drift ")
        assert err.count("\n") == 1


class TestLongHorizon:
    """10^5 ideal iterations at N = 15: the rows of one r x r step stay on the
    closed form, renormalized once."""

    def run(self, tmp_path, variant):
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8,
                           variant=variant, iterations=100000)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_probabilistic_rows_follow_the_closed_form(self, tmp_path):
        out = self.run(tmp_path, "probabilistic")
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert len(rows) == 100001
        expected = np.sin((2 * rows[:, 0] + 1) * math.asin(1 / math.sqrt(15))) ** 2
        assert np.abs(rows[:, 1] - expected).max() <= 1e-10

    def test_deterministic_ends_on_the_mark(self, tmp_path):
        out = self.run(tmp_path, "deterministic")
        result = json.loads((out / "result.json").read_text())
        assert 1.0 - result["success_probability"] <= 1e-9


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
        # (concurrent.*, multiprocessing.*), numpy.random loads only for shot
        # sampling, and numpy.ma and locale (argparse's gettext) must load with
        # the package, not inside a timed command;
        # main freezes the import's objects, so no command's collection scans them
        physical = write_config(tmp_path / "physical.json", n_ions=15, marked_index=8,
                                mode="physical", variant="deterministic")
        ideal = write_config(tmp_path / "ideal.json", n_ions=64, marked_index=8)
        shots = write_config(tmp_path / "shots.json", n_ions=15, marked_index=3,
                             shots=1000)
        commands = [
            ["run_physical", ["run", "--config", str(physical), "--out", str(tmp_path / "p")]],
            ["run_ideal", ["run", "--config", str(ideal), "--out", str(tmp_path / "i")]],
            ["fig3", ["reproduce", "--figure", "fig3", "--out", str(tmp_path / "f")]],
            ["fig4", ["reproduce", "--figure", "fig4", "--jobs", "2",
                      "--out", str(tmp_path / "g")]],
            ["validate", ["validate", "--suite", "fast", "--out", str(tmp_path / "v")]],
            # last: a module loads once a process
            ["shots", ["run", "--config", str(shots), "--out", str(tmp_path / "s"),
                       "--seed", "7"]],
        ]
        found = run_probe(IMPORT_PROBE, json.dumps(commands))
        assert found.pop("import") == []
        assert found.pop("frozen") is True
        code, loaded = found.pop("shots")
        assert code == 0 and "numpy.random" in loaded
        assert all(m.split(".")[:2] == ["numpy", "random"] for m in loaded)
        assert found == {name: [0, []] for name, _ in commands[:-1]}
        # the counts written when grover loaded numpy.random with the package
        assert json.loads((tmp_path / "s" / "result.json").read_text())["shots"] == {
            "count": 1000, "seed": 7, "no_click": 0,
            "ion_counts": [5, 7, 926, 4, 8, 1, 7, 7, 5, 4, 4, 4, 6, 6, 6]}

    def test_commands_load_only_their_own_modules(self, tmp_path):
        # after the import, a command loads no module but the validation
        # suite and, for shot sampling, numpy.random with what it imports: a
        # lazy load inside a command, such as numpy.ma behind a bare
        # np.unique (16 ms cold), would be timed as the command's own work.
        # The epsilon = 0 runs write arrays whose rows repeat, the epsilon =
        # 0.2 runs arrays whose rows mostly differ
        configs = {
            "ideal": dict(n_ions=64, marked_index=8),
            "ideal_eps": dict(n_ions=64, marked_index=8, imperfection={"epsilon": 0.2}),
            "physical": dict(n_ions=15, marked_index=8, mode="physical",
                             variant="deterministic"),
            "physical_eps": dict(n_ions=15, marked_index=8, mode="physical",
                                 imperfection={"epsilon": 0.2}),
            "shots": dict(n_ions=15, marked_index=3, shots=1000),
        }
        paths = {name: str(write_config(tmp_path / f"{name}.json", **cfg))
                 for name, cfg in configs.items()}
        commands = [
            *([f"run_{name}", ["run", "--config", paths[name], "--out",
                               str(tmp_path / name)]] for name in configs if name != "shots"),
            *([figure, ["reproduce", "--figure", figure, "--out", str(tmp_path / figure)]]
              for figure in ("fig3", "fig4", "crowding")),
            ["validate", ["validate", "--suite", "fast", "--out", str(tmp_path / "v")]],
            # last: a module loads once a process
            ["shots", ["run", "--config", paths["shots"], "--out", str(tmp_path / "s"),
                       "--seed", "7"]],
        ]
        found = run_probe(MODULES_PROBE, json.dumps(commands))
        random = run_probe(MODULES_PROBE, json.dumps([["numpy.random", None]]))
        assert "numpy.random" in random["numpy.random"][1]
        assert found.pop("shots") == random["numpy.random"]
        assert found.pop("validate") == [0, ["iongrover.validation"]]
        assert found == {name: [0, []] for name, _ in commands[:-2]}


def reference_write_csv(path, header, rows):
    """The per-cell writer the bulk ``csv_pieces`` replaced."""
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
    """``csv_pieces`` writes the same bytes as the per-cell reference."""

    def assert_same_bytes(self, tmp_path, header, rows, columns):
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        cli._write_file(tmp_path / "got.csv", _csvtext.csv_pieces(header, columns))
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
        columns = [result.trajectory_times, *result.trajectory.columns(cfg.marked_index).T]
        header = ["time", "p_marked", "p_slot0", "p_other_total"]
        reference_write_csv(tmp_path / "ref.csv", header, list(zip(*columns)))
        pieces = _csvtext.csv_pieces(*cli._trajectory_table(result, cfg.marked_index))
        cli._write_file(tmp_path / "got.csv", pieces)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
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


def adversarial_values():
    """Cells the %.17g kernel must place exactly: signed zeros, dyadic ties,
    the powers of ten and their neighbours, carries into a new exponent, the
    edges between fixed and exponent notation, and three-digit exponents."""
    values = [0.0, -0.0, 2.0**-25, 3 * 2.0**-26, 3 * 2.0**-25, -(2.0**-25), 0.5,
              2.5, 1e-5, 1e-4, 9.99999999999999e-5, 1e16, 1e17, 9.999999999999999e16,
              99999999999999999.0, 9999999999999999.0, 0.99999999999999999,
              123456789012345678.0, 5e-324, 2.2250738585072014e-308, 1e-300,
              1.7976931348623157e308, math.pi, math.inf, -math.inf, math.nan]
    for k in range(-300, 301):
        power = float(f"1e{k}")
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    return values


def adversarial_table(rows):
    """``rows`` rows of the adversarial values (negated in a second column),
    Python ints and labels."""
    values = adversarial_values()
    x = [values[i % len(values)] for i in range(rows)]
    ints = [(-7) ** (i % 23) for i in range(rows)]
    labels = [f"row{i}" for i in range(rows)]
    return [x, [-v for v in x], ints, labels]


class TestVectorCsvWriter:
    """Tables of at least ``VECTOR_CELLS`` cells go through the vectorized
    %.17g kernel and write the bytes of the per-cell reference."""

    header = ["x", "minus_x", "int", "label"]

    def assert_same_bytes(self, tmp_path, columns):
        reference_write_csv(tmp_path / "ref.csv", self.header, list(zip(*columns)))
        cli._write_file(tmp_path / "got.csv", _csvtext.csv_pieces(self.header, columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.fixture
    def paths(self, monkeypatch):
        """The cells each table sends to the vector path and to the scalar
        fallback, per call."""
        seen = {"vector": [], "scalar": []}
        vector, scalar = _csvtext._vector_pieces, _csvtext._scalar_cells
        monkeypatch.setattr(_csvtext, "_vector_pieces", lambda columns, rows: (
            seen["vector"].append(rows * len(columns)) or vector(columns, rows)))
        monkeypatch.setattr(_csvtext, "_scalar_cells", lambda values: (
            seen["scalar"].append(len(values)) or scalar(values)))
        return seen

    @staticmethod
    def undecided(x):
        """Whether the kernel leaves ``x`` to the scalar formatter: x is not 0
        and outside [1e-280, 1e280], or the fraction of the exact
        |x| * 10**(16 - e) lies within 1e-9 of 1/2."""
        if x == 0 or not 1e-280 <= abs(x) <= 1e280:
            return x != 0
        exact = Fraction(abs(x))
        e = math.floor(math.log10(abs(x)))
        e += (exact >= Fraction(10) ** (e + 1)) - (exact < Fraction(10) ** e)
        scaled = exact * Fraction(10) ** (16 - e)
        return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-9

    def test_adversarial_table(self, tmp_path, paths):
        columns = adversarial_table(len(adversarial_values()))
        self.assert_same_bytes(tmp_path, columns)
        assert paths["vector"] == [4 * len(columns[0])]
        # every other cell, those next to a power of ten included, is decided
        # by the kernel
        undecided = sum(self.undecided(float(v)) for col in columns[:3] for v in col)
        assert sum(paths["scalar"]) == undecided

    @pytest.mark.parametrize("side", ["below", "at"])
    def test_either_side_of_the_cut_off(self, tmp_path, paths, side):
        rows = -(-_csvtext.VECTOR_CELLS // 4) - (side == "below")
        self.assert_same_bytes(tmp_path, adversarial_table(rows))
        assert paths["vector"] == ([] if side == "below" else [4 * rows])

    def test_many_chunks(self, tmp_path, paths):
        rows = 2 * _csvtext.CHUNK_ROWS + 5
        self.assert_same_bytes(tmp_path, adversarial_table(rows))
        assert paths["vector"] == [4 * rows]

    @settings(max_examples=40, deadline=None)
    @given(floats=st.lists(st.floats(), min_size=1, max_size=60),
           bits=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=60))
    def test_random_cells(self, tmp_path_factory, floats, bits):
        cells = np.concatenate([floats, np.array(bits, dtype=np.int64).view(np.float64)])
        rows = -(-_csvtext.VECTOR_CELLS // 3)
        x, y, z = np.resize(cells, (3, rows))
        columns = [x, y.tolist(), [f"c{i}" for i in range(rows)], z]
        header = ["x", "y", "label", "z"]
        tmp_path = tmp_path_factory.mktemp("cells")
        reference_write_csv(tmp_path / "ref.csv", header, list(zip(*columns)))
        cli._write_file(tmp_path / "got.csv", _csvtext.csv_pieces(header, columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_physical_trajectory_needs_no_fallback(self, tmp_path, paths):
        cfg = write_config(tmp_path / "cfg.json", n_ions=256, marked_index=77,
                           mode="physical", variant="deterministic")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(paths["vector"]) == 1 and paths["vector"][0] > 50000
        assert paths["scalar"] == []


class TestFileWriter:
    """``cli._write_file`` encodes, hashes and writes its str pieces one at a
    time, through ``cli._write_text``; the file and its manifest entry are
    those of the whole text encoded at once."""

    PIECE = 1 << 16  # characters of a piece

    @pytest.mark.parametrize("slices, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["empty", "slice-1", "slice", "slice+1", "3slice+7"])
    def test_bytes_and_entry_are_those_of_the_whole_text(self, tmp_path, slices, extra):
        edge = self.PIECE
        chars = ["a"] * (slices * edge + extra)
        # a 2-byte and a 4-byte UTF-8 character on either side of every piece
        # edge and at the end, as a non-ASCII config path in a manifest
        for at in [*range(edge, len(chars), edge), len(chars) - 1] if chars else []:
            chars[at - 1:at + 1] = "é", "\U0001d11e"
        text = "".join(chars)
        pieces = [text[i:i + edge] for i in range(0, len(text), edge)]
        entry = cli._write_file(tmp_path / "out.txt", iter(pieces))
        data = (tmp_path / "out.txt").read_bytes()
        assert data == text.encode()
        assert entry == {"path": "out.txt", "sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
        assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]

    def test_a_failed_stream_leaves_the_old_file_and_no_part(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("complete")

        def pieces():
            yield "partial"
            raise IntegrationError("late failure")

        with pytest.raises(IntegrationError, match="late failure"):
            cli._write_file(path, pieces())
        assert path.read_text() == "complete"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        cli._write_file(path, iter(["new ", "text"]))
        assert path.read_text() == "new text"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestOutputCopies:
    """An output file's text is never held whole: ``csv_pieces`` yields it a
    slice of rows at a time, and ``_write_file`` holds one piece's bytes."""

    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(30)
        return [rng.standard_normal(100_000) * 10.0 ** rng.integers(-6, 6, 100_000)
                for _ in range(4)]

    @staticmethod
    def peak(call):
        """The most memory ``call`` held at once above what was held before
        it, as tracemalloc counts it, and its result."""
        call()  # warm-up: caches and lazy imports are not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            tracemalloc.stop()

    def test_csv_pieces_hold_a_slice_of_the_text(self, columns):
        peak, size = self.peak(
            lambda: sum(map(len, _csvtext.csv_pieces(["a", "b", "c", "d"], columns))))
        assert size > 100_000 * 4 * 17
        assert peak < 0.2 * size

    def test_a_column_chunk_holds_little_scratch(self, columns):
        # the kernel drops each temporary once spent: 407 KiB for 4,096 rows
        # (864 KiB when every temporary lived to the end of the call)
        x = columns[0][:_csvtext.CHUNK_ROWS]
        out = np.zeros((_csvtext.SLOTS, len(x)), np.uint8)
        peak, _ = self.peak(lambda: _csvtext._number_planes(x, out))
        assert peak < 500 * 1024

    def test_write_file_holds_no_whole_copy(self, tmp_path, columns):
        pieces = list(_csvtext.csv_pieces(["a", "b", "c", "d"], columns))
        size = sum(map(len, pieces))
        peak, entry = self.peak(lambda: cli._write_file(tmp_path / "out.csv",
                                                        iter(pieces)))
        assert entry["bytes"] == size
        assert peak < 0.1 * size


CSV_HEADER = ["time", "p_marked", "p_slot0", "p_other_total"]


class TestChunkedTrajectoryCsv:
    """``_trajectory_table`` forms the populations a chunk of rows at a time and
    writes the bytes of the whole table formed at once."""

    ROWS = [1, 1023, 1024, 1025, 4095, 4096, 4097, 3 * 4096 + 5]

    @pytest.fixture(scope="class")
    def results(self):
        """A run of each mode with more rows than the largest record here."""
        ideal = run_search(SearchConfig(n_ions=15, marked_index=8, mode="ideal",
                                        iterations=max(self.ROWS)))
        physical = run_search(SearchConfig(n_ions=256, marked_index=77,
                                           mode="physical", variant="deterministic"))
        assert min(len(ideal.trajectory), len(physical.trajectory)) >= max(self.ROWS)
        return {"ideal": (ideal, 8), "physical": (physical, 77)}

    @staticmethod
    def first_rows(result, rows, coords=None):
        trajectory = result.trajectory
        return dataclasses.replace(
            result, trajectory_times=result.trajectory_times[:rows],
            trajectory=Trajectory(trajectory.basis,
                                  trajectory.coords[:rows] if coords is None else coords))

    @staticmethod
    def spy_rows(monkeypatch):
        """The row count of every population request."""
        real, counts = Trajectory.columns, []

        def columns(self, marked_index, rows=slice(None), out=None):
            counts.append(len(range(*rows.indices(len(self)))))
            return real(self, marked_index, rows, out)

        monkeypatch.setattr(Trajectory, "columns", columns)
        return counts

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_chunks_write_the_whole_table(self, results, monkeypatch, mode, rows):
        result, marked = results[mode]
        result = self.first_rows(result, rows)
        whole = "".join(_csvtext.csv_pieces(CSV_HEADER, [
            result.trajectory_times, *result.trajectory.columns(marked).T]))
        counts = self.spy_rows(monkeypatch)
        assert "".join(_csvtext.csv_pieces(*cli._trajectory_table(result, marked))) == whole
        assert whole.count("\n") == rows + 1
        # each chunk's populations are formed once, never more than a chunk
        assert max(counts) <= _csvtext.CHUNK_ROWS and sum(counts) == rows

    @pytest.mark.parametrize("rows", [1, 1025, 3 * 4096 + 5])
    def test_chunk_rows_are_those_of_the_whole_table(self, results, rows):
        # matmul forms a lone row otherwise than several; every slice keeps
        # the whole table's bits, a lone last row included
        result, marked = results["physical"]
        trajectory = self.first_rows(result, rows).trajectory
        whole = trajectory.columns(marked)
        for start in range(rows):
            for stop in {start + 1, start + 2, min(rows, start + 1024)}:
                out = np.empty((max(0, min(stop, rows) - start), 3))
                got = trajectory.columns(marked, slice(start, stop), out)
                assert got is out
                np.testing.assert_array_equal(got, whole[start:stop])
            if start > 8:
                break
        for start in range(max(0, rows - 3), rows):
            np.testing.assert_array_equal(trajectory.columns(marked, slice(start, rows)),
                                          whole[start:])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_last_chunk_exits_3(self, tmp_path, capsys, monkeypatch,
                                           results, value):
        result, marked = results["physical"]
        rows = 3 * 4096 + 5
        coords = result.trajectory.coords[:rows].copy()
        coords[-1, 1] = value
        poisoned = self.first_rows(result, rows, coords)
        monkeypatch.setattr(cli, "run_search", lambda cfg: poisoned)
        counts = self.spy_rows(monkeypatch)
        cfg = write_config(tmp_path / "cfg.json", n_ions=256, marked_index=marked,
                           mode="physical", variant="deterministic")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: numerical failure: non-finite trajectory population"]
        assert not out.exists()
        assert counts == [4096, 4096, 4096, 5]  # found in the last chunk

    def test_a_failed_run_leaves_an_earlier_run_whole(self, tmp_path, capsys,
                                                      monkeypatch, results):
        # each file is streamed into a temporary name that replaces it only
        # when complete, and a directory that was there stays
        result, marked = results["physical"]
        rows = 3 * 4096 + 5
        whole = self.first_rows(result, rows)
        coords = whole.trajectory.coords.copy()
        coords[-1, 1] = np.nan
        poisoned = self.first_rows(result, rows, coords)
        cfg = write_config(tmp_path / "cfg.json", n_ions=256, marked_index=marked,
                           mode="physical", variant="deterministic")
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        monkeypatch.setattr(cli, "run_search", lambda cfg: whole)
        assert main(argv) == 0
        before = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert sorted(before) == ["manifest.json", "result.json", "trajectory.csv"]
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_search", lambda cfg: poisoned)
        counts = self.spy_rows(monkeypatch)
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: numerical failure: non-finite trajectory population"]
        assert counts == [4096, 4096, 4096, 5]
        after = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert after == before


class TestStreamedPeak:
    """The writers' memory is bounded by a chunk of rows, not by the file:
    four times the rows raise the tracemalloc peak by less than one chunk's
    text."""

    R = 3 * 4096 + 5

    @pytest.fixture(scope="class")
    def long_result(self):
        return run_search(SearchConfig(n_ions=15, marked_index=8, mode="ideal",
                                       iterations=4 * self.R))

    def test_trajectory_csv(self, tmp_path, monkeypatch, long_result):
        cfg = write_config(tmp_path / "cfg.json", n_ions=15, marked_index=8)
        peaks, sizes = [], []
        for rows in (self.R, 4 * self.R):
            result = TestChunkedTrajectoryCsv.first_rows(long_result, rows)
            monkeypatch.setattr(cli, "run_search", lambda cfg, result=result: result)
            out = tmp_path / f"out{rows}"
            peak, code = TestOutputCopies.peak(
                lambda: main(["run", "--config", str(cfg), "--out", str(out)]))
            assert code == 0
            peaks.append(peak)
            sizes.append((out / "trajectory.csv").stat().st_size)
        assert sizes[1] > 3.9 * sizes[0]
        chunk = sizes[1] / (4 * self.R + 1) * _csvtext.CHUNK_ROWS
        assert peaks[1] - peaks[0] < chunk

    def test_result_json(self, tmp_path):
        rng = np.random.default_rng(36)
        peaks, sizes = [], []
        for rows in (4096 + 1, 4 * 4096 + 1):
            # distinct values: every cell's text is formed
            payload = {"final_state": rng.standard_normal((rows, 2)), "schema_version": 1}
            path = tmp_path / f"result{rows}.json"
            peak, entry = TestOutputCopies.peak(lambda: cli._write_json(path, payload))
            peaks.append(peak)
            sizes.append(entry["bytes"])
        assert sizes[1] > 3.9 * sizes[0]
        chunk = sizes[1] / (4 * 4096 + 1) * _csvtext.CHUNK_ROWS
        assert peaks[1] - peaks[0] < chunk


class TestTracedOutputBytes:
    """A tracer that wraps ``cli._write_text`` at its module name, as
    perfbench/spans.py does, and sums len(text.encode()) over the calls counts
    every byte of every file a command writes, manifests included."""

    @pytest.fixture
    def traced(self, monkeypatch):
        original, total = cli._write_text, [0]
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            total[0] += len(signature.bind(*args, **kwargs).arguments["text"].encode())
            return result

        monkeypatch.setattr(cli, "_write_text", wrapper)
        return total

    @pytest.mark.parametrize("argv, files", [
        (["run", "--config", "{cfg}"], ["manifest.json", "result.json", "trajectory.csv"]),
        (["reproduce", "--figure", "fig3"],
         ["fig3_deterministic.csv", "fig3_probabilistic.csv", "fig3_pulses.csv",
          "manifest.json"]),
        (["validate", "--suite", "fast"], ["validation_report.json"]),
    ], ids=["run", "reproduce", "validate"])
    def test_the_count_is_the_bytes_written(self, tmp_path, traced, argv, files):
        cfg = write_config(tmp_path / "cfg.json", n_ions=256, marked_index=77,
                           mode="physical", variant="deterministic")
        out = tmp_path / "out"
        assert main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == files
        assert traced[0] == sum(path.stat().st_size for path in out.iterdir())


RUN_PEAK_PROBE = """
import json, sys
import iongrover.cli as cli

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

config, out = sys.argv[1:]
before = peak_kib()
code = cli.main(["run", "--config", config, "--out", out])
print(json.dumps([code, peak_kib() - before]))
"""


class TestRunPeak:
    """A large physical run holds its record once and its CSV scratch a chunk
    at a time."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak from /proc/self/status")
    def test_peak_memory_of_a_large_physical_run(self, tmp_path):
        # physical N = 16,384: a record of 101,501 rows, a CSV of 8.1 MB and a
        # result.json of 1.7 MB; the growth past the import's peak read 18 MiB,
        # and 24-30 MiB with the record joined from per-window pieces and the
        # populations formed for the whole table at once
        cfg = write_config(tmp_path / "cfg.json", n_ions=16384, marked_index=7,
                           mode="physical", variant="deterministic")
        code, growth_kib = run_probe(RUN_PEAK_PROBE, str(cfg), str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 8_000_000
        assert growth_kib < 15 * 1024


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


CHUNK = _csvtext.CHUNK_ROWS


def as_lists(value):
    """``value`` with every numpy array replaced by its tolist()."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    return value


class TestJsonWriter:
    """``cli._write_json`` writes the bytes of the stdlib's
    json.dumps(payload, indent=2, sort_keys=True) and a newline, arrays as
    their tolist()."""

    @staticmethod
    def assert_stdlib_bytes(tmp_path, payload):
        cli._write_json(tmp_path / "got.json", payload)
        expected = json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "got.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("payload", [
        {"zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0])},
        {"empty": np.array([]), "one": np.array([0.25]), "int_one": np.array([7]),
         "no_rows": np.zeros((0, 2)), "empty_rows": np.zeros((3, 0))},
        {"rows": np.array([[0.5, -0.0], [1 / 3, 0.5], [0.5, -0.0]])},
        {"ints": np.array([0, -1, 2**63 - 1, -2**63, 0], dtype=np.int64),
         "int_rows": np.arange(-4, 2, dtype=np.int64).reshape(3, 2)},
        {"tiny": np.array([5e-324, -5e-324, 2.2250738585072014e-308,
                           1e-310, 1e300, -1e300, 1e16, 1e-5, 0.1])},
        {"nan": np.array([1.0, np.nan, 1.0]), "inf": np.array([[np.inf, -np.inf]])},
        {"z": {"deep": {"a": np.array([1.5, 1.5]), "b": None, "c": True},
               "list": [{"q": False, "r": [1, 2.5, None]}, {}], "empty": {}},
         "text": "line\nbreak \"quoted\" é ∑ \t", "f": 0.1, "i": -3, "none": None,
         "a": np.array([2.5])},
        {"float32": np.array([0.1, 0.5], dtype=np.float32),
         "bools": np.array([True, False]), "cube": np.zeros((2, 1, 2))},
        # arrays inside lists, as a per-pulse record holds them
        {"pulses": [{"leak": np.array([1e-6, 0.5]), "k": 0}, np.array([[1, 2]]),
                    [np.array([0.25]), "x", [np.zeros((2, 2))]], []],
         "a": np.array([-0.0, 3.0])},
        # strings that spell the placeholder json writes for an array
        {"\0": np.array([1.5]), "s": "\0", "t": '"\0', "u": ["\0", np.array([2])]},
    ], ids=["signed-zeros", "empty-and-single", "rows", "int64", "extremes",
            "non-finite", "nested", "other-arrays", "arrays-in-lists", "nul-strings"])
    def test_same_bytes_as_stdlib(self, tmp_path, payload):
        self.assert_stdlib_bytes(tmp_path, payload)

    def test_array_free_payload_is_one_stdlib_call(self, monkeypatch):
        calls = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: calls.append(obj)
                            or real(obj, **kw))
        payload = {"b": [1, {"c": 0.5}], "a": {"d": "x"}}
        assert "".join(cli._json_pieces(payload)) == real(payload, indent=2,
                                                          sort_keys=True)
        assert calls == [payload]

    @pytest.fixture
    def formatted(self, monkeypatch):
        """Each float that cli formats, in order, through a stand-in for the
        builtin inside cli."""
        formatted = []

        class Float:
            @staticmethod
            def __repr__(x):
                formatted.append(x)
                return repr(x)

        monkeypatch.setattr(cli, "float", Float, raising=False)
        return formatted

    def test_each_distinct_value_is_formatted_once(self, formatted):
        payload = {"p": np.full(4096, 1 / 3), "q": np.array([[0.5, -0.0]] * 100)}
        text = "".join(cli._json_pieces(payload))
        assert sorted(map(repr, formatted)) == ["-0.0", "0.3333333333333333", "0.5"]
        assert text == json.dumps(as_lists(payload), indent=2, sort_keys=True)

    @pytest.mark.parametrize("config", [
        {"n_ions": 2048, "marked_index": 7, "variant": "probabilistic"},
        {"n_ions": 2048, "marked_index": 7, "variant": "deterministic"},
        {"n_ions": 256, "marked_index": 77, "mode": "physical", "variant": "deterministic"},
    ], ids=["ideal-probabilistic", "ideal-deterministic", "physical"])
    def test_epsilon_zero_runs_format_only_their_runs_first_rows(self, tmp_path, formatted,
                                                                 config):
        # each block of an epsilon = 0 run's arrays holds 2-4 runs of equal
        # rows, so the writer formats exactly the cells of each run's first
        # row, where one value per cell would format every cell
        cfg = write_config(tmp_path / "cfg.json", **config)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        first_cells = 0
        for array in (result["detection"]["probabilities"], result["final_state"]):
            bits = np.array(array).view(np.int64).reshape(len(array), -1)
            for block in np.split(bits, range(CHUNK, len(bits), CHUNK)):
                runs = 1 + np.count_nonzero((block[1:] != block[:-1]).any(axis=1))
                assert 2 <= runs <= 4
                first_cells += runs * block.shape[1]
        assert len(formatted) == first_cells

    #: what repeated rows are drawn from: signed zeros, the ends of the float
    #: range, and values of 1 to 17 digits
    POOL = np.array([0.0, -0.0, 1 / 3, 0.5, -2.5, 1e-300, 5e-324, 1e16, 0.1])

    @pytest.mark.parametrize("rows, runs", [
        *((rows, None) for rows in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)),
        # runs of equal rows exactly half the rows, laid out run by run, and
        # one more than half, filled cell by cell
        (10, 5), (10, 6), (CHUNK, CHUNK // 2), (CHUNK, CHUNK // 2 + 1)])
    @pytest.mark.parametrize("tail", [(), (1,), (2,), (3,)], ids=["n", "n1", "n2", "n3"])
    def test_repeated_rows(self, tmp_path, tail, rows, runs):
        # each row one of three drawn from the pool, so most rows repeat
        rng = np.random.default_rng(rows)
        distinct = self.POOL[rng.integers(0, len(self.POOL), (3, *tail))]
        if runs is None:
            pick = rng.integers(0, 3, rows)
        else:  # ``runs`` runs of random lengths, the three rows (apart in their
            # first cells) in turn
            distinct.reshape(3, -1)[:, 0] = rng.choice(self.POOL, 3, replace=False)
            begins = np.zeros(rows, dtype=int)
            begins[rng.choice(np.arange(1, rows), runs - 1, replace=False)] = 1
            pick = np.cumsum(begins) % 3
        self.assert_stdlib_bytes(tmp_path, {"a": distinct[pick], "b": [1]})

    @pytest.mark.parametrize("column", [None, 0, 1, 2])
    def test_rows_apart_only_by_the_sign_of_a_zero(self, tmp_path, column):
        # -0.0 == 0.0, but json writes them apart: single values, or rows of
        # three that differ in one column only by the sign of its zero
        pair = np.zeros(2) if column is None else np.full((2, 3), 0.5)
        if column is None:
            pair[1] = -0.0
        else:
            pair[:, column] = [0.0, -0.0]
        rows = pair[np.random.default_rng(1).integers(0, 2, CHUNK + 7)]
        self.assert_stdlib_bytes(tmp_path, {"a": rows})

    def test_runs_of_rows_across_blocks(self, tmp_path):
        # a run of equal rows that crosses a block boundary, blocks of one
        # row throughout, and a lone row at the end
        a = np.tile([[0.25, -0.0]], (2 * CHUNK + 3, 1))
        a[CHUNK - 2:CHUNK + 2] = [1 / 3, 0.0]
        a[-1] = [0.5, 0.5]
        self.assert_stdlib_bytes(tmp_path, {"rows": a, "column": a[:, 0]})

    def test_int64_counts(self, tmp_path):
        # shot counts as the shots payload's ion_counts holds them: mostly
        # zeros, a few small counts and one large; and rows of int64 extremes
        rng = np.random.default_rng(2)
        counts = rng.poisson(0.01, 2 * CHUNK + 1).astype(np.int64)
        counts[7] = 987
        extremes = np.array([[2**63 - 1, -2**63], [0, -1], [2**63 - 1, -2**63]])
        self.assert_stdlib_bytes(tmp_path, {
            "ion_counts": counts, "pairs": np.stack([counts, counts[::-1]], axis=1),
            "extremes": extremes[rng.integers(0, 3, CHUNK + 1)]})

    @pytest.mark.parametrize("distinct", [1000, 3000])
    @pytest.mark.parametrize("width", [1, 2, 6])
    def test_many_distinct_values(self, tmp_path, width, distinct):
        # rows of many distinct values, most of them repeated (1,000 of 4,096
        # rows distinct) or few (3,000), in random order: few runs of equal
        # rows, so every cell is filled
        rng = np.random.default_rng(3)
        rows = rng.random((distinct, width))[rng.integers(0, distinct, CHUNK)]
        self.assert_stdlib_bytes(tmp_path, {"a": rows if width > 1 else rows[:, 0]})

    @settings(max_examples=200, deadline=None)
    @given(payload=st.recursive(
        st.dictionaries(st.text(max_size=4), st.one_of(
            st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
            st.text(max_size=6),
            hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, min_side=0,
                                                    max_side=4),
                       elements=st.floats(allow_subnormal=True)),
            hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, min_side=0,
                                                  max_side=4)),
            # rows drawn from a few values, so that many repeat
            hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, min_side=0,
                                                    max_side=12),
                       elements=st.sampled_from([0.0, -0.0, 0.1, 1e300, 5e-324])),
        ), max_size=4),
        lambda children: st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=12))
    def test_nested_payloads_match_stdlib(self, payload):
        expected = json.dumps(as_lists(payload), indent=2, sort_keys=True)
        assert "".join(cli._json_pieces(payload)) == expected


class TestRunJsonContract:
    def test_ideal_n2048_run_with_shots(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path / "cfg.json", n_ions=2048, marked_index=1234,
                           variant="deterministic", shots=1000)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        for name in ("result.json", "manifest.json"):
            text = (out / name).read_bytes().decode("ascii")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        result = json.loads((out / "result.json").read_text())
        assert len(result["final_state"]) == 2049
        assert len(result["detection"]["probabilities"]) == 2048
        shots = result["shots"]
        assert len(shots["ion_counts"]) == 2048
        assert shots["no_click"] + sum(shots["ion_counts"]) == 1000
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["bytes"] == len(data)


def optional_keys(**entries):
    return st.fixed_dictionaries({}, optional=entries)


@st.composite
def run_configs(draw):
    """JSON run configs, mostly valid, small enough for a quick physical run."""
    n = draw(st.integers(1, 32))
    return draw(st.fixed_dictionaries(
        {"n_ions": st.just(n), "marked_index": st.integers(-1, n)},
        optional={
            "mode": st.sampled_from(["ideal", "physical"]),
            "variant": st.sampled_from(["probabilistic", "deterministic"]),
            "iterations": st.none() | st.integers(0, 6),
            "shots": st.none() | st.integers(0, 100),
            "pulse": optional_keys(
                shape=st.sampled_from(["sech", "gaussian"]),
                width=st.floats(0.01, 4.0),
                spacing=st.floats(1.0, 60.0),
                peak_coupling=st.none() | st.floats(0.5, 8.0)),
            "imperfection": optional_keys(
                epsilon=st.floats(0.0, 0.6),
                scaling=st.sampled_from(["field", "intensity"]),
                calibration=st.sampled_from(["calibrated", "uncalibrated"]),
                reflection=st.sampled_from(["adapted", "uniform"])),
            "integrator": optional_keys(
                steps_per_pulse=st.integers(16, 2000),
                window=st.floats(0.01, 20.0),
                trajectory_stride=st.integers(1, 3000)),
        }))


class TestRunConfigFuzz:
    @settings(max_examples=30, deadline=None)
    @given(config=run_configs(), seed=st.none() | st.integers(0, 9))
    def test_exit_code_and_outputs(self, config, seed):
        import contextlib
        import hashlib
        import io
        import tempfile
        import warnings
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "cfg.json"), Path(tmp, "out")
            path.write_text(json.dumps(config))
            argv = ["run", "--config", str(path), "--out", str(out)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv + ([] if seed is None else ["--seed", str(seed)]))
            assert code in (0, 2, 3)
            # outside pytest a warning would print beside the error line
            assert not caught, [str(w.message) for w in caught]
            lines = stderr.getvalue().splitlines()
            if code:
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
                return
            assert lines == []
            result = json.loads((out / "result.json").read_text())

            def numbers(value):
                if isinstance(value, dict):
                    value = list(value.values())
                if isinstance(value, list):
                    return [x for v in value for x in numbers(v)]
                return [value] if isinstance(value, (int, float)) else []

            assert all(math.isfinite(x) for x in numbers(result))
            trajectory = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1,
                                    ndmin=2)
            assert trajectory.size and np.isfinite(trajectory).all()
            manifest = json.loads((out / "manifest.json").read_text())
            for entry in manifest["outputs"]:
                data = (out / entry["path"]).read_bytes()
                assert entry["sha256"] == hashlib.sha256(data).hexdigest()
                assert entry["bytes"] == len(data)
