"""Command-line surface: happy paths and exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulsecancel.ahet as ahet_mod
import pulsecancel.cli as cli_mod
from pulsecancel.ahet import (AhetConfig, conventional_trace,
                              eca_conventional_trace)
from pulsecancel.anls import (BREATHING_GRID_HZ, BreathingTrack,
                             breathing_track)
from pulsecancel.bench import rmse
from pulsecancel.cli import main
from pulsecancel.ingest import (read_raw_cube, read_reference_trace,
                                write_trace)
from pulsecancel.preprocess import cube_phase
from pulsecancel.scenario import window_starts
from pulsecancel.spectral import power_spectrum
from pulsecancel.types import PhaseSignal


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse-level usage failures
        return int(exc.code)


def fresh_python(*args):
    """A new interpreter, run with args, that imports this pulsecancel."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


FIRST_OPERATIONS = """
import json, sys
import pulsecancel as pc
from pulsecancel.scenario import FAMILIES, Scenario, scenario_slow_time

scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
path = sys.argv[1]
pc.write_raw_cube(pc.synthesize_radar_cube(Scenario(duration_s=3.0)), path)
loaded = set(sys.modules)
pc.cube_phase(pc.read_raw_cube(path))
pc.monte_carlo("masking-b", [0], cpis=(20.0,),
               methods=("conventional", "eca", "ahet"), duration_s=30.0)
sc = FAMILIES["masking-c"](1, duration_s=20.0)
window = pc.slow_time_phase(scenario_slow_time(sc), sc.radar.frame_rate_hz)
fit = pc.reconstruct_reference(window)
cancelled = pc.eca_cancel(window.samples, fit.s_ref).cancelled
pc.ahet_step(pc.power_spectrum(cancelled, window.sample_rate),
             pc.TrackerState())
print(json.dumps([scipy, sorted(set(sys.modules) - loaded)]))
"""


def test_runtime_loads_no_scipy_and_no_module_after_import(tmp_path):
    # scipy took two thirds of import pulsecancel, and numpy loads
    # numpy.fft, numpy.random and numpy.ma on first use; a module loaded
    # inside a first operation is timed and traced with it
    done = fresh_python("-c", FIRST_OPERATIONS, str(tmp_path / "cube.bin"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]


SCENARIO = {
    "duration_s": 40.0,
    "breathing_bpm": 15.6,
    "heartbeat_bpm": 76.6,
    "breathing_harmonics": [[1.8e-3, 0.0], [7e-4, 0.3], [2e-4, 0.9],
                            [5.5e-4, 0.0]],
    "heartbeat_harmonics": [[3.2e-4, 0.0], [1.6e-4, 0.5]],
    "intermod_tones": [["HR-RR", 2.2e-4, 0.0], ["HR+RR", 1.2e-4, 0.7],
                       ["HR+2RR", 1.2e-4, 1.1]],
    "complex_noise_std": 0.05,
    "seed": 11,
}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


@pytest.fixture(scope="module")
def synth_outputs(scenario_file, tmp_path_factory):
    """One cube + truth rendered once for the read-only CLI tests."""
    outdir = tmp_path_factory.mktemp("cube")
    cube = outdir / "cube.bin"
    truth = outdir / "truth.csv"
    code = run_cli("synth", "--scenario", scenario_file, "--out", str(cube),
                   "--truth", str(truth))
    assert code == 0
    return cube, truth


class TestSynth:
    def test_writes_cube_sidecar_and_truth(self, synth_outputs):
        cube_path, truth_path = synth_outputs
        assert cube_path.stat().st_size == 4000 * 200 * 4
        assert cube_path.with_suffix(".json").exists()
        cube = read_raw_cube(cube_path)
        assert cube.n_frames == 4000
        truth = read_reference_trace(truth_path)
        assert np.all(truth.bpm() == 76.6)
        assert truth.times()[0] == 10.0

    def test_seed_override_changes_the_noise(self, scenario_file, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
        run_cli("synth", "--scenario", scenario_file, "--out", str(a))
        run_cli("synth", "--scenario", scenario_file, "--out", str(b),
                "--seed", "12")
        run_cli("synth", "--scenario", scenario_file, "--out", str(c),
                "--seed", "12")
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_a_negative_seed_is_a_data_error(self, scenario_file, tmp_path,
                                             capsys):
        out = tmp_path / "cube.bin"
        assert run_cli("synth", "--scenario", scenario_file, "--out",
                       str(out), "--seed", "-1") == 2
        assert capsys.readouterr().err.strip() == (
            "pulsecancel synth: error: seed must be a non-negative integer, "
            "got -1")
        assert not out.exists()

    def test_outdir_env_names_the_default_output(self, scenario_file,
                                                 tmp_path, monkeypatch):
        outdir = tmp_path / "renders"
        outdir.mkdir()
        monkeypatch.setenv("PULSECANCEL_OUTDIR", str(outdir))
        assert run_cli("synth", "--scenario", scenario_file) == 0
        assert (outdir / "cube.bin").exists()


class TestRun:
    def test_trace_from_cube(self, synth_outputs, tmp_path):
        cube_path, _ = synth_outputs
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--in", str(cube_path), "--method", "ahet",
                       "--out", str(out))
        assert code == 0
        trace = read_reference_trace(out)
        assert len(trace) == 21
        assert trace.times()[0] == 10.0
        assert abs(float(np.median(trace.bpm())) - 76.6) < 1.0

    @pytest.mark.parametrize("method", ["ahet", "eca"])
    def test_default_flags_write_the_library_trace(self, synth_outputs,
                                                   tmp_path, method):
        # the default --rr-grid is BREATHING_GRID_HZ itself, so run --in
        # computes the library trace of the cube, byte for byte
        cube_path, _ = synth_outputs
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--in", str(cube_path), "--method", method,
                       "--out", str(out)) == 0
        phase = cube_phase(read_raw_cube(cube_path))
        trace = (ahet_mod.ahet_trace(phase) if method == "ahet"
                 else eca_conventional_trace(phase))
        expected = tmp_path / "expected.csv"
        write_trace(trace, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_tracker_bounds_reach_the_tracker(self, synth_outputs, tmp_path):
        # --ve and --va are the tracker's only settings
        cube_path, _ = synth_outputs
        loose, default = tmp_path / "loose.csv", tmp_path / "default.csv"
        assert run_cli("run", "--in", str(cube_path), "--ve", "0.5",
                       "--va", "0.5", "--out", str(loose)) == 0
        assert run_cli("run", "--in", str(cube_path), "--out",
                       str(default)) == 0
        phase = cube_phase(read_raw_cube(cube_path))
        expected = tmp_path / "expected.csv"
        write_trace(ahet_mod.ahet_trace(phase, config=AhetConfig(0.5, 0.5),
                                        track=breathing_track(phase)),
                    expected)
        assert loose.read_bytes() == expected.read_bytes()
        assert loose.read_bytes() != default.read_bytes()

    def test_trace_to_stdout(self, synth_outputs, capsys):
        cube_path, _ = synth_outputs
        code = run_cli("run", "--in", str(cube_path), "--method",
                       "conventional", "--cpi", "30")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time_s,hr_bpm,tag,delta_hz"
        assert len(lines) == 12  # header + 11 sliding windows

    def test_scenario_source_synthesizes_on_the_fly(self, scenario_file,
                                                    tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--scenario", scenario_file, "--method", "eca",
                       "--out", str(out))
        assert code == 0
        assert read_reference_trace(out).tags()[0] == "eca"


class TestCompare:
    def test_reports_per_method_rmse(self, synth_outputs, capsys):
        cube_path, truth_path = synth_outputs
        code = run_cli("compare", "--in", str(cube_path), "--truth",
                       str(truth_path))
        assert code == 0
        out = capsys.readouterr().out
        scores = {}
        for line in out.splitlines():
            method, value = line.split(" rmse_bpm=")
            scores[method.removeprefix("method=")] = float(value)
        assert set(scores) == {"conventional", "eca", "ahet"}
        # the masker fools plain peak tracking; the full pipeline holds on
        assert scores["ahet"] < 1.0
        assert scores["conventional"] > 5.0

    @pytest.mark.parametrize("methods, fits", [
        ("conventional,eca,ahet", 1), ("conventional", 0)])
    def test_fits_one_breathing_track(self, synth_outputs, monkeypatch,
                                      methods, fits):
        cube_path, truth_path = synth_outputs
        calls = []
        original = cli_mod.breathing_track

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (cli_mod, ahet_mod):
            monkeypatch.setattr(module, "breathing_track", counting)
        assert run_cli("compare", "--in", str(cube_path), "--truth",
                       str(truth_path), "--methods", methods) == 0
        assert len(calls) == fits

    def test_tracker_bounds_print_the_unscoped_traces(self, synth_outputs,
                                                      capsys):
        # eca's share of the pass tracks with the default bounds, so ahet
        # at other bounds computes its own trace
        cube_path, truth_path = synth_outputs
        assert run_cli("compare", "--in", str(cube_path), "--truth",
                       str(truth_path), "--methods", "conventional,eca,ahet",
                       "--ve", "0.3", "--va", "0.2") == 0
        phase = cube_phase(read_raw_cube(cube_path))
        track = breathing_track(phase)
        traces = {
            "conventional": conventional_trace(phase),
            "eca": eca_conventional_trace(phase, track=track),
            "ahet": ahet_mod.ahet_trace(phase, config=AhetConfig(0.3, 0.2),
                                        track=track),
        }
        truth = read_reference_trace(truth_path)
        assert capsys.readouterr().out.splitlines() == [
            f"method={m} rmse_bpm={rmse(t, truth):.3f}"
            for m, t in traces.items()]

    @pytest.mark.parametrize("bounds", [(), ("--ve", "0.3")])
    def test_measures_once_per_block_per_pass(self, synth_outputs, capsys,
                                              monkeypatch, bounds):
        # at the default bounds ahet takes eca's shared pass; at others it
        # runs its own and eca reads only its strongest peaks, so either
        # way the tracker measures each block once
        cube_path, truth_path = synth_outputs
        phase = cube_phase(read_raw_cube(cube_path))
        track = breathing_track(phase)
        config = AhetConfig(0.3, 0.1) if bounds else AhetConfig()
        truth = read_reference_trace(truth_path)
        expected = [
            f"method={m} rmse_bpm={rmse(t, truth):.3f}" for m, t in {
                "conventional": conventional_trace(phase),
                "eca": eca_conventional_trace(phase, track=track),
                "ahet": ahet_mod.ahet_trace(phase, config=config,
                                            track=track),
            }.items()]
        calls = []
        original = ahet_mod._measure

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ahet_mod, "_measure", counting)
        assert run_cli("compare", "--in", str(cube_path), "--truth",
                       str(truth_path), "--methods", "conventional,eca,ahet",
                       *bounds) == 0
        assert capsys.readouterr().out.splitlines() == expected
        # 21 windows, in blocks of 16
        assert ahet_mod._BLOCK == 16
        assert len(calls) == 2

    def test_truth_from_scenario_needs_no_csv(self, scenario_file, capsys):
        code = run_cli("compare", "--scenario", scenario_file, "--methods",
                       "ahet")
        assert code == 0
        assert "method=ahet rmse_bpm=" in capsys.readouterr().out


class TestBenchCommand:
    def test_writes_report_directory(self, tmp_path):
        outdir = tmp_path / "bench"
        code = run_cli("bench", "--family", "masking-b", "--seeds", "1",
                       "--cpis", "15", "--methods", "conventional",
                       "--duration", "60", "--no-timing",
                       "--out", str(outdir))
        assert code == 0
        assert (outdir / "rmse.csv").exists()
        assert (outdir / "intervals.csv").exists()
        assert not (outdir / "timing.csv").exists()
        summary = json.loads((outdir / "report.json").read_text())
        assert summary["family"] == "masking-b"
        assert summary["failed_runs"] == 0


def _spectrum_csv(spectrum):
    rows = ["freq_hz,power"]
    rows += [f"{float(f)!r},{float(p)!r}"
             for f, p in zip(spectrum.frequencies, spectrum.power)]
    return "\n".join(rows) + "\n"


def _same_text(path, expected):
    # a plain bool: pytest would otherwise diff two 8001-line strings
    return path.read_text() == expected


def _cli_phase(cube_path):
    """Phase as the CLI computes it with default pipeline flags."""
    return cube_phase(read_raw_cube(cube_path), (0.3, 3.0))


def _driver_rows(monkeypatch, phase, step_s, track):
    """The residual rows eca_conventional_trace cancels 20 s windows every
    step_s to, in window order, as the driver's BreathingTrack.residuals
    returns them."""
    rows = []
    residuals = BreathingTrack.residuals

    def recording(self, windows, starts):
        out, errors = residuals(self, windows, starts)
        rows.extend(out.copy())
        return out, errors

    monkeypatch.setattr(BreathingTrack, "residuals", recording)
    eca_conventional_trace(phase, step_s=step_s, track=track)
    return rows


def _assert_dumps(outdir, rows, fs):
    """outdir holds one dump per row, each the text of its spectrum."""
    files = sorted(outdir.iterdir())
    assert len(files) == len(rows)
    for path, row in zip(files, rows):
        assert _same_text(path, _spectrum_csv(power_spectrum(row, fs))), \
            path.name


class TestSpectra:
    def test_dumps_window_csvs(self, synth_outputs, tmp_path):
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        code = run_cli("spectra", "--in", str(cube_path), "--cancel",
                       "--max-windows", "2", "--out", str(outdir))
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["spectrum_00000.csv", "spectrum_00001.csv"]
        lines = (outdir / "spectrum_00000.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,power"
        freq, power = lines[1].split(",")
        assert float(freq) == 0.0
        assert float(power) >= 0.0

    def test_default_flags_match_per_window_reconstruction(
            self, synth_outputs, tmp_path, monkeypatch):
        # with --step a multiple of --anls-step, the record's breathing
        # subwindows inside a window are exactly the window's own, so each
        # window is refit at the fundamental its own track gives it, as
        # reconstruct_reference fits it; the dump is the trace driver's
        # residual rows
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        assert run_cli("spectra", "--in", str(cube_path), "--cancel",
                       "--out", str(outdir)) == 0
        phase = _cli_phase(cube_path)
        fs = phase.sample_rate
        n_cpi = int(round(20.0 * fs))
        starts = window_starts(phase.samples.size, fs, 20.0, 1.0)
        track = breathing_track(phase, grid=BREATHING_GRID_HZ)
        for i0 in starts:
            own = breathing_track(PhaseSignal(phase.samples[i0:i0 + n_cpi],
                                              fs))
            assert own._refit_hz([0], n_cpi)[0] \
                == track._refit_hz([i0], n_cpi)[0]
        rows = _driver_rows(monkeypatch, phase, 1.0, track)
        assert len(rows) == len(starts) == 21
        _assert_dumps(outdir, rows, fs)

    def test_dumps_what_the_eca_method_tracks_on(self, synth_outputs,
                                                 tmp_path, monkeypatch):
        # off the anls-step lattice the record-wide breathing track and a
        # per-window one differ; the dump follows the tracking methods: the
        # full padded spectrum of each row eca's driver cancels
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        assert run_cli("spectra", "--in", str(cube_path), "--cancel",
                       "--step", "0.5", "--out", str(outdir)) == 0
        phase = _cli_phase(cube_path)
        track = breathing_track(phase, grid=BREATHING_GRID_HZ)
        rows = _driver_rows(monkeypatch, phase, 0.5, track)
        assert len(rows) == 41
        _assert_dumps(outdir, rows, phase.sample_rate)

    @pytest.mark.parametrize("count", [ahet_mod._BLOCK, ahet_mod._BLOCK + 1])
    def test_a_window_cap_keeps_the_drivers_blocks(
            self, synth_outputs, tmp_path, monkeypatch, count):
        # a cap at a block's end or one past it: the dumps are the driver's
        # first rows, each cancelled within its whole block
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        assert run_cli("spectra", "--in", str(cube_path), "--cancel",
                       "--max-windows", str(count), "--out",
                       str(outdir)) == 0
        phase = _cli_phase(cube_path)
        track = breathing_track(phase, grid=BREATHING_GRID_HZ)
        rows = _driver_rows(monkeypatch, phase, 1.0, track)
        _assert_dumps(outdir, rows[:count], phase.sample_rate)


class TestExitCodes:
    def test_module_runs_the_command_line(self):
        done = fresh_python("-m", "pulsecancel", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: pulsecancel ")

    def test_both_sources_is_a_usage_error(self, scenario_file, tmp_path):
        code = run_cli("run", "--in", str(tmp_path / "x.bin"),
                       "--scenario", scenario_file)
        assert code == 1

    def test_missing_source_is_a_usage_error(self):
        assert run_cli("run") == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--eca-order", "3"), ("run", "--eca-ridge", "3"),
        ("run", "--taper", "hann"), ("compare", "--taper", "hann"),
        ("spectra", "--taper", "hann"),
    ])
    def test_removed_flags_are_usage_errors(self, command, flag, value,
                                            scenario_file):
        # the cancel stage has no order or ridge and Hann is the only taper;
        # a flag accepted and then ignored would hide that
        assert run_cli(command, "--scenario", scenario_file, flag,
                       value) == 1

    @pytest.mark.parametrize("flag, value", [("--enhance-width", "2"),
                                             ("--min-corr", "0.7")])
    def test_neighbor_fusion_flags_are_gone(self, synth_outputs, capsys,
                                            flag, value):
        # the front end demodulates the target bin alone; a fusion flag
        # accepted and then ignored would hide that
        cube_path, _ = synth_outputs
        assert run_cli("run", "--in", str(cube_path), flag, value) == 1
        assert (f"error: unrecognized arguments: {flag} {value}"
                in capsys.readouterr().err)

    def test_compare_from_cube_without_truth_is_a_usage_error(
            self, synth_outputs):
        cube_path, _ = synth_outputs
        assert run_cli("compare", "--in", str(cube_path)) == 1

    def test_missing_cube_file_is_a_data_error(self, tmp_path):
        assert run_cli("run", "--in", str(tmp_path / "ghost.bin")) == 2

    def test_cube_deleted_mid_run_is_a_data_error(self, synth_outputs,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # a read cube streams its words from the file as the range FFT
        # runs, so the file can vanish between the read and the transform
        cube_path, _ = synth_outputs
        path = tmp_path / "cube.bin"
        shutil.copy(cube_path, path)
        shutil.copy(cube_path.with_suffix(".json"), path.with_suffix(".json"))

        def read_then_delete(in_path):
            cube = read_raw_cube(in_path)
            path.unlink()
            return cube

        monkeypatch.setattr(cli_mod, "read_raw_cube", read_then_delete)
        assert run_cli("run", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pulsecancel run: error: cube file ")
        assert err.endswith("cube.bin is gone\n")

    def test_invalid_scenario_json_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", "--scenario", str(bad)) == 2
        assert capsys.readouterr().err == (
            f"pulsecancel run: error: scenario {bad} is not JSON: Expecting "
            f"property name enclosed in double quotes: line 1 column 2 "
            f"(char 1)\n")

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_malformed_sidecar_is_a_data_error(self, synth_outputs, tmp_path,
                                               capsys, text):
        cube_path, _ = synth_outputs
        path = tmp_path / "cube.bin"
        shutil.copy(cube_path, path)
        path.with_suffix(".json").write_text(text)
        assert run_cli("run", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pulsecancel run: error: malformed sidecar "
                              f"{path.with_suffix('.json')}: ")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(frames=float(doc["frames"])),
         "frames must be an integer, got 4000.0"),
        (lambda doc: doc["config"].pop("frame_period_s"),
         "missing radar keys: ['frame_period_s']"),
        # dividing it by the sample rate raised OverflowError, a traceback
        (lambda doc: doc["config"].update(adc_samples_per_chirp=10**400),
         "ADC window longer than the chirp"),
        # a chirp long enough to hold it: bandwidth_hz raised OverflowError
        (lambda doc: doc["config"].update(chirp_duration_s=1e200,
                                          adc_sample_rate_hz=1e200,
                                          adc_samples_per_chirp=10**400),
         "adc_samples_per_chirp must be at most the largest float")],
        ids=["float-frames", "config-without-frame_period_s",
             "huge-samples-per-chirp", "huge-samples-in-a-huge-chirp"])
    def test_a_sidecar_value_of_the_wrong_kind_is_a_data_error(
            self, synth_outputs, tmp_path, capsys, edit, message):
        cube_path, _ = synth_outputs
        path = tmp_path / "cube.bin"
        shutil.copy(cube_path, path)
        doc = json.loads(cube_path.with_suffix(".json").read_text())
        edit(doc)
        path.with_suffix(".json").write_text(json.dumps(doc))
        assert run_cli("run", "--in", str(path)) == 2
        assert capsys.readouterr().err == (
            f"pulsecancel run: error: malformed sidecar "
            f"{path.with_suffix('.json')}: {message}\n")

    def test_synth_checks_the_truth_window_before_writing(
            self, scenario_file, tmp_path, capsys):
        # a CPI past the 40 s record wrote the cube and sidecar, then
        # failed on the truth trace
        assert run_cli("synth", "--scenario", scenario_file, "--out",
                       str(tmp_path / "c.bin"), "--truth",
                       str(tmp_path / "t.csv"), "--cpi", "50") == 2
        assert capsys.readouterr().err == (
            "pulsecancel synth: error: window of 5000 samples longer than "
            "record of 4000\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scenario_key_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # an unknown key, then values of the wrong type, shape or sign
        for doc in ({"breathing_rate": 0.26}, {"duration_s": "20"},
                    {"seed": "a"}, {"seed": 1.5}, {"seed": True},
                    {"standoff_m": "1"}, {"standoff_m": float("nan")},
                    {"transmit_power_scale": "2"},
                    {"complex_noise_std": "0.1"}, {"clutter": [[1.0, "x"]]},
                    {"complex_noise_std": -1}, {"phase_noise_std": -0.5},
                    {"breathing_harmonics": [[1.5e-3, "x"]]},
                    {"intermod_tones": [["HR-RR", 1e-4, "p"]]},
                    {"allow_amplitude_override": True,
                     "heartbeat_harmonics": [["3e-4", 0.0]]},
                    {"radar": {"adc_samples_per_chirp": 2.5}},
                    {"radar": {"adc_samples_per_chirp": 10**400}},
                    {"radar": {"chirp_duration_s": 1e200,
                               "adc_sample_rate_hz": 1e200,
                               "adc_samples_per_chirp": 10**400}},
                    {"duration_s": float("inf")},
                    # a string is no bool: this turned the amplitude
                    # checks off and loaded a 1 m breathing amplitude
                    {"allow_amplitude_override": "false",
                     "breathing_harmonics": [[1.0, 0.0]]},
                    {"clutter": [[1.0, 2.0, 3.0]]},
                    # null read as the default
                    {"breathing_hz": None}, {"breathing_bpm": None},
                    {"radar": None}):
            bad.write_text(json.dumps(doc))
            assert run_cli("synth", "--scenario", str(bad)) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("pulsecancel synth: error: ")
            assert err.count("\n") == 1, err
        # a bad tone entry or radar key is named: these surfaced a
        # constructor's TypeError ("argument after * must be an iterable")
        for doc, named in (
                ({"intermod_tones": [5]}, "intermod_tones entry 5 must be "),
                ({"intermod_tones": [["HR-RR"]]},
                 "intermod_tones entry ['HR-RR'] must be "),
                ({"intermod_tones": [["HR-RR", "x"]]},
                 "intermod_tones entry ['HR-RR', 'x']: amplitude_m must be "),
                ({"radar": {"bogus": 1}}, "unknown radar keys: ['bogus']")):
            bad.write_text(json.dumps(doc))
            assert run_cli("synth", "--scenario", str(bad)) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("pulsecancel synth: error: ")
            assert err.count("\n") == 1 and named in err, err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_bench_without_seeds_is_a_usage_error(self, seeds, tmp_path):
        # an empty survey would write NaN medians, which are not JSON
        outdir = tmp_path / "bench"
        assert run_cli("bench", "--family", "masking-b", "--seeds", seeds,
                       "--no-timing", "--out", str(outdir)) == 1
        assert not outdir.exists()

    def test_a_window_whose_refit_fails_is_a_data_error(self, synth_outputs,
                                                        tmp_path, capsys):
        # 5 s windows at half-second steps: the second holds no whole 5 s
        # breathing subwindow, so its refit fails after the first is dumped
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        assert run_cli("spectra", "--in", str(cube_path), "--cancel",
                       "--cpi", "5", "--step", "0.5", "--out",
                       str(outdir)) == 2
        assert capsys.readouterr().err.endswith(
            "pulsecancel spectra: error: no breathing subwindow inside the "
            "segment\n")
        assert [p.name for p in outdir.iterdir()] == ["spectrum_00000.csv"]

    def test_negative_max_windows_is_a_usage_error(self, synth_outputs,
                                                   tmp_path, capsys):
        cube_path, _ = synth_outputs
        outdir = tmp_path / "spectra"
        assert run_cli("spectra", "--in", str(cube_path), "--max-windows",
                       "-2", "--out", str(outdir)) == 1
        assert "--max-windows must be >= 0, got -2" \
            in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--gate", "0.3", "--gate expects lo:hi, got '0.3'"),
        ("--rr-grid", "0.1:0.5", "--rr-grid expects lo:hi:step, "
                                 "got '0.1:0.5'"),
    ])
    def test_malformed_range_is_a_data_error(self, synth_outputs, capsys,
                                             flag, value, message):
        cube_path, _ = synth_outputs
        assert run_cli("run", "--in", str(cube_path), "--method", "eca",
                       flag, value) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--anls-window", "-1"),
                                             ("--anls-step", "0")])
    def test_bad_breathing_subwindow_is_a_data_error(self, synth_outputs,
                                                     capsys, flag, value):
        # the breathing track's layout is the window layout's, errors too
        cube_path, _ = synth_outputs
        assert run_cli("run", "--in", str(cube_path), flag, value) == 2
        assert capsys.readouterr().err.endswith(
            "\npulsecancel run: error: window and step must be positive\n")

    @pytest.mark.parametrize("command, flag, value, message", [
        ("run", "--cpi", "inf", "window and step must be finite"),
        ("run", "--cpi", "nan", "window and step must be finite"),
        ("run", "--step", "inf", "window and step must be finite"),
        ("run", "--anls-window", "inf", "window and step must be finite"),
        ("run", "--anls-step", "inf", "window and step must be finite"),
        ("compare", "--step", "inf", "window and step must be finite"),
        ("synth", "--cpi", "inf", "window and step must be finite"),
        ("run", "--ve", "nan",
         "deviation_threshold_hz must be a finite number, got nan"),
        ("run", "--ve", "inf",
         "deviation_threshold_hz must be a finite number, got inf"),
        ("run", "--va", "inf",
         "jump_threshold_hz must be a finite number, got inf"),
        ("run", "--rr-grid", "0.1:0.5:inf", "grid must be finite"),
        ("run", "--rr-grid", "0.1:inf:0.01", "grid must be finite"),
    ])
    def test_non_finite_number_is_a_data_error(self, synth_outputs,
                                               scenario_file, tmp_path,
                                               capsys, command, flag, value,
                                               message):
        cube_path, truth_path = synth_outputs
        source = {"run": ["--in", str(cube_path)],
                  "compare": ["--in", str(cube_path), "--truth",
                              str(truth_path)],
                  "synth": ["--scenario", scenario_file, "--out",
                            str(tmp_path / "cube.bin"), "--truth",
                            str(tmp_path / "truth.csv")]}[command]
        assert run_cli(command, *source, flag, value) == 2
        err = capsys.readouterr().err
        prefix = f"pulsecancel {command}: error: "
        assert err.splitlines()[-1].startswith(prefix + message), err
        assert err.count(prefix) == 1 and "Traceback" not in err

    def test_unknown_compare_method_is_a_data_error(self, scenario_file):
        code = run_cli("compare", "--scenario", scenario_file, "--methods",
                       "conventional,bogus")
        assert code == 2
