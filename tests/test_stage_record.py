"""tools/stage_record.py on a tiny record: the schema of what it writes,
the chain's equality with the pipeline, and no unattributed time."""

import importlib.util
import json
from pathlib import Path

import pytest

import pulsecancel as pc

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_record.py"
# 30 s: eleven 20 s windows, one block
SECONDS, REPEATS = 30.0, 3
# the stages' medians must add up to each whole run's median within this
# fraction of it: what the chain leaves out (the PhaseSignal check, the
# trace entries) is a few percent
UNATTRIBUTED = 0.25


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("stage_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def doc(tool):
    return tool.record(duration_s=SECONDS, repeats=REPEATS)


def test_the_record_names_every_stage_once(tool, doc):
    methods = ("conventional", "eca", "ahet")
    blocks = {f"{m}.{s}" for m in methods
              for s in ("residuals", "band_power", "measure", "decide")}
    expected = {"read", "front_end", "demodulate", "factor_build",
                "breathing_track"} | blocks - {"conventional.residuals"}
    # the record's bin leads its first chunk, so there is no second pass
    assert set(doc["stages"]) == expected
    assert doc["workload"] == {
        "family": "masking-b", "seed": 0, "duration_s": SECONDS,
        "frames": 3000, "fast_time": 200, "cpi_s": 20.0, "step_s": 1.0,
        "windows": 11, "block_windows": 16, "repeats": REPEATS}
    assert set(doc["machine"]) == {"cpu", "cpus", "python", "numpy",
                                   "scipy", "blas_threads"}
    assert doc["traces_equal_the_pipeline"] is True
    for name, entry in doc["stages"].items():
        wall = entry["wall_s"]
        assert 0 < wall["q1"] <= wall["median"] <= wall["q3"], name
        assert isinstance(entry["peak_bytes"], int), name
        calls = 11 if name.endswith(".decide") else 1
        assert entry["calls"] == calls, name
    assert set(doc["runs"]) == set(methods)
    for name, run in doc["runs"].items():
        assert set(run["stages"]) <= set(doc["stages"])
        assert ("breathing_track" in run["stages"]) == (name != "conventional")
        assert run["peak_bytes"] > doc["stages"]["front_end"]["peak_bytes"]
    json.dumps(doc)


def test_the_stages_add_up_to_each_run(doc):
    for name, run in doc["runs"].items():
        assert abs(run["unattributed_share"]) <= UNATTRIBUTED, (name, run)


def test_the_chain_is_the_pipeline(tool, tmp_path):
    scenario = pc.scenario.FAMILIES["masking-b"](1, duration_s=SECONDS)
    path = tmp_path / "cube.bin"
    pc.write_raw_cube(pc.synthesize_radar_cube(scenario), path)
    stages = tool.Stages()
    phase, traces = tool.chain(path, stages)
    expected = pc.cube_phase(pc.read_raw_cube(path))
    assert phase.samples.tobytes() == expected.samples.tobytes()
    assert traces["ahet"] == pc.ahet_trace(expected)
    assert traces["eca"] == pc.eca_conventional_trace(expected)
    assert traces["conventional"] == pc.conventional_trace(expected)
    assert stages.calls["ahet.band_power"] == 1


def test_a_chain_that_drifts_writes_no_record(tool, monkeypatch):
    # windows of another length than the pipeline's are another pipeline
    monkeypatch.setattr(tool, "CPI_S", 15.0)
    with pytest.raises(RuntimeError, match="trace differs"):
        tool.record(duration_s=SECONDS, repeats=2)


def test_main_writes_the_record(tool, doc, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tool, "record", lambda: doc)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc
    assert "factor_build" in capsys.readouterr().out
