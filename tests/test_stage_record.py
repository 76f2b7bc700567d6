"""tools/stage_record.py on a tiny record: the schema of what it writes,
no unattributed time, and what a cold run leaves held."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_record.py"
# 30 s: eleven 20 s windows, one block
SECONDS, REPEATS = 30.0, 3
# each run's stages must add up to its wall clock within this fraction of
# it: what no stage covers (the gate, the PhaseSignal check, the window
# layout, the trace entries, the sink itself) is a few percent
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
    per_method = {"conventional": ("read", "front_end", "demodulate",
                                   "band_power", "measure", "decide")}
    per_method["eca"] = per_method["ahet"] = (
        "read", "front_end", "demodulate", "breathing_track", "residuals",
        "band_power", "measure", "decide")
    # the record's bin leads its first chunk, so there is no second pass
    assert list(doc["stages"]) == ["factor_build"] + [
        f"{m}.{s}" for m in methods for s in per_method[m]]
    assert doc["schema"] == "pulsecancel stage record 3"
    assert doc["workload"] == {
        "family": "masking-b", "seed": 0, "duration_s": SECONDS,
        "frames": 3000, "fast_time": 200, "cpi_s": 20.0, "step_s": 1.0,
        "windows": 11, "block_windows": 16, "repeats": REPEATS}
    assert set(doc["machine"]) == {"cpu", "cpus", "python", "numpy",
                                   "scipy", "blas_threads"}
    for name, entry in doc["stages"].items():
        wall = entry["wall_s"]
        assert 0 < wall["q1"] <= wall["median"] <= wall["q3"], name
        assert isinstance(entry["peak_bytes"], int), name
        calls = 11 if name.endswith(".decide") else 1
        assert entry["calls"] == calls, name
    assert list(doc["runs"]) == list(methods)
    for name, run in doc["runs"].items():
        assert run["stages"] == [f"{name}.{s}" for s in per_method[name]]
        assert run["peak_bytes"] \
            > doc["stages"][f"{name}.front_end"]["peak_bytes"]
        assert len(run["unattributed_share"]) == REPEATS
        assert isinstance(run["kept_bytes"], int), name
    json.dumps(doc)


def test_the_stages_add_up_to_each_run(doc):
    # a run's stages are disjoint intervals of it, so no share is negative
    for name, run in doc["runs"].items():
        for share in run["unattributed_share"]:
            assert 0.0 <= share <= UNATTRIBUTED, (name, run)


def test_a_cold_run_keeps_the_caches_it_fills(tool, doc):
    # the cancelling methods keep the breathing grid's factor and the refit
    # entries on top of the spectra's tables; a second cold run keeps the
    # same, so nothing else accumulates across runs
    kept = {name: run["kept_bytes"] for name, run in doc["runs"].items()}
    assert 0 < kept["conventional"] < kept["eca"]
    factor = sum(a.nbytes for a in tool.anls._factored_bases(
        500, 100.0, 3, tuple(tool.anls.BREATHING_GRID_HZ)))
    # the grid factor: per half, 250 head rows of a 20-direction span and
    # 241 x 3 coordinate rows on it, and the 241 grid frequencies: 313,288
    # B, where one span of the whole window (500 + 1,446 rows of 40) and
    # the frequencies held 624,648 B
    assert factor == 2 * (250 + 241 * 3) * 20 * 8 + 241 * 8
    with tool.tempfile.TemporaryDirectory() as tmp:
        path = tool.Path(tmp) / "cube.bin"
        tool.pc.write_raw_cube(tool.pc.synthesize_radar_cube(
            tool.scenario.FAMILIES["masking-b"](0, duration_s=SECONDS)), path)
        tool.tracemalloc.start()
        try:
            again = tool._kept(path, "ahet")
        finally:
            tool.tracemalloc.stop()
    entries = tool.anls._refit_basis.cache_info().currsize
    assert abs(again - kept["ahet"]) <= 0.02 * kept["ahet"]
    # each refit entry at n = 2000 holds half an n x 7 basis and one 7 x 7
    # map (a full basis was 112 kB); 1 kB an entry and 48 kB in all for
    # the arrays' and the caches' own records
    per_entry = (2000 // 2 + 1) * 7 * 8 + 7 * 7 * 8 + 1024
    assert entries > 0
    assert factor < kept["ahet"] - kept["conventional"] \
        <= factor + entries * per_entry + 48 * 1024


def test_main_writes_the_record(tool, doc, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tool, "record", lambda: doc)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc
    assert "factor_build" in capsys.readouterr().out


def test_tier1_records_the_suite_wall_clock_and_count(tool, monkeypatch,
                                                      tmp_path):
    (tmp_path / "test_three.py").write_text(
        "import pytest\n\n\ndef test_a():\n    pass\n\n\n"
        "def test_b():\n    assert False\n\n\n"
        "@pytest.mark.skip\ndef test_c():\n    pass\n")
    command = ("-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path))
    monkeypatch.setattr(tool, "TIER1", command)
    suite = tool.tier1()
    assert suite["command"] == ["python", *command]
    assert suite["outcomes"] == {"failed": 1, "passed": 1, "skipped": 1}
    assert suite["tests"] == 3 and suite["exit_status"] == 1
    assert suite["wall_s"] > 0


def test_main_adds_the_tier1_run_only_when_asked(tool, doc, monkeypatch,
                                                 tmp_path, capsys):
    suite = {"command": ["python"], "wall_s": 1.5, "outcomes": {"passed": 2},
             "tests": 2, "exit_status": 0}
    monkeypatch.setattr(tool, "record", lambda: dict(doc))
    monkeypatch.setattr(tool, "tier1", lambda: suite)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--out", str(out), "--tier1"]) == 0
    assert json.loads(out.read_text()) == dict(doc, tier1=suite)
    assert "tier1 1.5 s, 2 tests" in capsys.readouterr().out
