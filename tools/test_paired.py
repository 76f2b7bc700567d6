"""Smoke test of tools/paired.py: two tiny pairs of this checkout against
HEAD on stream-windows.

    python3 -m pytest tools/test_paired.py

It starts eight benchmark processes, so it is not part of the tier-1 suite
(tests/).  Checks one table row per end-to-end metric of BENCHMARK.json,
the JSON it writes (revisions, run order, every metric of every run), that
no run left bytecode in either tree's package, and that nothing under
perfbench/ changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def _tool():
    spec = importlib.util.spec_from_file_location("paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paired")
    (tmp / "tmp").mkdir()
    before = _snapshot(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--against", "HEAD", "--workload",
         "stream-windows", "--seed", "0", "--pairs", "2", "--seconds", "0",
         "--tiny", "--out", str(tmp / "paired.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, TMPDIR=str(tmp / "tmp")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {"stdout": proc.stdout, "doc": json.loads(
        (tmp / "paired.json").read_text()), "tmp": tmp / "tmp",
            "perfbench": (before, _snapshot(ROOT / "perfbench"))}


def test_one_row_per_end_to_end_metric(paired):
    rows = [line.split() for line in paired["stdout"].splitlines()]
    for metric in SPEC["end_to_end"]:
        row, = [r for r in rows if r[:1] == [metric["name"]]]
        assert row[1] == metric["unit"]
        # two spreads, the relative change and the pairs won
        assert row[-1].endswith("/2") and row[-2].endswith(("%", "n/a"))
    assert "operations failed / attempted: parent 0/" in paired["stdout"]


def test_the_json_holds_each_pair_in_its_run_order(paired):
    doc = paired["doc"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert doc["schema"] == "pulsecancel paired runs 1"
    assert doc["revisions"]["parent"] == head
    assert doc["revisions"]["change"] in (head, head + "-dirty")
    assert doc["same_benchmark"] is True
    assert (doc["workload"], doc["seed"], doc["seconds"], doc["tiny"]) \
        == ("stream-windows", 0, 0.0, True)
    assert [p["order"] for p in doc["pairs"]] \
        == [["parent", "change"], ["change", "parent"]]
    for pair in doc["pairs"]:
        assert set(pair["results"]) == {"parent", "change"}
        for result in pair["results"].values():
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert set(result["metrics"]) == set(METRICS)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))


def test_no_tree_keeps_bytecode(paired):
    for pair in paired["doc"]["pairs"]:
        assert pair["pycache_kept"] == {"parent": False, "change": False}
    assert not (ROOT / "src" / "pulsecancel" / "__pycache__").exists()
    # the parent tree went with its temporary directory
    assert list(paired["tmp"].iterdir()) == []


def test_nothing_under_perfbench_changes(paired):
    before, after = paired["perfbench"]
    assert after == before


def test_pairs_won_count_the_better_direction_and_no_ties():
    def pair(parent, change):
        return {"results": {"parent": {"metrics": {
            "x": {"value": parent}}}, "change": {"metrics": {
                "x": {"value": change}}}}}

    pairs = [pair(1.0, 2.0), pair(3.0, 3.0), pair(2.0, 1.0), pair(4.0, 6.0)]
    higher = _tool().table(pairs, [{"name": "x", "unit": "s",
                                    "better": "higher"}])
    lower = _tool().table(pairs, [{"name": "x", "unit": "s",
                                   "better": "lower"}])
    # medians 2.5 -> 2.5 over quartiles [1.75, 3.25] and [1.75, 3.75]
    assert higher[1].split() == ["x", "s", "2.5", "[1.75,", "3.25]", "2.5",
                                 "[1.75,", "3.75]", "+0.00%", "2/4"]
    assert lower[1].split()[-1] == "1/4"
