"""Smoke test of the benchmark on tiny inputs (40 s records, 2-record panels).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that traced spans nest with non-negative self time, that two runs with one
seed agree exactly on accuracy, counts and failures, and that the benchmark
refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
EXACT_END_TO_END = ("ahet_rmse_bpm", "ahet_rmse_max_bpm", "eca_rmse_bpm",
                    "success_rate")


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


def spans_of(workload):
    outdir = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1-tiny"
    spans = []
    for path in sorted(outdir.glob("spans-*.jsonl")):
        spans.append([json.loads(line) for line in path.read_text().splitlines()])
    return spans


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Two untraced and two traced runs of one workload with one seed."""
    workload = request.param
    out = {"workload": workload, "plain": [], "traced": [], "spans": None}
    for _ in range(2):
        out["plain"].append(parse(run_bench(workload, 0)))
        out["traced"].append(parse(run_bench(workload, 1)))
        out["spans"] = out["spans"] or spans_of(workload)
    return out


def check_printed(lines, result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[:1] == [spec["name"]]
                   and line.split()[2] == spec["unit"] for line in lines), \
            f"{spec['name']} not printed with unit {spec['unit']}"


def test_end_to_end_metrics_printed_with_units(runs):
    lines, result = runs["plain"][0]
    check_printed(lines, result, SPEC["end_to_end"])
    assert any(line.split()[:1] == ["fail_rate"] for line in lines)
    assert result["attempted"] >= 1
    assert result["correct"] is True


def test_layer_metrics_printed_with_units(runs):
    lines, result = runs["traced"][0]
    check_printed(lines, result, SPEC["per_layer"])
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_spans_nest_and_self_time_non_negative(runs):
    assert runs["spans"], "traced run wrote no spans"
    for spans in runs["spans"]:
        assert spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op in spans:
            assert start <= end, name
            if parent >= 0:
                p_name, p_start, p_end, _p_parent, p_op = spans[parent]
                assert p_start <= start and end <= p_end, (name, p_name)
                assert op == p_op
                child_ns[parent] += end - start
        for (name, start, end, _parent, _op), child in zip(spans, child_ns):
            assert end - start - child >= 0, name


def test_same_seed_repeats_accuracy_counts_and_failures(runs):
    (_, first), (_, second) = runs["plain"]
    for name in EXACT_END_TO_END:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])
    (_, first), (_, second) = runs["traced"]
    # every per-layer metric but the clock readings repeats exactly
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] != "s" and m["name"] != "trace.overhead"]
    assert "anls.grid_scores" in exact and "ahet.held_share" in exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
