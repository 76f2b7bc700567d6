"""pulsecancel benchmark.

    python3 perfbench/run.py --workload cube-run --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, in worker processes with BLAS pinned to one thread.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Earlier lines print every metric with its unit, the
machine record and any failures by reason.  Files go to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cube-run", "phase-survey", "stream-windows")
SETUP_REPEATS = 3          # fresh processes per run; setup_s is their median
TRACE_UNITS = {"cube-run": 4, "phase-survey": 1, "stream-windows": 2}
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# Timings are scaled to a host on which workloads.calibrate() takes this
# long (its typical reading on the 2-vCPU Xeon VM the bounds were set on).
# That host's speed swings up to 1.8x within a minute; a calibration taken
# next to each operation divides the swing out.
REF_CAL_S = 0.0025

# name -> (unit, definition); timings are at the reference host speed
END_TO_END = {
    "setup_s": ("s", "median over fresh processes of import pulsecancel + "
                     "the first operation on cold caches"),
    "realtime_x": ("s/s", "radar seconds processed per second over the "
                          "warm timed operations"),
    "window_p50_ms": ("ms", "median latency of one output window"),
    "window_p99_ms": ("ms", "99th-percentile latency of one output window"),
    "ahet_rmse_bpm": ("bpm", "median tracker RMSE over the panel records"),
    "ahet_rmse_max_bpm": ("bpm", "worst tracker RMSE over the panel records"),
    "eca_rmse_bpm": ("bpm", "median RMSE of the cancellation-only baseline"),
    "success_rate": ("ratio", "1 - fail_rate"),
    "peak_mb": ("MB", "tracemalloc peak of the first operation of a fresh "
                      "process, on the masking-b seed-0 record"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed seconds per run (0 runs the minimum work)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="40 s records and a 2-record panel (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, args, outdir):
        self.args = args
        self.outdir = outdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS,
                        PYTHONDONTWRITEBYTECODE="1")

    def __call__(self, **job):
        self.count += 1
        name = f"{job['task']}-{self.count}"
        job.update(src=str(ROOT / "src"), workload=self.args.workload,
                   seed=self.args.seed, tiny=self.args.tiny,
                   trace=self.args.trace, inputs=str(self.outdir / "inputs"),
                   result=str(self.outdir / f"{name}.json"),
                   spans=str(self.outdir / f"spans-{name}.jsonl"))
        job_path = self.outdir / f"job-{name}.json"
        job_path.write_text(json.dumps(job))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("out of time before starting " + name)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                env=self.env, cwd=ROOT, stdout=sys.stderr,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{name} did not finish within the run's "
                              f"{DEADLINE_S:g} s") from None
        if proc.returncode != 0:
            raise WorkerError(f"{name} exited with code {proc.returncode}")
        return json.loads(Path(job["result"]).read_text())


def measure(args, run):
    """Fresh processes in turn.  The first SETUP_REPEATS time their import
    and cold first operation, all on the masking-b seed-0 record; the last
    one measures a memory peak on that record instead.  Each then times warm operations for its share of
    --seconds, which spreads the timed work over the whole run and so over
    more of the host's drifting speed.  The timed operations walk the panel
    from unit 0 on, carried over from one process to the next, and the
    last process goes on until they end on a whole number of panel cycles.
    So every record is timed equally often, whatever the seed."""
    results, unit = [], 0

    def done():      # records whose untimed baseline is already computed
        return sorted(key for r in results
                      for key, kinds in r["records"].items() if "eca" in kinds)

    for k in range(SETUP_REPEATS + 1):
        res = run(task="measure", start=unit, peak=k == SETUP_REPEATS,
                  cover=k == SETUP_REPEATS, skip_extras=done(),
                  budget_s=args.seconds / (SETUP_REPEATS + 1))
        unit = res["next"]
        results.append(res)
    return results


def merge_records(results):
    """Union of per-record RMSE; a record seen twice must agree exactly."""
    merged, clashes = {}, []
    for res in results:
        for key, kinds in res["records"].items():
            entry = merged.setdefault(key, {})
            for kind, value in kinds.items():
                if kind in entry and entry[kind] != value:
                    clashes.append(f"{key} {kind}")
                entry[kind] = value
    return merged, clashes


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, records):
    """Metric values, sample counts, and the timings before scaling."""
    cold = [r for r in results if r["peak_bytes"] is None]
    op_s = [t for r in results for t in r["op_s"]]
    scaled_s = [t * REF_CAL_S / c for r in results
                for t, c in zip(r["op_s"], r["op_cal_s"])]
    windows = [w for r in results for w in r["op_windows"]]
    radar_s = sum(r["radar_s"] for r in results)
    ahet = sorted(v["ahet"] for v in records.values() if "ahet" in v)
    eca = sorted(v["eca"] for v in records.values() if "eca" in v)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    peak = [r["peak_bytes"] for r in results if r["peak_bytes"] is not None]

    def timings(ops, setup_scale):
        per_window_ms = [1000.0 * t / w for t, w in zip(ops, windows)]
        return {
            "setup_s": statistics.median(
                (r["import_s"] + r["cold_s"]) * setup_scale(r) for r in cold),
            "realtime_x": radar_s / sum(ops),
            "window_p50_ms": statistics.median(per_window_ms),
            "window_p99_ms": percentile(per_window_ms, 99),
        }

    values = timings(scaled_s, lambda r: REF_CAL_S / r["cold_cal_s"])
    values.update({
        "ahet_rmse_bpm": statistics.median(ahet) if ahet else float("nan"),
        "ahet_rmse_max_bpm": max(ahet) if ahet else float("nan"),
        "eca_rmse_bpm": statistics.median(eca) if eca else float("nan"),
        "success_rate": 1.0 - failed / attempted,
        "peak_mb": peak[0] / 1e6 if peak else float("nan"),
    })
    samples = {
        "setup_s": len(cold), "window_p50_ms": len(op_s),
        "window_p99_ms": len(op_s), "ahet_rmse_bpm": len(ahet),
        "ahet_rmse_max_bpm": len(ahet), "eca_rmse_bpm": len(eca),
        "realtime_x": len(op_s),
    }
    return values, samples, timings(op_s, lambda r: 1.0)


def machine_record(args, worker_env):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        quota = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        quota = "not readable"
    return dict(worker_env,
                nproc=os.cpu_count(),
                cpus_allowed=len(os.sched_getaffinity(0)),
                cpu_model=cpu,
                platform=platform.platform(),
                blas_threads=BLAS_THREADS,
                seed=args.seed,
                workload=args.workload,
                seconds=args.seconds,
                cgroup_cpu_max=quota,
                notes="ingest reads come from the page cache, not the disk; "
                      "the cgroup CPU quota and other tenants are not "
                      "controlled; one closed-loop caller in one process")


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:28s} {value:>14.6g} {unit:6s} {note}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pulsecancel" / "__init__.py").is_file():
        print(f"perfbench: no pulsecancel package under {ROOT / 'src'}; run "
              f"from the root of a pulsecancel checkout", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-tiny" if args.tiny else ""))
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    run = Runner(args, outdir)
    try:
        prepared = run(task="prepare") if args.workload == "cube-run" else None
        if args.trace:
            results = [run(task="trace", start=0, trace_units=(
                1 if args.tiny else TRACE_UNITS[args.workload]),
                budget_s=args.seconds / 2)]
        else:
            results = measure(args, run)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir / "inputs", ignore_errors=True)

    records, clashes = merge_records(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    reasons = {}
    for r in results:
        for reason, count in r["reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    for clash in clashes:
        reasons[f"RMSE differs between processes ({clash})"] = 1
    examples = [e for r in results for e in r["examples"]][:20]
    env = machine_record(args, results[0]["environment"])

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(env, sort_keys=True))
    if args.trace:
        layers = dict(results[0]["layers"])
        if prepared is not None:
            for name in ("scenario.cube_s", "ingest.write_s"):
                layers[name] = prepared["layers"][name]
        rows = [(name, layers[name], unit,
                 f"{how}; moves {moves}"
                 + ("" if layers[name] or unit == "ratio"
                    else " [no calls on this workload]"))
                for name, (unit, _better, how, moves) in LAYER_METRICS.items()]
        print_table("per-layer metrics (traced run):", rows)
        metrics = {name: {"value": layers[name], "unit": LAYER_METRICS[name][0]}
                   for name in LAYER_METRICS}
    else:
        values, samples, wall = end_to_end(results, records)
        rows = [(name, values[name], unit,
                 how + (f" (n={samples[name]})" if name in samples else "")
                 + (f"; wall clock {wall[name]:.6g}" if name in wall else ""))
                for name, (unit, how) in END_TO_END.items()]
        rows.append(("fail_rate", failed / attempted, "ratio",
                     f"failed {failed} / attempted {attempted}"))
        print_table(f"end-to-end metrics (tracing off; timings scaled to "
                    f"calibrate() = {REF_CAL_S * 1e3:g} ms):", rows)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _how) in END_TO_END.items()}
    if reasons:
        print("failures by reason:")
        for reason, count in sorted(reasons.items()):
            print(f"  {count:6d}  {reason}")
        for example in examples:
            print(f"    e.g. {example}")
    else:
        print("failures: none")
    summary = {"correct": not reasons and failed == 0,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(
        dict(summary, machine=env, reasons=reasons, examples=examples,
             records=records), indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
