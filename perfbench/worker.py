"""One benchmark process: ``python3 worker.py JOB.json``.

The job file names a task.  "prepare" writes a workload's inputs.  "measure"
times ``import pulsecancel`` and a cold first operation on the masking-b
seed-0 record (with "peak" set, it runs that operation under tracemalloc
instead), then warm operations from unit "start" on until its time budget
is spent and, with "cover" set, the timed units end on a whole number of
panel cycles.  "trace" runs warm operations untraced, then a fixed set of
units with every layer wrapped, and reports the per-layer metrics.  The
result is written as JSON to the path the job names.
"""

import json
import sys
import time
from pathlib import Path


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import pulsecancel
    import_s = time.perf_counter() - t0
    if src not in Path(pulsecancel.__file__).resolve().parents:
        sys.exit(f"pulsecancel imported from {pulsecancel.__file__}, "
                 f"not from {src}")

    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.WORKLOADS[job["workload"]](
        job["seed"], job["tiny"], Path(job["inputs"]), job.get("skip_extras", ()))
    result = {"import_s": import_s, "environment": environment()}
    task = job["task"]
    if task == "prepare":
        tracer = Tracer(pulsecancel) if job["trace"] else None
        if tracer is not None:
            tracer.install()
            tracer.active = True
        try:
            workload.prepare()
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.restore()
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, tracer.counters)
            tracer.write(job["spans"])
    elif task == "measure":
        rec = workloads.Recorder()
        # the process's first operation is on the masking-b seed-0 record,
        # timed cold or, with "peak" set, run under tracemalloc
        rec.peak_next = job["peak"]
        workload.run_unit(-workload.seed % workload.panel, rec)
        unit = job["start"]
        start = time.perf_counter()
        while (not rec.op_s or time.perf_counter() - start < job["budget_s"]
               or job["cover"] and (unit < workload.panel
                                    or unit % workload.panel)):
            workload.run_unit(unit, rec)
            unit += 1
        result.update(rec.result(), next=unit)
    elif task == "trace":
        result.update(trace(pulsecancel, workload, job))
    else:
        sys.exit(f"unknown task {task!r}")
    Path(job["result"]).write_text(json.dumps(result))


def trace(pulsecancel, workload, job):
    """Untraced then traced passes over the same fixed units."""
    import workloads
    from tracer import Tracer, layer_metrics

    units = range(job["start"] + 1, job["start"] + 1 + job["trace_units"])
    untraced = workloads.Recorder()
    workload.run_unit(job["start"], untraced)          # cold, not reported
    start = time.perf_counter()
    while not untraced.op_s or time.perf_counter() - start < job["budget_s"]:
        for unit in units:
            workload.run_unit(unit, untraced)
    tracer = Tracer(pulsecancel)
    traced = workloads.Recorder(tracer)
    traced.cold_s = 0.0         # caches are warm: time every traced op
    workload.skip_extras.update(key for key, kinds in untraced.records.items()
                                if "eca" in kinds)
    tracer.install()
    try:
        for unit in units:
            workload.run_unit(unit, traced)
    finally:
        tracer.restore()
    tracer.write(job["spans"])
    layers = layer_metrics(tracer.spans, tracer.counters)
    rate = lambda rec: rec.radar_s / sum(rec.op_s)     # noqa: E731
    layers["trace.overhead"] = rate(traced) / rate(untraced)
    for key, kinds in traced.records.items():
        for kind, value in kinds.items():
            untraced.record(key, kind, value)
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.reasons.update(traced.reasons)
    untraced.examples += traced.examples
    return dict(untraced.result(), layers=layers)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


if __name__ == "__main__":
    main(sys.argv[1])
