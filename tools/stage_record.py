"""Per-stage wall clock and peak memory of the pipeline on one record.

    python3 tools/stage_record.py --out BENCH_<n>.json

The package is imported from src/ of the checkout that holds this script,
so a copy of the script run in another checkout records that checkout's
code.  The record is the 280 s masking-b seed-0 scenario, rendered and
written to a cube file in a temporary directory (untimed).  The chain
calls the pipeline's stages one by one, in its order:

- read: ingest.read_raw_cube;
- front_end: cube_phase's pass over the cube (preprocess._range_fft, each
  chunk's gate moments merged, the first chunk's leading bin's column
  kept) and the bin choice; second_pass when the record's bin is another;
- demodulate: preprocess.demodulate of the kept column;
- factor_build: the breathing grid's factor (anls._factored_bases) from a
  cold cache, timed apart from breathing_track, which scores the record
  on the cached factor;
- per method, per block of ahet._BLOCK windows: residuals (the cancelling
  methods only), band_power, measure and decide (once per window).

The chain's phase must equal cube_phase's and each method's trace the
public trace function's (conventional_trace, eca_conventional_trace,
ahet_trace) field for field, or no record is written.  The whole run per
method (read_raw_cube, cube_phase and the trace function) is timed
through those public entry points.

Per stage the record holds the median and quartiles of its wall clock
per run over the repeats, its tracemalloc peak above what was held when it
was called (the largest over its calls, from one traced run) and its calls
per run; per method, the run's wall clock, its peak, and the stages'
medians summed, so unattributed time shows.  BLAS is pinned to one thread
when the script is run as a program.
"""

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":
    # BLAS on one thread, as the benchmark runs it, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pulsecancel as pc  # noqa: E402  (this checkout's, from src/)
from pulsecancel import (ahet, anls, preprocess, scenario,  # noqa: E402
                         spectral)

DURATION_S = 280.0
FAMILY, SEED = "masking-b", 0
CPI_S, STEP_S = 20.0, 1.0
REPEATS = 15
METHODS = ("conventional", "eca", "ahet")
GATE_M = (0.3, 3.0)        # cube_phase's default range gate
FRONT_END = ("read", "front_end", "second_pass", "demodulate")


class Stages:
    """Each named stage's total seconds and calls over one run, and, when
    traced, its largest tracemalloc peak above what was held at the
    call."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.seconds, self.calls, self.peak = {}, {}, {}

    def __call__(self, name, fn, *args):
        if self.traced:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        if self.traced:
            peak = tracemalloc.get_traced_memory()[1] - held
            self.peak[name] = max(self.peak.get(name, 0), peak)
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        return out


def _front_end(cube):
    """cube_phase's pass: (the kept column, the record's bin, the first
    chunk's leading bin)."""
    pre = preprocess
    gate = pre.gate_bins(pre._one_sided_bins(cube),
                         cube.config.range_bin_width_m, *GATE_M)
    values = np.empty(cube.n_frames, dtype=np.complex64)
    for start, spectra in pre._range_fft(cube):
        chunk = pre._moments(spectra[:, gate.start:gate.stop])
        if start:
            moments = pre._merge(moments, chunk)
        else:
            moments = chunk
            held = gate.start + int(pre._power(moments).argmax())
        values[start:start + len(spectra)] = spectra[:, held]
    return values, pre._strongest(gate, pre._power(moments)), held


def _second_pass(cube, values, target):
    for start, spectra in preprocess._range_fft(cube):
        values[start:start + len(spectra)] = spectra[:, target]


def _method(name):
    """(cancels, top_hz, measure, decide) of a method, as the trace
    functions build them for _track."""
    config = ahet.AhetConfig()
    if name == "conventional":
        return (False, scenario.HEARTBEAT_BAND_HZ[1], ahet._heart_peaks,
                ahet._strongest_peak(name)[0])
    if name == "eca":
        return (True, ahet._top_hz(config), ahet._heart_peaks,
                ahet._strongest_peak(name)[0])
    return (True, ahet._top_hz(config),
            functools.partial(ahet._measure, config=config),
            ahet._tracker(config)[0])


def _blocks(phase, track, name, stage):
    """One method's trace, a block of windows at a time."""
    cancels, top_hz, measure, decide = _method(name)
    fs = phase.sample_rate
    starts, stack = scenario.sliding_windows(phase.samples, fs, CPI_S,
                                             STEP_S)
    trace = pc.HrTrace()
    for b0 in range(0, len(starts), ahet._BLOCK):
        block = starts[b0:b0 + ahet._BLOCK]
        windows = stack[b0:b0 + ahet._BLOCK]
        if cancels:
            windows, errors = stage(f"{name}.residuals", track.residuals,
                                    windows, block)
            for error in errors:
                if error is not None:
                    raise error
        freqs, power = stage(f"{name}.band_power", spectral.band_power,
                             windows, fs, top_hz, 8)
        measured = stage(f"{name}.measure", measure, freqs, power)
        for j, i0 in enumerate(block):
            f_hz, tag, delta = stage(f"{name}.decide", decide,
                                     *(m[j] for m in measured), freqs,
                                     power[j])
            trace.append(pc.TraceEntry(
                scenario.window_center(i0, fs, CPI_S), f_hz * 60.0, tag,
                delta))
    return trace


def chain(path, stage):
    """(phase, {method: trace}) of the record at path, stage by stage."""
    cube = stage("read", pc.read_raw_cube, path)
    values, target, held = stage("front_end", _front_end, cube)
    if target != held:
        stage("second_pass", _second_pass, cube, values, target)
    theta, dropouts = stage("demodulate", preprocess.demodulate, values)
    phase = pc.PhaseSignal(theta, cube.config.frame_rate_hz,
                           source_bin=target, dropouts=dropouts)
    track = stage("breathing_track", anls.breathing_track, phase)
    return phase, {name: _blocks(phase, track, name, stage)
                   for name in METHODS}


def _public(name):
    return {"conventional": pc.conventional_trace,
            "eca": pc.eca_conventional_trace, "ahet": pc.ahet_trace}[name]


def whole_run(path, name):
    """A method's trace of the record at path, through the public entry
    points."""
    return _public(name)(pc.cube_phase(pc.read_raw_cube(path)))


def _factor_build(fs):
    """The breathing grid's factor at breathing_track's defaults, built
    from a cold cache."""
    anls._factored_bases.cache_clear()
    return anls._factored_bases(scenario.window_samples(5.0, fs), fs, 3,
                                tuple(anls.BREATHING_GRID_HZ))


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def record(duration_s: float = DURATION_S, repeats: int = REPEATS) -> dict:
    """The stage record of the masking-b seed-0 record of duration_s
    seconds, over repeats timed runs (at least 2)."""
    scene = scenario.FAMILIES[FAMILY](SEED, duration_s=duration_s)
    fs = scene.radar.frame_rate_hz
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cube.bin"
        header = pc.write_raw_cube(pc.synthesize_radar_cube(scene), path)

        # the chain must be the pipeline, or its stages time something else
        phase, traces = chain(path, Stages())
        expected = pc.cube_phase(pc.read_raw_cube(path))
        if (phase.samples.tobytes() != expected.samples.tobytes()
                or (phase.source_bin, phase.dropouts)
                != (expected.source_bin, expected.dropouts)):
            raise RuntimeError("the chain's phase differs from cube_phase's")
        for name in METHODS:
            if traces[name] != _public(name)(expected):
                raise RuntimeError(f"the chain's {name} trace differs from "
                                   f"the pipeline's")

        # each repeat times every stage once, so a slow spell of the host
        # is shared out rather than landing on one stage
        builds, runs = [], []
        totals = {name: [] for name in METHODS}
        for _ in range(repeats):
            builds.append(_seconds(_factor_build, fs))
            runs.append(Stages())
            chain(path, runs[-1])
            for name in METHODS:
                totals[name].append(_seconds(whole_run, path, name))

        traced = Stages(traced=True)
        tracemalloc.start()
        try:
            traced("factor_build", _factor_build, fs)
            chain(path, traced)
            for name in METHODS:
                traced(f"run.{name}", whole_run, path, name)
        finally:
            tracemalloc.stop()

    stages = {"factor_build": {"wall_s": _spread(builds),
                               "peak_bytes": traced.peak["factor_build"],
                               "calls": 1}}
    for name in runs[0].seconds:
        stages[name] = {
            "wall_s": _spread([run.seconds[name] for run in runs]),
            "peak_bytes": traced.peak[name],
            "calls": runs[0].calls[name]}
    methods = {}
    for name in METHODS:
        parts = [s for s in stages if s in FRONT_END
                 or s.startswith(f"{name}.")
                 or (s == "breathing_track" and name != "conventional")]
        stage_sum = sum(stages[s]["wall_s"]["median"] for s in parts)
        wall = _spread(totals[name])
        methods[name] = {"wall_s": wall,
                         "peak_bytes": traced.peak[f"run.{name}"],
                         "stages": parts, "stage_sum_s": stage_sum,
                         "unattributed_share": 1.0 - stage_sum
                         / wall["median"]}
    return {
        "schema": "pulsecancel stage record 1",
        "workload": {"family": FAMILY, "seed": SEED,
                     "duration_s": duration_s, "frames": header.frames,
                     "fast_time": header.fast_time, "cpi_s": CPI_S,
                     "step_s": STEP_S,
                     "windows": len(traces["ahet"]),
                     "block_windows": ahet._BLOCK, "repeats": repeats},
        "machine": machine(),
        "traces_equal_the_pipeline": True,
        "stages": stages,
        "runs": methods,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path,
                   help="JSON file to write, BENCH_<n>.json for change n")
    args = p.parse_args(argv)
    doc = record()
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["stages"].items():
        print(f"{name:24s} {entry['wall_s']['median'] * 1e3:9.3f} ms "
              f"{entry['peak_bytes'] / 1e6:8.3f} MB  x{entry['calls']}")
    for name, entry in doc["runs"].items():
        print(f"run.{name:20s} {entry['wall_s']['median'] * 1e3:9.3f} ms "
              f"{entry['peak_bytes'] / 1e6:8.3f} MB  stages "
              f"{entry['stage_sum_s'] * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
