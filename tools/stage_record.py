"""Per-stage wall clock and peak memory of the pipeline on one record.

    python3 tools/stage_record.py --out BENCH_<n>.json [--tier1]

The package is imported from src/ of the checkout that holds this script,
so a copy of the script run in another checkout records that checkout's
code.  The record is the 280 s masking-b seed-0 scenario, rendered and
written to a cube file in a temporary directory (untimed).  Each method's
run is trace_fn(cube_phase(read_raw_cube(path))) through the public entry
points (conventional_trace, eca_conventional_trace, ahet_trace), timed
whole, within types.record_stages: its sink times each stage the
pipeline reports and names it <method>.<stage>:

- read: ingest.read_raw_cube, reported by this script;
- front_end, second_pass (when the record's bin is not the first chunk's
  leader) and demodulate: cube_phase's;
- breathing_track: the cancelling methods' fit of the record's track,
  scored on the cached factor;
- per block of windows: residuals (the cancelling methods only),
  band_power and measure, then decide once per window.

factor_build is the breathing grid's factor (anls._factored_bases) built
from a cold cache, timed apart from the runs.

Per stage the record holds the median and quartiles of its wall clock
per run over the repeats, its tracemalloc peak above what was held when it
was called (the largest over its calls, from one traced run) and its calls
per run.  Per method it holds the run's wall clock and tracemalloc peak,
for each run the share of its wall clock that none of its stages covers,
and kept_bytes: what the method's first run leaves held, from cold
caches (every lru_cache of the package emptied first).  That is the
caches the run fills, which the warm runs' peaks cannot see.  BLAS is
pinned to one thread when the script is run as a program.

With --tier1 it also runs the tier-1 suite once (TIER1, from the root of
the checkout, after the record, with BLAS threads as the caller left
them) and records its wall clock, the outcome counts pytest printed, the
tests they add up to and its exit status.  That needs pytest, which the
package alone does not install.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# the BLAS settings this script set, which the tier-1 run does not inherit
PINNED = ()
if __name__ == "__main__":
    # BLAS on one thread, as the benchmark runs it, set before numpy loads
    PINNED = tuple(var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")
                   if var not in os.environ)
    os.environ.update(dict.fromkeys(PINNED, "1"))

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pulsecancel as pc  # noqa: E402  (this checkout's, from src/)
from pulsecancel import ahet, anls, scenario  # noqa: E402
from pulsecancel.types import record_stages  # noqa: E402

DURATION_S = 280.0
FAMILY, SEED = "masking-b", 0
CPI_S, STEP_S = 20.0, 1.0
REPEATS = 15
TRACES = {"conventional": pc.conventional_trace,
          "eca": pc.eca_conventional_trace, "ahet": pc.ahet_trace}
# the tier-1 suite as ROADMAP.md states it, PYTHONPATH=src set by tier1()
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
# outcomes that are tests, in pytest's summary line ("3 passed, 1 failed")
TEST_OUTCOMES = ("passed", "failed", "skipped", "xfailed", "xpassed",
                 "error", "errors")


class Stages:
    """A record_stages sink for one method's run: each stage's total
    seconds and calls, named <method>.<stage>, and, when traced, its
    largest tracemalloc peak above what was held at the call."""

    def __init__(self, method: str, traced: bool = False):
        self.method, self.traced = method, traced
        self.seconds, self.calls, self.peak = {}, {}, {}

    def __call__(self, name, fn, *args):
        name = f"{self.method}.{name}"
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


def run(path, stages: Stages) -> float:
    """The wall clock of stages.method's run on the record at path, its
    stages reported to stages."""
    with record_stages(stages):
        t0 = time.perf_counter()
        TRACES[stages.method](pc.cube_phase(
            stages("read", pc.read_raw_cube, path)), CPI_S, STEP_S)
        return time.perf_counter() - t0


def _factor_build(fs):
    """The breathing grid's factor at breathing_track's defaults, built
    from a cold cache."""
    anls._factored_bases.cache_clear()
    return anls._factored_bases(scenario.window_samples(5.0, fs), fs, 3,
                                tuple(anls.BREATHING_GRID_HZ))


def _clear_caches():
    """Empty every lru_cache of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "pulsecancel" or name.startswith("pulsecancel."):
            for fn in vars(module).values():
                if (getattr(fn, "__module__", None) == name
                        and hasattr(fn, "cache_clear")):
                    fn.cache_clear()


def _kept(path, method: str) -> int:
    """The bytes method's run on the record at path leaves held when it
    starts from cold caches (tracemalloc running)."""
    _clear_caches()
    held = tracemalloc.get_traced_memory()[0]
    run(path, Stages(method))
    return tracemalloc.get_traced_memory()[0] - held


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _peak(fn, *args) -> int:
    """fn(*args)'s tracemalloc peak above what was held when it was
    called."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn(*args)
    return tracemalloc.get_traced_memory()[1] - held


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
        tracemalloc.start()
        try:
            kept = {method: _kept(path, method) for method in TRACES}
        finally:
            tracemalloc.stop()
        # one untimed run per method fills the library's caches
        for method in TRACES:
            run(path, Stages(method))

        # each repeat runs every method once, so a slow spell of the host
        # is shared out rather than landing on one method
        builds, runs = [], {method: [] for method in TRACES}
        for _ in range(repeats):
            builds.append(_seconds(_factor_build, fs))
            for method, timed in runs.items():
                stages = Stages(method)
                timed.append((run(path, stages), stages))

        traced, run_peaks = {}, {}
        tracemalloc.start()
        try:
            build_peak = _peak(_factor_build, fs)
            for method in TRACES:
                traced[method] = Stages(method, traced=True)
                run(path, traced[method])
                run_peaks[method] = _peak(run, path, Stages(method))
        finally:
            tracemalloc.stop()

    stages = {"factor_build": {"wall_s": _spread(builds),
                               "peak_bytes": build_peak, "calls": 1}}
    methods = {}
    for method, timed in runs.items():
        first = timed[0][1]
        for name in first.seconds:
            stages[name] = {
                "wall_s": _spread([s.seconds[name] for _, s in timed]),
                "peak_bytes": traced[method].peak[name],
                "calls": first.calls[name]}
        methods[method] = {
            "wall_s": _spread([wall for wall, _ in timed]),
            "peak_bytes": run_peaks[method],
            "kept_bytes": kept[method],
            "stages": list(first.seconds),
            "unattributed_share": [1.0 - sum(s.seconds.values()) / wall
                                   for wall, s in timed]}
    return {
        "schema": "pulsecancel stage record 3",
        "workload": {"family": FAMILY, "seed": SEED,
                     "duration_s": duration_s, "frames": header.frames,
                     "fast_time": header.fast_time, "cpi_s": CPI_S,
                     "step_s": STEP_S,
                     "windows": len(scenario.window_starts(
                         header.frames, fs, CPI_S, STEP_S)),
                     "block_windows": ahet._BLOCK, "repeats": repeats},
        "machine": machine(),
        "stages": stages,
        "runs": methods,
    }


def tier1() -> dict:
    """One run of the tier-1 suite from the checkout's root: its wall
    clock, the counts of pytest's summary line and their tests, and its
    exit status."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get(
        "PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT,
                          capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    outcomes = {word: int(count) for count, word in re.findall(
        r"(\d+) (\w+)", lines[-1] if lines else "")}
    return {"command": ["python", *TIER1], "wall_s": wall,
            "outcomes": outcomes,
            "tests": sum(outcomes.get(k, 0) for k in TEST_OUTCOMES),
            "exit_status": proc.returncode}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path,
                   help="JSON file to write, BENCH_<n>.json for change n")
    p.add_argument("--tier1", action="store_true",
                   help="also run the tier-1 suite once and record its "
                        "wall clock and test count (needs pytest)")
    args = p.parse_args(argv)
    doc = record()
    if args.tier1:
        doc["tier1"] = tier1()
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["stages"].items():
        print(f"{name:24s} {entry['wall_s']['median'] * 1e3:9.3f} ms "
              f"{entry['peak_bytes'] / 1e6:8.3f} MB  x{entry['calls']}")
    for name, entry in doc["runs"].items():
        print(f"run.{name:20s} {entry['wall_s']['median'] * 1e3:9.3f} ms "
              f"{entry['peak_bytes'] / 1e6:8.3f} MB  kept "
              f"{entry['kept_bytes'] / 1e6:.3f} MB  unattributed "
              f"{statistics.median(entry['unattributed_share']):.1%}")
    if args.tier1:
        suite = doc["tier1"]
        print(f"tier1 {suite['wall_s']:.1f} s, {suite['tests']} tests "
              f"{suite['outcomes']}, exit {suite['exit_status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
