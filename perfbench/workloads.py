"""The benchmark's workloads: their inputs, one operation, output checks.

Every workload walks a fixed panel of simulator records.  Unit j of a run
with seed s uses panel slot (s + j) mod P; slot i is masking-b when i is
even and masking-c when odd, with scenario seed i, so seed 0 starts on the
masking-b seed-0 record.  Each run covers the whole panel at least once, so
the accuracy metrics are a function of the code alone and the timings
average over the same records whatever the seed.
"""

import contextlib
import math
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pulsecancel as pc
from tracer import count_tracker_window

FAMILIES = ("masking-b", "masking-c")
BPM_RANGE = (42.0, 120.0)
AHET_RMSE_BOUND_BPM = 2.0          # acceptance criterion C05
CPI_S = 20.0
STEP_S = 1.0
SURVEY_CPIS = (15.0, 20.0, 30.0)
SURVEY_METHODS = ("conventional", "eca", "ahet")

# workload -> (record seconds, panel records); the second entry is the
# smoke-test size
SIZES = {
    "cube-run": ((280.0, 8), (40.0, 2)),
    "phase-survey": ((280.0, 4), (40.0, 2)),
    "stream-windows": ((280.0, 4), (40.0, 2)),
}


CALIBRATE_EVERY_S = 0.25
_CAL_X = np.random.default_rng(0).normal(size=2000)
_CAL_A = np.random.default_rng(1).normal(size=(2000, 7))


def calibrate():
    """Seconds for a fixed mix of the work the pipeline does: a padded FFT,
    a thin QR, a Python loop and a fresh 8 MB array.  The best of three
    runs, so an interrupt in one does not count."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(2):
            np.fft.rfft(_CAL_X, 16000)
            np.linalg.qr(_CAL_A)
            sum(i * i for i in range(2000))
        np.ones(1_000_000).sum()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale_stages(stages, after):
    """Total seconds of an operation's stages, and the one calibration that
    scales the total as each stage was scaled.  Each stage is scaled by the
    mean of the readings taken right before and right after it; the one
    after the last stage is ``after``."""
    afters = [before for _t, before in stages[1:]] + [after]
    total = sum(t for t, _before in stages)
    scaled = sum(2.0 * t / (before + after_k)
                 for (t, before), after_k in zip(stages, afters))
    return total, total / scaled


def window_count(duration_s, cpi_s, step_s=STEP_S):
    return int(math.floor((duration_s - cpi_s) / step_s + 1e-9)) + 1


class Recorder:
    """Times operations and tallies attempts, failures and accuracy.

    The first operation a process runs is its cold operation and is timed
    apart from the rest.  When ``peak_next`` is set, the next operation runs
    under tracemalloc and is not timed.  Each timed operation is paired with
    a calibrate() reading taken at most CALIBRATE_EVERY_S before it, so the
    host's drifting speed can be divided out.  A long operation calls
    split() between its stages; each stage is then scaled by the readings
    taken right before and right after it, off the clock.  The cold
    operation is bracketed by readings the same way, split or not.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cold_s = None
        self.op_s = []
        self.op_windows = []
        self.op_cal_s = []
        self.cold_cal_s = None
        self._cal_s, self._cal_at = None, -math.inf
        self.radar_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.examples = []
        self.records = {}             # record key -> {"ahet": rmse, "eca": rmse}
        self.peak_next = False
        self.peak_bytes = None
        self._stages = None           # [(seconds, reading before)] in an op
        self._before = None
        self._stage_t0 = None

    def op(self, fn, radar_s, windows):
        """Run one operation; returns (result, exception or None)."""
        self.attempted += 1
        peak = self.peak_next
        cold = not peak and self.cold_s is None
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted
            tracer.active = True
        if peak:
            self.peak_next = False
            tracemalloc.start()
        result, error = None, None
        if not peak and time.perf_counter() - self._cal_at > CALIBRATE_EVERY_S:
            self._cal_s = calibrate()
            self._cal_at = time.perf_counter()
        self._stages = [] if not peak and tracer is None else None
        self._before = self._cal_s
        t0 = self._stage_t0 = time.perf_counter()
        try:
            with tracer.span("op") if tracer is not None else contextlib.nullcontext():
                result = fn()
        except Exception as exc:  # noqa: BLE001 - a failure is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        stages, self._stages = self._stages, None
        cal_s = self._cal_s
        if stages is not None and (stages or cold):
            stages.append((time.perf_counter() - self._stage_t0, self._before))
            self._cal_s = calibrate()
            self._cal_at = time.perf_counter()
            elapsed, cal_s = _scale_stages(stages, self._cal_s)
        if peak:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.cold_s = 0.0
        elif cold:
            self.cold_s = elapsed
            self.cold_cal_s = cal_s
        else:
            self.op_s.append(elapsed)
            self.op_cal_s.append(cal_s)
            self.op_windows.append(windows)
            self.radar_s += radar_s
        return result, error

    def split(self):
        """Between two stages of an operation: close the stage and take a
        calibration, off the clock, that brackets it and the next stage.
        Does nothing in a peak or traced operation."""
        if self._stages is None:
            return
        now = time.perf_counter()
        self._stages.append((now - self._stage_t0, self._before))
        self._cal_s = self._before = calibrate()
        self._cal_at = self._stage_t0 = time.perf_counter()

    def settle(self, reasons, example=""):
        """Count one operation as failed when any output check failed."""
        if reasons:
            self.failed += 1
            for reason in sorted(set(reasons)):
                self.reasons[reason] += 1
            if len(self.examples) < 20:
                self.examples.append(f"{example}: {'; '.join(reasons)}")

    def tracker_window(self, tag, delta_hz):
        if self.tracer is not None:
            count_tracker_window(self.tracer.counters, tag, delta_hz)

    def record(self, key, kind, value):
        """Store a record's RMSE; a revisited record must repeat it exactly."""
        entry = self.records.setdefault(key, {})
        if kind in entry and entry[kind] != value and not (
                math.isnan(entry[kind]) and math.isnan(value)):
            self.settle([f"{kind} RMSE not reproducible on a revisited record"],
                        key)
        entry[kind] = value

    def result(self):
        return {
            "cold_s": self.cold_s, "cold_cal_s": self.cold_cal_s,
            "op_s": self.op_s, "op_cal_s": self.op_cal_s,
            "op_windows": self.op_windows, "radar_s": self.radar_s,
            "attempted": self.attempted, "failed": self.failed,
            "reasons": dict(self.reasons), "examples": self.examples,
            "records": self.records, "peak_bytes": self.peak_bytes,
        }


def raised(error):
    return [f"raised {type(error).__name__}"] if error is not None else []


def trace_reasons(trace, reference):
    """Output checks shared by every workload."""
    if len(trace) != len(reference):
        return ["window count differs from reference_trace"]
    reasons = []
    if any(abs(a - b) > 1e-9 for a, b in zip(trace.times(), reference.times())):
        reasons.append("window centres differ from reference_trace")
    reasons += estimate_reasons(trace.bpm())
    return reasons


def estimate_reasons(bpm):
    if not all(math.isfinite(v) for v in bpm):
        return ["non-finite estimate"]
    lo, hi = BPM_RANGE
    if any(v < lo or v > hi for v in bpm):
        return ["estimate outside 42-120 BPM"]
    return []


def ahet_rmse_reasons(value):
    if value > AHET_RMSE_BOUND_BPM:
        return [f"ahet RMSE above {AHET_RMSE_BOUND_BPM:g} BPM"]
    return []


class Workload:
    name = ""

    def __init__(self, seed, tiny, inputs: Path, skip_extras=()):
        self.seed = seed
        self.duration_s, self.panel = SIZES[self.name][1 if tiny else 0]
        self.inputs = inputs
        # records whose untimed extras an earlier process already computed
        self.skip_extras = set(skip_extras)

    def slot(self, unit):
        return (self.seed + unit) % self.panel

    def scenario(self, slot):
        family = FAMILIES[slot % 2]
        return family, pc.scenario.FAMILIES[family](slot, duration_s=self.duration_s)

    def prepare(self):
        """Write the inputs the operations read (untimed set-up)."""

    def run_unit(self, unit, rec):
        raise NotImplementedError


class CubeRun(Workload):
    """One operation = cube file -> read_raw_cube -> cube_phase -> ahet_trace."""

    name = "cube-run"

    def path(self, slot):
        return self.inputs / f"cube-{slot}.bin"

    def prepare(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        for slot in range(self.panel):
            _family, scenario = self.scenario(slot)
            cube = pc.scenario.synthesize_radar_cube(scenario)
            pc.ingest.write_raw_cube(cube, self.path(slot))
            del cube
            # finish writeback now, not while later operations are timed
            with open(self.path(slot), "rb") as fh:
                os.fsync(fh.fileno())

    def run_unit(self, unit, rec):
        slot = self.slot(unit)
        family, scenario = self.scenario(slot)
        path = self.path(slot)

        def op():
            cube = pc.ingest.read_raw_cube(path)
            rec.split()
            phase = pc.preprocess.cube_phase(cube)
            rec.split()
            return phase, pc.ahet.ahet_trace(phase, cpi_s=CPI_S, step_s=STEP_S)

        windows = window_count(self.duration_s, CPI_S)
        out, error = rec.op(op, self.duration_s, windows)
        reasons = raised(error)
        key = f"{family}/{slot}"
        if out is not None:
            phase, trace = out
            reference = pc.scenario.reference_trace(scenario, CPI_S, STEP_S)
            reasons += trace_reasons(trace, reference)
            if not reasons:
                value = pc.bench.rmse(trace, reference)
                rec.record(key, "ahet", value)
                reasons += ahet_rmse_reasons(value)
            if key not in self.skip_extras \
                    and "eca" not in rec.records.get(key, {}):
                try:
                    eca = pc.ahet.eca_conventional_trace(phase, cpi_s=CPI_S,
                                                         step_s=STEP_S)
                    rec.record(key, "eca", pc.bench.rmse(eca, reference))
                except Exception as exc:  # noqa: BLE001
                    reasons += [f"eca baseline raised {type(exc).__name__}"]
        rec.settle(reasons, key)


class PhaseSurvey(Workload):
    """One operation = monte_carlo for one seed over masking-b and
    masking-c, CPIs 15/20/30 s, methods conventional, eca and ahet."""

    name = "phase-survey"

    def run_unit(self, unit, rec):
        seed = self.slot(unit)
        captured = []

        def op():
            with _capture(pc.bench.METHODS, captured, rec.split):
                return [pc.bench.monte_carlo(family, [seed], cpis=SURVEY_CPIS,
                                             methods=SURVEY_METHODS,
                                             duration_s=self.duration_s)
                        for family in FAMILIES]

        windows = len(FAMILIES) * len(SURVEY_METHODS) * sum(
            window_count(self.duration_s, cpi) for cpi in SURVEY_CPIS)
        reports, error = rec.op(op, len(FAMILIES) * self.duration_s, windows)
        reasons = raised(error)
        if reports is not None:
            runs = iter(captured)
            for family, report in zip(FAMILIES, reports):
                scenario = pc.scenario.FAMILIES[family](
                    seed, duration_s=self.duration_s)
                for record in report.records:
                    method, cpi_s, trace = next(runs)
                    key = f"{family}/{seed}/{cpi_s:g}/{record.method}"
                    if record.error is not None or trace is None:
                        reasons.append(f"{method} raised")
                        continue
                    reference = pc.scenario.reference_trace(scenario, cpi_s)
                    problems = trace_reasons(trace, reference)
                    if record.method == "ahet" and not problems:
                        problems += ahet_rmse_reasons(record.rmse_bpm)
                    if record.method in ("ahet", "eca") and not problems:
                        rec.record(key, record.method, record.rmse_bpm)
                    reasons += problems
        rec.settle(reasons, f"survey seed {seed}")


@contextlib.contextmanager
def _capture(methods, sink, split):
    """Keep each trace monte_carlo computes; it only returns their RMSE.
    ``split`` runs before each method call."""
    saved = dict(methods)

    def capturing(name, fn):
        def call(phase, cpi_s=CPI_S, **kwargs):
            split()
            try:
                trace = fn(phase, cpi_s=cpi_s, **kwargs)
            except BaseException:
                sink.append((name, cpi_s, None))
                raise
            sink.append((name, cpi_s, trace))
            return trace
        return call

    for name, fn in saved.items():
        methods[name] = capturing(name, fn)
    try:
        yield
    finally:
        methods.update(saved)


class StreamWindows(Workload):
    """One operation = one window of an online monitor following one
    subject: every 1 s the newest 20 s of slow-time phase goes through
    reconstruct_reference -> eca_cancel -> power_spectrum -> ahet_step."""

    name = "stream-windows"

    def run_unit(self, unit, rec):
        slot = self.slot(unit)
        family, scenario = self.scenario(slot)
        fs = scenario.radar.frame_rate_hz
        # input generation: the simulator's slow-time signal, no range FFT
        z = pc.scenario.scenario_slow_time(scenario)
        phase = pc.preprocess.slow_time_phase(z, fs)
        reference = pc.scenario.reference_trace(scenario, CPI_S, STEP_S)
        n_cpi = int(round(CPI_S * fs))
        state = pc.ahet.TrackerState()
        times, estimates, eca_estimates, window_reasons = [], [], [], []

        for i0 in pc.scenario.window_starts(phase.samples.size, fs, CPI_S,
                                            STEP_S):
            segment = phase.samples[i0:i0 + n_cpi]

            def op():
                window = pc.types.PhaseSignal(segment, fs)
                fit = pc.anls.reconstruct_reference(window)
                cancelled = pc.eca.eca_cancel(segment, fit.s_ref)
                spectrum = pc.spectral.power_spectrum(cancelled.cancelled, fs)
                return spectrum, pc.ahet.ahet_step(spectrum, state)

            out, error = rec.op(op, STEP_S, 1)
            reasons = raised(error)
            times.append(i0 / fs + CPI_S / 2.0)
            if out is None:
                # hold the last estimate, as ahet_trace does
                held = state.last_estimate_hz
                estimates.append(math.nan if held is None else held * 60.0)
                eca_estimates.append(math.nan)
                rec.tracker_window("refined", math.inf)
            else:
                spectrum, (f_hz, tag, delta, state) = out
                estimates.append(f_hz * 60.0)
                rec.tracker_window(tag, delta)
                try:
                    eca_estimates.append(
                        pc.ahet.conventional_hr(spectrum) * 60.0)
                except ValueError:
                    eca_estimates.append(math.nan)
                reasons += estimate_reasons([estimates[-1]])
            window_reasons.append(reasons)

        trace = _trace(times, estimates, "ahet")
        record_reasons = trace_reasons(trace, reference)
        key = f"{family}/{slot}"
        if not record_reasons:
            value = pc.bench.rmse(trace, reference)
            rec.record(key, "ahet", value)
            record_reasons += ahet_rmse_reasons(value)
        if all(math.isfinite(v) for v in eca_estimates):
            rec.record(key, "eca",
                       pc.bench.rmse(_trace(times, eca_estimates, "eca"),
                                     reference))
        for i, reasons in enumerate(window_reasons):
            rec.settle(reasons + record_reasons, f"{key} window {i}")


def _trace(times, bpm, tag):
    trace = pc.types.HrTrace()
    for time_s, value in zip(times, bpm):
        trace.append(pc.types.TraceEntry(time_s, value, tag))
    return trace


WORKLOADS = {cls.name: cls for cls in (CubeRun, PhaseSurvey, StreamWindows)}
