"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans and counters.

The tracer replaces pulsecancel functions at every module attribute (and
every ``bench.METHODS`` entry) that refers to them, so a call resolved
through any caller's namespace records a span.  Spans stay in memory until
the run writes them out.  Self time is a span's duration minus the time its
child spans cover; calls are single-threaded, so children never overlap.
"""

import inspect
import json
import math
import time
from collections import Counter, defaultdict

# (layer module, public function) pairs that become spans.  Helpers such as
# harmonic_matrix, lag_matrix or the private per-window drivers are not
# wrapped: their time counts toward the calling span's self time.
SPAN_FUNCTIONS = (
    ("scenario", "synthesize_radar_cube"),
    ("scenario", "scenario_slow_time"),
    ("ingest", "read_raw_cube"),
    ("ingest", "write_raw_cube"),
    ("preprocess", "range_profiles"),
    ("preprocess", "detect_target_bin"),
    ("preprocess", "enhance_phase"),
    ("preprocess", "extract_phase"),
    ("anls", "breathing_track"),
    ("anls", "fit_amplitudes"),
    ("anls", "reconstruct_reference"),
    ("eca", "eca_cancel"),
    ("spectral", "power_spectrum"),
    ("spectral", "top_peaks"),
    ("ahet", "ahet_trace"),
    ("ahet", "eca_conventional_trace"),
    ("ahet", "conventional_trace"),
    ("ahet", "ahet_step"),
    ("bench", "monte_carlo"),
    ("bench", "rmse"),
    ("bench", "interval_rmse"),
)

DRIVERS = ("ahet.ahet_trace", "ahet.eca_conventional_trace",
           "ahet.conventional_trace")

# name -> (unit, better, how it is measured, end-to-end metric it should
# move and on which workload).  "self" is span self time summed over calls;
# "total" includes child spans; "computed" counts come from array and file
# sizes, not from a clock.
LAYER_METRICS = {
    "ingest.read_s": ("s", "lower", "self time of read_raw_cube (page-cache reads, not disk)",
                      "realtime_x, peak_mb on cube-run"),
    "ingest.read_bytes": ("bytes", "lower", "computed: cube payload bytes read",
                          "realtime_x, peak_mb on cube-run"),
    "ingest.write_s": ("s", "lower", "self time of write_raw_cube during set-up",
                       "none (set-up cost on cube-run)"),
    "preprocess.range_fft_s": ("s", "lower", "self time of range_profiles",
                               "realtime_x, peak_mb on cube-run"),
    "preprocess.range_fft_flops": ("flop", "lower",
                                   "computed: 5 N log2 N per frame, N fast-time samples",
                                   "realtime_x on cube-run"),
    "preprocess.range_fft_bytes": ("bytes", "lower",
                                   "computed: cube + windowed copy + spectra + clutter_removed",
                                   "realtime_x, peak_mb on cube-run"),
    "preprocess.detect_s": ("s", "lower", "self time of detect_target_bin",
                            "realtime_x on cube-run"),
    "preprocess.enhance_s": ("s", "lower", "self time of enhance_phase (extract_phase excluded)",
                             "realtime_x on cube-run"),
    "preprocess.extract_s": ("s", "lower", "self time of extract_phase",
                             "realtime_x on cube-run"),
    "preprocess.extract_calls": ("count", "lower", "calls of extract_phase",
                                 "realtime_x on cube-run"),
    "anls.track_s": ("s", "lower", "self time of breathing_track (grid scoring)",
                     "realtime_x on phase-survey; window_p50_ms/window_p99_ms on stream-windows"),
    "anls.track_calls": ("count", "lower", "calls of breathing_track",
                         "realtime_x on phase-survey; window latency on stream-windows"),
    "anls.fit_s": ("s", "lower", "self time of fit_amplitudes",
                   "realtime_x on phase-survey; window latency on stream-windows"),
    "anls.fit_calls": ("count", "lower", "calls of fit_amplitudes",
                       "realtime_x on phase-survey; window latency on stream-windows"),
    "anls.reference_s": ("s", "lower", "self time of reconstruct_reference",
                         "window latency on stream-windows"),
    "anls.grid_scores": ("count", "lower", "computed: subwindows x grid frequencies",
                         "realtime_x on phase-survey; window latency on stream-windows"),
    "eca.cancel_s": ("s", "lower", "self time of eca_cancel",
                     "realtime_x on phase-survey and cube-run; window latency on stream-windows"),
    "eca.calls": ("count", "lower", "calls of eca_cancel",
                  "realtime_x on phase-survey and cube-run"),
    "eca.ridge_share": ("ratio", "lower", "eca_cancel calls with ridge_epsilon > 0 / calls",
                        "ahet_rmse_bpm"),
    "eca.degenerate_share": ("ratio", "lower", "degenerate eca_cancel results / calls",
                             "ahet_rmse_bpm"),
    "spectral.spectrum_s": ("s", "lower", "self time of power_spectrum",
                            "realtime_x, mostly on phase-survey"),
    "spectral.spectrum_calls": ("count", "lower", "calls of power_spectrum",
                                "realtime_x, mostly on phase-survey"),
    "spectral.fft_points": ("count", "lower", "computed: sum of n_fft over spectra",
                            "realtime_x, mostly on phase-survey"),
    "spectral.peaks_s": ("s", "lower", "self time of top_peaks",
                         "realtime_x, mostly on phase-survey"),
    "spectral.peaks_calls": ("count", "lower", "calls of top_peaks",
                             "realtime_x, mostly on phase-survey"),
    "ahet.ahet_trace_s": ("s", "lower", "total time of ahet_trace",
                          "realtime_x on phase-survey and cube-run"),
    "ahet.eca_trace_s": ("s", "lower", "total time of eca_conventional_trace",
                         "realtime_x on phase-survey"),
    "ahet.conventional_trace_s": ("s", "lower", "total time of conventional_trace",
                                  "realtime_x on phase-survey"),
    "ahet.driver_self_s": ("s", "lower", "self time of the three trace drivers",
                           "realtime_x on phase-survey and cube-run"),
    "ahet.step_s": ("s", "lower", "self time of ahet_step (top_peaks excluded)",
                    "realtime_x on phase-survey and cube-run; window latency on stream-windows"),
    "ahet.steps": ("count", "lower", "calls of ahet_step",
                   "realtime_x on phase-survey and cube-run"),
    "ahet.reliable_share": ("ratio", "higher", "tracker windows tagged reliable / windows",
                            "ahet_rmse_bpm on every workload"),
    "ahet.refined_share": ("ratio", "lower", "tracker windows tagged refined / windows",
                           "ahet_rmse_bpm on every workload"),
    "ahet.held_share": ("ratio", "lower", "tracker windows with an infinite gap / windows",
                        "ahet_rmse_bpm on every workload"),
    "scenario.slow_time_s": ("s", "lower", "self time of scenario_slow_time",
                             "realtime_x on phase-survey (inside monte_carlo)"),
    "scenario.cube_s": ("s", "lower", "self time of synthesize_radar_cube during set-up",
                        "none (set-up cost on cube-run)"),
    "bench.score_s": ("s", "lower", "self time of rmse and interval_rmse",
                      "realtime_x on phase-survey"),
    "bench.survey_self_s": ("s", "lower", "self time of monte_carlo",
                            "realtime_x on phase-survey"),
    "trace.spans": ("count", "lower", "spans recorded in the traced pass",
                    "none (tracing cost)"),
    "trace.overhead": ("ratio", "higher", "traced / untraced realtime_x",
                       "none (tracing cost)"),
}

SELF_TIMES = {
    "ingest.read_s": ("ingest.read_raw_cube",),
    "ingest.write_s": ("ingest.write_raw_cube",),
    "preprocess.range_fft_s": ("preprocess.range_profiles",),
    "preprocess.detect_s": ("preprocess.detect_target_bin",),
    "preprocess.enhance_s": ("preprocess.enhance_phase",),
    "preprocess.extract_s": ("preprocess.extract_phase",),
    "anls.track_s": ("anls.breathing_track",),
    "anls.fit_s": ("anls.fit_amplitudes",),
    "anls.reference_s": ("anls.reconstruct_reference",),
    "eca.cancel_s": ("eca.eca_cancel",),
    "spectral.spectrum_s": ("spectral.power_spectrum",),
    "spectral.peaks_s": ("spectral.top_peaks",),
    "ahet.driver_self_s": DRIVERS,
    "ahet.step_s": ("ahet.ahet_step",),
    "scenario.slow_time_s": ("scenario.scenario_slow_time",),
    "scenario.cube_s": ("scenario.synthesize_radar_cube",),
    "bench.score_s": ("bench.rmse", "bench.interval_rmse"),
    "bench.survey_self_s": ("bench.monte_carlo",),
}
TOTAL_TIMES = {
    "ahet.ahet_trace_s": "ahet.ahet_trace",
    "ahet.eca_trace_s": "ahet.eca_conventional_trace",
    "ahet.conventional_trace_s": "ahet.conventional_trace",
}
CALLS = {
    "preprocess.extract_calls": "preprocess.extract_phase",
    "anls.track_calls": "anls.breathing_track",
    "anls.fit_calls": "anls.fit_amplitudes",
    "eca.calls": "eca.eca_cancel",
    "spectral.spectrum_calls": "spectral.power_spectrum",
    "spectral.peaks_calls": "spectral.top_peaks",
    "ahet.steps": "ahet.ahet_step",
}
COUNTERS = ("ingest.read_bytes", "preprocess.range_fft_flops",
            "preprocess.range_fft_bytes", "anls.grid_scores",
            "spectral.fft_points")


def _argument(fn, args, kwargs, name):
    """Value of one argument of a call to fn (the original, not a wrapper)."""
    fn = getattr(fn, "__wrapped__", fn)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_read(pc, counters, args, kwargs, result):
    counters["ingest.read_bytes"] += result.iq.size * 4   # int16 I and Q


def _count_range_fft(pc, counters, args, kwargs, result):
    cube = _argument(pc.preprocess.range_profiles, args, kwargs, "cube")
    frames, n = cube.iq.shape
    counters["preprocess.range_fft_flops"] += int(frames * 5 * n * math.log2(n))
    spectra = result.values if result.values.base is None else result.values.base
    moved = cube.iq.nbytes + 2 * spectra.nbytes
    clutter = getattr(result, "clutter_removed", None)
    if clutter is not None:
        moved += clutter.nbytes
    counters["preprocess.range_fft_bytes"] += int(moved)


def _count_grid(pc, counters, args, kwargs, result):
    grid = _argument(pc.anls.breathing_track, args, kwargs, "grid")
    counters["anls.grid_scores"] += len(result) * pc.anls.grid_frequencies(*grid).size


def _count_eca(pc, counters, args, kwargs, result):
    counters["eca.ridge"] += result.ridge_epsilon > 0
    counters["eca.degenerate"] += bool(result.degenerate)


def _count_spectrum(pc, counters, args, kwargs, result):
    n = int(round(result.window_seconds * result.sample_rate))
    counters["spectral.fft_points"] += n * result.zero_pad_factor


def _count_ahet_trace(pc, counters, args, kwargs, result):
    for entry in result:
        count_tracker_window(counters, entry.tag, entry.delta_hz)


def count_tracker_window(counters, tag, delta_hz):
    counters["ahet.windows"] += 1
    counters["ahet.reliable"] += tag.startswith("reliable")
    counters["ahet.refined"] += tag == "refined"
    counters["ahet.held"] += math.isinf(delta_hz)


RESULT_HOOKS = {
    "ingest.read_raw_cube": _count_read,
    "preprocess.range_profiles": _count_range_fft,
    "anls.breathing_track": _count_grid,
    "eca.eca_cancel": _count_eca,
    "spectral.power_spectrum": _count_spectrum,
    "ahet.ahet_trace": _count_ahet_trace,
}


class Tracer:
    """Records spans while ``active`` is set; patches undone by restore()."""

    def __init__(self, pc):
        self.pc = pc
        self.spans = []            # [name, start_ns, end_ns, parent, op]
        self.counters = Counter()
        self.active = False
        self.op = -1
        self._stack = []
        self._patches = []

    def install(self):
        modules = [getattr(self.pc, name) for name in dir(self.pc)
                   if inspect.ismodule(getattr(self.pc, name))]
        modules.append(self.pc)
        methods = self.pc.bench.METHODS
        for layer, fname in SPAN_FUNCTIONS:
            original = getattr(getattr(self.pc, layer), fname)
            wrapped = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
            for key, value in list(methods.items()):
                if value is original:
                    self._patches.append((methods, key, original))
                    methods[key] = wrapped

    def restore(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def span(self, name):
        """Context manager recording one span opened by the benchmark."""
        return _Span(self, name)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def _wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            # the hook runs inside the span, so its cost is charged to the
            # traced function and never to the caller's self time
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.pc, self.counters, args, kwargs, result)
            finally:
                self._close(index)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name, self.index = tracer, name, None

    def __enter__(self):
        if self.tracer.active:
            self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.tracer._close(self.index)
        return False


def self_times_ns(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_name, start, end, _parent, _op) in enumerate(spans)]


def layer_metrics(spans, counters):
    """Per-layer metric values (without trace.overhead) from one pass."""
    self_ns = self_times_ns(spans)
    self_by, total_by, calls_by = defaultdict(int), defaultdict(int), Counter()
    for (name, start, end, _parent, _op), own in zip(spans, self_ns):
        self_by[name] += own
        total_by[name] += end - start
        calls_by[name] += 1
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_by[n] for n in names) / 1e9
    for metric, name in TOTAL_TIMES.items():
        out[metric] = total_by[name] / 1e9
    for metric, name in CALLS.items():
        out[metric] = calls_by[name]
    for metric in COUNTERS:
        out[metric] = int(counters[metric])
    eca_calls = calls_by["eca.eca_cancel"]
    out["eca.ridge_share"] = counters["eca.ridge"] / eca_calls if eca_calls else 0.0
    out["eca.degenerate_share"] = (counters["eca.degenerate"] / eca_calls
                                   if eca_calls else 0.0)
    windows = counters["ahet.windows"]
    for share in ("reliable", "refined", "held"):
        out[f"ahet.{share}_share"] = (counters[f"ahet.{share}"] / windows
                                      if windows else 0.0)
    out["trace.spans"] = len(spans)
    return out
