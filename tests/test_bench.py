"""Trace scoring, Monte Carlo survey persistence, and timing."""

import json
import weakref

import numpy as np
import pytest

import pulsecancel.ahet as ahet_mod
import pulsecancel.bench as bench_mod
from pulsecancel.bench import (BenchReport, RunRecord, interval_rmse,
                               monte_carlo, rmse, time_profile, write_report)
from pulsecancel.scenario import (FAMILIES, Scenario, reference_trace,
                                  synthesize_radar_cube)
from pulsecancel.types import HrTrace, TraceEntry
from test_cli import fresh_python


def make_trace(times, bpm, tag="x"):
    trace = HrTrace()
    for t, v in zip(times, bpm):
        trace.append(TraceEntry(float(t), float(v), tag))
    return trace


class TestRmse:
    def test_hand_case(self):
        est = make_trace([1.0, 2.0, 3.0], [70.0, 72.0, 74.0])
        ref = make_trace([1.0, 2.0, 3.0], [71.0, 71.0, 71.0])
        assert rmse(est, ref) == pytest.approx(np.sqrt(11.0 / 3.0))

    def test_nearest_pairing_tolerates_sub_step_offsets(self):
        est = make_trace([1.4, 2.4, 3.4], [70.0, 70.0, 70.0])
        ref = make_trace([1.0, 2.0, 3.0, 4.0], [70.0, 70.0, 70.0, 70.0])
        assert rmse(est, ref) == 0.0

    def test_disjoint_supports_raise(self):
        est = make_trace([100.0, 101.0], [70.0, 70.0])
        ref = make_trace([1.0, 2.0], [70.0, 70.0])
        with pytest.raises(ValueError, match="no overlapping"):
            rmse(est, ref)

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(make_trace([], []), make_trace([1.0], [70.0]))

    def test_pairing_matches_the_per_entry_loop(self):
        rng = np.random.default_rng(3)
        cases = [(np.arange(10.0, 270.0), np.arange(7.5, 272.5)),
                 (np.array([1.5, 2.5, 9.0]), np.array([1.0, 2.0, 3.0])),
                 (np.array([5.0]), np.array([4.0, 6.0])),
                 (np.sort(rng.uniform(0, 50, 40)), np.arange(0.0, 50.0, 2.0))]
        for t_est, t_ref in cases:
            est = make_trace(t_est, rng.uniform(60, 90, t_est.size))
            ref = make_trace(t_ref, rng.uniform(60, 90, t_ref.size))
            got = bench_mod._pair_times(est, ref)
            want = loop_pair_times(est, ref)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def loop_pair_times(trace, reference):
    """The per-entry form of bench._pair_times, kept as its reference."""
    t_est, v_est = trace.times(), trace.bpm()
    t_ref, v_ref = reference.times(), reference.bpm()
    steps = [np.median(np.diff(t)) for t in (t_est, t_ref) if t.size > 1]
    tol = max(steps) / 2.0 if steps else np.inf
    order = np.searchsorted(t_ref, t_est)
    pairs_est, pairs_ref, pairs_t = [], [], []
    for i, t in enumerate(t_est):
        j = min(order[i], t_ref.size - 1)
        if j > 0 and abs(t_ref[j - 1] - t) < abs(t_ref[j] - t):
            j -= 1
        if abs(t_ref[j] - t) <= tol + 1e-12:
            pairs_est.append(v_est[i])
            pairs_ref.append(v_ref[j])
            pairs_t.append(t)
    return np.array(pairs_est), np.array(pairs_ref), np.array(pairs_t)


def loop_interval_rmse(trace, reference):
    """interval_rmse as a walk over every interval up to the last paired
    time, kept as its reference."""
    est, ref, times = loop_pair_times(trace, reference)
    start_s, interval_s = bench_mod.INTERVAL_START_S, bench_mod.INTERVAL_S
    rows = []
    k = 0
    while start_s + k * interval_s <= times.max():
        lo, hi = start_s + k * interval_s, start_s + (k + 1) * interval_s
        sel = (times >= lo) & (times < hi)
        if sel.any():
            err = est[sel] - ref[sel]
            rows.append((lo, hi, float(np.sqrt(np.mean(err ** 2))),
                         int(sel.sum())))
        k += 1
    return rows


class TestIntervalRmse:
    def test_rows_partition_the_record(self):
        times = np.arange(10.0, 90.0, 8.0)
        est = make_trace(times, 70.0 + np.arange(10.0) % 2)
        ref = make_trace(times, np.full(10, 70.0))
        rows = interval_rmse(est, ref)
        assert [(r.lo_s, r.hi_s, r.count) for r in rows] \
            == [(10.0, 50.0, 5), (50.0, 90.0, 5)]
        # unit errors sit at odd indices: two in [10, 50), three in [50, 90)
        assert rows[0].rmse_bpm == pytest.approx(np.sqrt(2.0 / 5.0))
        assert rows[1].rmse_bpm == pytest.approx(np.sqrt(3.0 / 5.0))

    def test_empty_intervals_are_omitted(self):
        # nothing in [50, 90); the 5 s sample is before the first interval
        est = make_trace([5.0, 20.0, 30.0, 100.0], [70.0] * 4)
        ref = make_trace([5.0, 20.0, 30.0, 100.0], [70.0] * 4)
        rows = interval_rmse(est, ref)
        assert [(r.lo_s, r.hi_s, r.count) for r in rows] \
            == [(10.0, 50.0, 2), (90.0, 130.0, 1)]

    @pytest.mark.parametrize("times", [
        [1e300, 2e300, 3e300], [10.0, 11.0, 12.0, 1e300],
        [bench_mod.INTERVAL_S * 2.0 ** 53]],
        ids=["near-1e300", "one-late-sample", "first-index-of-2^53"])
    def test_times_too_late_to_number_raise(self, times):
        # from 40 * 2^53 s on the interval index reaches 2^53, where
        # float64 no longer holds every integer; one such time refuses the
        # whole trace
        trace = make_trace(times, [70.0] * len(times))
        with pytest.raises(ValueError, match=r"^40\.0 s intervals from "
                                             r"10\.0 s cannot number the "
                                             r"paired times exactly$"):
            interval_rmse(trace, trace)

    def test_the_last_numbered_time_gets_its_row(self):
        # the float below 40 * 2^53 s still has an index under 2^53
        t = np.nextafter(bench_mod.INTERVAL_S * 2.0 ** 53, 0.0)
        trace = make_trace([t], [70.0])
        [row] = interval_rmse(trace, trace)
        assert row.lo_s <= t < row.hi_s
        assert (row.rmse_bpm, row.count) == (0.0, 1)

    @pytest.mark.parametrize("index", [2 ** 51, 2 ** 52, 7 * 2 ** 49],
                             ids=["2^51", "2^52", "7x2^49"])
    def test_late_edges_bracket_their_times(self, index):
        # from index 2^51 on (times near 9.0e16 s) floor((t - 10) / 40)
        # puts some times within two ulps of an edge one interval too high
        # (at 2^51 and 2^52) or too low (at 7 x 2^49); the edges themselves
        # decide, so each single-time trace's row brackets its time
        edges = bench_mod.INTERVAL_START_S + (
            index + np.arange(50.0)) * bench_mod.INTERVAL_S
        near = [edges]
        for direction in (np.inf, -np.inf):
            step = edges
            for _ in range(2):
                step = np.nextafter(step, direction)
                near.append(step)
        for t in np.unique(np.concatenate(near)).tolist():
            trace = make_trace([t], [70.0])
            [row] = interval_rmse(trace, trace)
            assert row.lo_s <= t < row.hi_s, t

    def test_unpaired_estimates_fall_in_no_interval(self):
        # the 80 s estimate has no reference near it; it raised IndexError
        est = make_trace([10.0, 11.0, 12.0, 13.0, 80.0], [71.0] * 5)
        ref = make_trace([10.0, 11.0, 12.0, 13.0], [70.0] * 4)
        rows = interval_rmse(est, ref)
        assert [(r.lo_s, r.hi_s, r.rmse_bpm, r.count) for r in rows] \
            == [(10.0, 50.0, 1.0, 4)]

    def test_a_last_sample_on_an_edge_counts(self):
        # the 50 s sample opens the second interval; it was left out
        est = make_trace([10.0, 30.0, 50.0], [70.0, 70.0, 73.0])
        ref = make_trace([10.0, 30.0, 50.0], [70.0] * 3)
        rows = interval_rmse(est, ref)
        assert [(r.lo_s, r.hi_s, r.rmse_bpm, r.count) for r in rows] \
            == [(10.0, 50.0, 0.0, 2), (50.0, 90.0, 3.0, 1)]

    @pytest.mark.parametrize("index", [
        np.r_[np.arange(-3, 40), np.arange(997, 1001)],
        np.arange(-40, 0),
        np.arange(997, 1001),
        np.r_[np.arange(-3, 3), np.arange(9997, 10001)]],
        ids=["around-the-start", "all-before-the-start", "a-thousand-on",
             "ten-thousand-on"])
    def test_rows_are_the_walk_over_every_interval(self, index):
        # times on and next to the 40 s edges of the intervals `index`
        # names, and between them; some may fall before the first interval
        rng = np.random.default_rng(7)
        edges = bench_mod.INTERVAL_START_S + index * bench_mod.INTERVAL_S
        times = np.unique(np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            rng.uniform(edges[0], edges[-1], 50)]))
        est = make_trace(times, rng.uniform(60, 90, times.size))
        ref = make_trace(times, rng.uniform(60, 90, times.size))
        rows = interval_rmse(est, ref)
        assert [(r.lo_s, r.hi_s, r.rmse_bpm, r.count) for r in rows] \
            == loop_interval_rmse(est, ref)


class TestBenchReport:
    def records(self):
        return [
            RunRecord(20.0, 0, "a", 1.0),
            RunRecord(20.0, 0, "b", 3.0),
            RunRecord(20.0, 1, "a", 2.0),
            RunRecord(20.0, 1, "b", float("nan"), error="ValueError: x"),
            RunRecord(15.0, 0, "a", 9.0),
        ]

    def test_median_skips_failed_runs(self):
        report = BenchReport("masking", 280.0, [0, 1], [20.0, 15.0],
                             ["a", "b"], records=self.records())
        assert report.median_rmse("a", 20.0) == 1.5
        assert report.median_rmse("b", 20.0) == 3.0
        assert np.isnan(report.median_rmse("b", 15.0))

    def test_paired_keeps_complete_seeds_only(self):
        report = BenchReport("masking", 280.0, [0, 1], [20.0], ["a", "b"],
                             records=self.records())
        assert report.paired("a", "b", 20.0) == [(1.0, 3.0)]


class TestMonteCarlo:
    def test_rejects_unknown_family_and_method(self):
        with pytest.raises(ValueError, match="unknown family"):
            monte_carlo("bogus", [0])
        with pytest.raises(ValueError, match="unknown method"):
            monte_carlo("masking-b", [0], methods=("bogus",))

    def test_a_cpi_longer_than_the_record_fails_before_any_method(
            self, monkeypatch):
        # CPI 15 ran for seed 0 before CPI 30 aborted the survey
        calls = []
        for name in bench_mod.METHODS:
            monkeypatch.setitem(bench_mod.METHODS, name,
                                lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="window of 3000 samples longer "
                                             "than record of 2000"):
            monte_carlo("masking-b", [0, 1], cpis=(15.0, 30.0),
                        methods=("conventional", "eca", "ahet"),
                        duration_s=20.0)
        assert calls == []

    def test_single_run_produces_scored_record(self):
        report = monte_carlo("masking-b", [0], cpis=(15.0,),
                             methods=("conventional",), duration_s=60.0)
        assert len(report.records) == 1
        record = report.records[0]
        assert record.error is None
        assert np.isfinite(record.rmse_bpm)
        assert record.intervals
        assert report.family == "masking-b"

    def test_the_complex_signal_dies_before_the_methods_run(
            self, monkeypatch):
        # each record's 28,000-sample complex128 signal was held through
        # every CPI and method of the record (448 kB at 280 s)
        signals, alive = [], []
        original = bench_mod.scenario_slow_time

        def rendering(scenario):
            z = original(scenario)
            signals.append(weakref.ref(z))
            return z

        def method(phase, cpi_s, **kwargs):
            alive.append(signals[-1]() is not None)
            return reference_trace(FAMILIES["masking-b"](0, duration_s=20.0),
                                   cpi_s)

        monkeypatch.setattr(bench_mod, "scenario_slow_time", rendering)
        monkeypatch.setitem(bench_mod.METHODS, "conventional", method)
        monte_carlo("masking-b", [0, 1], cpis=(15.0,),
                    methods=("conventional",), duration_s=20.0)
        assert alive == [False, False]


class TestSortMedians:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 101])
    def test_median_is_np_median_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.normal(size=size), rng.integers(0, 3, size) * 0.1,
                       np.full(size, 1e300), np.r_[rng.normal(size=size),
                                                   -np.inf, np.inf]):
            got, want = bench_mod._median(values), float(np.median(values))
            assert np.array_equal(got, want, equal_nan=True), values
        with_nan = np.r_[rng.normal(size=size), np.nan]
        assert np.isnan(bench_mod._median(with_nan))

    @pytest.mark.parametrize("size", [0, 1, 2, 9, 200])
    def test_unique_is_np_unique(self, size):
        values = np.floor(np.random.default_rng(size).normal(size=size) * 3)
        got = bench_mod._unique(values)
        assert got.tobytes() == np.unique(values).tobytes()
        assert got.dtype == np.unique(values).dtype


def count_track_fits(monkeypatch, fail=False):
    """Count breathing_track calls made through bench or ahet; with fail,
    each call raises instead."""
    calls = []
    original = bench_mod.breathing_track

    def counting(*args, **kwargs):
        calls.append(1)
        if fail:
            raise ValueError("injected track failure")
        return original(*args, **kwargs)

    for module in (bench_mod, ahet_mod):
        monkeypatch.setattr(module, "breathing_track", counting)
    return calls


SURVEY = dict(cpis=(15.0, 20.0, 30.0), duration_s=40.0)


class TestSharedTrack:
    @pytest.mark.parametrize("methods, fits", [
        (("conventional", "eca", "ahet"), 1),
        (("ahet",), 1),
        (("conventional",), 0),
    ])
    def test_one_track_fit_per_record(self, monkeypatch, methods, fits):
        calls = count_track_fits(monkeypatch)
        report = monte_carlo("masking-b", [0, 1], methods=methods, **SURVEY)
        assert len(calls) == 2 * fits
        assert all(r.error is None for r in report.records)

    def test_failed_track_fails_each_cancelling_run(self, monkeypatch):
        count_track_fits(monkeypatch, fail=True)
        report = monte_carlo("masking-b", [0],
                             methods=("conventional", "eca", "ahet"),
                             **SURVEY)
        assert len(report.records) == 9
        for r in report.records:
            if r.method == "conventional":
                assert r.error is None
                assert np.isfinite(r.rmse_bpm)
            else:
                assert r.error == "ValueError: injected track failure"
                assert np.isnan(r.rmse_bpm)


def count_band_power(monkeypatch):
    """Count the trace drivers' band_power calls."""
    calls = []
    original = ahet_mod.band_power

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ahet_mod, "band_power", counting)
    return calls


class TestSharedCancellation:
    @pytest.mark.parametrize("methods", [("conventional", "eca", "ahet"),
                                         ("ahet", "conventional", "eca")])
    def test_one_call_per_record_returning_its_trace(self, monkeypatch,
                                                     methods):
        # perfbench's phase-survey wraps each METHODS entry this way and
        # reads the calls back against the records, in order
        calls = []
        for name, fn in list(bench_mod.METHODS.items()):
            def recording(phase, cpi_s=20.0, _name=name, _fn=fn, **kwargs):
                trace = _fn(phase, cpi_s=cpi_s, **kwargs)
                calls.append((_name, cpi_s, trace))
                return trace
            monkeypatch.setitem(bench_mod.METHODS, name, recording)
        band_power = count_band_power(monkeypatch)
        report = monte_carlo("masking-b", [0, 1], methods=methods, **SURVEY)
        assert [(name, cpi_s) for name, cpi_s, _ in calls] \
            == [(r.method, r.cpi_s) for r in report.records]
        for (_, cpi_s, trace), record in zip(calls, report.records):
            assert record.error is None
            scenario = FAMILIES["masking-b"](record.seed, duration_s=40.0)
            assert rmse(trace, reference_trace(scenario, cpi_s)) \
                == record.rmse_bpm
        # 26, 21 and 11 windows make 2, 2 and 1 blocks per pass; each
        # seed runs a conventional pass and one eca and ahet share
        assert len(band_power) == 2 * 2 * (2 + 2 + 1)

    def test_time_profile_times_unshared_runs(self, monkeypatch):
        # 11 windows of 20 s: one block per run, warm-up and timed, so a
        # timed run that took a kept trace would leave a call out
        band_power = count_band_power(monkeypatch)
        cube = synthesize_radar_cube(Scenario(duration_s=30.0))
        time_profile(cube, methods=("conventional", "eca", "ahet"))
        assert len(band_power) == 2 * 3


class TestWriteReport:
    def make_report(self, timings=False):
        report = BenchReport("masking-b", 60.0, [0], [15.0],
                             ["conventional"],
                             records=[RunRecord(15.0, 0, "conventional", 1.25,
                                                intervals=[])])
        if timings:
            report.timings = time_profile(
                synthesize_radar_cube(Scenario(duration_s=30.0)),
                methods=("conventional",), cpi_s=15.0)
        return report

    def test_files_and_summary(self, tmp_path):
        write_report(self.make_report(), tmp_path / "out")
        outdir = tmp_path / "out"
        assert (outdir / "rmse.csv").exists()
        assert (outdir / "intervals.csv").exists()
        assert not (outdir / "timing.csv").exists()
        summary = json.loads((outdir / "report.json").read_text())
        assert summary["median_rmse_bpm"]["conventional@15s"] == 1.25
        assert summary["failed_runs"] == 0

    def test_a_median_with_no_completed_run_is_null(self, tmp_path):
        # strict JSON: the parser rejects NaN and Infinity
        report = BenchReport("masking-b", 30.0, [0], [4.0], ["ahet"],
                             records=[RunRecord(4.0, 0, "ahet", float("nan"),
                                                error="ValueError: short")])
        write_report(report, tmp_path / "out")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        summary = json.loads((tmp_path / "out" / "report.json").read_text(),
                             parse_constant=reject)
        assert summary["median_rmse_bpm"] == {"ahet@4s": None}
        assert summary["failed_runs"] == 1

    def test_accuracy_outputs_are_reproducible(self, tmp_path):
        report = self.make_report()
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        for name in ("rmse.csv", "intervals.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_timing_file_when_present(self, tmp_path):
        write_report(self.make_report(timings=True), tmp_path / "out")
        lines = (tmp_path / "out" / "timing.csv").read_text().splitlines()
        assert lines[0] == "method,seconds,normalized"
        assert lines[1].startswith("conventional,")


class TestTimeProfile:
    def test_normalizes_to_conventional(self):
        cube = synthesize_radar_cube(Scenario(duration_s=30.0))
        rows = time_profile(cube, methods=("conventional", "ahet"),
                            cpi_s=20.0)
        by_method = {r.method: r for r in rows}
        assert by_method["conventional"].normalized == 1.0
        assert by_method["ahet"].seconds > 0.0
        assert by_method["ahet"].normalized \
            == pytest.approx(by_method["ahet"].seconds
                             / by_method["conventional"].seconds)

    def test_rejects_unknown_method(self):
        cube = synthesize_radar_cube(Scenario(duration_s=30.0))
        with pytest.raises(ValueError, match="unknown method"):
            time_profile(cube, methods=("bogus",))


NO_MASKED_ARRAYS = """
import sys
import pulsecancel as pc
from pulsecancel.cli import main
from pulsecancel.scenario import FAMILIES

pc.monte_carlo("masking-b", [0], cpis=(15.0, 20.0),
               methods=("conventional", "eca", "ahet"), duration_s=30.0)
pc.write_raw_cube(pc.synthesize_radar_cube(
    FAMILIES["masking-c"](1, duration_s=30.0)), sys.argv[1])
assert main(["run", "--in", sys.argv[1], "--out", sys.argv[2]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_a_survey_and_a_trace_never_load_numpy_ma(tmp_path):
    # np.median and np.unique load numpy.ma (about 15 ms of a process's
    # import); bench imported it eagerly so no operation would load it
    done = fresh_python("-c", NO_MASKED_ARRAYS, str(tmp_path / "cube.bin"),
                        str(tmp_path / "trace.csv"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
