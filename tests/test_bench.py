"""Trace scoring, Monte Carlo survey persistence, and timing."""

import json

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


def loop_interval_rmse(trace, reference, interval_s, start_s):
    """interval_rmse as a walk over every interval up to the last paired
    time, kept as its reference."""
    est, ref, times = loop_pair_times(trace, reference)
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
        times = np.arange(10.0)
        est = make_trace(times, 70.0 + np.arange(10.0) % 2)
        ref = make_trace(times, np.full(10, 70.0))
        rows = interval_rmse(est, ref, interval_s=5.0, start_s=0.0)
        assert [(r.lo_s, r.hi_s, r.count) for r in rows] \
            == [(0.0, 5.0, 5), (5.0, 10.0, 5)]
        # unit errors sit at odd times: two in [0, 5), three in [5, 10)
        assert rows[0].rmse_bpm == pytest.approx(np.sqrt(2.0 / 5.0))
        assert rows[1].rmse_bpm == pytest.approx(np.sqrt(3.0 / 5.0))

    def test_empty_intervals_are_omitted(self):
        est = make_trace([1.0, 2.0, 11.0], [70.0] * 3)
        ref = make_trace([1.0, 2.0, 11.0], [70.0] * 3)
        rows = interval_rmse(est, ref, interval_s=3.0, start_s=0.0)
        assert [(r.lo_s, r.hi_s) for r in rows] == [(0.0, 3.0), (9.0, 12.0)]

    def test_validation(self):
        est = make_trace([1.0], [70.0])
        with pytest.raises(ValueError, match="interval"):
            interval_rmse(est, est, interval_s=0.0)

    @pytest.mark.parametrize("interval_s", [float("nan"), -1.0, float("inf"),
                                            -float("inf")])
    def test_rejects_an_interval_that_is_not_finite_and_positive(
            self, interval_s):
        # a nan interval returned [] without an error
        est = make_trace([10.0, 11.0], [70.0, 71.0])
        with pytest.raises(ValueError, match="interval must be finite and "
                                             "positive"):
            interval_rmse(est, est, interval_s=interval_s)

    @pytest.mark.parametrize("start_s", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_start(self, start_s):
        # a nan start returned [] without an error
        est = make_trace([10.0, 11.0], [70.0, 71.0])
        with pytest.raises(ValueError, match="interval start must be "
                                             "finite"):
            interval_rmse(est, est, start_s=start_s)

    def test_unbounded_spans_fail_at_once(self):
        # a -inf start, or intervals too fine to number, stepped through
        # intervals without end; a fresh interpreter's timeout bounds the
        # wait
        code = """
from pulsecancel.bench import interval_rmse
from pulsecancel.types import HrTrace, TraceEntry
trace = HrTrace([TraceEntry(t, 70.0, "x") for t in (10.0, 11.0, 12.0)])
for kwargs in ({"start_s": -float("inf")}, {"interval_s": 1e-300}):
    try:
        interval_rmse(trace, trace, **kwargs)
    except ValueError as exc:
        print(exc)
"""
        done = fresh_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "interval start must be finite, got -inf",
            "1e-300 s intervals from 10.0 s cannot number the paired times "
            "exactly"]

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

    @pytest.mark.parametrize("interval_s, start_s", [(40.0, 10.0),
                                                     (0.1, 0.0),
                                                     (0.3, 7.7),
                                                     (2.5, -3.0)])
    def test_rows_are_the_walk_over_every_interval(self, interval_s,
                                                   start_s):
        # times on and next to float edges, some before start_s
        rng = np.random.default_rng(7)
        edges = start_s + np.arange(-3, 40) * interval_s
        times = np.unique(np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            rng.uniform(edges[0], edges[-1], 50)]))
        est = make_trace(times, rng.uniform(60, 90, times.size))
        ref = make_trace(times, rng.uniform(60, 90, times.size))
        rows = interval_rmse(est, ref, interval_s=interval_s,
                             start_s=start_s)
        assert [(r.lo_s, r.hi_s, r.rmse_bpm, r.count) for r in rows] \
            == loop_interval_rmse(est, ref, interval_s, start_s)


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
