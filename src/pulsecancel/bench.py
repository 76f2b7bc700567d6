"""Accuracy and runtime benchmarking against simulator ground truth."""

import contextlib
import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.ma        # np.median and np.unique load it lazily otherwise

from .ahet import (ahet_trace, conventional_trace, eca_conventional_trace,
                   shared_cancellation)
from .anls import breathing_track
from .preprocess import cube_phase, slow_time_phase
from .scenario import FAMILIES, RadarCube, reference_trace, scenario_slow_time
from .types import HrTrace

METHODS = {
    "conventional": conventional_trace,
    "eca": eca_conventional_trace,
    "ahet": ahet_trace,
}
# methods that cancel breathing first; they take the record's track
CANCELLING = frozenset({"eca", "ahet"})


@dataclass
class IntervalRow:
    lo_s: float
    hi_s: float
    rmse_bpm: float
    count: int


@dataclass
class RunRecord:
    cpi_s: float
    seed: int
    method: str
    rmse_bpm: float
    intervals: list = field(default_factory=list)
    error: str | None = None


@dataclass
class TimingRow:
    method: str
    seconds: float
    normalized: float


@dataclass
class BenchReport:
    family: str
    duration_s: float
    seeds: list
    cpis: list
    methods: list
    records: list = field(default_factory=list)
    timings: list = field(default_factory=list)

    def median_rmse(self, method: str, cpi_s: float) -> float:
        values = [r.rmse_bpm for r in self.records
                  if r.method == method and r.cpi_s == cpi_s
                  and r.error is None]
        if not values:
            return float("nan")
        return float(np.median(values))

    def paired(self, method_a: str, method_b: str, cpi_s: float):
        """(rmse_a, rmse_b) per seed where both methods completed."""
        by_seed = {}
        for r in self.records:
            if r.cpi_s == cpi_s and r.error is None:
                by_seed.setdefault(r.seed, {})[r.method] = r.rmse_bpm
        return [(v[method_a], v[method_b]) for v in by_seed.values()
                if method_a in v and method_b in v]


def _pair_times(trace: HrTrace, reference: HrTrace):
    """Nearest-time pairing within half the coarser trace step."""
    t_est, v_est = trace.times(), trace.bpm()
    t_ref, v_ref = reference.times(), reference.bpm()
    if t_est.size == 0 or t_ref.size == 0:
        raise ValueError("empty trace")
    steps = [np.median(np.diff(t)) for t in (t_est, t_ref) if t.size > 1]
    tol = max(steps) / 2.0 if steps else np.inf

    # each estimate's nearest reference time, the earlier one on a tie
    j = np.minimum(np.searchsorted(t_ref, t_est), t_ref.size - 1)
    before = np.maximum(j - 1, 0)
    j = np.where((j > 0) & (np.abs(t_ref[before] - t_est)
                            < np.abs(t_ref[j] - t_est)), before, j)
    paired = np.abs(t_ref[j] - t_est) <= tol + 1e-12
    if not paired.any():
        raise ValueError("traces share no overlapping time support")
    return v_est[paired], v_ref[j[paired]], t_est[paired]


def rmse(trace: HrTrace, reference: HrTrace) -> float:
    est, ref, _ = _pair_times(trace, reference)
    return float(np.sqrt(np.mean((est - ref) ** 2)))


def interval_rmse(trace: HrTrace, reference: HrTrace,
                  interval_s: float = 40.0,
                  start_s: float = 10.0) -> list[IntervalRow]:
    """Per-interval RMSE rows, in time order, over the intervals
    [start_s + k interval_s, start_s + (k + 1) interval_s), k >= 0.

    Each paired estimate falls in the interval its time indexes, and only
    those intervals are visited, so the work is set by the samples, not by
    the span.  Intervals with no paired samples are omitted, and samples
    before start_s fall in none.  A non-finite start, an interval that is
    not finite and positive, or one so fine that a paired time's index k
    reaches 2^53 (past which float64 no longer holds every integer) raises
    ValueError.
    """
    if not math.isfinite(start_s):
        raise ValueError(f"interval start must be finite, got {start_s!r}")
    if not (math.isfinite(interval_s) and interval_s > 0):
        raise ValueError(f"interval must be finite and positive, got "
                         f"{interval_s!r}")
    est, ref, times = _pair_times(trace, reference)
    k = np.floor((times - start_s) / interval_s)
    if not (k < 2.0 ** 53).all():
        raise ValueError(f"{interval_s!r} s intervals from {start_s!r} s "
                         f"cannot number the paired times exactly")
    # the quotient is rounded, so a time on an edge may floor one interval
    # off; the edges themselves decide
    k -= times < start_s + k * interval_s
    k += times >= start_s + (k + 1) * interval_s
    rows = []
    for index in np.unique(k[k >= 0]):
        sel = k == index
        err = est[sel] - ref[sel]
        rows.append(IntervalRow(float(start_s + index * interval_s),
                                float(start_s + (index + 1) * interval_s),
                                float(np.sqrt(np.mean(err ** 2))),
                                int(np.count_nonzero(sel))))
    return rows


def monte_carlo(family: str, seeds, cpis=(15.0, 20.0, 30.0),
                methods=("conventional", "ahet"),
                duration_s: float = 280.0) -> BenchReport:
    """Run every (seed, cpi, method) combination over a scenario family.

    Synthesis happens at the slow-time level: the statistics under test
    live in the phase signal, and skipping the fast-time dimension keeps
    large sweeps affordable.  The cancelling methods share one breathing
    track per record and, when both run, one cancel-and-spectrum pass per
    record and CPI (ahet.shared_cancellation); each method is still called
    once per run, in order.  Each record's reference traces are built, and
    so every CPI checked against the record, before any method runs on it:
    a CPI longer than the record raises ValueError.  A failed run (or
    track fit) is recorded, not fatal.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"have {sorted(FAMILIES)}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; have {sorted(METHODS)}")
    make = FAMILIES[family]
    report = BenchReport(family, duration_s, list(seeds), list(cpis),
                         list(methods))
    # eca and ahet share one cancel-and-spectrum pass per record and CPI
    share = CANCELLING <= set(methods)
    for seed in seeds:
        scenario = make(seed, duration_s=duration_s)
        references = [(cpi_s, reference_trace(scenario, cpi_s))
                      for cpi_s in cpis]
        z = scenario_slow_time(scenario)
        phase = slow_time_phase(z, scenario.radar.frame_rate_hz)
        track = None
        with shared_cancellation() if share else contextlib.nullcontext():
            for cpi_s, reference in references:
                for method in methods:
                    try:
                        if method in CANCELLING and track is None:
                            track = breathing_track(phase)
                        kwargs = ({"track": track} if method in CANCELLING
                                  else {})
                        trace = METHODS[method](phase, cpi_s=cpi_s, **kwargs)
                        record = RunRecord(
                            cpi_s, seed, method, rmse(trace, reference),
                            intervals=interval_rmse(trace, reference))
                    except Exception as exc:  # noqa: BLE001 - survey goes on
                        record = RunRecord(
                            cpi_s, seed, method, float("nan"),
                            error=f"{type(exc).__name__}: {exc}")
                    report.records.append(record)
    return report


def time_profile(cube: RadarCube, methods=("conventional", "ahet"),
                 cpi_s: float = 20.0) -> list[TimingRow]:
    """Wall-clock of cube -> trace per method, normalized to the first.

    Preprocessing (range FFT, bin detection, phase extraction) is inside
    the timed region for every method, as in an online deployment.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    # steady-state wall clock: populate basis and factorization caches with
    # one untimed pass per method, then time each full cube -> trace run
    warm = cube_phase(cube)
    for method in methods:
        METHODS[method](warm, cpi_s=cpi_s)
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        phase = cube_phase(cube)
        METHODS[method](phase, cpi_s=cpi_s)
        rows.append(TimingRow(method, time.perf_counter() - t0, 0.0))
    base = rows[0].seconds
    if "conventional" in methods:
        base = next(r.seconds for r in rows if r.method == "conventional")
    for row in rows:
        row.normalized = row.seconds / base
    return rows


def write_report(report: BenchReport, outdir) -> None:
    """rmse.csv + intervals.csv + report.json (+ timing.csv when present).

    Accuracy outputs are byte-reproducible for a fixed config and seed list;
    wall-clock timings stay in their own file.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "rmse.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cpi_s", "seed", "method", "rmse_bpm", "error"])
        for r in report.records:
            writer.writerow([repr(float(r.cpi_s)), r.seed, r.method,
                             repr(float(r.rmse_bpm)), r.error or ""])

    with open(outdir / "intervals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cpi_s", "seed", "method", "lo_s", "hi_s",
                         "rmse_bpm", "count"])
        for r in report.records:
            for row in r.intervals:
                writer.writerow([repr(float(r.cpi_s)), r.seed, r.method,
                                 repr(float(row.lo_s)), repr(float(row.hi_s)),
                                 repr(float(row.rmse_bpm)), row.count])

    if report.timings:
        with open(outdir / "timing.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "seconds", "normalized"])
            for row in report.timings:
                writer.writerow([row.method, f"{row.seconds:.6f}",
                                 f"{row.normalized:.6f}"])

    medians = {f"{method}@{cpi:g}s": report.median_rmse(method, cpi)
               for method in report.methods for cpi in report.cpis}
    summary = {
        "family": report.family,
        "duration_s": report.duration_s,
        "seeds": report.seeds,
        "cpis": report.cpis,
        "methods": report.methods,
        # null where no run of the method completed at that CPI
        "median_rmse_bpm": {key: None if math.isnan(m) else m
                            for key, m in medians.items()},
        "failed_runs": sum(1 for r in report.records if r.error),
    }
    (outdir / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        + "\n")
