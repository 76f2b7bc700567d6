"""pulsecancel command line: synth, run, compare, bench, spectra.

Diagnostics go to stderr; data goes to files (or stdout for run traces).
Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .ahet import (_BLOCK, AhetConfig, ahet_trace, conventional_trace,
                   eca_conventional_trace, shared_cancellation)
from .anls import BREATHING_GRID_HZ, BreathingTrack, breathing_track
from .ingest import (CubeFormatError, read_raw_cube, read_reference_trace,
                     write_raw_cube, write_trace, write_truth)
from .preprocess import NoTargetError, cube_phase
from .scenario import (FAMILIES, load_scenario, reference_trace,
                       sliding_windows, synthesize_radar_cube)
from .spectral import power_spectrum
from .types import PhaseSignal

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(Exception):
    """Bad flag combination not expressible as a plain argparse rule."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _log(msg: str):
    print(msg, file=sys.stderr)


def _default_out(name: str) -> Path:
    base = os.environ.get("PULSECANCEL_OUTDIR", "")
    return Path(base) / name if base else Path(name)


def _parse_range(text: str, flag: str, fields: str = "lo:hi") -> tuple:
    """Colon-separated floats, one per name in fields."""
    parts = text.split(":")
    if len(parts) != fields.count(":") + 1:
        raise ValueError(f"{flag} expects {fields}, got {text!r}")
    return tuple(float(p) for p in parts)


def _scenario_from_args(args):
    """The --scenario file, with --seed applied when given."""
    with open(args.scenario) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:    # not JSON, or not text
            raise ValueError(f"scenario {args.scenario} is not JSON: "
                             f"{exc}") from exc
    scenario = load_scenario(doc)
    if args.seed is not None:
        # a scenario is frozen; its copy checks the new seed like any other
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _add_source_flags(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="in_path", help="raw cube input")
    src.add_argument("--scenario", help="scenario JSON to synthesize instead")
    p.add_argument("--seed", type=int, help="override the scenario seed")


def _add_pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--gate", default="0.3:3.0",
                   help="range gate in meters, lo:hi")
    p.add_argument("--cpi", type=float, default=20.0,
                   help="analysis window in seconds")
    p.add_argument("--step", type=float, default=1.0,
                   help="window step in seconds")
    p.add_argument("--pad", type=int, default=8, help="FFT zero-pad factor")
    p.add_argument("--kb", type=int, default=3,
                   help="breathing harmonics in the reconstruction")
    p.add_argument("--anls-window", type=float, default=5.0,
                   help="breathing-search subwindow in seconds")
    p.add_argument("--anls-step", type=float, default=1.0,
                   help="breathing-search subwindow step in seconds")
    # repr round-trips through _parse_range, so the default grid is the
    # library's to the last bit (a rounded step drops the 0.5 Hz point)
    p.add_argument("--rr-grid",
                   default=":".join(map(repr, BREATHING_GRID_HZ)),
                   help="breathing grid lo:hi:step in Hz")
    p.add_argument("--ve", type=float, default=0.1,
                   help="credibility gap bound in Hz")
    p.add_argument("--va", type=float, default=0.1,
                   help="fluctuation bound in Hz")


def _phase_from_args(args) -> PhaseSignal:
    """Load or synthesize a cube, then run preprocessing."""
    if args.in_path:
        cube = read_raw_cube(args.in_path)
    else:
        scenario = _scenario_from_args(args)
        _log(f"synthesizing {scenario.duration_s:g} s cube "
             f"(seed {scenario.seed})")
        cube = synthesize_radar_cube(scenario)
    gate = _parse_range(args.gate, "--gate")
    return cube_phase(cube, gate)


def _track_from_args(args, phase: PhaseSignal, methods):
    """The record's breathing track from --anls-window, --anls-step,
    --rr-grid and --kb, or None when none of methods cancels."""
    if bench_mod.CANCELLING.isdisjoint(methods):
        return None
    grid = _parse_range(args.rr_grid, "--rr-grid", "lo:hi:step")
    return breathing_track(phase, args.anls_window, args.anls_step, grid,
                           args.kb)


def _config_from_args(args) -> AhetConfig:
    return AhetConfig(deviation_threshold_hz=args.ve,
                      jump_threshold_hz=args.va)


def _trace_from_args(args, phase: PhaseSignal, method: str,
                     track: BreathingTrack | None):
    config = _config_from_args(args)
    common = dict(cpi_s=args.cpi, step_s=args.step,
                  zero_pad_factor=args.pad)
    if method == "ahet":
        return ahet_trace(phase, config=config, track=track, **common)
    if method == "eca":
        return eca_conventional_trace(phase, track=track, **common)
    return conventional_trace(phase, **common)


# --- subcommands -----------------------------------------------------------

def _cmd_synth(args) -> int:
    scenario = _scenario_from_args(args)
    out = Path(args.out) if args.out else _default_out("cube.bin")
    # the truth trace checks --cpi and --step before anything is written
    truth = (reference_trace(scenario, args.cpi, args.step) if args.truth
             else None)
    _log(f"synthesizing {scenario.duration_s:g} s at "
         f"{scenario.radar.frame_rate_hz:g} frames/s (seed {scenario.seed})")
    cube = synthesize_radar_cube(scenario)
    header = write_raw_cube(cube, out)
    _log(f"wrote {out} ({header.frames} frames x {header.fast_time} "
         f"samples) and {out.with_suffix('.json').name}")
    if truth is not None:
        write_truth(truth, args.truth)
        _log(f"wrote {args.truth}")
    return 0


def _cmd_run(args) -> int:
    phase = _phase_from_args(args)
    _log(f"tracking with method={args.method} over "
         f"{phase.duration:g} s of phase (bin {phase.source_bin})")
    track = _track_from_args(args, phase, [args.method])
    trace = _trace_from_args(args, phase, args.method, track)
    if args.out:
        write_trace(trace, args.out)
        _log(f"wrote {args.out} ({len(trace)} windows)")
    else:
        write_trace(trace, sys.stdout)
    return 0


def _cmd_compare(args) -> int:
    methods = args.methods.split(",")
    for m in methods:
        if m not in bench_mod.METHODS:
            raise ValueError(f"unknown method {m!r}")
    phase = _phase_from_args(args)
    if args.truth:
        reference = read_reference_trace(args.truth)
    elif args.scenario:
        reference = reference_trace(_scenario_from_args(args), args.cpi,
                                    args.step)
    else:
        raise UsageError("--truth is required with --in")
    track = _track_from_args(args, phase, methods)
    # eca's share of a pass tracks at the default bounds, so at other
    # bounds ahet could not take it
    share = (bench_mod.CANCELLING <= set(methods)
             and _config_from_args(args) == AhetConfig())
    with shared_cancellation() if share else contextlib.nullcontext():
        for method in methods:
            trace = _trace_from_args(args, phase, method, track)
            print(f"method={method} rmse_bpm="
                  f"{bench_mod.rmse(trace, reference):.3f}")
    return 0


def _cmd_bench(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    methods = tuple(args.methods.split(","))
    cpis = tuple(float(c) for c in args.cpis.split(","))
    seeds = range(args.seeds)
    outdir = Path(args.out) if args.out else _default_out("bench")
    _log(f"family={args.family} seeds={args.seeds} cpis={cpis} "
         f"methods={methods}")
    report = bench_mod.monte_carlo(args.family, seeds, cpis, methods,
                                   duration_s=args.duration)
    if not args.no_timing:
        scenario = FAMILIES[args.family](0, duration_s=args.duration)
        _log("timing a representative cube")
        cube = synthesize_radar_cube(scenario)
        report.timings = bench_mod.time_profile(cube, methods,
                                                cpi_s=cpis[0])
    bench_mod.write_report(report, outdir)
    for method in methods:
        for cpi in cpis:
            _log(f"median rmse {method}@{cpi:g}s = "
                 f"{report.median_rmse(method, cpi):.3f} bpm")
    _log(f"wrote {outdir}/rmse.csv intervals.csv report.json"
         + ("" if args.no_timing else " timing.csv"))
    return 0


def _cmd_spectra(args) -> int:
    if args.max_windows < 0:
        raise UsageError(f"--max-windows must be >= 0, got {args.max_windows}")
    phase = _phase_from_args(args)
    outdir = Path(args.out) if args.out else _default_out("spectra")
    outdir.mkdir(parents=True, exist_ok=True)
    fs = phase.sample_rate
    starts, windows = sliding_windows(phase.samples, fs, args.cpi, args.step)
    count = min(len(starts), args.max_windows or len(starts))
    track = _track_from_args(args, phase,
                             bench_mod.CANCELLING if args.cancel else ())
    # the trace drivers' blocks, so each dump is the rows they cancel
    for b0 in range(0, count, _BLOCK):
        block = windows[b0:b0 + _BLOCK]
        errors = [None] * len(block)
        if track is not None:
            block, errors = track.residuals(block, starts[b0:b0 + _BLOCK])
        for w, segment, error in zip(range(b0, count), block, errors):
            if error is not None:
                raise error
            spectrum = power_spectrum(segment, fs, args.pad)
            path = outdir / f"spectrum_{w:05d}.csv"
            with open(path, "w") as fh:
                fh.write("freq_hz,power\n")
                for f, p in zip(spectrum.frequencies, spectrum.power):
                    fh.write(f"{float(f)!r},{float(p)!r}\n")
    _log(f"wrote {count} spectra to {outdir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pulsecancel",
                     description="FMCW radar heart-rate pipeline with "
                                 "breathing-harmonic cancellation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="render a scenario to a "
                       "raw cube + sidecar (+ optional truth CSV)")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="cube output path (default cube.bin)")
    p.add_argument("--truth", help="also write ground-truth CSV here")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--cpi", type=float, default=20.0)
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="track heart rate over a cube or scenario")
    _add_source_flags(p)
    p.add_argument("--method", choices=sorted(bench_mod.METHODS),
                   default="ahet")
    p.add_argument("--out", help="trace CSV path (default stdout)")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="RMSE of each method against truth")
    _add_source_flags(p)
    p.add_argument("--truth", help="ground-truth CSV")
    p.add_argument("--methods", default="conventional,eca,ahet")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="Monte Carlo accuracy + timing survey")
    p.add_argument("--family", default="masking",
                   choices=sorted(FAMILIES))
    p.add_argument("--seeds", type=int, default=20,
                   help="number of seeds (0..N-1)")
    p.add_argument("--cpis", default="15,20,30")
    p.add_argument("--methods", default="conventional,ahet")
    p.add_argument("--duration", type=float, default=280.0)
    p.add_argument("--out", help="report directory (default bench/)")
    p.add_argument("--no-timing", action="store_true",
                   help="skip the cube timing pass")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("spectra", help="dump per-window spectra as CSV")
    _add_source_flags(p)
    p.add_argument("--cancel", action="store_true",
                   help="dump post-cancellation spectra")
    p.add_argument("--out", help="output directory (default spectra/)")
    p.add_argument("--max-windows", type=int, default=0,
                   help="stop after N windows (0 = all)")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_spectra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _log(f"pulsecancel {args.command}: error: {exc}")
        return USAGE_EXIT
    except (CubeFormatError, NoTargetError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _log(f"pulsecancel {args.command}: error: {exc}")
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
