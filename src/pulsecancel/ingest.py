"""On-disk formats: raw cube (int16 interleaved I/Q + JSON sidecar) and
heart-rate trace CSV.

Cube payloads are little-endian signed 16-bit, frame-major, one I and one Q
word per sample.  The sidecar records the dimensions, the quantization scale
and the radar configuration, so a cube file is self-describing.  A read
cube (FileCube) holds its path and header, not its words: the range FFT or
a writer reads it from the file a chunk of frames at a time and decodes
each chunk to complex64 with a float32 multiply of every word by 1/scale,
which holds a 16-bit sample to within float32 rounding.
"""

import contextlib
import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import CHUNK_FRAMES, RadarConfig, RadarCube
from .types import HrTrace, TraceEntry, check_fields

INT16_HEADROOM = 0.9
BPM_VALID = (20.0, 250.0)
# the one payload layout: a sidecar that names another is refused
FORMAT = {"sample_format": "int16", "endianness": "little"}


class CubeFormatError(ValueError):
    """Raw cube file does not match its declared layout."""


@dataclass(frozen=True)
class RawCubeHeader:
    """The sidecar's schema: each field is one key of its JSON object,
    held to its annotation, and each number must be positive."""

    frames: int
    fast_time: int
    config: RadarConfig
    scale: float = 1.0

    def __post_init__(self):
        check_fields(self)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in (int, float) and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_raw_cube(cube: RadarCube, path, scale: float | None = None) -> RawCubeHeader:
    """Quantize to int16 and write payload + sidecar.

    Without an explicit scale, floats are scaled so the largest I or Q
    component sits at 90% of int16 full scale.  Pass the scale from a
    previously read header to get a byte-identical rewrite.  The peak
    search, the quantization and the writes run CHUNK_FRAMES frames at a
    time, in the precision of the cube's own samples.  A FileCube cannot be
    written over the file it streams from: opening that file for writing
    would truncate the words still to be read.  A cube with no frames or
    no fast-time samples, a non-finite sample (found by the peak search,
    which runs whether or not a scale is given), or a header that
    RawCubeHeader refuses (a scale that is not finite and positive) raises
    ValueError before anything is written: read_raw_cube would reject the
    sidecar it would get, or the words would not hold the samples.
    """
    if cube.n_frames == 0 or cube.n_fast == 0:
        raise ValueError(f"cannot write a {cube.n_frames} x {cube.n_fast} "
                         f"cube: it holds no samples")
    path = Path(path)
    if isinstance(cube, FileCube) and _same_file(cube.path, path):
        raise ValueError(f"cannot write a cube over {path}, the file it "
                         f"reads from")
    chunks = range(0, cube.n_frames, CHUNK_FRAMES)
    peak = 0.0
    for start in chunks:
        iq = cube.frames(start, start + CHUNK_FRAMES)
        # a NaN or inf sample makes its chunk's peak NaN or inf
        chunk_peak = float(np.maximum(np.max(np.abs(iq.real)),
                                      np.max(np.abs(iq.imag))))
        if not math.isfinite(chunk_peak):
            raise ValueError(f"cannot write frames {start}:"
                             f"{start + len(iq)}: they hold a non-finite "
                             f"sample")
        peak = max(peak, chunk_peak)
    if scale is None:
        scale = INT16_HEADROOM * 32767.0 / peak if peak > 0 else 1.0
    header = RawCubeHeader(cube.n_frames, cube.n_fast, cube.config, scale)
    with open(path, "wb") as fh:
        for start in chunks:
            iq = cube.frames(start, start + CHUNK_FRAMES)
            words = np.empty(iq.shape + (2,), dtype="<i2")
            words[:, :, 0] = np.clip(np.rint(iq.real * scale), -32768, 32767)
            words[:, :, 1] = np.clip(np.rint(iq.imag * scale), -32768, 32767)
            words.tofile(fh)

    doc = {"frames": header.frames, "fast_time": header.fast_time, **FORMAT,
           "scale": header.scale, "config": dataclasses.asdict(header.config)}
    sidecar_path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return header


def read_cube_header(path) -> RawCubeHeader:
    """The header a cube's sidecar declares: each RawCubeHeader field read
    by its name (an absent scale is 1.0) and `config` by
    RadarConfig.from_json, so a sidecar names every config field.  A
    missing or malformed sidecar, or one that declares another layout than
    FORMAT, is a CubeFormatError that names it."""
    side = sidecar_path(path)
    if not side.exists():
        raise CubeFormatError(f"missing sidecar {side}")
    try:
        doc = json.loads(side.read_text())   # not JSON, or not text
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        for key, layout in FORMAT.items():
            if doc.get(key, layout) != layout:
                raise ValueError(f"unsupported {key.replace('_', ' ')} "
                                 f"{doc[key]!r}")
        values = {f.name: doc[f.name]
                  for f in dataclasses.fields(RawCubeHeader)
                  if f.name in doc or f.default is dataclasses.MISSING}
        values["config"] = RadarConfig.from_json(values["config"])
        return RawCubeHeader(**values)
    except KeyError as exc:
        raise CubeFormatError(f"malformed sidecar {side}: missing key "
                              f"{exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CubeFormatError(f"malformed sidecar {side}: {exc}") from exc


def _same_file(a: Path, b: Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except FileNotFoundError:
        return False


def read_raw_cube(path) -> RadarCube:
    """Open a cube file: check its sidecar and payload size, read no words.

    The sidecar gives the layout and the config.  The returned FileCube
    reads the payload a chunk of frames at a time as it is used.
    """
    path = Path(path)
    if not path.exists():
        raise CubeFormatError(f"no such cube file {path}")
    header = read_cube_header(path)
    st = path.stat()
    actual = st.st_size
    expected = header.frames * header.fast_time * 4
    if actual != expected:
        raise CubeFormatError(
            f"{path}: sidecar declares {header.frames} x "
            f"{header.fast_time} samples = {expected} bytes, file has "
            f"{actual}")
    return FileCube(path.resolve(), header, _stamp(st))


def _stamp(st: os.stat_result) -> tuple[int, int]:
    """What identifies one version of a payload: its size and mtime."""
    return st.st_size, st.st_mtime_ns


class FileCube(RadarCube):
    """A cube read from file: its resolved path and sidecar header.

    No word stays resident.  `frames` reads and decodes the frames asked
    for, the one decoding rule; range_profiles and write_raw_cube go
    through it a chunk at a time, and `iq` decodes the whole file on each
    access.  The file's size and mtime as read_raw_cube saw them are
    kept, and a read of a file that is gone or has changed since raises
    CubeFormatError.  Its repr names the path and header and reads no
    frame.
    """

    def __init__(self, path: Path, header: RawCubeHeader,
                 stamp: tuple[int, int]):
        self.path = path
        self.header = header
        self.config = header.config
        self.stamp = stamp

    def __repr__(self):
        return f"FileCube(path={self.path!r}, header={self.header!r})"

    @property
    def iq(self) -> np.ndarray:
        return self.frames(0, self.n_frames)

    @property
    def n_frames(self) -> int:
        return self.header.frames

    @property
    def n_fast(self) -> int:
        return self.header.fast_time

    def frames(self, start: int, stop: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """Frames start:stop (clipped as a slice is) as complex64, into
        `out` when given: each word read from the file times 1/scale, in
        float32."""
        start, stop, _ = slice(start, stop).indices(self.n_frames)
        shape = (max(stop - start, 0), self.n_fast, 2)
        if out is None:
            out = np.empty(shape[:2], dtype=np.complex64)
        if shape[0] == 0:
            return out
        try:
            stamp = _stamp(os.stat(self.path))
        except FileNotFoundError:
            raise CubeFormatError(f"cube file {self.path} is gone") from None
        if stamp != self.stamp:
            raise CubeFormatError(f"cube file {self.path} changed since it "
                                  f"was read")
        count = shape[0] * self.n_fast * 2
        words = np.fromfile(self.path, dtype="<i2", count=count,
                            offset=start * self.n_fast * 4)
        if words.size != count:
            raise CubeFormatError(f"{self.path}: short read of frames "
                                  f"{start}:{stop}")
        np.multiply(words.reshape(shape), 1.0 / self.header.scale,
                    out=out.view(np.float32).reshape(shape),
                    dtype=np.float32)
        return out


# --- trace CSV -------------------------------------------------------------

def _open_out(path_or_file):
    if hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, "w", newline="")


def write_truth(trace: HrTrace, path) -> None:
    """Two-column ground-truth CSV: time_s, hr_bpm."""
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "hr_bpm"])
        for e in trace:
            writer.writerow([repr(float(e.time_s)), repr(float(e.hr_bpm))])


def write_trace(trace: HrTrace, path) -> None:
    """Full estimate CSV: time_s, hr_bpm, tag, delta_hz."""
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "hr_bpm", "tag", "delta_hz"])
        for e in trace:
            writer.writerow([repr(float(e.time_s)), repr(float(e.hr_bpm)),
                             e.tag, repr(float(e.delta_hz))])


def read_reference_trace(path) -> HrTrace:
    """Read a truth or estimate CSV; times must increase, BPM must be sane."""
    path = Path(path)
    trace = HrTrace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["time_s",
                                                                 "hr_bpm"]:
            raise ValueError(f"{path}: expected a time_s,hr_bpm header, "
                             f"got {header}")
        prev_t = None
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = float(row[0])
                bpm = float(row[1])
                delta = float(row[3]) if len(row) > 3 else 0.0
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path} row {row_num}: {exc}") from exc
            if not math.isfinite(t):
                raise ValueError(f"{path} row {row_num}: time {t} is not "
                                 f"finite")
            if prev_t is not None and t <= prev_t:
                raise ValueError(f"{path} row {row_num}: time {t} not "
                                 f"increasing")
            lo, hi = BPM_VALID
            if not lo < bpm < hi:
                raise ValueError(f"{path} row {row_num}: {bpm} BPM outside "
                                 f"({lo}, {hi})")
            tag = row[2] if len(row) > 2 else "reference"
            trace.append(TraceEntry(t, bpm, tag, delta))
            prev_t = t
    if len(trace) == 0:
        raise ValueError(f"{path} holds no samples")
    return trace
