"""Raw cube file round trips and trace CSV parsing."""

import dataclasses
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from pulsecancel.ingest import (CubeFormatError, FileCube, _stamp,
                                read_cube_header, read_raw_cube,
                                read_reference_trace, sidecar_path,
                                write_raw_cube, write_trace, write_truth)
from pulsecancel.scenario import (CHUNK_FRAMES, RadarConfig, RadarCube,
                                  Scenario, synthesize_radar_cube)
from pulsecancel.types import HrTrace, TraceEntry


def small_cube(frames=6, fast=16, seed=0):
    rng = np.random.default_rng(seed)
    iq = rng.normal(size=(frames, fast)) + 1j * rng.normal(size=(frames, fast))
    cfg = RadarConfig(adc_samples_per_chirp=fast,
                      chirp_duration_s=fast / 4e6 + 1e-5)
    return RadarCube(iq, cfg)


def sample_trace():
    trace = HrTrace()
    trace.append(TraceEntry(10.0, 76.6, "reliable-1st-peak", 0.01))
    trace.append(TraceEntry(11.0, 76.9, "refined", 0.2))
    return trace


class TestCubeRoundTrip:
    def test_quantization_error_below_one_lsb(self, tmp_path):
        cube = small_cube()
        path = tmp_path / "cube.bin"
        header = write_raw_cube(cube, path)
        back = read_raw_cube(path)
        lsb = 1.0 / header.scale
        err = np.max(np.abs(back.iq - cube.iq))
        assert err <= lsb
        assert back.config == cube.config
        assert back.iq.shape == cube.iq.shape

    @pytest.mark.parametrize("make", [
        small_cube,
        lambda: RadarCube(small_cube().iq.astype(np.complex64),
                          small_cube().config),
        lambda: synthesize_radar_cube(Scenario(duration_s=0.5))],
        ids=["noise", "noise-complex64", "synthesized"])
    def test_auto_scale_uses_headroom(self, tmp_path, make):
        # the largest I or Q word sits at 90% of int16 full scale
        cube = make()
        path = tmp_path / "cube.bin"
        header = write_raw_cube(cube, path)
        peak = max(np.max(np.abs(cube.iq.real)), np.max(np.abs(cube.iq.imag)))
        assert header.scale == 0.9 * 32767.0 / float(peak)
        words = np.fromfile(path, dtype="<i2")
        assert np.max(np.abs(words)) == round(0.9 * 32767.0)

    @pytest.mark.parametrize("n_frames", [1, CHUNK_FRAMES,
                                          2 * CHUNK_FRAMES + 1])
    def test_file_cube_rewrite_is_byte_identical_from_one_read(
            self, tmp_path, monkeypatch, n_frames):
        # a file cube keeps its header's scale and skips the peak pass:
        # each chunk read once, and the same payload and sidecar
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_raw_cube(small_cube(frames=n_frames), p1)
        reads = []
        frames = FileCube.frames

        def counted(cube, start, stop):
            reads.append(start)
            return frames(cube, start, stop)

        monkeypatch.setattr(FileCube, "frames", counted)
        cube = read_raw_cube(p1)
        assert write_raw_cube(cube, p2) == cube.header
        assert reads == list(range(0, n_frames, CHUNK_FRAMES))
        assert p1.read_bytes() == p2.read_bytes()
        assert sidecar_path(p1).read_text() == sidecar_path(p2).read_text()

    def test_chunked_write_is_the_one_shot_quantization(self, tmp_path):
        # one chunk and one frame: the last chunk holds a single frame
        cube = small_cube(frames=CHUNK_FRAMES + 1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        header = write_raw_cube(cube, p1)
        words = np.stack([np.rint(cube.iq.real * header.scale),
                          np.rint(cube.iq.imag * header.scale)], axis=-1)
        assert p1.read_bytes() == words.astype("<i2").tobytes()
        write_raw_cube(read_raw_cube(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_peak_memory_is_one_chunk(self, tmp_path):
        cube = small_cube(frames=8 * CHUNK_FRAMES, fast=200)
        chunk = CHUNK_FRAMES * 200 * cube.iq.itemsize
        tracemalloc.start()
        try:
            write_raw_cube(cube, tmp_path / "cube.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6 + chunk

    def test_file_rewrite_peak_memory_is_one_chunk(self, tmp_path):
        # the read holds no words, so a rewrite holds about one chunk of
        # decoded frames and its words, not the whole file
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_raw_cube(small_cube(frames=8 * CHUNK_FRAMES, fast=200), p1)
        chunk = CHUNK_FRAMES * 200 * 8
        tracemalloc.start()
        try:
            write_raw_cube(read_raw_cube(p1), p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p1.read_bytes() == p2.read_bytes()
        assert peak < 2e6 + chunk

    def test_decodes_to_complex64(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        assert read_raw_cube(path).iq.dtype == np.complex64

    @pytest.mark.parametrize("frames", [1, CHUNK_FRAMES - 1, CHUNK_FRAMES,
                                        CHUNK_FRAMES + 1])
    def test_the_written_header_reads_back(self, tmp_path, frames):
        path = tmp_path / "cube.bin"
        header = write_raw_cube(small_cube(frames=frames), path)
        assert read_cube_header(path) == header
        # the sidecar's keys, in the order every earlier sidecar has them
        assert list(json.loads(sidecar_path(path).read_text())) == [
            "frames", "fast_time", "sample_format", "endianness", "scale",
            "config"]

    def test_sidecar_is_self_describing(self, tmp_path):
        cube = small_cube()
        path = tmp_path / "cube.bin"
        write_raw_cube(cube, path)
        doc = json.loads(sidecar_path(path).read_text())
        assert doc["frames"] == 6
        assert doc["fast_time"] == 16
        assert doc["sample_format"] == "int16"
        header = read_cube_header(path)
        assert header.config == cube.config


def decoded_words(path):
    """The whole payload decoded at once by the one rule: each word times
    1/scale in float32."""
    header = read_cube_header(path)
    words = np.fromfile(path, dtype="<i2")
    floats = np.multiply(words, 1.0 / header.scale, dtype=np.float32)
    return floats.view(np.complex64).reshape(header.frames,
                                             header.fast_time)


class TestStreamingRead:
    FRAMES = 2 * CHUNK_FRAMES + 5

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(frames=self.FRAMES), path)
        return path

    def test_read_holds_no_words(self, path):
        tracemalloc.start()
        try:
            cube = read_raw_cube(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        assert cube.n_frames == self.FRAMES and cube.n_fast == 16

    @pytest.mark.parametrize("start, stop", [
        (0, FRAMES), (CHUNK_FRAMES - 2, CHUNK_FRAMES + 3),
        (CHUNK_FRAMES, 2 * CHUNK_FRAMES), (7, 7), (0, 0),
        (FRAMES, FRAMES), (FRAMES - 3, FRAMES + 40), (FRAMES + 2, FRAMES + 9),
    ])
    def test_frames_is_the_whole_decode_sliced(self, path, start, stop):
        cube = read_raw_cube(path)
        expected = decoded_words(path)[start:stop]
        got = cube.frames(start, stop)
        assert got.dtype == np.complex64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        out = np.full((self.FRAMES, 16), np.nan, dtype=np.complex64)
        into = cube.frames(start, stop, out=out[:expected.shape[0]])
        assert into.base is out
        assert into.tobytes() == expected.tobytes()

    def test_iq_is_the_whole_decode(self, path):
        assert (read_raw_cube(path).iq.tobytes()
                == decoded_words(path).tobytes())

    def test_repr_and_equality_read_no_frames(self, path, monkeypatch):
        # the generated repr and == read iq, which decodes the whole file
        cube = read_raw_cube(path)

        def no_reads(*args, **kwargs):
            raise AssertionError("read frames")

        monkeypatch.setattr(type(cube), "frames", no_reads)
        assert repr(cube) == (f"FileCube(path={cube.path!r}, "
                              f"header={cube.header!r})")
        assert (cube == read_raw_cube(path)) is False
        assert (cube == cube) is True

    def test_deleted_file_raises(self, path):
        cube = read_raw_cube(path)
        path.unlink()
        with pytest.raises(CubeFormatError, match=r"cube\.bin is gone"):
            cube.frames(0, 4)

    def test_resized_file_raises(self, path):
        cube = read_raw_cube(path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 64)
        with pytest.raises(CubeFormatError, match="changed since it was read"):
            cube.frames(0, 4)

    def test_rewritten_file_raises(self, path):
        cube = read_raw_cube(path)
        before = path.stat().st_mtime_ns
        write_raw_cube(small_cube(frames=self.FRAMES, seed=1), path)
        # a rewrite inside one tick of a coarse filesystem clock keeps the
        # mtime; move it on so the check does not depend on that clock
        os.utime(path, ns=(before + 10**9, before + 10**9))
        with pytest.raises(CubeFormatError, match="changed since it was read"):
            cube.frames(0, 4)

    def test_short_read_raises(self, path):
        # the file shrinks between the size check and the read
        cube = read_raw_cube(path)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 64)
        cube.stamp = _stamp(path.stat())
        assert cube.frames(0, 4).shape == (4, 16)
        with pytest.raises(CubeFormatError, match="short read of frames"):
            cube.frames(self.FRAMES - 4, self.FRAMES)

    @pytest.mark.parametrize("alias", ["same", "relative", "hard link"])
    def test_write_over_its_own_source_raises_before_writing(
            self, path, alias, monkeypatch):
        cube = read_raw_cube(path)
        payload, sidecar = path.read_bytes(), sidecar_path(path).read_text()
        if alias == "same":
            dest = path
        elif alias == "relative":
            monkeypatch.chdir(path.parent)
            dest = path.name
        else:
            dest = path.with_name("alias.bin")
            os.link(path, dest)
        with pytest.raises(ValueError, match="the file it reads from"):
            write_raw_cube(cube, dest)
        assert path.read_bytes() == payload
        assert sidecar_path(path).read_text() == sidecar
        assert cube.frames(0, 4).shape == (4, 16)


class TestCubeErrors:
    @pytest.mark.parametrize("shape", [(0, 16), (6, 0)])
    def test_empty_cube_is_refused_before_writing(self, tmp_path, shape):
        # read_raw_cube would reject the sidecar, "frames must be a
        # positive integer, got 0"
        cube = RadarCube(np.zeros(shape, dtype=complex), small_cube().config)
        with pytest.raises(ValueError, match="cube: it holds no samples"):
            write_raw_cube(cube, tmp_path / "cube.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0),
                                     complex(0.0, np.nan),
                                     complex(np.inf, 0.0),
                                     complex(0.0, -np.inf)])
    def test_non_finite_sample_is_refused_before_writing(self, tmp_path,
                                                         bad, dtype):
        # one sample in the second chunk; the first holds the peak, so a
        # peak search that skipped the NaN would scale from it.  The search
        # runs in the cube's own precision.
        base = small_cube(frames=CHUNK_FRAMES + 3)
        cube = RadarCube(base.iq.astype(dtype), base.config)
        cube.iq[CHUNK_FRAMES + 1, 5] = bad
        with pytest.raises(ValueError, match=f"frames {CHUNK_FRAMES}:"
                                             f"{CHUNK_FRAMES + 3}: they "
                                             f"hold a non-finite sample"):
            write_raw_cube(cube, tmp_path / "cube.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_all_non_finite_cube_is_refused_before_writing(self, tmp_path,
                                                           value, dtype):
        # an all-inf cube wrote "scale": 0.0
        cube = RadarCube(np.full((6, 16), value, dtype=dtype),
                         small_cube().config)
        with pytest.raises(ValueError, match="non-finite sample"):
            write_raw_cube(cube, tmp_path / "cube.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("peak", [5e-324, 1e-310, 1e-305])
    def test_an_infinite_scale_is_refused_before_writing(self, tmp_path,
                                                         peak):
        # a peak under 0.9 * 32767 / float64's largest value (about
        # 1.6e-304), subnormal or not, scales to inf, which read_raw_cube
        # would refuse
        cube = RadarCube(np.full((6, 16), peak + 0j), small_cube().config)
        with pytest.raises(ValueError, match="^scale must be a finite "
                                             "number, got inf"):
            write_raw_cube(cube, tmp_path / "cube.bin")
        assert list(tmp_path.iterdir()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(CubeFormatError, match="no such cube file"):
            read_raw_cube(tmp_path / "nope.bin")

    def test_truncated_payload_names_both_sizes(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CubeFormatError, match="sidecar declares"):
            read_raw_cube(path)

    def test_missing_sidecar(self, tmp_path):
        # the sidecar is the only source of a cube's layout and config
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        sidecar_path(path).unlink()
        with pytest.raises(CubeFormatError,
                           match=r"missing sidecar .*cube\.json"):
            read_raw_cube(path)

    def test_unsupported_format_fields(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        doc = json.loads(sidecar_path(path).read_text())
        doc["sample_format"] = "float32"
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(CubeFormatError, match="unsupported sample format"):
            read_cube_header(path)
        doc["sample_format"] = "int16"
        doc["endianness"] = "big"
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(CubeFormatError, match="unsupported endianness"):
            read_cube_header(path)

    @pytest.mark.parametrize("text", [json.dumps({"frames": 6}), "[1, 2]",
                                      "{not json", ""])
    def test_malformed_sidecar(self, tmp_path, text):
        # a JSON array raised AttributeError, and text that is not JSON a
        # JSONDecodeError naming no file
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        sidecar_path(path).write_text(text)
        with pytest.raises(CubeFormatError,
                           match=r"malformed sidecar .*cube\.json: "):
            read_cube_header(path)


class TestTraceCsv:
    def test_truth_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(sample_trace(), path)
        back = read_reference_trace(path)
        np.testing.assert_array_equal(back.times(), [10.0, 11.0])
        np.testing.assert_array_equal(back.bpm(), [76.6, 76.9])
        assert back.tags() == ["reference", "reference"]

    def test_estimate_round_trip_keeps_tag_and_delta(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(sample_trace(), path)
        back = read_reference_trace(path)
        assert back.tags() == ["reliable-1st-peak", "refined"]
        assert back.entries[1].delta_hz == 0.2

    def test_write_accepts_file_objects(self):
        buf = io.StringIO()
        write_truth(sample_trace(), buf)
        assert buf.getvalue().startswith("time_s,hr_bpm")

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,rate\n1.0,70.0\n")
        with pytest.raises(ValueError, match="time_s,hr_bpm header"):
            read_reference_trace(path)

    def test_rejects_non_increasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,hr_bpm\n1.0,70.0\n1.0,71.0\n")
        with pytest.raises(ValueError, match="not\\s+increasing"):
            read_reference_trace(path)

    @pytest.mark.parametrize("body, row", [
        ("nan,70.0\n2.0,71.0\n", r"row 2: time nan"),
        ("1.0,70.0\n2.0,71.0\ninf,72.0\n", r"row 4: time inf"),
    ])
    def test_rejects_non_finite_times(self, tmp_path, body, row):
        # a nan time would load and leave rmse nothing to pair it with
        path = tmp_path / "bad.csv"
        path.write_text("time_s,hr_bpm\n" + body)
        with pytest.raises(ValueError, match=rf"bad\.csv {row} is not finite"):
            read_reference_trace(path)

    def test_rejects_implausible_bpm(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,hr_bpm\n1.0,400.0\n")
        with pytest.raises(ValueError, match="BPM outside"):
            read_reference_trace(path)

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,hr_bpm\n")
        with pytest.raises(ValueError, match="holds no samples"):
            read_reference_trace(path)

    def test_rejects_unparseable_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        for body in ("1.0,abc\n", "1.0,70.0,reference,abc\n"):
            path.write_text("time_s,hr_bpm\n" + body)
            with pytest.raises(ValueError, match="row 2"):
                read_reference_trace(path)


class TestSidecarValues:
    def write_with(self, tmp_path, **fields):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        doc = json.loads(sidecar_path(path).read_text())
        doc.update(fields)
        sidecar_path(path).write_text(json.dumps(doc))
        return path

    def test_rejects_negative_dimensions_whose_product_matches(self,
                                                               tmp_path):
        # -6 x -16 samples is the file's true size, so only the sign is wrong
        path = self.write_with(tmp_path, frames=-6, fast_time=-16)
        with pytest.raises(CubeFormatError,
                           match=r"cube\.json: frames must be positive, "
                                 r"got -6$"):
            read_raw_cube(path)

    @pytest.mark.parametrize("frames", [6.7, 6.0, 1e300])
    def test_rejects_fractional_frames(self, tmp_path, frames):
        # a whole float is no integer either: 6.0 read as 6, and 1e300 as
        # a 301-digit int
        path = self.write_with(tmp_path, frames=frames)
        with pytest.raises(CubeFormatError,
                           match=r"cube\.json: frames must be an integer, "
                                 r"got " + re.escape(repr(frames)) + "$"):
            read_raw_cube(path)

    @pytest.mark.parametrize("config, message", [
        ({"frame_period_s": -1}, "frame_period_s must be positive, got -1"),
        ({"adc_samples_per_chirp": "16"},
         "adc_samples_per_chirp must be an integer, got '16'"),
        ({"adc_samples_per_chirp": 10**400},
         "ADC window longer than the chirp"),
        ({"chirp_duration_s": 1e200, "adc_sample_rate_hz": 1e200,
          "adc_samples_per_chirp": 10**400},
         "adc_samples_per_chirp must be at most the largest float"),
        ({"bogus": 1}, "unknown radar keys: \\['bogus'\\]"),
        ([1, 2], "radar config must be a JSON object, got \\[1, 2\\]")])
    def test_a_bad_config_names_the_sidecar(self, tmp_path, config,
                                            message):
        if isinstance(config, dict):
            config = dict(dataclasses.asdict(small_cube().config), **config)
        path = self.write_with(tmp_path, config=config)
        with pytest.raises(CubeFormatError,
                           match=r"malformed sidecar .*cube\.json: .*"
                                 + message):
            read_raw_cube(path)

    @pytest.mark.parametrize("drop", [["frame_period_s"],
                                      ["carrier_frequency_hz",
                                       "frame_period_s"]])
    def test_config_names_every_field(self, tmp_path, drop):
        # the sidecar is the only record of the radar: {} read as the
        # default 77 GHz, 100 Hz config
        config = dataclasses.asdict(small_cube().config)
        for name in drop:
            del config[name]
        path = self.write_with(tmp_path, config=config)
        with pytest.raises(CubeFormatError,
                           match=r"^malformed sidecar .*cube\.json: missing "
                                 r"radar keys: " + re.escape(str(drop)) + "$"):
            read_raw_cube(path)
        self.write_with(tmp_path, config={})
        with pytest.raises(CubeFormatError, match="missing radar keys"):
            read_raw_cube(path)

    @pytest.mark.parametrize("key", ["frames", "fast_time", "config"])
    def test_a_missing_key_is_named(self, tmp_path, key):
        path = self.write_with(tmp_path)
        doc = json.loads(sidecar_path(path).read_text())
        del doc[key]
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(CubeFormatError,
                           match=rf"cube\.json: missing key '{key}'$"):
            read_raw_cube(path)

    def test_an_absent_scale_reads_as_one(self, tmp_path):
        path = self.write_with(tmp_path)
        doc = json.loads(sidecar_path(path).read_text())
        del doc["scale"]
        sidecar_path(path).write_text(json.dumps(doc))
        assert read_cube_header(path).scale == 1.0

    @pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"),
                                       float("inf")])
    def test_rejects_bad_scale(self, tmp_path, scale):
        path = self.write_with(tmp_path, scale=scale)
        with pytest.raises(CubeFormatError,
                           match=r"cube\.json: scale must be (a finite "
                                 r"number|positive), got "):
            read_raw_cube(path)
