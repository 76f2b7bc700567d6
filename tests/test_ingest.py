"""Raw cube file round trips and trace CSV parsing."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from pulsecancel.ingest import (_CHUNK_FRAMES, CubeFormatError,
                                read_cube_header, read_raw_cube,
                                read_reference_trace, sidecar_path,
                                write_raw_cube, write_trace, write_truth)
from pulsecancel.scenario import RadarConfig, RadarCube
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

    def test_auto_scale_uses_headroom(self, tmp_path):
        cube = small_cube()
        header = write_raw_cube(cube, tmp_path / "cube.bin")
        peak = max(np.max(np.abs(cube.iq.real)), np.max(np.abs(cube.iq.imag)))
        assert header.scale == pytest.approx(0.9 * 32767.0 / peak)

    def test_explicit_scale_rewrite_is_byte_identical(self, tmp_path):
        cube = small_cube()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        header = write_raw_cube(cube, p1)
        write_raw_cube(read_raw_cube(p1), p2, scale=header.scale)
        assert p1.read_bytes() == p2.read_bytes()

    def test_chunked_write_is_the_one_shot_quantization(self, tmp_path):
        # one chunk and one frame: the last chunk holds a single frame
        cube = small_cube(frames=_CHUNK_FRAMES + 1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        header = write_raw_cube(cube, p1)
        words = np.stack([np.rint(cube.iq.real * header.scale),
                          np.rint(cube.iq.imag * header.scale)], axis=-1)
        assert p1.read_bytes() == words.astype("<i2").tobytes()
        write_raw_cube(read_raw_cube(p1), p2, scale=header.scale)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_peak_memory_is_one_chunk(self, tmp_path):
        cube = small_cube(frames=8 * _CHUNK_FRAMES, fast=200)
        chunk = _CHUNK_FRAMES * 200 * cube.iq.itemsize
        tracemalloc.start()
        try:
            write_raw_cube(cube, tmp_path / "cube.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6 + chunk

    def test_decodes_to_complex64(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        assert read_raw_cube(path).iq.dtype == np.complex64

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


class TestCubeErrors:
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

    def test_malformed_sidecar(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_raw_cube(small_cube(), path)
        sidecar_path(path).write_text(json.dumps({"frames": 6}))
        with pytest.raises(CubeFormatError, match="malformed sidecar"):
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
                           match=r"cube\.json: frames must be a positive"):
            read_raw_cube(path)

    def test_rejects_fractional_frames(self, tmp_path):
        path = self.write_with(tmp_path, frames=6.7)
        with pytest.raises(CubeFormatError,
                           match=r"cube\.json: frames must be a positive "
                                 r"integer, got 6\.7"):
            read_raw_cube(path)
        assert read_raw_cube(self.write_with(tmp_path, frames=6.0)
                             ).n_frames == 6

    @pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"),
                                       float("inf")])
    def test_rejects_bad_scale(self, tmp_path, scale):
        path = self.write_with(tmp_path, scale=scale)
        with pytest.raises(CubeFormatError,
                           match=r"cube\.json: scale must be finite and "
                                 r"positive"):
            read_raw_cube(path)
