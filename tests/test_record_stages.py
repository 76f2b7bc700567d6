"""types.record_stages: what the pipeline reports within the scope, that
an observed call returns what an unobserved one does, and how scopes
open and close."""

import dataclasses

import numpy as np
import pytest

from pulsecancel import (RadarConfig, RadarCube, ahet_trace,
                         conventional_trace, cube_phase,
                         eca_conventional_trace, shared_cancellation,
                         slow_time_phase, synthesize_radar_cube)
from pulsecancel.anls import breathing_track
from pulsecancel.preprocess import NoTargetError
from pulsecancel.scenario import FAMILIES, scenario_slow_time
from pulsecancel.types import record_stages

# 60 s: 41 windows of 20 s at a 1 s step, in blocks of 16, 16 and 9
WINDOWS, BLOCKS = 41, 3
CANCELLING = {"eca": eca_conventional_trace, "ahet": ahet_trace}


class Recorder:
    """A sink that lists the stages reported to it, in order."""

    def __init__(self):
        self.names = []

    def __call__(self, name, fn, *args):
        self.names.append(name)
        return fn(*args)

    def counts(self) -> dict:
        return {name: self.names.count(name) for name in self.names}


def observed(fn, *args, **kwargs):
    """(fn's output within a recording scope, the recorder)."""
    recorder = Recorder()
    with record_stages(recorder):
        out = fn(*args, **kwargs)
    return out, recorder


def assert_same_phase(phase, expected):
    assert phase.source_bin == expected.source_bin
    assert phase.dropouts == expected.dropouts
    assert phase.samples.tobytes() == expected.samples.tobytes()


@pytest.fixture(scope="module")
def phase():
    sc = FAMILIES["masking-b"](0, duration_s=60.0)
    return slow_time_phase(scenario_slow_time(sc), sc.radar.frame_rate_hz)


class TestCubePhase:
    def test_one_pass(self):
        cube = synthesize_radar_cube(FAMILIES["masking-b"](0, duration_s=30.0))
        got, recorder = observed(cube_phase, cube)
        assert_same_phase(got, cube_phase(cube))
        assert recorder.names == ["front_end", "demodulate"]

    def test_a_second_pass(self):
        # the first chunk leads at bin 24, the record at 25
        sc = dataclasses.replace(FAMILIES["masking"](1, duration_s=60.0),
                                 complex_noise_std=8.0)
        cube = synthesize_radar_cube(sc)
        got, recorder = observed(cube_phase, cube)
        assert got.source_bin == 25
        assert_same_phase(got, cube_phase(cube))
        assert recorder.names == ["front_end", "second_pass", "demodulate"]


class TestTraces:
    def test_conventional(self, phase):
        got, recorder = observed(conventional_trace, phase)
        assert got == conventional_trace(phase)
        assert recorder.counts() == {"band_power": BLOCKS,
                                     "measure": BLOCKS, "decide": WINDOWS}
        # a block's spectrum and measure, then its windows' decisions
        assert recorder.names[:2 + 16] == ["band_power", "measure"] \
            + ["decide"] * 16

    @pytest.mark.parametrize("method", CANCELLING)
    def test_cancelling_fits_its_own_track(self, phase, method):
        got, recorder = observed(CANCELLING[method], phase)
        assert got == CANCELLING[method](phase)
        assert recorder.names[:4] == ["breathing_track", "residuals",
                                      "band_power", "measure"]
        assert recorder.counts() == {"breathing_track": 1,
                                     "residuals": BLOCKS,
                                     "band_power": BLOCKS,
                                     "measure": BLOCKS, "decide": WINDOWS}

    @pytest.mark.parametrize("method", CANCELLING)
    def test_a_given_track_is_not_a_stage(self, phase, method):
        track = breathing_track(phase)
        got, recorder = observed(CANCELLING[method], phase, track=track)
        assert got == CANCELLING[method](phase, track=track)
        assert "breathing_track" not in recorder.names
        assert recorder.counts()["residuals"] == BLOCKS

    def test_a_shared_pass_decides_for_both_methods(self, phase):
        track = breathing_track(phase)
        recorder = Recorder()
        with shared_cancellation(), record_stages(recorder):
            eca = eca_conventional_trace(phase, track=track)
            ahet = ahet_trace(phase, track=track)
        assert (eca, ahet) == (eca_conventional_trace(phase, track=track),
                               ahet_trace(phase, track=track))
        # the kept trace runs no stage
        assert recorder.counts() == {"residuals": BLOCKS,
                                     "band_power": BLOCKS,
                                     "measure": BLOCKS,
                                     "decide": 2 * WINDOWS}


class TestScope:
    def test_outside_a_scope_nothing_is_reported(self, phase):
        recorder = Recorder()
        with record_stages(recorder):
            pass
        conventional_trace(phase)
        assert recorder.names == []

    def test_an_exception_closes_the_scope(self, phase):
        recorder = Recorder()
        with pytest.raises(RuntimeError, match="inside"):
            with record_stages(recorder):
                raise RuntimeError("inside")
        conventional_trace(phase)
        assert recorder.names == []

    def test_a_failing_stage_propagates_and_closes_the_scope(self, phase):
        # an empty scene: the front end finds no target
        recorder = Recorder()
        with pytest.raises(NoTargetError):
            with record_stages(recorder):
                cube_phase(RadarCube(np.zeros((600, 200)), RadarConfig()))
        assert recorder.names == ["front_end"]
        conventional_trace(phase)
        assert recorder.names == ["front_end"]

    def test_a_nested_scope_restores_the_outer_one(self, phase):
        outer, inner = Recorder(), Recorder()
        with record_stages(outer):
            with record_stages(inner):
                conventional_trace(phase)
            assert outer.names == []
            conventional_trace(phase)
        assert inner.names == outer.names
        assert len(outer.names) == 2 * BLOCKS + WINDOWS
