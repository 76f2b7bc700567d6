"""Shared signal and trace containers used across the pipeline."""

import math
from dataclasses import dataclass, field, fields

import numpy as np


def equal_fields(self, other):
    """A dataclass __eq__ for records that hold arrays: field by field,
    each array element by element (np.array_equal), where the generated
    one raises on a truth value of several elements."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


@dataclass(eq=False)
class PhaseSignal:
    """Unwrapped slow-time phase in radians; phases compare and hash by
    identity.

    samples holds the demodulated phase at the slow-time (frame) rate.
    source_bin is the range bin the phase came from, or -1 for synthetic
    phase that never went through a range FFT.  dropouts counts samples
    whose I/Q magnitude was zero and whose phase was carried forward.
    """

    samples: np.ndarray
    sample_rate: float
    source_bin: int = -1
    dropouts: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("phase samples must be 1-D")
        if not np.isfinite(self.samples).all():
            raise ValueError("phase samples must be finite")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be finite and positive, got "
                             f"{self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate


@dataclass
class TraceEntry:
    """One heart-rate estimate: window-center time, BPM, tag, credibility gap."""

    time_s: float
    hr_bpm: float
    tag: str
    delta_hz: float = 0.0


@dataclass
class HrTrace:
    """Time series of heart-rate estimates from one tracking run."""

    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def append(self, entry: TraceEntry):
        self.entries.append(entry)

    def times(self) -> np.ndarray:
        return np.array([e.time_s for e in self.entries], dtype=float)

    def bpm(self) -> np.ndarray:
        return np.array([e.hr_bpm for e in self.entries], dtype=float)

    def tags(self) -> list[str]:
        return [e.tag for e in self.entries]

