"""Shared signal and trace containers used across the pipeline, and the
one type rule for settings records."""

import math
import numbers
import typing
from dataclasses import dataclass, field, fields

import numpy as np


def finite_real(value) -> bool:
    """A number that is finite as a float; a bool is no number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int past the largest float
        return False


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# The test and the wording for a field annotated float, int or bool: a
# float field takes an int but not a NaN, and a bool is not a number.
_KINDS = {float: (finite_real, "a finite number"),
          int: (_integer, "an integer"),
          bool: (lambda value: isinstance(value, bool), "true or false")}


def _kind(cls) -> tuple:
    """(test, wording) for a field annotated cls: from _KINDS, or, for any
    other class, an instance of it."""
    return _KINDS.get(cls, (lambda value: isinstance(value, cls),
                            f"a {cls.__name__}"))


def check_fields(record) -> None:
    """Hold each field of a dataclass to its annotation, or raise
    ValueError naming the field and the value: a float field holds a
    finite real, an int field an integer, a bool field a bool, a field
    annotated with any other class an instance of it, and a union what
    any one of its members takes."""
    for f in fields(record):
        value = getattr(record, f.name)
        kinds = [_kind(cls) for cls in typing.get_args(f.type) or (f.type,)]
        if not any(holds(value) for holds, _ in kinds):
            wording = " or ".join(what for _, what in kinds)
            raise ValueError(f"{f.name} must be {wording}, got {value!r}")


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

