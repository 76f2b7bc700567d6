"""The functions the benchmark's tracer wraps still exist.

perfbench/tracer.py names the pulsecancel functions a traced run times;
removing or renaming one would otherwise surface only when the benchmark
itself runs.
"""

import importlib.util
from pathlib import Path

import pulsecancel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_FUNCTIONS


def test_every_traced_function_resolves():
    pairs = _span_functions()
    assert pairs
    missing = [f"{layer}.{name}" for layer, name in pairs
               if not callable(getattr(getattr(pulsecancel, layer, None),
                                       name, None))]
    assert missing == []
