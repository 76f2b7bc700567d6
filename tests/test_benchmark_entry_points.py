"""The library names and signatures the benchmark uses still exist.

perfbench/tracer.py names the pulsecancel functions a traced run times, and
perfbench/workloads.py and tracer.py call pulsecancel as pc.<module>.<name>;
removing or renaming one, or a parameter a call passes, would otherwise
surface only when the benchmark itself runs.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pulsecancel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _library_name(node):
    """(module, name) when node is pc.<module>.<name> (or
    self.pc.<module>.<name>), else None."""
    if not (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)):
        return None
    root = node.value.value
    if (isinstance(root, ast.Name) and root.id == "pc") \
            or (isinstance(root, ast.Attribute) and root.attr == "pc"):
        return node.value.attr, node.attr
    return None


def _library_names():
    """(module, name) of every pc.<module>.<name> in the benchmark's
    workloads and tracer, read without importing them."""
    return {name for path in (PERFBENCH / "workloads.py", TRACER)
            for node in ast.walk(ast.parse(path.read_text()))
            if (name := _library_name(node)) is not None}


def test_every_library_name_the_benchmark_uses_resolves():
    names = _library_names()
    assert ("scenario", "window_starts") in names
    assert ("eca", "eca_cancel") in names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(getattr(pulsecancel, module, None), name)]
    assert missing == []


def test_every_argument_the_tracer_binds_by_name_exists():
    # tracer._argument(pc.<module>.<name>, args, kwargs, "<parameter>")
    calls = [node for node in ast.walk(ast.parse(TRACER.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_argument"]
    assert calls
    for call in calls:
        fn, parameter = call.args[0], call.args[-1].value
        target = getattr(getattr(pulsecancel, fn.value.attr), fn.attr)
        assert parameter in inspect.signature(target).parameters, \
            (fn.attr, parameter)


def test_every_workload_call_binds_to_its_signature():
    # pc.<module>.<name>(...) in the workloads: as many positional
    # arguments and the keyword names the callable accepts
    calls = [(name, node) for node in ast.walk(ast.parse(
                 (PERFBENCH / "workloads.py").read_text()))
             if isinstance(node, ast.Call)
             and (name := _library_name(node.func)) is not None]
    assert {("ahet", "ahet_trace"), ("bench", "monte_carlo"),
            ("eca", "eca_cancel")} <= {name for name, _ in calls}
    for (module, name), call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        target = getattr(getattr(pulsecancel, module), name)
        try:
            inspect.signature(target).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{module}.{name} at line {call.lineno}: "
                                 f"{exc}") from None
