"""The golden outputs in tests/golden/ regenerate from the code as it is.

tools/golden.py writes them; this test runs it into a temporary directory.
Under the numpy build that wrote the committed files (numpy.json: its
version, SIMD baseline and the dispatch targets found on the CPU) every
file must come back byte for byte.  Under another the text must match and
each number must lie within RTOL of the largest magnitude in its column
of the committed file: another numpy, or the same one dispatching its
ufuncs to other SIMD loops on another CPU, may round the last bits of a
sum differently, and nobody has checked which builds give the same bits.
"""

import importlib.util
import json
import math
import re
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden.py"
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-6


def _tool():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cells(text: str) -> list:
    return [re.split(r"[\s,=]+", line.strip()) for line in text.splitlines()]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _mismatches(got_text: str, want_text: str) -> list:
    """Where got differs from want beyond the tolerance: a cell that is
    not a finite number must match exactly."""
    got, want = _cells(got_text), _cells(want_text)
    if len(got) != len(want):
        return [f"{len(got)} lines, want {len(want)}"]
    scale = {}
    for row in want:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None and math.isfinite(x):
                scale[j] = max(scale.get(j, 0.0), abs(x))
    bad = []
    for i, (g_row, w_row) in enumerate(zip(got, want), 1):
        if len(g_row) != len(w_row):
            bad.append(f"line {i}: {len(g_row)} cells, want {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            x, y = _number(g), _number(w)
            close = (x is not None and y is not None and math.isfinite(x)
                     and math.isfinite(y)
                     and abs(x - y) <= RTOL * scale[j])
            if g != w and not close:
                bad.append(f"line {i}: {g!r}, want {w!r}")
    return bad


def test_tolerance_is_on_each_column_scale():
    want = "a,1.0,100.0\nb,2.0,1e-9\n"
    assert _mismatches("a,1.0000005,100.00005\nb,2.0,-1e-5\n", want) == []
    assert _mismatches("a,1.0000030,100.0\nb,2.0,1e-9\n", want) \
        == ["line 1: '1.0000030', want '1.0'"]
    assert _mismatches("a,1.0,100.0\nc,2.0,inf\n", want) \
        == ["line 2: 'c', want 'b'", "line 2: 'inf', want '1e-9'"]
    assert _mismatches("a,1.0,100.0\n", want) == ["1 lines, want 2"]


def _build(doc: dict) -> str:
    return (f"numpy {doc['numpy']} (SIMD baseline "
            f"{' '.join(doc['simd_baseline']) or 'none'}, found "
            f"{' '.join(doc['simd_found']) or 'none'})")


def test_outputs_regenerate(tmp_path, capsys):
    tool = _tool()
    recorded = json.loads((GOLDEN / "numpy.json").read_text())
    running = tool.numpy_build()
    exact = running == recorded
    with capsys.disabled():
        print(f"\ngolden outputs written by {_build(recorded)}, compared "
              + ("exactly" if exact else
                 f"to a relative tolerance of {RTOL:g} under "
                 f"{_build(running)}"))
    tool.generate(tmp_path)
    got, want = _files(tmp_path), _files(GOLDEN)
    assert sorted(got) == sorted(want)
    del got["numpy.json"], want["numpy.json"]
    if exact:
        moved = [name for name in want
                 if got[name].read_bytes() != want[name].read_bytes()]
    else:
        moved = [f"{name}: {bad}" for name in want
                 if (bad := _mismatches(got[name].read_text(),
                                        want[name].read_text()))]
    assert moved == [], ("outputs moved; after a deliberate change run "
                         "python3 tools/golden.py --write")
