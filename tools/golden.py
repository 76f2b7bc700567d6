"""Golden outputs: small text files that pin what the command line writes.

    python3 tools/golden.py --write

regenerates tests/golden/ from the package in src/ of the checkout that
holds this script.  Run it after a deliberate change to an output and
commit what it rewrites with that change; tests/test_golden.py
regenerates them in a temporary directory and compares them with the
committed files.  They are:

- bench-masking-b/ and bench-masking-c/: rmse.csv, intervals.csv and
  report.json from `pulsecancel bench --family <family> --seeds 3
  --cpis 15,20,30 --methods conventional,eca,ahet --duration 120
  --no-timing`;
- demo/: the README's demo scenario (the JSON block of its "Command line"
  section) rendered by `synth` (the cube's sidecar cube.json, and
  truth.csv), then `run --in` for each method (run-<method>.csv),
  `compare` against the truth (compare.txt, what it prints) and
  `spectra --cancel --max-windows 2 --cpi 6 --pad 1` (spectra/, 301 rows
  a window);
- numpy.json: the numpy that wrote them, its version and its SIMD
  baseline and dispatch targets found on the CPU (numpy_build).

The cube itself (4.8 MB) is written to a temporary directory and dropped.
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pulsecancel.cli import main as cli  # noqa: E402  (this checkout's)

GOLDEN = ROOT / "tests" / "golden"
METHODS = ("conventional", "eca", "ahet")
FAMILIES = ("masking-b", "masking-c")


def _run(*argv) -> str:
    """One pulsecancel command, in process; returns what it printed to
    stdout.  Its stderr log names temporary paths and is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"pulsecancel {argv[0]} exited {status}: "
                           f"{err.getvalue()}")
    return out.getvalue()


def numpy_build() -> dict:
    """The numpy version and the SIMD code paths it runs on this CPU: the
    baseline it was built for and the dispatch targets it found.  Under
    one version, a CPU without a found target (AVX-512, say) may run
    another ufunc loop and round its last bits differently."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__,
            "simd_baseline": list(simd.get("baseline", [])),
            "simd_found": list(simd.get("found", []))}


def demo_scenario() -> str:
    """The JSON block of the README's "Command line" section."""
    section = (ROOT / "README.md").read_text().split(
        "## Command line\n", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.S).group(1)


def generate(outdir) -> None:
    """Write every golden file under outdir."""
    outdir = Path(outdir)
    for family in FAMILIES:
        _run("bench", "--family", family, "--seeds", 3,
             "--cpis", "15,20,30", "--methods", ",".join(METHODS),
             "--duration", 120, "--no-timing",
             "--out", outdir / f"bench-{family}")
    demo = outdir / "demo"
    demo.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, cube = Path(tmp) / "demo.json", Path(tmp) / "cube.bin"
        scenario.write_text(demo_scenario())
        truth = demo / "truth.csv"
        _run("synth", "--scenario", scenario, "--out", cube,
             "--truth", truth)
        shutil.copyfile(cube.with_suffix(".json"), demo / "cube.json")
        for method in METHODS:
            _run("run", "--in", cube, "--method", method,
                 "--out", demo / f"run-{method}.csv")
        (demo / "compare.txt").write_text(
            _run("compare", "--in", cube, "--truth", truth,
                 "--methods", ",".join(METHODS)))
        _run("spectra", "--in", cube, "--cancel", "--max-windows", 2,
             "--cpi", 6, "--pad", 1, "--out", demo / "spectra")
    (outdir / "numpy.json").write_text(
        json.dumps(numpy_build(), indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"regenerate {GOLDEN}")
    parser.parse_args(argv)
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    generate(GOLDEN)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
