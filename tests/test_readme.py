"""README examples stay runnable and print what the README says."""

import contextlib
import dataclasses
import io
import re
import shlex
from pathlib import Path

from pulsecancel.cli import main
from pulsecancel.ingest import FORMAT, RawCubeHeader
from pulsecancel.scenario import RadarConfig, Scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    """The text of one README section."""
    text = README.read_text()
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _python_blocks(heading: str) -> list[str]:
    """The python blocks of one README section, in order."""
    return re.findall(r"```python\n(.*?)```", _section(heading), re.S)


def test_library_use_blocks_run_and_print_what_the_readme_says():
    blocks = _python_blocks("Library use")
    assert len(blocks) == 2
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:       # each block continues the one before
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    conventional = float(re.fullmatch(r"conventional +([\d.]+) BPM",
                                      lines[0]).group(1))
    tracker = re.fullmatch(r"tracker +([\d.]+) BPM", lines[1]).group(1)
    assert abs(conventional - 62.0) < 1.0    # pulled to the masker
    assert tracker == "76.60"                # the true 76.6 BPM
    assert namespace["traces"][20.0].bpm().tolist() \
        == namespace["gated"].bpm().tolist()


def _transcript(heading: str) -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) of each `$ ` command in a section's sh blocks."""
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", _section(heading), re.S):
        for chunk in block.split("\n\n"):
            lines = chunk.splitlines()
            if lines and lines[0].startswith("$ "):
                steps.append((shlex.split(lines[0][2:]), lines[1:]))
    return steps


def test_the_scenario_paragraph_names_every_key():
    intro = _section("Command line").split("```json", 1)[0]
    named = set(re.findall(r"`(\w+)`", intro))
    assert {f.name for cls in (Scenario, RadarConfig)
            for f in dataclasses.fields(cls)} <= named
    assert {"radar", "breathing_bpm", "heartbeat_bpm"} <= named


def test_the_sidecar_paragraph_names_every_key():
    paragraph = next(text for text in _section("Command line").split("\n\n")
                     if "RawCubeHeader" in text)
    named = set(re.findall(r'`"?(\w+)', paragraph))
    assert {f.name for f in dataclasses.fields(RawCubeHeader)} | set(FORMAT) \
        <= named


def test_command_line_transcript_is_what_a_run_prints(tmp_path, monkeypatch,
                                                      capsys):
    section = _section("Command line")
    demo = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "demo.json").write_text(demo)
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, printed in _transcript("Command line"):
        if argv[0] == "head":
            # times and tags exactly; rates and gaps to 1e-6, since another
            # numpy may round the last digits differently
            lines = (tmp_path / argv[-1]).read_text().splitlines()
            lines = lines[:int(argv[1].lstrip("-"))]
            assert lines[0] == printed[0]
            for got, want in zip(lines[1:], printed[1:], strict=True):
                got, want = got.split(","), want.split(",")
                assert (got[0], got[2]) == (want[0], want[2])
                for i in (1, 3):
                    assert abs(float(got[i]) - float(want[i])) <= 1e-6
        elif argv[1] in ("synth", "run", "compare"):
            assert main(argv[1:]) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() + captured.out.splitlines() \
                == printed
        else:
            continue
        ran.append(argv[1] if argv[0] == "pulsecancel" else argv[0])
    assert ran == ["synth", "run", "head", "compare"]
    assert "wrote ahet.csv (41 windows)" in section
