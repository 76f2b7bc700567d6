"""README examples stay runnable and print what the README says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(heading: str) -> list[str]:
    """The python blocks of one README section, in order."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


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
