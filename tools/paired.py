"""Paired benchmark runs: this checkout against another revision, in one
session.

    python3 tools/paired.py --against HEAD~1 --workload stream-windows \\
        --seed 0 --pairs 10

REV is unpacked with `git archive` (local git only) into a temporary
directory, the parent tree; the change tree is the checkout that holds this
script, as it stands on disk.  Each pair runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0 [--tiny]

from the root of each tree, one tree after the other; the side that goes
first alternates from pair to pair (the parent first in the first pair), so
a slow spell of the host is shared out.  Before every run both trees'
src/pulsecancel/__pycache__ is removed, and the runs write no bytecode, so
each imports its package from source.  T defaults to BENCHMARK.json's
run_seconds.  Nothing under perfbench/ is edited.

It prints one row per end-to-end metric that BENCHMARK.json declares: the
parent's and the change's median with their quartiles over the pairs, the
relative change of the medians, and the pairs the change won in the
metric's better direction (ties count for neither), then the failed and
attempted operations of each side.  It says so when perfbench/ or
BENCHMARK.json differs between the trees.  It writes every pair's result
lines (the last line of each perfbench run) as JSON, to --out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900.0


def _git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True,
                          capture_output=True).stdout


def revisions(rev: str) -> dict:
    """The parent's commit, and the change's: HEAD, marked -dirty when a
    tracked file differs from it."""
    return {"parent": _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            .decode().strip(),
            "change": _git("describe", "--always", "--dirty", "--abbrev=40")
            .decode().strip()}


def same_benchmark(rev: str) -> bool:
    """Whether this checkout's perfbench/ and BENCHMARK.json are rev's."""
    return subprocess.run(["git", "diff", "--quiet", rev, "--", "perfbench",
                           "BENCHMARK.json"], cwd=ROOT).returncode == 0


def unpack(rev: str, where: Path) -> Path:
    """The tree of commit rev, unpacked under where."""
    tree = where / "parent"
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)],
                   input=_git("archive", "--format=tar", rev), check=True)
    return tree


def _pycache(tree: Path) -> Path:
    return tree / "src" / "pulsecancel" / "__pycache__"


def bench(tree: Path, args) -> dict:
    """One perfbench run from tree's root: its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", "0"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(trees: dict, args) -> list:
    """args.pairs pairs of runs, the first side alternating.  Each pair
    records its run order, each side's result line and whether a run left
    its tree's package bytecode behind."""
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results, kept = {}, {}
        for side in order:
            for tree in trees.values():
                shutil.rmtree(_pycache(tree), ignore_errors=True)
            results[side] = bench(trees[side], args)
            kept[side] = _pycache(trees[side]).exists()
            print(f"pair {i + 1}/{args.pairs}: {side} done", file=sys.stderr)
        pairs.append({"order": list(order), "results": results,
                      "pycache_kept": kept})
    return pairs


def _spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def table(pairs: list, metrics: list) -> list:
    """One line per end-to-end metric, after a header."""
    lines = [f"{'metric':17s} {'unit':6s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'change':>8s} {'won':>6s}"]
    for metric in metrics:
        name = metric["name"]
        values = {side: [p["results"][side]["metrics"][name]["value"]
                         for p in pairs] for side in SIDES}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0
                  for p, c in zip(values["parent"], values["change"]))
        before, after = (statistics.median(values[s]) for s in SIDES)
        change = (f"{(after - before) / abs(before):+.2%}" if before
                  else "n/a")
        lines.append(f"{name:17s} {metric['unit']:6s} "
                     f"{_spread(values['parent']):>34s} "
                     f"{_spread(values['change']):>34s} {change:>8s} "
                     f"{f'{won}/{len(pairs)}':>6s}")
    return lines


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True, metavar="REV",
                   help="the parent revision, e.g. HEAD~1")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="perfbench's --seconds (default: BENCHMARK.json's "
                        "run_seconds)")
    p.add_argument("--tiny", action="store_true",
                   help="perfbench's 40 s records and 2-record panels")
    p.add_argument("--out", type=Path,
                   help="JSON file for the pairs (default: .perfbench_out/"
                        "paired-<workload>-seed<seed>.json)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")
    out = args.out or (ROOT / ".perfbench_out"
                       / f"paired-{args.workload}-seed{args.seed}.json")
    revs = revisions(args.against)
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        trees = {"parent": unpack(args.against, Path(tmp)), "change": ROOT}
        pairs = run_pairs(trees, args)
    doc = {"schema": "pulsecancel paired runs 1", "revisions": revs,
           "same_benchmark": same_benchmark(args.against),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "tiny": args.tiny, "pairs": pairs}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g}"
          f"{' tiny' if args.tiny else ''}, {args.pairs} pairs: parent "
          f"{revs['parent']}, change {revs['change']}")
    if not doc["same_benchmark"]:
        print("perfbench/ or BENCHMARK.json differs between the trees: the "
              "sides did not run the same benchmark")
    print("\n".join(table(pairs, spec["end_to_end"])))
    print("operations failed / attempted: " + ", ".join(
        f"{side} {sum(p['results'][side]['failed'] for p in pairs)}/"
        f"{sum(p['results'][side]['attempted'] for p in pairs)}"
        for side in SIDES))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
