"""Byte-identity check of the CLI's output against another source tree.

Builds every operation of the three benchmark workloads (sweep, large-color
and numeric in perfbench/workloads.py, imported read-only) for seeds 1, 2
and 7, each in text and with `--format json`: 132 argvs.  Runs each once with
PYTHONPATH=<this tree>/src and once with PYTHONPATH=PARENT_TREE/src, from an
empty working directory and without QGRAPH_CONFIG, and prints every argv
whose stdout or exit code differs.  Exits 1 if any does, 0 otherwise.  The
sweep does not depend on the seed, so repeated argvs run once per tree.

    python3 tools/report_diff.py PARENT_TREE
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 7)
JOBS = 2  # CLI processes run at once

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def argvs() -> list[tuple]:
    out = []
    for seed in SEEDS:
        for build in WORKLOADS.values():
            for op in build(seed):
                out.append(tuple(op.argv))
                out.append(("--format", "json") + tuple(op.argv))
    return out


def run(tree: Path, argv: tuple, cwd: str) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "QGRAPH_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "qgraph.cli", *argv], env=env, cwd=cwd, capture_output=True, timeout=600
    )
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the other source tree, with the package under src/")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "qgraph").is_dir():
        parser.error(f"{parent} has no src/qgraph")
    listed = argvs()
    distinct = list(dict.fromkeys(listed))
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(JOBS) as pool:
        ours = pool.map(lambda a: run(ROOT, a, cwd), distinct)
        theirs = pool.map(lambda a: run(parent, a, cwd), distinct)
        differ = {a for a, x, y in zip(distinct, ours, theirs) if x != y}
    bad = [a for a in listed if a in differ]
    for a in bad:
        print("differs:", " ".join(a))
    print(f"{len(bad)} of {len(listed)} argvs differ ({len(distinct)} distinct, each run once per tree)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
