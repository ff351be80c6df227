"""Byte-identity check of the CLI's output against another source tree.

Builds every operation of the three benchmark workloads (sweep, large-color
and numeric in perfbench/workloads.py, imported read-only) for seeds 1, 2
and 7, each in text and with `--format json`: 132 argvs.  EXTRA adds a fixed
list of argvs for what those never run.  Runs each once with
PYTHONPATH=<this tree>/src and once with PYTHONPATH=PARENT_TREE/src, from an
empty working directory and without QGRAPH_CONFIG, and prints every argv
whose stdout or exit code differs, with a count for each list.  Exits 1 if
any differs, 0 otherwise.  The sweep does not depend on the seed, so
repeated argvs run once per tree.

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


X_TET = "0.35,0.35,0.35,0.35,0.35,0.35"

# argvs the benchmark never runs: theta residual and lagrangian sweeps, csv
# output, the theta classical limit, --eval (also beyond a double's range),
# the injected bad operator (exit 1), a growth table whose cancellation falls
# below a double's range, a growth row at colors 9998 near the 10000 cap,
# rows past the cap, --x entries above 1, a saddle point whose curve
# overflows, the default graph and edge of each graph-dispatching command, tet
# annihilation along the edges other than 1 and 2, csv tet --primed, and the
# three sampled tet commands at 200-500 samples, whose points and saddles come
# from the sampler
EXTRA = [
    tuple(a.split())
    for a in (
        "residual --graph theta --samples 50 --seed 3",
        "--format json residual --graph theta --samples 50 --seed 3",
        "--format csv residual --graph theta --samples 50 --seed 3",
        "lagrangian --graph theta --samples 20 --seed 3",
        "--format json lagrangian --graph theta --samples 20 --seed 3",
        "--format csv residual --graph tet --samples 5 --seed 3",
        "--format csv lagrangian --graph tet --samples 5 --seed 3",
        "--format csv saddle --x " + X_TET,
        "--format csv asymptotics theta --x 0.4,0.5,0.6 --hbar -0.03125,-0.015625,-0.0078125",
        "--format csv asymptotics tet --x 0.3,0.35,0.4,0.3,0.35,0.4 --hbar -0.0078125,-0.00390625",
        "--format csv verify eliminate --samples 5",
        "--format csv verify classical-limit --graph tet",
        "verify classical-limit --graph theta",
        "--format json verify classical-limit --graph theta",
        "verify annihilation --graph theta --edge b --max 6 --inject-bad-operator",
        "--format json verify annihilation --graph tet --edge 2 --max 3 --inject-bad-operator",
        "theta -c 4,6,8 --eval 0.9",
        "--format json tet -c 2,3,3,2,3,3 --eval 0.7+0.2j",
        "tet --primed -c 2,3,3,2,3,3 --eval 0.7+0.2j",
        "--format csv tet -c 4,4,4,4,4,4 --eval 1.1",
        "theta -c 4,4,4 --eval 1e200",
        "saddle --x 0.5,0.5,1e300,0.5,0.5,0.5",
        "asymptotics tet --x " + X_TET + " --hbar -0.00047,-0.00042",
        "asymptotics tet --x " + X_TET + " --hbar -0.00042,-0.00021",
        "asymptotics tet --x 2,2,2,2,2,2 --hbar -0.1,-0.05",
        "asymptotics theta --x 1e300,1,1 --hbar -0.1,-0.05",
        "verify annihilation --max 4",
        "verify classical-limit",
        "lagrangian --samples 5",
        "residual --samples 5",
        "verify annihilation --graph tet --edge 12 --max 3",
        "verify annihilation --graph tet --edge 3 --max 3",
        "verify annihilation --graph tet --edge 4 --max 3",
        "verify annihilation --graph tet --edge 23 --max 3",
        "--format csv tet --primed -c 2,3,3,2,3,3",
        # rounds to 10000,6000,5000, which the admissibility shift takes to a
        # row at 10001,6000,5001, one past the growth-table cap
        "asymptotics theta --x 0.007574013049559057,0.05341372732716633,0.08699587882735979"
        " --hbar -0.0009765625,-0.001953125",
        # the second hbar rounds to colors near 2.1e6, past the cap: exit 2 with
        # empty stdout, before the first row (under the cap) is evaluated
        "asymptotics tet --x " + X_TET + " --hbar -0.03125,-1e-6",
        "--format json residual --graph tet --samples 500 --seed 11",
        "lagrangian --graph tet --samples 200 --seed 5",
        "--seed 9 verify eliminate --samples 200",
    )
]


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
    bench = argvs()
    distinct = list(dict.fromkeys(bench + EXTRA))
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(JOBS) as pool:
        ours = pool.map(lambda a: run(ROOT, a, cwd), distinct)
        theirs = pool.map(lambda a: run(parent, a, cwd), distinct)
        differ = {a for a, x, y in zip(distinct, ours, theirs) if x != y}
    failed = False
    for name, listed in (("benchmark", bench), ("extra", EXTRA)):
        bad = [a for a in listed if a in differ]
        for a in bad:
            print("differs:", " ".join(a))
        print(f"{len(bad)} of {len(listed)} {name} argvs differ")
        failed = failed or bool(bad)
    print(f"{len(distinct)} distinct argvs, each run once per tree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
