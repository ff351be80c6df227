"""Self-test of the benchmark's gates; proves the failure counter can fail.

    python3 perfbench/selftest.py

Runs operations through the same runner the benchmark uses (ops.run_op) and
checks that:
  - the negative controls count as failed: a sign-flipped annihilating
    operator (exit 1), and the vacuous `verify recursum --max 1`, which exits
    0 with passed: true but tests nothing;
  - a sound sweep and exact values count as passed, and a value checked
    against the wrong colors counts as failed;
  - a traced run reports the same digest as an untraced one;
  - the symmetry images the seed picks from share one nonzero value;
  - BENCHMARK.json declares the metrics and workloads that run.py reports.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import sys

import oracle
from ops import ROOT, run_op
from run import END_TO_END, PER_LAYER, UNITS
from workloads import TET_COLORS, WORKLOADS, Op, tet_images


def main() -> int:
    results = []

    def check(name: str, cond: bool, detail: str = "") -> None:
        results.append(cond)
        print(f"{'PASS' if cond else 'FAIL'}  {name}{'  (' + detail + ')' if detail else ''}")

    def run(op, traced=False):
        return run_op(op, traced, timeout=120)

    bad = run(Op(("verify", "annihilation", "--graph", "theta", "--edge", "a", "--max", "6", "--inject-bad-operator")))
    check("sign-flipped operator counts as failed", not bad.ok, bad.reason)
    vacuous = run(Op(("verify", "recursum", "--max", "1")))
    check("vacuous recursum sweep counts as failed", not vacuous.ok, vacuous.reason)

    good = run(Op(("verify", "hypergeom", "--max", "3")))
    check("sound sweep passes", good.ok, good.reason)
    traced = run(Op(("verify", "hypergeom", "--max", "3")), traced=True)
    check("traced run reports the same digest", traced.ok and traced.digest == good.digest, traced.reason)
    check("traced run records spans", bool(traced.record.get("trace", {}).get("spans")))

    for argv, value in (
        (("theta", "-c", "6,8,10"), ("theta", (6, 8, 10))),
        (("tet", "-c", "4,4,4,4,4,4"), ("tet", (4,) * 6, False)),
        (("tet", "--primed", "-c", "4,6,4,6,4,6"), ("tet", (4, 6, 4, 6, 4, 6), True)),
    ):
        r = run(Op(argv, value))
        check(f"{' '.join(argv)} matches the independent value", r.ok, r.reason)
    wrong = run(Op(("theta", "-c", "6,8,10"), ("theta", (6, 8, 8))))
    check("a value checked against other colors counts as failed", not wrong.ok, wrong.reason)

    for col, primed in TET_COLORS:
        images = tet_images(col)
        values = {oracle.tet_at_2(img, primed) for img in images}
        check(f"the {len(set(images))} symmetry images of {col} share one value", len(values) == 1 and 0 not in values)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        check(f"BENCHMARK.json {key} matches what run.py reports", declared == [(n, UNITS[n]) for n in names])
    check("BENCHMARK.json workloads match workloads.py", [w["name"] for w in spec["workloads"]] == list(WORKLOADS))

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
