"""Run every workload, untraced and traced, and print all metrics by name with units.

    python3 perfbench/report.py [--seed N]

For each workload of BENCHMARK.json, at its run_seconds, this runs
`run.py --trace 0` and then `run.py --trace 1`,
prints the end-to-end metrics with failed_frac (failed over attempted
operations), the per-layer metrics, and each layer's share of the traced
self time, so the predicted split between layers can be read off directly.
Exits 1 if any operation failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("laurent", "invariants", "apoly", "multipoly", "asymptotics", "cli")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("# context") or "FAILED" in line:
            print("  " + line)
    return json.loads(lines[-1])


def _print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:42} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    any_failed = False
    for workload in names:
        print(f"== {workload} (seed {args.seed}, {seconds} s per run)")
        plain = _run(workload, args.seed, seconds, 0)
        _print_metrics(plain)
        print(f"  {'failed_frac':42} {plain['failed'] / plain['attempted']:>16.6g} frac"
              f"  ({plain['failed']} of {plain['attempted']} operations)")
        any_failed |= plain["failed"] > 0
        traced = _run(workload, args.seed, seconds, 1)
        print(f"-- {workload} traced")
        _print_metrics(traced)
        any_failed |= traced["failed"] > 0
        self_s = {layer: traced["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS}
        total = sum(self_s.values()) or 1.0
        shares = sorted(self_s.items(), key=lambda kv: -kv[1])
        print("  self-time share: " + "  ".join(f"{layer} {s / total:.1%}" for layer, s in shares))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
