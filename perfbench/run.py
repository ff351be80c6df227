"""qgraph benchmark: one workload, measured for a fixed time, from a checkout's source.

    python3 perfbench/run.py --workload sweep|large-color|numeric --seed N --seconds S --trace 0|1

A run repeats the workload's operation list (workloads.py) in passes until
the next pass would end after S seconds; it always completes one pass.  Each
operation runs in a fresh interpreter through child.py and is gated by ops.py.

End-to-end metrics (--trace 0), all from untraced operations, with times in
seconds at the reference speed (speed.py):
  wall_s       sum over the operations of their median wall time, set-up excluded
  cpu_s        the same for user+sys CPU seconds
  setup_s      median over every operation of the CPU time of interpreter start plus the
               qgraph.cli import
  peak_rss_mb  largest median max-RSS of any operation process

--trace 1 runs one untraced pass, then traced passes (spans.py), and reports
the per-layer metrics of PER_LAYER, each the median over traced passes of
the pass total, plus trace.overhead_s, traced minus untraced wall time as
measured.  Per-layer times are as measured.

The last line of stdout is the result object; lines before it, starting
with "#", give the run context and a line per operation.  Exits 2 without a
result when the checkout holds no qgraph source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from ops import ROOT, run_op
from spans import INVARIANT_CACHES
from workloads import WORKLOADS

HARD_LIMIT_S = 165.0  # every run must end well inside 180 s

RAT_OPS = tuple(
    "laurent.LaurentRat." + m
    for m in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__neg__")
)

UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "laurent.poly_gcd.calls": "count", "laurent.poly_gcd.self_s": "s", "laurent.poly_gcd.unit_frac": "frac",
    "laurent.rat_ops": "count", "laurent.rat_ops.self_s": "s", "laurent.to_laurent_rat.self_s": "s",
    "laurent.bracket_ratio_sum.self_s": "s", "laurent.bracket_ratio_sum.terms": "count",
    "laurent.rat_dot.self_s": "s", "laurent.rat_dot.zero_frac": "frac", "laurent.out_terms": "count",
    "laurent.self_s": "s",
    "invariants.calls": "count", "invariants.self_s": "s", "invariants.repeat_frac": "frac",
    "invariants.cache_entries": "count",
    "apoly.apply_operator.calls": "count", "apoly.apply_operator.self_s": "s",
    "apoly.tet_recursion_residual.self_s": "s", "apoly.annihilation_report.cpu_per_wall": "ratio",
    "apoly.self_s": "s",
    "multipoly.mul.calls": "count", "multipoly.substitute.calls": "count", "multipoly.evaluate.calls": "count",
    "multipoly.resultant_in.self_s": "s", "multipoly.self_s": "s",
    "asymptotics.log_abs_tet.self_s": "s", "asymptotics.log_abs_tet.bits": "bits",
    "asymptotics.saddle_solve_tet.calls": "count", "asymptotics.saddle_solve_tet.self_s": "s",
    "asymptotics.dilog.calls": "count", "asymptotics.self_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "bytes", "trace.overhead_s": "s",
}
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
PER_LAYER = tuple(k for k in UNITS if k not in END_TO_END)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _op_sum(passes: list, field: str) -> float:
    """Sum over the operations of their median `field` over passes."""
    return sum(statistics.median(getattr(r, field) for r in runs) for runs in zip(*passes))


def end_to_end(passes: list) -> dict:
    """Per-operation medians over passes, combined across operations."""
    per_op = list(zip(*passes))
    return {
        "wall_s": _op_sum(passes, "wall_s"),
        "cpu_s": _op_sum(passes, "cpu_s"),
        "setup_s": statistics.median([r.setup_s for p in passes for r in p if r.record] or [0.0]),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs) for runs in per_op),
    }


def layer_metrics(results: list) -> dict:
    """Per-layer totals over one traced pass."""
    calls, self_s, counters = {}, {}, {}
    layer_self = {}
    rat_self = 0.0  # LaurentRat arithmetic with the gcd and exact divisions it calls
    cache_entries = 0
    for r in results:
        trace = r.record.get("trace", {"spans": [], "counters": {}})
        for s in trace["spans"]:
            calls[s["name"]] = calls.get(s["name"], 0) + s["calls"]
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["self_s"]
            layer = s["name"].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s["self_s"]
            if s["name"] in RAT_OPS or s["parent"] in RAT_OPS:
                rat_self += s["self_s"]
        for k, v in trace["counters"].items():
            counters[k] = counters.get(k, 0) + v
        caches = r.record.get("caches", {})
        cache_entries = max(cache_entries, sum(caches[c]["currsize"] for c in INVARIANT_CACHES if c in caches))
    c, t, n = calls.get, self_s.get, counters.get
    inv_calls = sum(v for k, v in calls.items() if k.startswith("invariants."))
    return {
        "laurent.poly_gcd.calls": c("laurent.poly_gcd", 0),
        "laurent.poly_gcd.self_s": t("laurent.poly_gcd", 0.0),
        "laurent.poly_gcd.unit_frac": _ratio(n("laurent.poly_gcd.unit", 0), c("laurent.poly_gcd", 0)),
        "laurent.rat_ops": sum(c(k, 0) for k in RAT_OPS),
        "laurent.rat_ops.self_s": rat_self,
        "laurent.to_laurent_rat.self_s": t("laurent.BracketRatio.to_laurent_rat", 0.0),
        "laurent.bracket_ratio_sum.self_s": t("laurent.bracket_ratio_sum", 0.0),
        "laurent.bracket_ratio_sum.terms": n("laurent.bracket_ratio_sum.terms", 0),
        "laurent.rat_dot.self_s": t("laurent.rat_dot", 0.0),
        "laurent.rat_dot.zero_frac": _ratio(n("laurent.rat_dot.zero", 0), c("laurent.rat_dot", 0)),
        "laurent.out_terms": n("laurent.out_terms", 0),
        "laurent.self_s": layer_self.get("laurent", 0.0),
        "invariants.calls": inv_calls,
        "invariants.self_s": layer_self.get("invariants", 0.0),
        "invariants.repeat_frac": _ratio(n("invariants.repeat", 0), inv_calls),
        "invariants.cache_entries": cache_entries,
        "apoly.apply_operator.calls": c("apoly.apply_operator", 0),
        "apoly.apply_operator.self_s": t("apoly.apply_operator", 0.0),
        "apoly.tet_recursion_residual.self_s": t("apoly.tet_recursion_residual", 0.0),
        "apoly.annihilation_report.cpu_per_wall": _ratio(
            n("apoly.annihilation_report.cpu_s", 0.0), n("apoly.annihilation_report.wall_s", 0.0)
        ),
        "apoly.self_s": layer_self.get("apoly", 0.0),
        "multipoly.mul.calls": c("multipoly.MultiPoly.__mul__", 0),
        "multipoly.substitute.calls": c("multipoly.MultiPoly.substitute", 0),
        "multipoly.evaluate.calls": c("multipoly.MultiPoly.evaluate", 0),
        "multipoly.resultant_in.self_s": t("multipoly.resultant_in", 0.0),
        "multipoly.self_s": layer_self.get("multipoly", 0.0),
        "asymptotics.log_abs_tet.self_s": t("asymptotics.log_abs_tet", 0.0),
        "asymptotics.log_abs_tet.bits": n("asymptotics.log_abs_tet.bits", 0),
        "asymptotics.saddle_solve_tet.calls": c("asymptotics.saddle_solve_tet", 0),
        "asymptotics.saddle_solve_tet.self_s": t("asymptotics.saddle_solve_tet", 0.0),
        "asymptotics.dilog.calls": c("asymptotics.dilog", 0),
        "asymptotics.self_s": layer_self.get("asymptotics", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.out_bytes": sum(r.out_bytes for r in results),
    }


def run_passes(ops, traced: bool, seconds: float, started: float, at_most=None) -> list:
    """Passes over `ops` until the next pass would end after `seconds`; at least one."""
    passes = []
    while True:
        t0 = time.monotonic()
        results = []
        for op in ops:
            left = HARD_LIMIT_S - (time.monotonic() - started)
            results.append(run_op(op, traced, timeout=max(left, 1.0)))
        passes.append(results)
        if at_most is not None and len(passes) >= at_most:
            return passes
        now = time.monotonic()
        predicted_end = now - started + (now - t0)
        if predicted_end > min(seconds, HARD_LIMIT_S):
            return passes


def _mark_unstable(passes: list) -> list:
    """Fail any operation whose report differs from its first pass, traced or not."""
    first = passes[0]
    out = []
    for p in passes:
        row = []
        for r, ref in zip(p, first):
            if r.ok and ref.ok and r.digest != ref.digest:
                r = r._replace(ok=False, reason="report differs between passes")
            row.append(r)
        out.append(row)
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout, or one nested in another repository
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def context(args, load_before, load_after, passes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }


def _op_line(plain: list, traced: list) -> str:
    runs = plain + traced
    failed = sorted({r.reason for r in runs if not r.ok})
    status = "ok" if not failed else "FAILED: " + "; ".join(failed)
    wall = f"{statistics.median(r.wall_s for r in plain):8.3f}s (measured {statistics.median(r.raw_wall_s for r in plain):8.3f}s)"
    if traced:
        wall += f" traced {statistics.median(r.raw_wall_s for r in traced):8.3f}s"
    return f"# op {wall}  {runs[0].digest[:12]:12}  {' '.join(runs[0].argv)}  [{status}]"


def _span_lines(results: list, top: int = 15) -> list:
    """The spans with the most self time in one traced pass."""
    agg = {}
    for r in results:
        for s in r.record.get("trace", {}).get("spans", []):
            a = agg.setdefault((s["name"], s["parent"]), [0, 0.0, 0.0])
            a[0] += s["calls"]
            a[1] += s["total_s"]
            a[2] += s["self_s"]
    rows = sorted(agg.items(), key=lambda kv: -kv[1][2])[:top]
    return [
        f"# span self {self_s:8.3f}s  total {total:8.3f}s  calls {calls:8d}  {name} <- {parent or '-'}"
        for (name, parent), (calls, total, self_s) in rows
    ]


def _cache_line(result) -> str:
    caches = result.record.get("caches", {})
    used = [f"{k}={v['currsize']}/{v['hits']}/{v['misses']}" for k, v in sorted(caches.items()) if v["currsize"]]
    return f"# caches size/hits/misses {' '.join(result.argv)}: {' '.join(used) or '-'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qgraph" / "cli.py").is_file():
        print(f"no qgraph source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its running operation
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ops = WORKLOADS[args.workload](args.seed)
    load_before = os.getloadavg()
    started = time.monotonic()
    if args.trace:
        plain = run_passes(ops, False, args.seconds, started, at_most=1)
        traced = run_passes(ops, True, args.seconds, started)
    else:
        plain = run_passes(ops, False, args.seconds, started)
        traced = []
    load_after = os.getloadavg()

    checked = _mark_unstable(plain + traced)
    plain, traced = checked[: len(plain)], checked[len(plain):]
    results = [r for p in checked for r in p]
    failed = sum(not r.ok for r in results)

    print("# context " + json.dumps(context(args, load_before, load_after, len(checked)), sort_keys=True))
    for i, op in enumerate(ops):
        print(_op_line([p[i] for p in plain], [p[i] for p in traced]))

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = _op_sum(traced, "raw_wall_s") - _op_sum(plain, "raw_wall_s")
        for r in traced[0]:
            print(_cache_line(r))
        for line in _span_lines(traced[0]):
            print(line)
        names = PER_LAYER
    else:
        values = end_to_end(plain)
        names = END_TO_END
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in names}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
