"""Run one benchmark operation in a fresh, hermetic interpreter and gate its result.

An operation counts as failed unless all of these hold:
  - the process exits 0 and its launcher wrote its timing record;
  - stdout is a JSON report, and its `passed` is true where it carries one;
  - its `tested` is above 0 where it carries one (a sweep that tests nothing
    does not pass);
  - for a value operation (`theta`, `tet`), the coloring is admissible and
    the value evaluated at v = 2 equals the independent value from oracle.py.
The report's digest omits the envelope fields `tool`, `version` and
`config_hash`, so a change of configuration fields does not read as a
change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
ENVELOPE = ("tool", "version", "config_hash")


class OpResult(NamedTuple):
    argv: tuple
    ok: bool
    reason: str
    # untraced, setup_s, wall_s and cpu_s are in seconds at the reference speed (speed.py)
    setup_s: float  # CPU time from process start to the end of the qgraph.cli import
    wall_s: float  # cli.main alone
    cpu_s: float  # user+sys of cli.main alone, all threads
    raw_wall_s: float  # cli.main alone, as measured
    rss_mb: float  # max RSS of the whole process
    out_bytes: int
    digest: str
    record: dict


def child_env() -> dict:
    """The launching environment with qgraph taken from the checkout's src and hashing fixed."""
    env = dict(os.environ)
    env.pop("QGRAPH_CONFIG", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k not in ENVELOPE}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _gate(op, code: int, record: Optional[dict], out: bytes) -> tuple:
    """(reason it failed or "", report digest)."""
    if code != 0:
        return f"exit code {code}", ""
    if record is None:
        return "no timing record", ""
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not a JSON report", ""
    if not isinstance(report, dict):
        return "stdout is not a JSON object", ""
    dig = digest(report)
    if "passed" in report and report["passed"] is not True:
        return "report not passed", dig
    if "tested" in report and not (isinstance(report["tested"], int) and report["tested"] > 0):
        return "report tested nothing", dig
    if op.value is not None:
        if report.get("admissible") is not True:
            return "coloring not admissible", dig
        if op.value[0] == "theta":
            want = oracle.theta_at_2(*op.value[1])
        else:
            want = oracle.tet_at_2(op.value[1], op.value[2])
        try:
            got = oracle.value_json_at_2(report["value"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"value unreadable: {exc}", dig
        if got != want:
            return "value differs from the independent evaluation at v = 2", dig
    elif "passed" not in report:
        return "report carries no verdict", dig
    return "", dig


def run_op(op, traced: bool, timeout: float) -> OpResult:
    """Run `op` once and wait for its process to end; never raises on program failure."""
    cmd = [sys.executable, str(CHILD), "1" if traced else "0", "--", "--format", "json", *op.argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=str(ROOT), timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        return OpResult(op.argv, False, f"killed after {timeout:.0f} s", 0.0, timeout, 0.0, timeout, 0.0, 0, "", {})
    ended = time.monotonic()
    try:
        record = json.loads(proc.stdout)
    except ValueError:
        record = None
    out = record.pop("out").encode() if record else b""
    reason, dig = _gate(op, proc.returncode, record, out)
    if record is None:
        return OpResult(op.argv, False, reason, 0.0, ended - spawned, 0.0, ended - spawned, 0.0, 0, "", {})
    return OpResult(
        op.argv, not reason, reason, record["setup_s"], record["wall_s"], record["cpu_s"], record["raw_wall_s"],
        record["rss_kb"] / 1024.0, len(out), dig, record,
    )
