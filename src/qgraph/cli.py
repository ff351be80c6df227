"""Command-line front end: exact values, verification sweeps, numeric checks.

Exit codes follow one contract everywhere: 0 means every check passed,
1 means a mathematical verification failed, 2 means the invocation or
configuration was malformed.  Reports embed the adopted summand convention,
the tool version, and a hash of the effective configuration, and identical
configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from typing import Optional

from . import config as cfgmod
from .apoly import (
    TET_EDGES,
    THETA_EDGES,
    OperatorPoly,
    annihilation_report,
    apply_operator,
    classical_limit,
    eliminate_saddle,
    interior_colorings,
    sweep,
    tet_classical_A,
    tet_quantum_A,
    tet_recursion_residual,
    theta_classical_A,
    theta_quantum_A,
)
from .asymptotics import (
    check_residual_theta,
    growth_check_tet,
    growth_check_theta,
    lagrangian_residual,
    sample_tet_point,
    sample_theta_point,
    saddle_solve_tet,
    saddle_twists_tet,
)
from .invariants import (
    CONVENTION_TRIANGLE,
    TetColoring,
    enumerate_tet_colorings,
    enumerate_theta_colorings,
    invariant_record,
    tet_full,
    tet_hypergeom,
    tet_is_admissible,
    tet_primed,
    tet_symmetry_orbit,
    theta_invariant,
    theta_recursion_factor,
    theta_reduction_check,
)
from .multipoly import MultiPoly, compare_up_to_unit, exact_div_multi

try:
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("qgraph")
except Exception:
    VERSION = "0.1.0"


class UsageError(ValueError):
    """Malformed command input; maps to exit code 2."""


# -- small parsers and formatters ----------------------------------------------------------


def _parse_ints(text: str, want: int, what: str) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be comma-separated integers: {exc}")
    if len(vals) != want:
        raise UsageError(f"{what} needs exactly {want} entries, got {len(vals)}")
    if any(v < 0 for v in vals):
        raise UsageError(f"{what} must be nonnegative")
    return vals


def _parse_floats(text: str, want: Optional[int], what: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be comma-separated decimals: {exc}")
    if want is not None and len(vals) != want:
        raise UsageError(f"{what} needs exactly {want} entries, got {len(vals)}")
    return vals


def _parse_complex(text: str, what: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"{what} must parse as a complex number: {exc}")


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _fmt_scalar(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt_scalar(x) for x in v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


# -- report rendering ------------------------------------------------------------------------


def _envelope(cfg, **payload) -> dict:
    out = {
        "tool": "qgraph",
        "version": VERSION,
        "convention": CONVENTION_TRIANGLE,
        "config_hash": cfgmod.config_hash(cfg),
    }
    out.update(payload)
    return out


def _render(report: dict, rows, fmt: str) -> str:
    # rows: None, or (column names, list of per-row dicts)
    if fmt == "json":
        obj = dict(report)
        if rows is not None:
            cols, data = rows
            obj["rows"] = [{c: r.get(c) for c in cols} for r in data]
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(report):
            buf.write(f"# {key}={_fmt_scalar(report[key])}\n")
        if rows is not None:
            cols, data = rows
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(cols)
            for r in data:
                writer.writerow([_fmt_scalar(r.get(c)) for c in cols])
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["key", "value"])
            for key in sorted(report):
                writer.writerow([key, _fmt_scalar(report[key])])
        return buf.getvalue()
    lines = []
    for key, value in report.items():
        lines.append(f"{key}: {_fmt_scalar(value)}")
    if rows is not None:
        cols, data = rows
        lines.append("  ".join(cols))
        for r in data:
            lines.append("  ".join(_fmt_scalar(r.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


# -- invariant values ------------------------------------------------------------------------


def cmd_invariant(args, cfg):
    graph = args.command
    want = 3 if graph == "theta" else 6
    colors = _parse_ints(args.colors, want, "--colors")
    if graph == "tet" and args.primed:
        col = TetColoring(*colors)
        value = tet_primed(col)
        record = {
            "graph": "tet",
            "colors": list(colors),
            "value": value.to_json_obj(),
            "admissible": tet_is_admissible(col),
            "convention": CONVENTION_TRIANGLE,
            "primed": True,
        }
    else:
        record = invariant_record(graph, colors)
        value = theta_invariant(*colors) if graph == "theta" else tet_full(colors)
    report = _envelope(cfg, **record)
    report["text"] = str(value)
    if args.eval is not None:
        v0 = _parse_complex(args.eval, "--eval")
        num = value.eval_complex(v0, precision=cfg.precision)
        report["evaluation"] = {"v0": _complex_obj(v0), "value": _complex_obj(num)}
    return 0, report, None


def _render_invariant_text(report: dict) -> str:
    lines = [report["text"]]
    if not report["admissible"]:
        lines.append("admissible: false")
    if "evaluation" in report:
        ev = report["evaluation"]["value"]
        lines.append(f"evaluation: {ev['re']!r} + {ev['im']!r}j")
    return "\n".join(lines) + "\n"


# -- verification sweeps -----------------------------------------------------------------------


_VERIFY_DEFAULT_MAX = {
    "theta-recursion": 20,
    "annihilation": 8,
    "symmetry": 6,
    "reduction": 10,
    "hypergeom": 4,
    "recursum": 8,
}


def _effective_max(args, cfg, check: str) -> int:
    if getattr(args, "max", None) is not None:
        if args.max < 0:
            raise UsageError("--max must be nonnegative")
        return args.max
    if cfg.grid_max is not None:
        return cfg.grid_max
    return _VERIFY_DEFAULT_MAX.get(check, 8)


def _sign_flipped(op: OperatorPoly) -> OperatorPoly:
    # negate the top shift coefficient: a deliberately broken operator for
    # the negative control path
    coeffs = list(op.coeffs)
    coeffs[-1] = MultiPoly.zero() - coeffs[-1]
    return OperatorPoly(op.graph, op.edge, tuple(coeffs))


def _verify_theta_recursion(args, cfg):
    mx = _effective_max(args, cfg, "theta-recursion")

    def check(col):
        a, b, c = col
        lhs = theta_invariant(a + 2, b, c)
        rhs = theta_recursion_factor(a, b, c) * theta_invariant(a, b, c)
        return [{"colors": [a, b, c]}] if lhs != rhs else []

    # interior colorings along edge a are those whose (a + 2, b, c) shift is admissible
    cols = interior_colorings("theta", "a", mx, 1)
    return {"check": "theta-recursion", "grid_max": mx, **sweep(check, cols)}


def _verify_annihilation(args, cfg):
    mx = _effective_max(args, cfg, "annihilation")
    graph = args.graph or "theta"
    edges = THETA_EDGES if graph == "theta" else TET_EDGES
    edge = args.edge or edges[0]
    if edge not in edges:
        raise UsageError(f"unknown {graph} edge {edge!r}")
    operator = None
    if args.inject_bad_operator:
        base = theta_quantum_A(edge) if graph == "theta" else tet_quantum_A(edge)
        operator = _sign_flipped(base)
    report = annihilation_report(graph, edge, mx, operator=operator)
    report["injected_bad_operator"] = bool(args.inject_bad_operator)
    return report


def _verify_classical_limit(args, cfg):
    graph = args.graph or "theta"
    failures = []
    units = {}
    if graph == "theta":
        for edge in THETA_EDGES:
            lim = classical_limit(theta_quantum_A(edge)).poly
            unit = compare_up_to_unit(lim, theta_classical_A(edge).poly)
            if unit is None:
                failures.append({"edge": edge})
            else:
                units[edge] = str(unit)
    else:
        for edge in TET_EDGES:
            lim = classical_limit(tet_quantum_A(edge)).poly
            cur = tet_classical_A(edge).poly
            expected = MultiPoly.one() - MultiPoly.var("x_" + edge, 2)
            try:
                cofactor = exact_div_multi(lim, cur)
            except ValueError:
                failures.append({"edge": edge})
                continue
            if cofactor != expected:
                failures.append({"edge": edge})
            else:
                units[edge] = str(cofactor)
    return {
        "check": "classical-limit",
        "graph": graph,
        "tested": len(THETA_EDGES if graph == "theta" else TET_EDGES),
        "units": units,
        "failures": failures,
    }


def _verify_symmetry(args, cfg):
    mx = _effective_max(args, cfg, "symmetry")

    def check(col):
        full = tet_full(col)
        primed = tet_primed(col)
        return [
            {"colors": list(col), "image": list(img)}
            for img in tet_symmetry_orbit(col)
            if tet_full(tuple(img)) != full or tet_primed(tuple(img)) != primed
        ]

    return {"check": "symmetry", "grid_max": mx, **sweep(check, enumerate_tet_colorings(mx))}


def _verify_reduction(args, cfg):
    mx = _effective_max(args, cfg, "reduction")
    units = set()

    def check(col):
        ok, unit = theta_reduction_check(*col)
        if not ok:
            return [{"colors": list(col)}]
        if unit is not None:
            units.add(str(unit))
        return []

    result = sweep(check, enumerate_theta_colorings(mx))
    return {
        "check": "reduction",
        "grid_max": mx,
        "tested": result["tested"],
        "units": sorted(units),
        "failures": result["failures"],
    }


def _verify_hypergeom(args, cfg):
    mx = _effective_max(args, cfg, "hypergeom")

    def check(col):
        return [{"colors": list(col)}] if tet_hypergeom(col) != tet_primed(col) else []

    return {"check": "hypergeom", "grid_max": mx, **sweep(check, enumerate_tet_colorings(mx))}


def _verify_recursum(args, cfg):
    mx = _effective_max(args, cfg, "recursum")
    op = tet_quantum_A("1")

    def check(col):
        j1 = col[0]
        rest = tuple(col)[1:]
        if not (
            tet_is_admissible((j1 + 2,) + rest) and tet_is_admissible((j1 - 2,) + rest)
        ):
            return None
        failures = []
        if not tet_recursion_residual(col).is_zero():
            failures.append({"colors": list(col), "route": "recursion"})
        if not apply_operator(op, "tet-primed", col).is_zero():
            failures.append({"colors": list(col), "route": "operator"})
        return failures

    return {"check": "recursum", "grid_max": mx, **sweep(check, enumerate_tet_colorings(mx))}


def _verify_eliminate(args, cfg):
    samples = args.samples if args.samples is not None else 20
    tol = cfg.tolerances["resultant"]
    try:
        res = eliminate_saddle()
        divides = True
    except ValueError:
        return {"check": "eliminate", "divides": False, "failures": [{"stage": "symbolic"}]}
    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(samples):
        x = sample_tet_point(rng)
        rec = saddle_solve_tet(x)
        point = {"x_" + lab: complex(v) for lab, v in zip(TET_EDGES, x)}
        point["y_1"] = rec.y1
        worst = max(worst, abs(res.evaluate(point)))
    failures = [] if worst <= tol else [{"stage": "numeric", "max_residual": worst}]
    return {
        "check": "eliminate",
        "divides": divides,
        "resultant_terms": len(res.terms),
        "samples": samples,
        "seed": cfg.seed,
        "max_residual": worst,
        "tolerance": tol,
        "failures": failures,
    }


_VERIFY_CHECKS = {
    "theta-recursion": _verify_theta_recursion,
    "annihilation": _verify_annihilation,
    "classical-limit": _verify_classical_limit,
    "symmetry": _verify_symmetry,
    "reduction": _verify_reduction,
    "hypergeom": _verify_hypergeom,
    "recursum": _verify_recursum,
    "eliminate": _verify_eliminate,
}


def cmd_verify(args, cfg):
    payload = _VERIFY_CHECKS[args.check](args, cfg)
    if payload.get("tested") == 0:
        raise UsageError(
            f"verify {args.check} tested no colorings at grid bound {payload['grid_max']}"
        )
    report = _envelope(cfg, **payload)
    code = 0 if not report.get("failures") else 1
    report["passed"] = code == 0
    return code, report, None


# -- numeric checks ----------------------------------------------------------------------------


_GROWTH_COLUMNS = ["hbar", "colors", "scaled_log_abs", "target", "error", "status", "notes"]


def cmd_asymptotics(args, cfg):
    want = 3 if args.graph == "theta" else 6
    x = _parse_floats(args.x, want, "--x")
    hbars = _parse_floats(args.hbar, None, "--hbar")
    if not hbars or any(h >= 0 for h in hbars):
        raise UsageError("--hbar needs a nonempty list of negative reals")
    if args.graph == "theta":
        table = growth_check_theta(x, hbars)
    else:
        table = growth_check_tet(x, hbars)
    rows = []
    usable = 0
    for r in table.rows:
        ok = r.error == r.error and math.isfinite(r.error)
        usable += ok
        rows.append(
            {
                "hbar": r.hbar,
                "colors": ",".join(str(c) for c in r.colors) if r.colors else "",
                "scaled_log_abs": r.scaled_log_abs,
                "target": r.target,
                "error": r.error if ok else None,
                "status": "ok" if ok else "skipped",
                "notes": "; ".join(r.notes),
            }
        )
    lo = cfg.tolerances["growth_ratio_low"]
    hi = cfg.tolerances["growth_ratio_high"]
    rich_tol = cfg.tolerances["richardson_rel"]
    problems = []
    if usable < 2:
        problems.append("needs at least two usable rows")
    else:
        if not table.monotone:
            problems.append("errors are not monotonically shrinking")
        for ratio in table.error_ratios:
            if not lo <= ratio <= hi:
                problems.append(f"error ratio {ratio!r} outside [{lo}, {hi}]")
        if not table.richardson_rel_err <= rich_tol:
            problems.append(f"extrapolation misses target by {table.richardson_rel_err!r}")
    payload = {
        "check": "asymptotics",
        "graph": table.graph,
        "x": list(x),
        "target": table.target,
        "error_ratios": list(table.error_ratios),
        "monotone": table.monotone,
        "richardson": table.richardson,
        "richardson_rel_err": table.richardson_rel_err,
        "ratio_window": [lo, hi],
        "richardson_tolerance": rich_tol,
        "problems": problems,
    }
    report = _envelope(cfg, **payload)
    report["passed"] = not problems
    return (0 if not problems else 1), report, (_GROWTH_COLUMNS, rows)


_SADDLE_COLUMNS = ["index", "re", "im", "curve_residual", "lattice_residual", "chosen"]


def cmd_saddle(args, cfg):
    x = _parse_floats(args.x, 6, "--x")
    tol = cfg.tolerances["saddle"]
    rec = saddle_solve_tet(x)
    rows = []
    for i, z in enumerate(rec.z_roots):
        rows.append(
            {
                "index": i,
                "re": z.real,
                "im": z.imag,
                "curve_residual": rec.curve_errors[i],
                "lattice_residual": rec.lattice_errors[i],
                "chosen": "yes" if i == rec.chosen else "no",
            }
        )
    payload = {
        "check": "saddle",
        "x": list(x),
        "degenerate": rec.degenerate,
        "chosen": rec.chosen,
        "residual": rec.residual,
        "tolerance": tol,
    }
    if not rec.degenerate:
        payload["y1"] = _complex_obj(rec.y1)
    report = _envelope(cfg, **payload)
    passed = (not rec.degenerate) and rec.residual <= tol
    report["passed"] = passed
    return (0 if passed else 1), report, (_SADDLE_COLUMNS, rows)


_LAGRANGIAN_COLUMNS = ["index", "x", "asymmetry"]


def cmd_lagrangian(args, cfg):
    graph = args.graph
    samples = args.samples if args.samples is not None else (50 if graph == "theta" else 20)
    seed = args.seed if args.seed is not None else cfg.seed
    step = args.step
    if step <= 0:
        raise UsageError("--step must be positive")
    tol = cfg.tolerances["lagrangian_theta" if graph == "theta" else "lagrangian_tet"]
    rng = random.Random(seed)
    rows = []
    worst = 0.0
    for i in range(samples):
        x = sample_theta_point(rng) if graph == "theta" else sample_tet_point(rng)
        asym = lagrangian_residual(graph, x, step=step)
        worst = max(worst, asym)
        rows.append(
            {"index": i, "x": ",".join(repr(v) for v in x), "asymmetry": asym}
        )
    payload = {
        "check": "lagrangian",
        "graph": graph,
        "samples": samples,
        "seed": seed,
        "step": step,
        "max_asymmetry": worst,
        "tolerance": tol,
    }
    report = _envelope(cfg, **payload)
    passed = worst <= tol
    report["passed"] = passed
    return (0 if passed else 1), report, (_LAGRANGIAN_COLUMNS, rows)


_RESIDUAL_COLUMNS = ["index", "x", "residual", "status"]


def cmd_residual(args, cfg):
    graph = args.graph
    samples = args.samples if args.samples is not None else (100 if graph == "theta" else 20)
    seed = args.seed if args.seed is not None else cfg.seed
    tol = cfg.tolerances["residual_theta" if graph == "theta" else "residual_tet"]
    rng = random.Random(seed)
    rows = []
    worst = 0.0
    skipped = 0
    for i in range(samples):
        if graph == "theta":
            x = tuple(rng.uniform(0.1, 0.9) for _ in range(3))
            res = check_residual_theta(x)
            vals = list(res.values())
            if any(v != v for v in vals):
                skipped += 1
                rows.append({"index": i, "x": ",".join(repr(v) for v in x), "residual": None, "status": "skipped"})
                continue
            value = max(vals)
        else:
            x = sample_tet_point(rng)
            rec = saddle_solve_tet(x)
            ys = saddle_twists_tet(x, rec.z_roots[rec.chosen]).y
            base = {"x_" + lab: complex(v) for lab, v in zip(TET_EDGES, x)}
            value = 0.0
            for edge in TET_EDGES:
                point = dict(base)
                point["y_" + edge] = ys[edge]
                value = max(value, abs(tet_classical_A(edge).poly.evaluate(point)))
        worst = max(worst, value)
        rows.append(
            {"index": i, "x": ",".join(repr(v) for v in x), "residual": value, "status": "ok"}
        )
    payload = {
        "check": "residual",
        "graph": graph,
        "samples": samples,
        "seed": seed,
        "skipped": skipped,
        "max_residual": worst,
        "tolerance": tol,
    }
    report = _envelope(cfg, **payload)
    passed = worst <= tol
    report["passed"] = passed
    return (0 if passed else 1), report, (_RESIDUAL_COLUMNS, rows)


# -- argument plumbing -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Exact and numeric checks for colored trivalent-graph invariants.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument(
        "--format", choices=cfgmod.OUTPUT_FORMATS, help="output format override"
    )
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--precision", type=int, help="evaluation precision bits")
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override, repeatable",
    )
    parser.add_argument("--grid-max", type=int, help="verification grid bound override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="exact theta invariant")
    p_theta.add_argument("-c", "--colors", required=True, help="a,b,c")
    p_theta.add_argument("--eval", help="also evaluate at this value of q^(1/2)")

    p_tet = sub.add_parser("tet", help="exact tetrahedron invariant")
    p_tet.add_argument("-c", "--colors", required=True, help="j1,j2,j12,j3,j4,j23")
    p_tet.add_argument("--primed", action="store_true", help="normalized summation form")
    p_tet.add_argument("--eval", help="also evaluate at this value of q^(1/2)")

    p_verify = sub.add_parser("verify", help="exact verification sweeps")
    p_verify.add_argument("check", choices=sorted(_VERIFY_CHECKS))
    p_verify.add_argument("--max", type=int, help="grid bound (color entries)")
    p_verify.add_argument("--graph", choices=["theta", "tet"], help="graph family")
    p_verify.add_argument("--edge", help="edge label for operator checks")
    p_verify.add_argument("--samples", type=int, help="numeric sample count")
    p_verify.add_argument(
        "--inject-bad-operator",
        action="store_true",
        help="negative control: use a sign-flipped operator and expect failure",
    )

    p_asym = sub.add_parser("asymptotics", help="growth table against the potential")
    p_asym.add_argument("graph", choices=["theta", "tet"])
    p_asym.add_argument("--x", required=True, help="eigenvalue list")
    p_asym.add_argument("--hbar", required=True, help="negative hbar list")

    p_saddle = sub.add_parser("saddle", help="tetrahedron saddle roots")
    p_saddle.add_argument("--x", required=True, help="six eigenvalues")

    p_lag = sub.add_parser("lagrangian", help="twist Jacobian symmetry sweep")
    p_lag.add_argument("--graph", choices=["theta", "tet"], default="theta")
    p_lag.add_argument("--samples", type=int)
    p_lag.add_argument("--seed", type=int)
    p_lag.add_argument("--step", type=float, default=1e-5)

    p_res = sub.add_parser("residual", help="classical curve residual sweep")
    p_res.add_argument("--graph", choices=["theta", "tet"], default="theta")
    p_res.add_argument("--samples", type=int)
    p_res.add_argument("--seed", type=int)

    return parser


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.format is not None:
        overrides["output_format"] = args.format
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.precision is not None:
        overrides["precision"] = args.precision
    if args.grid_max is not None:
        overrides["grid_max"] = args.grid_max
    if args.tol:
        tols = {}
        for item in args.tol:
            name, _, value = item.partition("=")
            if not _:
                raise cfgmod.ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
            try:
                tols[name] = float(value)
            except ValueError as exc:
                raise cfgmod.ConfigError(f"bad tolerance value in {item!r}: {exc}")
        overrides["tolerances"] = tols
    return overrides


_DISPATCH = {
    "theta": cmd_invariant,
    "tet": cmd_invariant,
    "verify": cmd_verify,
    "asymptotics": cmd_asymptotics,
    "saddle": cmd_saddle,
    "lagrangian": cmd_lagrangian,
    "residual": cmd_residual,
}


# long flags whose values may begin with a minus sign; joined with "=" so the
# parser does not mistake a negative list for an option name
_NEGATIVE_VALUE_FLAGS = ("--hbar", "--x", "--eval", "--step")


def _join_negative_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _NEGATIVE_VALUE_FLAGS
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(tok + "=" + nxt)
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(list(argv)))
    if getattr(args, "samples", None) is not None and args.samples < 1:
        print("usage error: --samples must be at least 1", file=sys.stderr)
        return 2
    try:
        cfg = cfgmod.load_config(path=args.config)
        cfg = cfgmod.merge(cfg, _flag_overrides(args))
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report, rows = _DISPATCH[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    fmt = cfg.output_format
    if fmt == "text" and args.command in ("theta", "tet"):
        sys.stdout.write(_render_invariant_text(report))
    else:
        sys.stdout.write(_render(report, rows, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
