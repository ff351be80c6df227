"""Command-line front end: exact values, verification sweeps, numeric checks.

Exit codes follow one contract everywhere: 0 means every check passed,
1 means a mathematical verification failed, 2 means the invocation or
configuration was malformed, and 3 means the program itself failed: any
other exception, reported as one `internal error:` line on stderr.
Reports embed the adopted summand convention, the tool version, and a hash
of the effective configuration, and identical configuration produces
byte-identical output.
"""

from __future__ import annotations

import cmath
import csv
import functools
import gc
import io
import json
import math
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from . import config as cfgmod
from .apoly import (
    GRAPHS,
    TET_EDGES,
    OperatorPoly,
    annihilation_report,
    classical_limit,
    eliminate_saddle,
    interior_colorings,
    operator_vanishes,
    sweep,
    tet_quantum_A,
    tet_recursion_vanishes,
)
from .asymptotics import (
    LAGRANGIAN_STEP,
    GrowthInputError,
    LadderExhaustedError,
    SingularPointError,
    check_residual_tet,
    check_residual_theta,
    growth_check_tet,
    growth_check_theta,
    lagrangian_residual,
    sample_tet_record,
    sample_theta_point,
    saddle_solve_tet,
)
from .invariants import (
    CONVENTION_TRIANGLE,
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
from .multipoly import MultiPoly, compare_up_to_unit

# kept equal to pyproject.toml's version by tests/test_cli.py; a literal, because
# importlib.metadata scans every installed distribution on each import
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
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{what} entries must be finite, got {text}")
    return vals


def _parse_complex(text: str, what: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"{what} must parse as a complex number: {exc}")
    if not cmath.isfinite(z):
        raise UsageError(f"{what} must be finite, got {text}")
    return z


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _json_safe(obj):
    """obj with every non-finite float replaced by None.

    RFC 8259 has no NaN or Infinity, so a strict parser rejects what
    json.dumps writes for them by default; they render as null instead.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _nulled(write, obj) -> str:
    """write(obj), with every non-finite float of obj written as null."""
    try:
        return write(obj)
    except ValueError:  # a non-finite float; walking every report for one would cost large values
        return write(_json_safe(obj))


_compact = json.JSONEncoder(allow_nan=False, sort_keys=True).encode


def _dumps(obj) -> str:
    return _nulled(_compact, obj)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))


@functools.lru_cache(maxsize=32)
def _flat_encoder(sep: str):
    return json.JSONEncoder(separators=(sep, ": "), allow_nan=False).encode


def _key(k) -> str:
    # a dict key as json converts it: a number, bool or None to its JSON text
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _compact(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _pretty(obj, pad: str) -> str:
    """obj in json's indented layout, at indentation pad: two spaces a level, sorted keys, ASCII escapes.

    An indent makes json use its pure-Python encoder, so every flat run goes
    through the C encoder in one call instead, with the newline and the next
    line's indentation as its item separator.  The C encoder escapes newlines
    inside strings, so a raw newline in its output comes from a separator,
    and a "]" before one and a "[" after it can only be a boundary between
    two flat lists.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{encode_basestring_ascii(_key(k))}: {_pretty(v, inner)}" for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types <= _SCALARS:
            flat = _flat_encoder(",\n" + inner)(obj)
            return "[\n" + inner + flat[1:-1] + "\n" + pad + "]"
        # a list of nonempty flat lists, such as the [exponent, "coeff"] terms of a polynomial
        if types <= _LISTS and min(map(len, obj)) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
            deep = inner + "  "
            sep = ",\n" + deep
            flat = _flat_encoder(sep)(obj)[2:-2].replace("]" + sep + "[", "\n" + inner + "],\n" + inner + "[\n" + deep)
            return "[\n" + inner + "[\n" + deep + flat + "\n" + inner + "]\n" + pad + "]"
        return "[\n" + inner + (",\n" + inner).join(_pretty(v, inner) for v in obj) + "\n" + pad + "]"
    return _compact(obj)


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
        return _dumps(v)
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


def _verdict(cfg, payload: dict, passed: bool, rows) -> tuple:
    # a check's (exit code, report, rows); "passed" comes last, as text reports show it
    report = _envelope(cfg, **payload)
    report["passed"] = passed
    return (0 if passed else 1), report, rows


def _render(report: dict, rows, fmt: str) -> str:
    # rows: None, or (column names, list of per-row dicts)
    if fmt == "json":
        obj = dict(report)
        if rows is not None:
            cols, data = rows
            obj["rows"] = [{c: r.get(c) for c in cols} for r in data]
        return _nulled(lambda o: _pretty(o, ""), obj) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(report):
            buf.write(f"# {key}={_fmt_scalar(report[key])}\n")
        if rows is None:  # the key/value table stands in for the rows
            rows = ["key", "value"], [{"key": key, "value": report[key]} for key in sorted(report)]
        cols, data = rows
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for r in data:
            writer.writerow([_fmt_scalar(r.get(c)) for c in cols])
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
    graph = GRAPHS[args.command]
    colors = _parse_ints(args.colors, len(graph.edges), "--colors")
    primed = getattr(args, "primed", False)  # only tet has the flag
    value = (graph.family if primed else graph.value)(colors)
    report = _envelope(cfg, **invariant_record(args.command, colors, primed, value=value))
    report["text"] = str(value)
    if args.eval is not None:
        v0 = _parse_complex(args.eval, "--eval")
        try:
            num = value.eval_complex(v0)
        except (ZeroDivisionError, OverflowError) as exc:  # PoleError is a ZeroDivisionError
            raise UsageError(f"--eval {args.eval}: {exc}")
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


# the largest grid bound a sweep over each graph's colorings takes: the
# grid is enumerated whole before the sweep starts, and at these bounds the
# slowest sweep (verify annihilation --graph theta, verify symmetry) takes
# about 16 s and 40 s on one core of a 2-core x86-64 machine
GRID_CAP = {"theta": 60, "tet": 12}

# the largest --samples: lagrangian and residual keep one report row per
# sample, and at this count the slowest sampled command (verify eliminate,
# 0.9 ms a sample) takes about 45 s of CPU on one core of a 2-core x86-64
# machine, residual and lagrangian --graph tet (0.5 ms) 24-26 s at a 68 MB peak
SAMPLE_CAP = 50_000


def _effective_max(args, cfg, check: str, graph: str) -> int:
    if getattr(args, "max", None) is not None:
        if args.max < 0:
            raise UsageError("--max must be nonnegative")
        mx, source = args.max, "--max"
    elif cfg.grid_max is not None:
        mx, source = cfg.grid_max, "grid_max"
    else:
        return _VERIFY_DEFAULT_MAX.get(check, 8)
    if mx > GRID_CAP[graph]:
        raise UsageError(
            f"{source} {mx} is above the {graph} grid cap {GRID_CAP[graph]}: "
            f"verify {check} lists the whole grid before it sweeps it"
        )
    return mx


def _sign_flipped(op: OperatorPoly) -> OperatorPoly:
    # negate the top shift coefficient: a deliberately broken operator for
    # the negative control path
    coeffs = list(op.coeffs)
    coeffs[-1] = MultiPoly.zero() - coeffs[-1]
    return OperatorPoly(op.graph, op.edge, tuple(coeffs))


def _verify_theta_recursion(args, cfg):
    mx = _effective_max(args, cfg, "theta-recursion", "theta")

    def check(col):
        a, b, c = col
        lhs = theta_invariant(a + 2, b, c)
        rhs = theta_recursion_factor(a, b, c) * theta_invariant(a, b, c)
        return [{"colors": [a, b, c]}] if lhs != rhs else []

    # interior colorings along edge a are those whose (a + 2, b, c) shift is admissible
    cols = interior_colorings("theta", "a", mx, 1)
    return {"check": "theta-recursion", "grid_max": mx, **sweep(check, cols)}


def _verify_annihilation(args, cfg):
    graph = args.graph or "theta"
    mx = _effective_max(args, cfg, "annihilation", graph)
    edges = GRAPHS[graph].edges
    edge = args.edge or edges[0]
    if edge not in edges:
        raise UsageError(f"unknown {graph} edge {edge!r}")
    operator = _sign_flipped(GRAPHS[graph].quantum_A(edge)) if args.inject_bad_operator else None
    report = annihilation_report(graph, edge, mx, operator=operator)
    report["injected_bad_operator"] = bool(args.inject_bad_operator)
    return report


def _verify_classical_limit(args, cfg):
    graph = args.graph or "theta"
    g = GRAPHS[graph]
    failures = []
    units = {}
    for edge in g.edges:
        lim, curve = classical_limit(g.quantum_A(edge)), g.classical_A(edge)
        if graph == "theta":  # the limit is the curve up to a unit
            unit = compare_up_to_unit(lim, curve)
        else:  # the limit is the curve times 1 - x_edge^2
            unit = MultiPoly.one() - MultiPoly.var("x_" + edge, 2)
            if lim != curve * unit:
                unit = None
        if unit is None:
            failures.append({"edge": edge})
        else:
            units[edge] = str(unit)
    return {
        "check": "classical-limit",
        "graph": graph,
        "tested": len(g.edges),
        "units": units,
        "failures": failures,
    }


def _verify_symmetry(args, cfg):
    mx = _effective_max(args, cfg, "symmetry", "tet")

    def check(col):
        full = tet_full(col)
        primed = tet_primed(col)
        return [
            {"colors": list(col), "image": list(img)}
            for img in tet_symmetry_orbit(col)
            if tet_full(img) != full or tet_primed(img) != primed
        ]

    return {"check": "symmetry", "grid_max": mx, **sweep(check, enumerate_tet_colorings(mx))}


def _verify_reduction(args, cfg):
    mx = _effective_max(args, cfg, "reduction", "theta")
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
    mx = _effective_max(args, cfg, "hypergeom", "tet")

    def check(col):
        return [{"colors": list(col)}] if tet_hypergeom(col) != tet_primed(col) else []

    return {"check": "hypergeom", "grid_max": mx, **sweep(check, enumerate_tet_colorings(mx))}


def _verify_recursum(args, cfg):
    mx = _effective_max(args, cfg, "recursum", "tet")
    op = tet_quantum_A("1")

    def check(col):
        rest = col[1:]
        if not (tet_is_admissible((col[0] + 2,) + rest) and tet_is_admissible((col[0] - 2,) + rest)):
            return None
        failures = []
        if not tet_recursion_vanishes(col):
            failures.append({"colors": list(col), "route": "recursion"})
        if not operator_vanishes(op, col):
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
        x, rec = sample_tet_record(rng)
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


# each check and the `verify` options it reads; giving it any other one is a usage error
_VERIFY_CHECKS = {
    "theta-recursion": (_verify_theta_recursion, ("max",)),
    "annihilation": (_verify_annihilation, ("max", "graph", "edge", "inject_bad_operator")),
    "classical-limit": (_verify_classical_limit, ("graph",)),
    "symmetry": (_verify_symmetry, ("max",)),
    "reduction": (_verify_reduction, ("max",)),
    "hypergeom": (_verify_hypergeom, ("max",)),
    "recursum": (_verify_recursum, ("max",)),
    "eliminate": (_verify_eliminate, ("samples",)),
}
_VERIFY_OPTIONS = sorted({opt for _, opts in _VERIFY_CHECKS.values() for opt in opts})


def cmd_verify(args, cfg):
    run_check, accepted = _VERIFY_CHECKS[args.check]
    for opt in _VERIFY_OPTIONS:
        given = getattr(args, opt)
        if opt not in accepted and given is not None and given is not False:
            raise UsageError(f"verify {args.check} does not take --{opt.replace('_', '-')}")
    payload = run_check(args, cfg)
    if payload.get("tested") == 0:
        raise UsageError(
            f"verify {args.check} tested no colorings at grid bound {payload['grid_max']}"
        )
    return _verdict(cfg, payload, not payload.get("failures"), None)


# -- numeric checks ----------------------------------------------------------------------------


class _Numeric(NamedTuple):
    """A graph's numeric routines, each called through this module's attribute for span tracing."""

    growth: Callable  # (x, hbars) -> GrowthTable
    lagrangian_point: Callable  # rng -> (sample point, its saddle record or None)
    residual_point: Callable  # rng -> (sample point, its saddle record or None)
    residual: Callable  # (x, record) -> {edge: |classical curve|}, NaN where skipped
    lagrangian_samples: int  # default sample counts
    residual_samples: int


_NUMERIC = {
    "theta": _Numeric(
        lambda x, hbars: growth_check_theta(x, hbars),
        lambda rng: (sample_theta_point(rng), None),
        lambda rng: (tuple(rng.uniform(0.1, 0.9) for _ in range(3)), None),
        lambda x, rec: check_residual_theta(x),
        50, 100,
    ),
    "tet": _Numeric(
        lambda x, hbars: growth_check_tet(x, hbars),
        lambda rng: sample_tet_record(rng),
        lambda rng: sample_tet_record(rng),
        lambda x, rec: check_residual_tet(x, rec=rec),
        20, 20,
    ),
}

_GROWTH_COLUMNS = ["hbar", "colors", "scaled_log_abs", "target", "error", "status", "notes"]


def cmd_asymptotics(args, cfg):
    x = _parse_floats(args.x, len(GRAPHS[args.graph].edges), "--x")
    hbars = _parse_floats(args.hbar, None, "--hbar")
    try:
        table = _NUMERIC[args.graph].growth(x, hbars)
    except GrowthInputError as exc:
        raise UsageError(str(exc))
    except SingularPointError as exc:
        raise UsageError(f"--x {args.x} is a singular point: {exc}")
    except LadderExhaustedError as exc:
        raise UsageError(f"--x {args.x} with --hbar {args.hbar}: {exc}")
    except (OverflowError, ZeroDivisionError) as exc:  # products of the eigenvalues beyond a double's range
        raise UsageError(f"--x {args.x} is out of range: {exc}")
    rows = []
    usable = 0
    for r in table.rows:
        ok = math.isfinite(r.error)
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
    return _verdict(cfg, payload, not problems, (_GROWTH_COLUMNS, rows))


_SADDLE_COLUMNS = ["index", "re", "im", "curve_residual", "lattice_residual", "chosen"]


def cmd_saddle(args, cfg):
    x = _parse_floats(args.x, 6, "--x")
    tol = cfg.tolerances["saddle"]
    try:
        rec = saddle_solve_tet(x)
    except SingularPointError as exc:
        raise UsageError(f"--x {args.x} is a singular point: {exc}")
    except (OverflowError, ZeroDivisionError) as exc:  # products of the eigenvalues beyond a double's range
        raise UsageError(f"--x {args.x} is out of range: {exc}")
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
        "degenerate": False,  # a degenerate point raises above; the key stays in the report
        "chosen": rec.chosen,
        "residual": rec.residual,
        "tolerance": tol,
        "y1": _complex_obj(rec.y1),
    }
    return _verdict(cfg, payload, rec.residual <= tol, (_SADDLE_COLUMNS, rows))


_LAGRANGIAN_COLUMNS = ["index", "x", "asymmetry"]


def cmd_lagrangian(args, cfg):
    graph = args.graph
    num = _NUMERIC[graph]
    samples = args.samples if args.samples is not None else num.lagrangian_samples
    tol = cfg.tolerances["lagrangian_" + graph]
    rng = random.Random(cfg.seed)
    rows = []
    worst = 0.0
    for i in range(samples):
        x, rec = num.lagrangian_point(rng)
        try:
            asym = lagrangian_residual(graph, x, rec=rec)
        except SingularPointError as exc:
            raise UsageError(f"a central difference moves sample {i} onto a singular point: {exc}")
        worst = max(worst, asym)
        rows.append({"index": i, "x": ",".join(repr(v) for v in x), "asymmetry": asym})
    payload = {
        "check": "lagrangian",
        "graph": graph,
        "samples": samples,
        "seed": cfg.seed,
        "step": LAGRANGIAN_STEP,
        "max_asymmetry": worst,
        "tolerance": tol,
    }
    return _verdict(cfg, payload, worst <= tol, (_LAGRANGIAN_COLUMNS, rows))


_RESIDUAL_COLUMNS = ["index", "x", "residual", "status"]


def cmd_residual(args, cfg):
    graph = args.graph
    num = _NUMERIC[graph]
    samples = args.samples if args.samples is not None else num.residual_samples
    tol = cfg.tolerances["residual_" + graph]
    rng = random.Random(cfg.seed)
    rows = []
    worst = 0.0
    skipped = 0
    for i in range(samples):
        x, rec = num.residual_point(rng)
        vals = list(num.residual(x, rec).values())
        row = {"index": i, "x": ",".join(repr(v) for v in x)}
        # a NaN residual (theta twists at a singular locus) is no evidence either way
        if any(v != v for v in vals):
            skipped += 1
            rows.append({**row, "residual": None, "status": "skipped"})
            continue
        value = max(vals)
        worst = max(worst, value)
        rows.append({**row, "residual": value, "status": "ok"})
    if skipped == samples:
        raise UsageError(f"residual --graph {graph} skipped all {samples} samples: no residual was finite")
    payload = {
        "check": "residual",
        "graph": graph,
        "samples": samples,
        "seed": cfg.seed,
        "skipped": skipped,
        "max_residual": worst,
        "tolerance": tol,
    }
    return _verdict(cfg, payload, worst <= tol, (_RESIDUAL_COLUMNS, rows))


# -- argument plumbing -------------------------------------------------------------------------


class _Opt(NamedTuple):
    """One option ("-c/--colors") or positional ("check", no dash) of the command line."""

    names: str
    kind: str  # "str", "int", "flag" (True when given) or "append" (a list of every value given)
    help: str
    choices: tuple = ()
    required: bool = False
    default: object = None

    @property
    def dest(self) -> str:
        return self.names.split("/")[-1].lstrip("-").replace("-", "_")


_GRAPH = _Opt("--graph", "str", "graph family", ("theta", "tet"), default="theta")
_SAMPLES = _Opt("--samples", "int", "numeric sample count")
_SEED = _Opt("--seed", "int", "seed override")
_EVAL = _Opt("--eval", "str", "also evaluate at this value of q^(1/2)")

# each command's help and options, in the order a usage error names missing ones
_COMMANDS = {
    "theta": ("exact theta invariant", (_Opt("-c/--colors", "str", "a,b,c", required=True), _EVAL)),
    "tet": ("exact tetrahedron invariant", (
        _Opt("-c/--colors", "str", "j1,j2,j12,j3,j4,j23", required=True),
        _Opt("--primed", "flag", "normalized summation form", default=False), _EVAL)),
    "verify": ("exact verification sweeps", (
        _Opt("check", "str", "the check to run", tuple(sorted(_VERIFY_CHECKS)), required=True),
        _Opt("--max", "int", "grid bound (color entries)"),
        _GRAPH._replace(default=None),
        _Opt("--edge", "str", "edge label for operator checks"),
        _SAMPLES,
        _Opt("--inject-bad-operator", "flag", "negative control: use a sign-flipped operator and expect failure",
             default=False),
    )),
    "asymptotics": ("growth table against the potential", (
        _Opt("graph", "str", "graph family", ("theta", "tet"), required=True),
        _Opt("--x", "str", "eigenvalue list", required=True),
        _Opt("--hbar", "str", "negative hbar list", required=True),
    )),
    "saddle": ("tetrahedron saddle roots", (_Opt("--x", "str", "six eigenvalues", required=True),)),
    # --seed here overrides the global one, which stands when it is not given
    "lagrangian": ("twist Jacobian symmetry sweep", (_GRAPH, _SAMPLES, _SEED)),
    "residual": ("classical curve residual sweep", (_GRAPH, _SAMPLES, _SEED)),
}
_GLOBAL = (
    _Opt("--config", "str", "path to a JSON config file"),
    _Opt("--format", "str", "output format override", cfgmod.OUTPUT_FORMATS),
    _SEED,
    _Opt("--tol", "append", "tolerance override NAME=VALUE, repeatable"),
    _Opt("--grid-max", "int", "verification grid bound override"),
    _Opt("command", "str", "", tuple(_COMMANDS), required=True),
)
_HELP = ("-h", "--help")
_OPTION_NAMES = frozenset(_HELP).union(*(o.names.split("/") for _, t in _COMMANDS.values() for o in t + _GLOBAL))


class _HelpRequested(Exception):
    """-h or --help was given; the exception's text is the help, printed with exit 0."""


def _spelled(o: _Opt) -> str:
    meta = "{" + ",".join(o.choices) + "}" if o.choices else o.dest.upper()
    return meta if o.names[0] != "-" else o.names + ("" if o.kind == "flag" else " " + meta)


def _help(command) -> str:
    about, table = _COMMANDS.get(command, ("Exact and numeric checks for colored trivalent-graph invariants.", _GLOBAL))
    usage = " ".join(_spelled(o) if o.required else f"[{_spelled(o)}]" for o in table)
    lines = [f"usage: qgraph {command + ' ' if command else ''}[-h] {usage}{'' if command else ' ...'}", "", about, ""]
    if not command:
        lines += ["commands:", *(f"  {name:<29} {text}" for name, (text, _) in _COMMANDS.items()), ""]
    lines += ["options:", f"  {'-h, --help':<29} show this help and exit"]
    return "\n".join(lines + [f"  {_spelled(o):<29} {o.help}" for o in table if o.help]) + "\n"


def _parse(argv) -> SimpleNamespace:
    """argv walked once against the option table: global options, the command, then its options and positional.

    A value option takes "--opt=value" or the next token, unless that token before any "=" is an option name.
    """
    table, command, extras, seen, i = _GLOBAL, None, [], set(), 0
    ns = {o.dest: o.default for o in table}
    while i < len(argv):
        tok, i = argv[i], i + 1
        if tok in _HELP:
            raise _HelpRequested(_help(command))
        if tok[:1] != "-":  # the table's positional, taken as if given as "--name=tok"
            o, eq, value = next((o for o in table if o.names[0] != "-" and o.dest not in seen), None), "=", tok
        else:
            name, eq, value = tok.partition("=")
            o = next((o for o in table if name in o.names.split("/")), None)
        if o is None:
            extras.append(tok)
            continue
        if o.kind == "flag":
            if eq:
                raise UsageError(f"argument {o.names}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                if i == len(argv) or argv[i].partition("=")[0] in _OPTION_NAMES:
                    raise UsageError(f"argument {o.names}: expected one argument")
                value, i = argv[i], i + 1
            if o.kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {o.names}: invalid int value: {value!r}")
            if o.choices and value not in o.choices:
                choices = ", ".join(map(repr, o.choices))
                raise UsageError(f"argument {o.names}: invalid choice: {value!r} (choose from {choices})")
            if o.kind == "append":
                value = (ns[o.dest] or []) + [value]
        ns[o.dest] = value
        seen.add(o.dest)
        if o.dest == "command":
            command, table = value, _COMMANDS[value][1]
            for c in table:
                ns.setdefault(c.dest, c.default)
    missing = [o.names for o in table if o.required and o.dest not in seen]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**ns)


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.format is not None:
        overrides["output_format"] = args.format
    if args.seed is not None:
        overrides["seed"] = args.seed
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


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        samples = getattr(args, "samples", None)
        if samples is not None and samples < 1:
            raise UsageError("--samples must be at least 1")
        if samples is not None and samples > SAMPLE_CAP:
            raise UsageError(f"--samples {samples} is above the sample cap {SAMPLE_CAP}")
        cfg = cfgmod.merge(cfgmod.load_config(path=args.config), _flag_overrides(args))
        code, report, rows = _DISPATCH[args.command](args, cfg)
        if cfg.output_format == "text" and args.command in ("theta", "tet"):
            out = _render_invariant_text(report)
        else:
            out = _render(report, rows, cfg.output_format)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _HelpRequested as exc:
        sys.stdout.write(str(exc))
        return 0
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return code


# The import leaves thousands of long-lived objects (functions, classes and
# typing machinery); moved out of the collector's generations, they are no
# longer scanned by the collections a command triggers.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
