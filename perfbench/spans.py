"""Span tracing of qgraph's public functions, installed from outside the package.

The traced child imports qgraph, calls `install()`, and runs the CLI.  Every
function or method named in TARGETS is replaced, at every module or class
attribute that holds it, by a wrapper that records a span.  Because qgraph
modules bind names with `from .x import ...`, the same function object may sit
under several module attributes; all of them are rebound.

Spans are aggregated per (name, parent name) as they close, so memory stays
bounded however many calls a sweep makes.  Self time is a span's duration
minus the part of it that its child spans cover.  A span opened on a pool
worker thread with no open span of its own takes the main thread's innermost
span as its parent; those children overlap in time, so the parent subtracts
the union of their intervals rather than their sum.  Worker-thread spans
include the time they wait for the interpreter lock.
"""

from __future__ import annotations

import importlib
import threading
import time

_QGRAPH_MODULES = ("laurent", "multipoly", "invariants", "apoly", "asymptotics", "config", "cli")

# layer -> (module, functions, {class: methods}); method aliases such as
# __radd__ = __add__ are rebound to the wrapper of the name listed here
TARGETS = {
    "laurent": (
        "laurent",
        ("poly_gcd", "exact_div_poly", "bracket_ratio_sum", "rat_dot", "q_factorial", "cyclotomic"),
        {
            "LaurentRat": (
                "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
                "__neg__", "v_inverted", "eval_exact", "eval_complex",
            ),
            "BracketRatio": ("to_laurent_rat",),
        },
    ),
    "multipoly": (
        "multipoly",
        ("exact_div_multi", "monomial_quotient", "compare_up_to_unit", "resultant_in"),
        {
            "MultiPoly": (
                "__add__", "__sub__", "__rsub__", "__mul__", "__pow__", "__neg__",
                "substitute", "evaluate", "eval_fraction",
            ),
        },
    ),
    "invariants": (
        "invariants",
        (
            "theta_invariant", "theta_recursion_factor", "tet_primed", "tet_full", "tet_prefactor",
            "tet_hypergeom", "theta_reduction_check", "tet_symmetry_orbit", "invariant_record",
        ),
        {},
    ),
    "apoly": (
        "apoly",
        (
            "theta_quantum_A", "tet_quantum_A", "theta_classical_A", "tet_classical_A",
            "tet_recursion_coeffs", "tet_recursion_residual", "apply_operator", "classical_limit",
            "saddle_system", "eliminate_saddle", "interior_colorings", "annihilation_report",
        ),
        {},
    ),
    "asymptotics": (
        "asymptotics",
        (
            "dilog", "g_potential", "w_theta", "grad_log_y_theta", "check_residual_theta",
            "w_tet", "w_tet_slope", "w_tet_curvature", "w_tet_one_loop_shape", "saddle_cubic_tet",
            "saddle_twists_tet", "saddle_solve_tet", "tet_real_segment", "tet_summation_floor",
            "lagrangian_residual", "sample_theta_point", "sample_tet_point", "log_abs_theta",
            "log_abs_tet", "round_colors_theta", "round_colors_tet", "growth_check_theta",
            "growth_check_tet",
        ),
        {},
    ),
    # the cli layer includes config; cli.main itself is the root span
    "cli": ("config", ("load_config", "merge", "config_hash"), {}),
}

# (module, attribute) of the lru caches whose cache_info() is dumped per operation
CACHES = (
    ("laurent", "q_factorial"),
    ("laurent", "cyclotomic"),
    ("invariants", "theta_invariant"),
    ("invariants", "_tet_primed_cached"),
    ("invariants", "_tet_full_cached"),
    ("apoly", "theta_quantum_A"),
    ("apoly", "tet_quantum_A"),
)

# the invariant value caches summed into invariants.cache_entries
INVARIANT_CACHES = ("invariants.theta_invariant", "invariants._tet_primed_cached", "invariants._tet_full_cached")


class Tracer:
    """Per-thread span stacks and (name, parent) aggregates, merged on demand."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # (stats, counters) of every thread that opened a span
        self._lock = threading.Lock()
        self._main_stack = None
        self.seen = set()  # invariant call keys, for repeat counting

    def _thread_state(self):
        stats, counters, stack = {}, {}, []
        with self._lock:
            self._threads.append((stats, counters))
        if threading.current_thread() is threading.main_thread():
            self._main_stack = stack
        self._local.state = (stats, counters, stack)
        return self._local.state

    def count(self, key: str, n=1) -> None:
        try:
            counters = self._local.state[1]
        except AttributeError:
            counters = self._thread_state()[1]
        counters[key] = counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span called `name`; hook(tracer, args, result) runs after it."""
        local = self._local
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                stats, _, stack = local.state
            except AttributeError:
                stats, _, stack = tracer._thread_state()
            cross = False
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
                cross = True
            else:
                parent = None
            # span: [name, start, covered by same-thread children, cross-thread child intervals]
            span = [name, clock(), 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - span[1]
                covered = span[2]
                if span[3]:
                    covered += _union_length(span[3], span[1], end)
                key = (name, parent[0] if parent else "")
                agg = stats.get(key)
                if agg is None:
                    stats[key] = [1, dur, dur - covered]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - covered
                if cross:
                    with tracer._lock:  # pool threads share this parent
                        if parent[3] is None:
                            parent[3] = []
                        parent[3].append((span[1], end))
                elif parent is not None:
                    parent[2] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        spans = {}
        counters = {}
        with self._lock:
            threads = list(self._threads)
        for stats, cnt in threads:
            for key, (calls, total, self_s) in stats.items():
                agg = spans.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for key, n in cnt.items():
                counters[key] = counters.get(key, 0) + n
        return {
            "spans": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(spans.items())
            ],
            "counters": counters,
        }


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- result hooks: counts taken where the work happens -------------------------------------


def _out_terms(tracer, result) -> None:
    tracer.count("laurent.out_terms", len(result.num.terms) + len(result.den.terms))


def _gcd_hook(tracer, args, result) -> None:
    tracer.count("laurent.poly_gcd.unit", 1 if result.is_one() else 0)


def _sum_hook(tracer, args, result) -> None:
    terms = args[0]
    tracer.count("laurent.bracket_ratio_sum.terms", len(terms) if hasattr(terms, "__len__") else 0)
    _out_terms(tracer, result)


def _dot_hook(tracer, args, result) -> None:
    tracer.count("laurent.rat_dot.zero", 1 if result.is_zero() else 0)
    _out_terms(tracer, result)


def _log_abs_tet_hook(tracer, args, result) -> None:
    tracer.count("asymptotics.log_abs_tet.bits", result[1]["precision_bits"])


def _invariant_hook(name):
    def hook(tracer, args, result) -> None:
        key = (name, args)
        try:
            hash(key)
        except TypeError:  # unhashable argument, such as a list of colors
            key = (name, repr(args))
        with tracer._lock:  # pool threads call invariants too
            repeat = key in tracer.seen
            tracer.seen.add(key)
        if repeat:
            tracer.count("invariants.repeat")

    return hook


_HOOKS = {
    "laurent.poly_gcd": _gcd_hook,
    "laurent.bracket_ratio_sum": _sum_hook,
    "laurent.rat_dot": _dot_hook,
    "asymptotics.log_abs_tet": _log_abs_tet_hook,
}


def _with_cpu(tracer, name, fn):
    # CPU seconds of the whole process (all threads) against wall seconds
    def timed(*args, **kwargs):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name + ".cpu_s", time.process_time() - c0)
            tracer.count(name + ".wall_s", time.perf_counter() - w0)

    return timed


def _rebind(holders, orig, wrapped) -> None:
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, attr, wrapped)


def install() -> Tracer:
    """Wrap every target in the imported qgraph package; returns the tracer."""
    modules = {m: importlib.import_module("qgraph." + m) for m in _QGRAPH_MODULES}
    tracer = Tracer()
    for layer, (modname, funcs, classes) in TARGETS.items():
        mod = modules[modname]
        for fname in funcs:
            orig = getattr(mod, fname)
            name = f"{layer}.{fname}"
            hook = _invariant_hook(name) if layer == "invariants" else _HOOKS.get(name)
            fn = _with_cpu(tracer, name, orig) if name == "apoly.annihilation_report" else orig
            _rebind(modules.values(), orig, tracer.wrap(name, fn, hook))
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                orig = vars(cls)[meth]
                _rebind([cls], orig, tracer.wrap(f"{layer}.{cls_name}.{meth}", orig))
    return tracer


def cache_dump() -> dict:
    """cache_info() of the package's lru caches, read from the unwrapped functions."""
    out = {}
    for modname, attr in CACHES:
        fn = getattr(importlib.import_module("qgraph." + modname), attr)
        if not hasattr(fn, "cache_info"):  # a span wrapper around the cached function
            fn = fn.__wrapped__
        out[f"{modname}.{attr}"] = fn.cache_info()._asdict()
    return out
