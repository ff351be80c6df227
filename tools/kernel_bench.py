"""Layer timings of the integer Laurent kernel in qgraph.laurent.

Times the two multiplication paths of `_imul` (dict schoolbook and Kronecker
substitution) at several operand sizes and at 4-, 20-, 30-, 64- and 90-bit
coefficients, which put the Kronecker slots (their width in bytes is on each
row) below, at and above the 8-byte word, the cyclotomic construction
`_cyclo_int(1..400)`, the Phi_d product tree (`_phi_product` on the
numerator and denominator maps of theta(56,60,64), its caches cleared
before each call), the Phi_d stripping (`_cancel_phi` on the numerator and
lcm of tet_full((22,24,26,20,28,26)) and of tet_full((30,)*6), and on the
short ones of `qgraph verify symmetry --max 4`, with cold Phi_d caches, at
several `_FOLD_BLOCKS` lengths from which it tests a dividend mod v^d - 1
first, the module's own marked *), the LaurentRat layer (the whole check of
`qgraph verify theta-recursion --max 12`: each recursion product compared
with the shifted theta value, on factored values), the cold tet sums
(`tet_primed` and `tet_full` over the colorings of grid 4, over the lcm in
the Phi_d basis), the growth-regime tet sum `asymptotics.log_abs_tet` at
(538,)*6, hbar = -2^-8 (one 320-bit rung) and (2150,)*6, hbar = -2^-10 (the
320- and 640-bit rungs), in the two tet growth tables of the benchmark's
numeric workload (`growth_check_tet`, 6 and 4 rows), as one 2560-bit
`_tet_rung` at the growth-table color cap ((10000,)*6, x = 0.35) and as one
320-bit `_tet_rung` on the 99 summands of (308,269,235,308,269,235) at
hbar = -2^-7, each row
followed by the same with the rung the tests keep as their oracle (every
summand, walked up at full precision), one rung's constants
(the integer fixed-point exp and log against mpmath, at every rung of the
ladder from 320 to 40960 bits), the exact zero test
(`rat_dot_vanishes` against `rat_dot(...).is_zero()` over the pairs of both
`verify recursum` routes on grid 4, with cold caches), the per-coloring
operator application (`operator_vanishes` of theta's edge-a operator over
`interior_colorings("theta", "a", 10, 2)`, with cold caches), 20 tet sample
points with their saddle records (`sample_tet_record` against the loop that
solves every candidate and then the accepted point again), the MultiPoly layer
(the classical limits of the six tet operators, the six tet classical curves
and the saddle elimination, with cold caches, and 20 evaluations of the saddle resultant), the JSON
rendering of two large-color reports (`cli._render` against json's
pure-Python indent=2 encoder, whose text it must equal), two
large-color evaluations expanded to their coefficients, each in a fresh
interpreter so its lru caches start cold, and the CPU time of a fresh interpreter that runs
`import qgraph.cli` (the set-up every CLI call pays).
Prints the median and the spread (interquartile range over the median) of
each.  Use it to re-measure `laurent._KRONECKER_MIN_TERMS` and
`laurent._FOLD_BLOCKS`:

    PYTHONPATH=src python3 tools/kernel_bench.py [--repeat 7] [--skip-large]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from qgraph import apoly, asymptotics, invariants, laurent

SIZES = (2, 6, 8, 10, 12, 16, 24, 64, 256, 1024)
LONG = 1024  # the longer operand of the unbalanced shape
COEFF_BITS = (4, 20, 30, 64, 90)


def _spread(times: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return med, (q3 - q1) / med


def _time_call(fn, repeat: int) -> tuple[float, float]:
    """Median and spread of per-call time, each sample at least 20 ms long."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= 0.02:
            break
        number *= 2
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return _spread(samples)


def _operand(rng: random.Random, n: int, bits: int) -> dict[int, int]:
    """A dense int dict of n terms from v^-3 up, with signed coefficients of up to bits bits."""
    out = {}
    for k in range(n):
        c = rng.randrange(-(2**bits), 2**bits)
        out[k - 3] = c or 1
    return out


def _line(label: str, med: float, spread: float) -> None:
    print(f"{label:<52} {med * 1e3:12.4f} ms   spread {spread:.3f}")


def bench_imul(repeat: int) -> None:
    rng = random.Random(1)
    print(f"# _imul; cut-over _KRONECKER_MIN_TERMS = {laurent._KRONECKER_MIN_TERMS}")
    for bits in COEFF_BITS:
        for shape in ("balanced", f"against {LONG}"):
            for n in SIZES:
                a = _operand(rng, n, bits)
                b = _operand(rng, n if shape == "balanced" else LONG, bits)
                assert laurent._imul_school(a, b) == laurent._imul_kron(a, b)
                size = sum(max(map(abs, p.values())).bit_length() for p in (a, b)) + n.bit_length() + 1
                for name, fn in (("school", laurent._imul_school), ("kron", laurent._imul_kron)):
                    med, spread = _time_call(lambda: fn(a, b), repeat)
                    _line(f"{bits}-bit {shape} n={n} slot {(size + 7) // 8} B {name}", med, spread)


def bench_cyclo(repeat: int) -> None:
    def build():
        laurent._cyclo_int.cache_clear()
        for d in range(1, 401):
            laurent._cyclo_int(d)

    med, spread = _time_call(build, repeat)
    _line("_cyclo_int(1..400), cold cache", med, spread)


def bench_phi_product(repeat: int) -> None:
    phi = invariants.theta_invariant(56, 60, 64)._form[2]
    maps = [{d: m for d, m in phi.items() if m > 0}, {d: -m for d, m in phi.items() if m < 0}]

    def build():
        laurent._phi_product_sorted.cache_clear()
        laurent._phi_power_int.cache_clear()
        for mult in maps:
            laurent._phi_product(mult)

    med, spread = _time_call(build, repeat)
    _line("_phi_product, theta(56,60,64) num and den, cold", med, spread)


def _cancel_phi_inputs(build) -> list[tuple[dict, dict]]:
    """The (num, den) pairs that build() passes to laurent._cancel_phi with a nonempty den, from cold caches."""
    seen = []
    cancel = laurent._cancel_phi

    def record(num, den):
        if num and den:
            seen.append((dict(num), dict(den)))
        return cancel(num, den)

    _clear_caches()
    laurent._cancel_phi = record
    try:
        build()
    finally:
        laurent._cancel_phi = cancel
    return seen


def _symmetry_grid_4() -> None:
    """The values `qgraph verify symmetry --max 4` computes."""
    for col in invariants.enumerate_tet_colorings(4):
        for img in [col, *invariants.tet_symmetry_orbit(col)]:
            invariants.tet_full(tuple(img))
            invariants.tet_primed(tuple(img))


# (label, the calls whose _cancel_phi inputs are timed)
CANCEL_ROWS = (
    ("tet_full 22,24,26,20,28,26", lambda: invariants.tet_full((22, 24, 26, 20, 28, 26))),
    ("tet_full 30^6", lambda: invariants.tet_full((30,) * 6)),
    ("symmetry grid 4", _symmetry_grid_4),
)
# laurent._FOLD_BLOCKS values of the fold rows; None never folds
FOLD_BLOCKS = (2, 4, 8, 16, None)


def bench_cancel_phi(repeat: int) -> None:
    """_cancel_phi on the numerators and lcms of CANCEL_ROWS, Phi_d caches cleared before each sample.

    Each row is timed at every FOLD_BLOCKS setting, one sample of each in
    turn, so drift of the machine's speed hits them alike; the row at the
    module's own setting shows where the mod v^d - 1 test pays.
    """
    default = laurent._FOLD_BLOCKS
    for label, build in CANCEL_ROWS:
        calls = _cancel_phi_inputs(build)
        span = max(max(num) - min(num) + 1 for num, _ in calls)
        samples = {blocks: [] for blocks in FOLD_BLOCKS}
        try:
            for _ in range(repeat):
                for blocks in FOLD_BLOCKS:
                    laurent._FOLD_BLOCKS = blocks or float("inf")
                    laurent._cyclo_int.cache_clear()
                    laurent._mobius_steps.cache_clear()
                    t0 = time.perf_counter()
                    for num, den in calls:
                        laurent._cancel_phi(dict(num), dict(den))
                    samples[blocks].append(time.perf_counter() - t0)
        finally:
            laurent._FOLD_BLOCKS = default
        for blocks in FOLD_BLOCKS:
            fold = f"fold >= {blocks}d" if blocks else "no fold"
            mark = " *" if blocks == default else ""
            _line(f"_cancel_phi {label} x{len(calls)}, {fold}{mark}", *_spread(samples[blocks]))
        print(f"#   spans up to {span} slots")


def _clear_caches() -> None:
    # every lru cache of the three modules, among them apoly's four operator
    # and curve caches (tet_quantum_A, tet_classical_A, theta_quantum_A,
    # theta_classical_A)
    for module in (laurent, invariants, apoly):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _cold_samples(fn, repeat: int) -> list[float]:
    samples = []
    for _ in range(repeat):
        _clear_caches()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def bench_rat(repeat: int) -> None:
    """The theta-recursion check: factor * theta(a, b, c) == theta(a + 2, b, c)."""
    grid = apoly.interior_colorings("theta", "a", 12, 1)

    def check():
        for a, b, c in grid:
            rhs = invariants.theta_recursion_factor(a, b, c) * invariants.theta_invariant(a, b, c)
            assert rhs == invariants.theta_invariant(a + 2, b, c)

    _line(f"LaurentRat recursion check, {len(grid)} colorings, cold caches", *_spread(_cold_samples(check, repeat)))


def bench_tet_sums(repeat: int) -> None:
    """tet_primed and tet_full over every coloring of grid 4."""
    grid = invariants.enumerate_tet_colorings(4)

    def sums():
        for col in grid:
            invariants.tet_primed(col)
            invariants.tet_full(col)

    _line(f"tet sums, {len(grid)} colorings, cold caches", *_spread(_cold_samples(sums, repeat)))


def bench_operator(repeat: int) -> None:
    """operator_vanishes of theta's edge-a operator at each coloring of its interior grid 10."""
    grid = apoly.interior_colorings("theta", "a", 10, 2)

    def run():
        op = apoly.theta_quantum_A("a")
        for col in grid:
            assert apoly.operator_vanishes(op, col)

    _line(f"operator_vanishes theta a x{len(grid)}, grid 10, cold", *_spread(_cold_samples(run, repeat)))


def _recursum_pairs(grid_max: int) -> list:
    """The rat_dot pairs of both `verify recursum` routes at every coloring it tests."""
    op = apoly.tet_quantum_A("1")
    out = []
    for col in invariants.enumerate_tet_colorings(grid_max):
        col = tuple(col)
        rest = col[1:]
        shifts = ((col[0] + 2,) + rest, (col[0] - 2,) + rest)
        if not all(map(invariants.tet_is_admissible, shifts)):
            continue
        alpha, (b1, b2, b3), gamma = apoly._tet_recursion_products(col)
        up, mid, down = apoly._tet_shifted_values(col)
        out.append([(alpha, up), (-b1, mid), (-b2, mid), (b3, mid), (gamma, down)])
        out.append(apoly._operator_pairs(op, col))
    return out


def bench_zero_test(repeat: int) -> None:
    """rat_dot_vanishes against the expanded rat_dot(...).is_zero() on the same pairs."""
    groups = _recursum_pairs(4)
    for label, test in (
        ("rat_dot_vanishes", laurent.rat_dot_vanishes),
        ("rat_dot().is_zero()", lambda pairs: laurent.rat_dot(pairs).is_zero()),
    ):

        def run(test=test):
            for pairs in groups:
                assert test(pairs)

        _line(f"{label} x{len(groups)}, recursum grid 4, cold", *_spread(_cold_samples(run, repeat)))


# (colors, hbar) of the log_abs_tet rows: one rung, then two
GROWTH_ROWS = (((538,) * 6, -(2.0**-8)), ((2150,) * 6, -(2.0**-10)))

# (x, hbar exponents) of the two tet growth tables of the benchmark's numeric workload
GROWTH_TABLES = (((0.35,) * 6, range(5, 11)), ((0.3, 0.35, 0.4, 0.3, 0.35, 0.4), range(7, 11)))

# (colors, hbar, bits) of one rung at the growth-table color cap: x = 0.35 on the rung it trusts
CAP_RUNG = ((asymptotics.MAX_GROWTH_COLOR,) * 6, 2.0 * math.log(0.35) / asymptotics.MAX_GROWTH_COLOR, 2560)

# (colors, hbar, bits) of a 99-summand rung, lo = 406 to hi = 504, whose window drops 24 summands
SHORT_RUNG = ((308, 269, 235, 308, 269, 235), -(2.0**-7), 320)


def _load_oracle(name: str):
    """A routine tests/test_asymptotics.py keeps as the oracle of a faster one."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
    import test_asymptotics

    return getattr(test_asymptotics, name)


def bench_log_abs_tet(repeat: int) -> None:
    """Each row with the rung, then with the oracle rung in its place."""
    # the rung as it was before its window
    real, oracle = asymptotics._tet_rung, _load_oracle("_rung_oracle")

    def both(label, fn):
        for tag, rung in (("", real), (", oracle", oracle)):
            asymptotics._tet_rung = rung
            try:
                _line(label + tag, *_time_call(fn, repeat))
            finally:
                asymptotics._tet_rung = real

    for colors, hbar in GROWTH_ROWS:
        bits = asymptotics.log_abs_tet(colors, hbar)[1]["precision_bits"]
        both(f"log_abs_tet {colors[0]}^6, hbar={hbar!r}, {bits}-bit rung", lambda: asymptotics.log_abs_tet(colors, hbar))
    for x, ks in GROWTH_TABLES:
        hbars = [-(2.0**-k) for k in ks]
        both(f"growth_check_tet x={x[0]},{x[1]},{x[2]},.., {len(hbars)} rows", lambda: asymptotics.growth_check_tet(x, hbars))
    for label, (colors, hbar, bits) in (
        (f"_tet_rung {CAP_RUNG[0][0]}^6, x=0.35", CAP_RUNG),
        (f"_tet_rung {SHORT_RUNG[0]}, hbar=-2^-7, 99 summands", SHORT_RUNG),
    ):
        col = tuple(colors)
        taus, ups = invariants._triangle_halves(col), invariants._quad_halves(col)
        both(f"{label}, {bits}-bit rung", lambda: asymptotics._tet_rung(taus, ups, hbar, bits))


# guard bits of the log_abs_tet rows' rungs: 37 at (538,)^6 and 43 at (2150,)^6
RUNG_GUARD = 43


def bench_rung_constants(repeat: int) -> None:
    """One rung's constants at each ladder rung, integer fixed point against mpmath.

    The constants of the (2150,)^6, hbar = -2^-10 rung: q, the first upward
    ratio's power of v from the peak summand and q^3 as p-bit mantissas,
    log_scale and the final log.  The
    mpmath route is the one the rung used before it went to fixed point.
    low and the summed survivor are stand-ins of a rung's size: -2p and a
    p-bit int.
    """
    import mpmath  # a test dependency, so only this row needs it

    colors, hbar = GROWTH_ROWS[1]
    col = tuple(colors)
    taus, ups = invariants._triangle_halves(col), invariants._quad_halves(col)
    ell, _ = asymptotics._tet_scan(taus, ups, hbar)
    mid = max(taus) + ell.index(max(ell))
    mult = 6 * mid + 2 - 2 * sum(taus)
    big_e = -mid * (mid + 1) + sum((mid - t) * (mid - t - 1) for t in taus) + sum((u - mid) * (u - mid - 1) for u in ups)
    ha, hb = hbar.as_integer_ratio()
    hb = hb.bit_length() - 1
    rng = random.Random(1)

    def fixed(p, low, signed):
        asymptotics._exp_mantissa(ha, hb, p)
        asymptotics._exp_mantissa(ha * mult, hb + 1, p)
        asymptotics._exp_mantissa(3 * ha, hb, p)
        w = asymptotics._LOG_BITS + abs(low).bit_length()
        log_scale = Fraction(low * asymptotics._ln2(w) - asymptotics._log1m_exp(ha, hb, w), 1 << w)
        log_scale += Fraction(ha * big_e, 1 << hb + 2)
        bits = asymptotics._LOG_BITS
        return float(Fraction(asymptotics._log_fixed(signed, bits), 1 << bits) + log_scale)

    def with_mpmath(p, low, signed):
        with mpmath.workprec(p + 16):
            h = mpmath.mpf(hbar)
            mpmath.frexp(mpmath.exp(h))
            mpmath.frexp(mpmath.exp(h * mult / 2))
            mpmath.frexp(mpmath.exp(3 * h))
        with mpmath.workprec(p):
            log_scale = low * mpmath.ln2 + mpmath.mpf(hbar) * big_e / 4 - mpmath.log1p(-mpmath.exp(mpmath.mpf(hbar)))
        with mpmath.workprec(p - RUNG_GUARD):
            return float(mpmath.log(signed) + log_scale)

    print(f"# one rung's constants, (2150,)^6 at hbar = -2^-10, bits + {RUNG_GUARD} guard bits")
    for k in range(8):
        bits = asymptotics._START_BITS << k
        p = bits + RUNG_GUARD
        args = (p, -2 * p, rng.getrandbits(p) | 1 << (p - 1))
        assert abs(fixed(*args) - with_mpmath(*args)) <= 1e-12 * abs(fixed(*args))
        for label, fn in (("fixed point", fixed), ("mpmath", with_mpmath)):
            _line(f"rung constants, {bits}-bit rung, {label}", *_time_call(lambda fn=fn: fn(*args), repeat))


def bench_sampler(repeat: int) -> None:
    """20 tet samples (seed 1) with their saddle records, by sample_tet_record and by the solving loop."""
    solving = _load_oracle("_sample_tet_point_solving_every_candidate")

    def record():
        rng = random.Random(1)
        for _ in range(20):
            asymptotics.sample_tet_record(rng)

    def solve_all():  # each candidate solved, then the accepted point again
        rng, counts = random.Random(1), {"candidates": 0}
        for _ in range(20):
            asymptotics.saddle_solve_tet(solving(rng, counts))

    _line("20 tet samples with records, sample_tet_record", *_time_call(record, repeat))
    _line("20 tet samples with records, solving every candidate", *_time_call(solve_all, repeat))


def bench_multipoly(repeat: int) -> None:
    def limits():
        for edge in apoly.TET_EDGES:
            apoly.classical_limit(apoly.tet_quantum_A(edge))

    def curves():  # what `qgraph residual --graph tet` builds
        for edge in apoly.TET_EDGES:
            apoly.tet_classical_A(edge)

    _line("tet classical limits, six edges, cold caches", *_spread(_cold_samples(limits, repeat)))
    _line("six tet classical curves, cold caches", *_spread(_cold_samples(curves, repeat)))
    _line("eliminate_saddle(), cold caches", *_spread(_cold_samples(apoly.eliminate_saddle, repeat)))
    res = apoly.eliminate_saddle()
    rng = random.Random(1)
    points = [{n: complex(rng.uniform(0.2, 0.8), rng.uniform(-0.5, 0.5)) for n in res.vars} for _ in range(20)]

    def evaluate():
        for point in points:
            res.evaluate(point)

    _line(f"20 evaluate() of the saddle resultant, {len(res.terms)} terms", *_time_call(evaluate, repeat))


# operations whose --format json reports bench_render writes
RENDER_ARGVS = ("theta -c 56,64,60", "tet --primed -c 24,26,22,20,28,22")


def bench_render(repeat: int) -> None:
    """Each report rendered by cli._render and by json.dumps with indent=2, which must agree."""
    from qgraph import cli, config  # cli freezes the collector on import, so only this row loads it

    for argv in RENDER_ARGVS:
        args = cli._parse(argv.split())
        _, report, rows = cli._DISPATCH[args.command](args, config.default_config())

        def pure(report=report):
            return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"

        def fast(report=report, rows=rows):
            return cli._render(report, rows, "json")

        assert fast() == pure()
        for label, fn in (("cli._render", fast), ("json indent=2", pure)):
            _line(f"{argv} JSON ({len(pure()) // 1000} kB), {label}", *_time_call(fn, repeat))


# (function in qgraph.invariants, its argument tuple)
LARGE = (("theta_invariant", (80, 80, 80)), ("tet_primed", ((20,) * 6,)))


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this process's qgraph."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))


def bench_large(repeat: int) -> None:
    """Each call in a fresh interpreter, timed after the package import.

    The value's num and den are read inside the timing, so a factored value
    is expanded to its coefficients as a rendered one is.
    """
    env = _child_env()
    timer = (
        "import time; from qgraph.invariants import {0} as f; "
        "t = time.perf_counter(); v = f(*{1!r}); v.num, v.den; print(time.perf_counter() - t)"
    )
    for name, args in LARGE:
        label = f"{name}{args if len(args) > 1 else args[0]!r}"
        samples = []
        for _ in range(repeat):
            res = subprocess.run(
                [sys.executable, "-c", timer.format(name, args)], env=env, capture_output=True, text=True, check=True
            )
            samples.append(float(res.stdout))
        _line(f"{label}, fresh process", *_spread(samples))


def bench_import(repeat: int) -> None:
    """User+sys CPU time of a fresh interpreter that only imports qgraph.cli."""
    env = _child_env()
    samples = []
    for _ in range(repeat):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import qgraph.cli"], env=env, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime))
    _line("import qgraph.cli, fresh process, child CPU", *_spread(samples))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="samples per timing (at least 2)")
    ap.add_argument("--skip-large", action="store_true", help="skip the two large-color evaluations")
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be at least 2")
    bench_imul(args.repeat)
    bench_cyclo(args.repeat)
    bench_phi_product(args.repeat)
    bench_cancel_phi(args.repeat)
    bench_rat(args.repeat)
    bench_tet_sums(args.repeat)
    bench_log_abs_tet(args.repeat)
    bench_rung_constants(args.repeat)
    bench_zero_test(args.repeat)
    bench_operator(args.repeat)
    bench_sampler(args.repeat)
    bench_multipoly(args.repeat)
    bench_render(args.repeat)
    if not args.skip_large:
        bench_large(args.repeat)
    bench_import(args.repeat)


if __name__ == "__main__":
    main()
