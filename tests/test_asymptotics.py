"""Growth-regime numerics: dilogarithm, potentials, twists, saddles, tables.

Reference values come from independent routes: mpmath's polylog as the
dilogarithm oracle, exact Laurent evaluation of the invariants at
v = exp(hbar/2) against the log-space evaluators, classical curves solved
directly for the twist at pinned points, and finite differences against
every closed-form derivative.  Frozen constants were produced by
term-by-term summation with the oracle pieces only.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from qgraph import asymptotics
from qgraph.apoly import TET_EDGES, THETA_EDGES, saddle_system, tet_classical_A, theta_classical_A
from qgraph.asymptotics import (
    PI_SQ_OVER_6,
    TWO_PI,
    MAX_GROWTH_COLOR,
    GrowthInputError,
    GrowthRow,
    GrowthTable,
    LadderExhaustedError,
    SingularPointError,
    _coords,
    _face_parities,
    _log_bracket_prefix,
    _quadratic_roots,
    _ratio_e3,
    _require_regular_theta,
    _summarize,
    _theta_args,
    _unit_shifts_by_parity,
    check_residual_tet,
    check_residual_theta,
    dilog,
    g_potential,
    grad_log_y_theta,
    growth_check_tet,
    growth_check_theta,
    lagrangian_residual,
    log_abs_tet,
    log_abs_theta,
    round_colors_tet,
    round_colors_theta,
    saddle_cubic_tet,
    saddle_solve_tet,
    saddle_twists_tet,
    sample_tet_point,
    sample_tet_record,
    sample_theta_point,
    tet_real_segment,
    tet_summation_floor,
    w_tet,
    w_tet_curvature,
    w_tet_one_loop_shape,
    w_tet_slope,
    w_theta,
)
from qgraph.invariants import (
    _quad_halves,
    _triangle_halves,
    is_admissible,
    tet_is_admissible,
    tet_primed,
    tet_sum_bounds,
    theta_invariant,
    theta_recursion_factor,
)

PI_SQ_6 = math.pi * math.pi / 6.0


# -- dilogarithm --


def bernoulli_series_coeffs(count: int) -> list:
    # exact Bernoulli recurrence over Fraction, flattened to float B_k/(k+1)!
    bern = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for k in range(m):
            acc += Fraction(math.comb(m + 1, k)) * bern[k]
        bern.append(-acc / (m + 1))
    out = []
    fact = 1
    for k, b in enumerate(bern):
        fact *= k + 1
        out.append(float(b / fact))
    return out


def test_log_series_table_is_the_bernoulli_recurrence():
    table = asymptotics._LOG_SERIES_COEF
    want = bernoulli_series_coeffs(44)
    assert len(table) == len(want)
    # bit for bit: float.hex tells 0.0 from -0.0 and any last-digit change
    assert [x.hex() for x in table] == [x.hex() for x in want]


def test_dilog_special_values():
    assert dilog(0) == 0
    assert abs(dilog(1) - PI_SQ_6) < 1e-15
    assert abs(dilog(-1) + PI_SQ_6 / 2.0) < 1e-15


def test_dilog_matches_mpmath_on_unit_disk():
    rng = random.Random(3)
    for _ in range(400):
        r = rng.uniform(0.0, 0.999)
        th = rng.uniform(0.0, 2.0 * math.pi)
        u = complex(r * math.cos(th), r * math.sin(th))
        ref = complex(mpmath.polylog(2, u))
        assert abs(dilog(u) - ref) <= 1e-12


def test_dilog_matches_mpmath_off_disk():
    rng = random.Random(4)
    for _ in range(200):
        r = rng.uniform(1.001, 20.0)
        th = rng.uniform(0.02, 2.0 * math.pi - 0.02)
        u = complex(r * math.cos(th), r * math.sin(th))
        if u.imag == 0.0:
            continue
        ref = complex(mpmath.polylog(2, u))
        assert abs(dilog(u) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_dilog_real_axis_above_one_takes_real_part():
    # on the cut the value is real: the real part of the principal branch
    for u in (1.5, 2.0, 5.0, 40.0):
        got = dilog(u)
        assert got.imag == 0.0
        ref = complex(mpmath.polylog(2, u))
        assert abs(got.real - ref.real) <= 1e-12 * max(1.0, abs(ref.real))


def test_dilog_reflection_identity():
    # Li2(u) + Li2(1-u) = pi^2/6 - log(u) log(1-u), principal logs
    rng = random.Random(9)
    for _ in range(300):
        u = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.5))
        lhs = dilog(u) + dilog(1 - u)
        rhs = PI_SQ_6 - cmath.log(u) * cmath.log(1 - u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_dilog_inversion_identity():
    # Li2(u) + Li2(1/u) = -pi^2/6 - log(-u)^2/2 away from the real axis
    rng = random.Random(10)
    for _ in range(300):
        u = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        if abs(u) < 1e-3:
            continue
        lhs = dilog(u) + dilog(1.0 / u)
        lu = cmath.log(-u)
        rhs = -PI_SQ_6 - 0.5 * lu * lu
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_g_potential_values():
    assert abs(g_potential(1) + PI_SQ_6) < 1e-15
    ref = -0.25 - complex(mpmath.polylog(2, math.e)).real
    assert abs(g_potential(math.e) - ref) < 1e-13


def test_g_potential_rejects_zero():
    with pytest.raises(SingularPointError):
        g_potential(0)


def test_g_potential_is_factorial_limit():
    # hbar log [n]! = g(x_n) + pi^2/6 - log(x_n) log(-hbar) + O(hbar log hbar)
    hb = -1.0 / 256.0
    n = round(math.log(0.5) / hb)
    log_fact = 0.0
    for k in range(1, n + 1):
        log_fact += (1 - k) * hb / 2.0 + math.log1p(-math.exp(hb * k)) - math.log1p(-math.exp(hb))
    x_eff = math.exp(hb * n)
    residual = (
        hb * log_fact
        - g_potential(x_eff).real
        - PI_SQ_6
        + math.log(x_eff) * math.log(-hb)
    )
    assert abs(residual) <= abs(hb * math.log(-hb))


# -- theta potential and twists --


def test_w_theta_trivial_point():
    assert abs(w_theta((1, 1, 1)) + PI_SQ_6) < 1e-13


def test_w_theta_against_termwise_oracle():
    xa, xb, xc = 0.5, 0.5, 0.5
    args = [xa * xb * xc, xb * xc / xa, xa * xc / xb, xa * xb / xc]

    def g_ref(u):
        lu = cmath.log(u)
        li = complex(mpmath.polylog(2, u))
        if u.imag == 0 and u.real > 1:
            li = complex(li.real, 0.0)
        return -0.25 * lu * lu - li

    ref = 1j * math.pi * cmath.log(xa * xb * xc)
    ref += sum(g_ref(complex(u)) for u in args)
    ref -= g_ref(complex(xa * xa)) + g_ref(complex(xb * xb)) + g_ref(complex(xc * xc))
    got = w_theta((xa, xb, xc))
    assert abs(got - ref) < 1e-13
    assert abs(got - (-1.0729035222567926 - 6.532758270910805j)) < 1e-12


def test_w_theta_permutation_invariant():
    rng = random.Random(12)
    for _ in range(50):
        x = sample_theta_point(rng)
        base = w_theta(x)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert abs(w_theta(tuple(x[i] for i in perm)) - base) < 1e-12


def test_theta_twists_at_symmetric_point_solve_the_curve():
    # the curve is linear in its twist, so it pins the value; the gradient
    # must reproduce exactly what the curve forces
    ys = grad_log_y_theta((0.5, 0.5, 0.5))
    poly = theta_classical_A("a")
    base = {"x_a": 0.5, "x_b": 0.5, "x_c": 0.5}
    c0 = poly.evaluate({**base, "y_a": 0.0})
    c1 = poly.evaluate({**base, "y_a": 1.0}) - c0
    forced = -c0 / c1
    assert abs(forced - Fraction(-7, 9)) < 1e-15
    for edge in THETA_EDGES:
        assert abs(ys[edge] - forced) < 1e-14


def test_theta_twist_at_symmetric_point_from_exact_recursion():
    # third route to the symmetric-point twist, touching neither the curve
    # nor the potential: with x = v^N held at 1/2, the exact ratio
    # theta(N+2, N, N) / theta(N, N, N) tends to -(1+x+x^2)/(1+x)^2 = -7/9
    # with a first-order error, so one Richardson step removes it
    r64, r128 = (
        theta_recursion_factor(n, n, n).eval_complex(2.0 ** (-1.0 / n)).real for n in (64, 128)
    )
    limit = 2.0 * r128 - r64
    assert abs(limit - float(Fraction(-7, 9))) < 1e-3
    assert abs(limit - grad_log_y_theta((0.5, 0.5, 0.5))["a"]) < 1e-3


def _sample_theta_point_subunit(rng):
    """sample_theta_point redrawn until every potential argument is at most 1.

    That keeps the point inside the region where w_theta is analytic along
    real perturbations, as finite differences need.  Each draw consumes the
    rng as the sampler's old subunit option did, so the points are the same.
    """
    while True:
        xa, xb, xc = x = sample_theta_point(rng)
        if all(u <= 1.0 for u in _theta_args(xa, xb, xc) + (xa * xa, xb * xb, xc * xc)):
            return x


def test_theta_twists_match_finite_differences():
    rng = random.Random(11)
    h = 1e-6
    for _ in range(20):
        x = _sample_theta_point_subunit(rng)
        ys = grad_log_y_theta(x)
        for i, edge in enumerate(THETA_EDGES):
            up = list(x)
            dn = list(x)
            up[i] *= math.exp(h)
            dn[i] *= math.exp(-h)
            fd = (w_theta(tuple(up)) - w_theta(tuple(dn))) / (2.0 * h)
            assert abs(cmath.exp(fd) - ys[edge]) <= 1e-8 * abs(ys[edge])


def _grad_log_y_theta_termwise(x, flip_negative_cut: bool = False) -> dict:
    """Literal term-by-term log-gradient of the theta potential, exponentiated.

    With flip_negative_cut the opposite branch of log(1 - u) is taken whenever
    1 - u lands on the negative real axis.  The exponentiated twists must not
    depend on that choice; tests compare both against grad_log_y_theta.
    """
    xa, xb, xc = _coords(x, THETA_EDGES)
    _require_regular_theta(xa, xb, xc)

    def lg(u):
        v = 1 - u
        val = cmath.log(v)
        if flip_negative_cut and v.imag == 0 and v.real < 0:
            val = complex(val.real, -math.pi)
        return val

    def slope(u):
        return -0.5 * cmath.log(u) + lg(u)

    def one(p, s, t):
        u1, u2, u3, u4 = p * s * t, s * t / p, p * t / s, p * s / t
        total = 1j * math.pi
        total += slope(u1) - slope(u2) + slope(u3) + slope(u4)
        total -= 2 * slope(p * p)
        return cmath.exp(total)

    return {"a": one(xa, xb, xc), "b": one(xb, xc, xa), "c": one(xc, xa, xb)}


def test_theta_twists_branch_independent():
    pts = [(0.2, 0.8, 0.8)]
    rng = random.Random(21)
    pts += [sample_theta_point(rng) for _ in range(20)]
    for x in pts:
        base = grad_log_y_theta(x)
        for flip in (False, True):
            alt = _grad_log_y_theta_termwise(x, flip_negative_cut=flip)
            for edge in THETA_EDGES:
                assert abs(alt[edge] - base[edge]) <= 1e-12 * abs(base[edge])


def test_theta_twists_permutation_equivariant():
    rng = random.Random(13)
    for _ in range(30):
        xa, xb, xc = sample_theta_point(rng)
        ys = grad_log_y_theta((xa, xb, xc))
        swapped = grad_log_y_theta((xb, xa, xc))
        assert abs(ys["a"] - swapped["b"]) < 1e-13 * abs(ys["a"])


def test_theta_twists_singular_locus_raises():
    with pytest.raises(SingularPointError):
        grad_log_y_theta((1.0, 0.5, 0.5))


def test_check_residual_theta_symmetric_point():
    res = check_residual_theta((0.5, 0.5, 0.5))
    assert all(v <= 1e-10 for v in res.values())


def test_check_residual_theta_random_sweep():
    rng = random.Random(5)
    seen = 0
    for _ in range(100):
        x = tuple(rng.uniform(0.1, 0.9) for _ in range(3))
        res = check_residual_theta(x)
        vals = list(res.values())
        if any(v != v for v in vals):
            continue
        seen += 1
        assert max(vals) <= 1e-9
    assert seen >= 95


def test_check_residual_theta_skips_near_singular():
    res = check_residual_theta((0.999999999, 0.5, 0.5))
    assert all(v != v for v in res.values())


# -- tetrahedron potential and saddles --


def test_w_tet_trivial_point():
    assert abs(w_tet((1,) * 6, 1) - math.pi * math.pi) < 1e-13


def test_w_tet_against_termwise_oracle():
    x = (0.3, 0.4, 0.5, 0.6, 0.7, 0.2)
    z = 0.11 + 0.03j
    x1, x2, x12, x3, x4, x23 = x
    triples = [x1 * x2 * x12, x3 * x4 * x12, x1 * x4 * x23, x2 * x3 * x23]
    quads = [x1 * x2 * x3 * x4, x1 * x3 * x12 * x23, x2 * x4 * x12 * x23]

    def g_ref(u):
        lu = cmath.log(u)
        return -0.25 * lu * lu - complex(mpmath.polylog(2, u))

    ref = 1j * math.pi * cmath.log(z) + g_ref(z)
    ref -= sum(g_ref(z / p) for p in triples)
    ref -= sum(g_ref(r / z) for r in quads)
    got = w_tet(x, z)
    assert abs(got - ref) < 1e-13
    assert abs(got - (6.364129548442474 + 1.818407609653291j)) < 1e-12


def test_w_tet_slope_and_curvature_match_finite_differences():
    x = (0.3, 0.4, 0.5, 0.6, 0.7, 0.2)
    h = 1e-6
    for z in (0.11 + 0.03j, 0.05 - 0.02j, 0.2 + 0.1j):
        up = z * math.exp(h)
        dn = z * math.exp(-h)
        fd1 = (w_tet(x, up) - w_tet(x, dn)) / (2.0 * h)
        assert abs(fd1 - w_tet_slope(x, z)) <= 1e-7 * max(1.0, abs(fd1))
        fd2 = (w_tet_slope(x, up) - w_tet_slope(x, dn)) / (2.0 * h)
        assert abs(fd2 - w_tet_curvature(x, z)) <= 1e-6 * max(1.0, abs(fd2))


def test_saddle_balance_symbolic_degree_and_constant():
    # the quartic terms of the two four-fold products cancel identically and
    # so does the constant term: the balance is exactly z times a quadratic
    balance, _ = saddle_system()
    assert balance.degree_in("z") == 3
    coeffs = balance.coeffs_in("z")
    assert 0 not in coeffs
    assert 4 not in coeffs
    pt = {
        "x_1": Fraction(1, 3),
        "x_2": Fraction(2, 5),
        "x_12": Fraction(1, 2),
        "x_3": Fraction(3, 7),
        "x_4": Fraction(2, 3),
        "x_23": Fraction(1, 5),
        "z": Fraction(0),
    }
    assert balance.eval_fraction(pt) == 0


def test_saddle_cubic_matches_symbolic_balance():
    balance, _ = saddle_system()
    rng = random.Random(17)
    for _ in range(20):
        x = tuple(rng.uniform(0.2, 0.9) for _ in range(6))
        a, b, c, d = saddle_cubic_tet(x)
        pt = {"x_" + lab: x[i] for i, lab in enumerate(TET_EDGES)}
        for z in (0.3, 0.7, 1.3):
            ref = balance.evaluate({**pt, "z": z})
            got = a * z**3 + b * z**2 + c * z + d
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_saddle_cubic_symmetric_point():
    # at x = (t,...,t) with t = 1/2 the quadratic factor is
    # (2816 z^2 - 432 z + 17) / 4096 up to the overall -z
    a, b, c, d = saddle_cubic_tet((0.5,) * 6)
    assert d == 0
    scale = a / (-2816.0 / 4096.0)
    assert abs(scale - 1.0) < 1e-14
    assert abs(b - scale * (432.0 / 4096.0)) < 1e-14
    assert abs(c - scale * (-17.0 / 4096.0)) < 1e-14


def test_saddle_solve_symmetric_point():
    rec = saddle_solve_tet((0.5,) * 6)
    assert rec.z_roots[-1] == 0
    z0 = rec.z_roots[rec.chosen]
    assert abs(z0 - (0.07670454545454544 - 0.012383235635058715j)) < 1e-12
    assert z0.imag < 0
    assert rec.residual <= 1e-10
    assert rec.lattice_errors[rec.chosen] <= 1e-9
    w0 = w_tet((0.5,) * 6, z0)
    assert abs(w0 - (5.083672530512017 - 7.982830219499228j)) < 1e-11
    # conjugate pair: the discarded branch carries strictly smaller Re W
    other = [z for i, z in enumerate(rec.z_roots) if i != rec.chosen and z != 0][0]
    assert w_tet((0.5,) * 6, other).real < w0.real


def test_saddle_solve_random_points():
    rng = random.Random(2)
    for _ in range(20):
        x = sample_tet_point(rng)
        rec = saddle_solve_tet(x)
        assert rec.residual <= 1e-8
        assert rec.lattice_errors[rec.chosen] <= 1e-6
        point = {"x_" + lab: complex(v) for lab, v in zip(TET_EDGES, x)}
        point["y_1"] = rec.y1
        assert abs(tet_classical_A("1").evaluate(point)) <= 1e-8


def test_saddle_solve_degenerate_report():
    for x in ((1.0,) * 6, (0,) * 6):  # no quadratic; a quadratic with both roots zero
        with pytest.raises(SingularPointError, match="degenerate"):
            saddle_solve_tet(x)


@pytest.mark.parametrize(
    "coeffs, want",
    [
        ((1.0, -3.0, 2.0), (2 + 0j, 1 + 0j)),  # distinct real roots
        ((1.0, 3.0, 2.0), (-2 + 0j, -1 + 0j)),
        ((1.0, 0.0, -4.0), (-2 + 0j, 2 + 0j)),
        ((1.0, 2.0, 5.0), (-1 + 2j, -1 - 2j)),  # conjugate pair, upper root first
        ((-1.0, 2.0, -5.0), (1 + 2j, 1 - 2j)),
        ((4.0, 4.0, 1.0), (-0.5 + 0j, -0.5 + 0j)),  # double root
        ((1.0, -3.0, 0.0), (3 + 0j, 0j)),  # c = 0: the zero root comes last
        ((1.0, 3.0, 0.0), (-3 + 0j, 0j)),
        ((2.0, 0.0, 0.0), (0j, 0j)),  # b = c = 0
        ((0.0, 2.0, -3.0), (1.5 + 0j,)),  # a = 0: the linear root alone
        ((0.0, 0.0, 1.0), ()),  # a = b = 0: no root
    ],
)
def test_quadratic_roots_pinned(coeffs, want):
    got = _quadratic_roots(*coeffs)
    assert got == want
    for z, w in zip(got, want):  # no negative zeros, so a real root reads +0.0j
        assert math.copysign(1.0, z.real) == math.copysign(1.0, w.real)
        assert math.copysign(1.0, z.imag) == math.copysign(1.0, w.imag)


def _np_quadratic_roots(a, b, c):
    import numpy as np

    return tuple(complex(r) for r in np.roots([a, b, c]))


def test_quadratic_roots_complex_coefficients_match_np_roots():
    pytest.importorskip("numpy")
    rng = random.Random(6)
    for _ in range(200):
        a, b, c = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        ref = _np_quadratic_roots(a, b, c)
        got = _quadratic_roots(a, b, c)
        assert len(got) == len(ref) == 2
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * abs(r)


def test_quadratic_roots_match_np_roots_on_sampled_saddles(monkeypatch):
    """The closed form against np.roots on 2000 sampled tet points.

    Same order and each root within 1e-12 relative; the saddle selection
    made from np.roots' roots picks the same branch.
    """
    pytest.importorskip("numpy")
    rng = random.Random(1)
    points = [sample_tet_point(rng) for _ in range(2000)]
    records = [saddle_solve_tet(x) for x in points]
    for x in points:
        a, b, c, _ = saddle_cubic_tet(x)
        got = _quadratic_roots(a, b, c)
        ref = _np_quadratic_roots(a, b, c)
        assert len(got) == len(ref) == 2
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * abs(r)
    monkeypatch.setattr(asymptotics, "_quadratic_roots", _np_quadratic_roots)
    for x, rec in zip(points, records):
        ref = saddle_solve_tet(x)
        assert (rec.chosen, len(rec.z_roots)) == (ref.chosen, len(ref.z_roots))


def test_saddle_twists_satisfy_all_six_curves():
    rng = random.Random(2)
    for _ in range(20):
        x = sample_tet_point(rng)
        rec = saddle_solve_tet(x)
        ys = saddle_twists_tet(x, rec.z_roots[rec.chosen])
        base = {"x_" + lab: complex(v) for lab, v in zip(TET_EDGES, x)}
        for edge in TET_EDGES:
            point = dict(base)
            point["y_" + edge] = ys[edge]
            assert abs(tet_classical_A(edge).evaluate(point)) <= 1e-8


def _residual_tet_looped(x):
    """The residual command's tet loop written out: the largest curve residual, maximized from 0.0 edge by edge."""
    rec = saddle_solve_tet(x)
    ys = saddle_twists_tet(x, rec.z_roots[rec.chosen])
    base = {"x_" + lab: complex(v) for lab, v in zip(TET_EDGES, x)}
    value = 0.0
    for edge in TET_EDGES:
        point = dict(base)
        point["y_" + edge] = ys[edge]
        value = max(value, abs(tet_classical_A(edge).evaluate(point)))
    return value


def test_check_residual_tet_matches_the_looped_residual():
    rng = random.Random(4)
    for _ in range(30):
        x = sample_tet_point(rng)
        res = check_residual_tet(x)
        assert tuple(res) == TET_EDGES
        assert max(0.0, *res.values()) == _residual_tet_looped(x)


def test_check_residual_tet_and_lagrangian_take_the_callers_record():
    rng = random.Random(5)
    for _ in range(10):
        x, rec = sample_tet_record(rng)
        assert check_residual_tet(x, rec=rec) == check_residual_tet(x)
        assert lagrangian_residual("tet", x, rec=rec) == lagrangian_residual("tet", x)


def test_saddle_solve_raises_when_the_chosen_root_sits_on_a_twist_pole(monkeypatch):
    def pole(x, z):
        raise SingularPointError("saddle collides with a twist pole")

    monkeypatch.setattr(asymptotics, "saddle_twists_tet", pole)
    with pytest.raises(SingularPointError, match="twist pole"):
        saddle_solve_tet((0.5,) * 6)


def test_check_residual_tet_rejects_a_degenerate_saddle():
    with pytest.raises(SingularPointError):
        check_residual_tet((1,) * 6)


def test_summation_floor_sits_under_the_saddle():
    for t, gap_ref in ((0.5, 0.2429), (0.35, 0.3580)):
        x = (t,) * 6
        seg = tet_real_segment(x)
        assert seg is not None
        lo, hi = seg
        assert abs(lo - t**4) < 1e-12 and abs(hi - t**3) < 1e-12
        floor = tet_summation_floor(x)
        assert floor is not None
        zs, re_w = floor
        assert lo < zs < hi
        rec = saddle_solve_tet(x)
        gap = w_tet(x, rec.z_roots[rec.chosen]).real - re_w
        assert abs(gap - gap_ref) < 1e-3


def test_summation_floor_of_a_segment_below_the_pad_resolution():
    # the segment is 6e-9 wide at 1: a pad of 1e-9 of it rounds away at both ends
    x = (0.9999999940000001,) * 6
    lo, hi = tet_real_segment(x)
    assert lo + (hi - lo) * 1e-9 == lo
    assert tet_summation_floor(x) is None


def _summation_floor_200(x):
    """tet_summation_floor with all 200 bisection steps: the oracle of its fixed-point exit."""
    seg = tet_real_segment(x)
    if seg is None:
        return None
    xs = tuple(float(abs(v)) for v in x)
    lo, hi = seg
    pad = (hi - lo) * 1e-9
    a, b = lo + pad, hi - pad
    if not w_tet_slope(xs, a).real < 0.0 < w_tet_slope(xs, b).real:
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        if w_tet_slope(xs, mid).real < 0.0:
            a = mid
        else:
            b = mid
    zs = 0.5 * (a + b)
    return zs, w_tet(xs, zs).real


def test_summation_floor_stops_at_its_fixed_point(monkeypatch):
    # the effective eigenvalues of the benchmark's growth rows, then random points
    points = [tuple(math.exp(hb * n / 2.0) for n in col) for col, hb in NUMERIC_BENCH_ROWS]
    rng = random.Random(11)
    for _ in range(200):
        t = rng.uniform(0.02, 0.98)
        points.append(tuple(min(0.999, t * rng.uniform(0.85, 1.15)) for _ in range(6)))
    found = 0
    for x in points:
        want = _summation_floor_200(x)
        slopes = []
        real = asymptotics.w_tet_slope
        monkeypatch.setattr(asymptotics, "w_tet_slope", lambda *a: slopes.append(1) or real(*a))
        assert tet_summation_floor(x) == want
        monkeypatch.undo()
        if want is not None:
            found += 1
            assert len(slopes) < 70
    assert found >= len(NUMERIC_BENCH_ROWS) + 100


# -- exact magnitude evaluators --


def test_log_abs_theta_matches_exact_evaluation():
    hb = -0.22
    v0 = complex(math.exp(hb / 2.0))
    for colors in ((2, 2, 2), (4, 6, 8), (10, 7, 5), (12, 12, 12)):
        exact = theta_invariant(*colors).eval_complex(v0)
        assert abs(log_abs_theta(colors, hb) - math.log(abs(exact))) <= 1e-12


def test_log_abs_theta_rejects_inadmissible():
    with pytest.raises(ValueError):
        log_abs_theta((1, 1, 1), -0.1)


# -1e-300: exp(hbar) rounds to 1, so log(1 - exp(hbar)) would be log(0)
@pytest.mark.parametrize("hbar", [0.1, 0.0, math.nan, -math.inf, -1e-300])
def test_log_abs_rejects_hbar_not_negative_and_finite(hbar):
    with pytest.raises(ValueError, match="hbar"):
        log_abs_theta((2, 2, 2), hbar)
    with pytest.raises(ValueError, match="hbar"):
        log_abs_tet((2, 2, 2, 2, 2, 2), hbar)


def test_log_abs_tet_matches_exact_evaluation():
    hb = -0.22
    v0 = complex(math.exp(hb / 2.0))
    for colors in (
        (2, 2, 2, 2, 2, 2),
        (4, 4, 4, 4, 4, 4),
        (6, 4, 8, 6, 4, 8),
        (10, 10, 10, 10, 10, 10),
        (40, 40, 40, 40, 40, 40),
        (40, 38, 42, 40, 38, 42),
    ):
        exact = tet_primed(tuple(colors)).eval_complex(v0)
        got, diag = log_abs_tet(colors, hb)
        assert abs(got - math.log(abs(exact))) <= 1e-12
        assert 0.0 < diag["cancellation"] <= 1.0
        assert diag["precision_bits"] >= 320


def test_log_abs_tet_survives_heavy_cancellation():
    # in the deep growth regime the surviving fraction is ~exp(-gap/|hbar|);
    # the ladder must keep enough bits for a trustworthy magnitude
    colors = (268, 269, 269, 268, 269, 269)
    got, diag = log_abs_tet(colors, -1.0 / 128.0)
    assert math.isfinite(got)
    assert diag["cancellation"] < 1e-15


def _log_abs_tet_log_space(colors, hbar, start_bits=320):
    """Independent route to log_abs_tet: each summand as exp of a log-space sum.

    log [k]! is a prefix sum of log1p(-exp(hbar k)) terms, and every summand
    is one mpmath exp, on the same precision ladder and trust test.
    """
    col = tuple(colors)
    taus = _triangle_halves(col)
    ups = _quad_halves(col)
    lo, hi = max(taus), min(ups)
    bits = start_bits
    for _ in range(8):
        with mpmath.workprec(bits):
            h = mpmath.mpf(hbar)
            base = mpmath.log1p(-mpmath.exp(h))
            pref = [mpmath.mpf(0)] * (hi + 2)
            acc = mpmath.mpf(0)
            for k in range(1, hi + 2):
                acc += (1 - k) * h / 2 + mpmath.log1p(-mpmath.exp(h * k)) - base
                pref[k] = acc
            signed = mpmath.mpf(0)
            total = mpmath.mpf(0)
            for m in range(lo, hi + 1):
                lt = pref[m + 1] - sum(pref[m - t] for t in taus) - sum(pref[u - m] for u in ups)
                term = mpmath.exp(lt)
                total += term
                signed += -term if m % 2 else term
            if abs(signed) / total > mpmath.mpf(2) ** (60 - bits):
                return float(mpmath.log(abs(signed))), float(abs(signed) / total), bits
        bits *= 2
    raise ArithmeticError("cancellation exhausted the precision ladder")


# the rows of the benchmark's numeric workload: x = 0.35 (all six edges) at
# hbar = -2^-5 ... -2^-10, and x = (0.3, 0.35, 0.4, 0.3, 0.35, 0.4) at -2^-7 ... -2^-10
NUMERIC_BENCH_ROWS = [
    ((67, 67, 68, 67, 67, 68), -(2.0**-5)),
    ((134,) * 6, -(2.0**-6)),
    ((268, 269, 269, 268, 269, 269), -(2.0**-7)),
    ((538,) * 6, -(2.0**-8)),
    ((1075, 1075, 1076, 1075, 1075, 1076), -(2.0**-9)),
    ((2150,) * 6, -(2.0**-10)),
    ((308, 269, 235, 308, 269, 235), -(2.0**-7)),
    ((616, 537, 469, 616, 537, 469), -(2.0**-8)),
    ((1233, 1075, 938, 1233, 1075, 938), -(2.0**-9)),
    ((2466, 2150, 1876, 2466, 2150, 1876), -(2.0**-10)),
]


# small colors at tiny |hbar|: every 1 - q^k is small, the conditioning the guard bits cover
TINY_HBAR_ROWS = [((4,) * 6, -1e-3), ((3, 4, 5, 3, 4, 5), -1e-6), ((12, 10, 8, 12, 10, 8), -1e-9)]


@pytest.mark.parametrize(
    "colors, hbar",
    NUMERIC_BENCH_ROWS + TINY_HBAR_ROWS,
    ids=lambda v: str(v[0]) if isinstance(v, tuple) else repr(v),
)
def test_log_abs_tet_matches_log_space_route(colors, hbar):
    want, want_canc, want_bits = _log_abs_tet_log_space(colors, hbar)
    got, diag = log_abs_tet(colors, hbar)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(diag["cancellation"] - want_canc) <= 1e-9 * want_canc
    assert diag["precision_bits"] == want_bits


def test_log_abs_tet_bench_rows_take_both_rungs():
    # the ladder is exercised: the two deepest x = 0.35 rows need the 640-bit rung
    bits = {hb: log_abs_tet(col, hb)[1]["precision_bits"] for col, hb in NUMERIC_BENCH_ROWS[:6]}
    assert bits == {-(2.0**-k): 320 if k < 9 else 640 for k in range(5, 11)}


def _counting_rungs(monkeypatch) -> list:
    # the bits of every _tet_rung call, in order
    rungs = []
    real = asymptotics._tet_rung
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda *a: rungs.append(a[3]) or real(*a))
    return rungs


def _predicted_hint(colors, hbar):
    # growth_check_tet's hint: the floor-to-saddle gap of Re W over hbar ln 2
    x_eff = tuple(math.exp(hbar * n / 2.0) for n in colors)
    try:
        rec = saddle_solve_tet(x_eff)
        floor = tet_summation_floor(x_eff)
    except ValueError:  # SingularPointError too: x_eff within rounding of 1, as in the tiny-hbar rows
        return None
    if floor is None:
        return None
    return (w_tet(x_eff, rec.z_roots[rec.chosen]).real - floor[1]) / (hbar * math.log(2.0))


def _hint_starting_at(bits):
    # a hint under which the ladder starts at the rung of `bits`
    return 60 - 0.75 * bits - asymptotics._HINT_MARGIN


@pytest.mark.parametrize(
    "colors, hbar",
    NUMERIC_BENCH_ROWS + TINY_HBAR_ROWS,
    ids=lambda v: str(v[0]) if isinstance(v, tuple) else repr(v),
)
def test_log_abs_tet_hint_never_changes_the_result(monkeypatch, colors, hbar):
    want = log_abs_tet(colors, hbar)
    bits = want[1]["precision_bits"]
    rungs = _counting_rungs(monkeypatch)
    predicted = _predicted_hint(colors, hbar)
    assert log_abs_tet(colors, hbar, predicted) == want
    if (colors, hbar) in NUMERIC_BENCH_ROWS:
        assert rungs == [bits]
    # one rung too high: trusted there, but the skipped rung cannot be ruled out
    del rungs[:]
    assert log_abs_tet(colors, hbar, _hint_starting_at(2 * bits)) == want
    assert rungs[:2] == [2 * bits, asymptotics._START_BITS] and rungs[-1] == bits
    low = _hint_starting_at(max(asymptotics._START_BITS, bits // 2))
    for hint in (low, math.inf, -math.inf, math.nan, 1e9):
        assert log_abs_tet(colors, hbar, hint) == want


def test_numeric_growth_tables_run_ten_rungs(monkeypatch):
    # the benchmark's two tet tables: each row runs only the rung it trusts
    rungs = _counting_rungs(monkeypatch)
    growth_check_tet((0.35,) * 6, [-(2.0**-k) for k in range(5, 11)])
    growth_check_tet((0.3, 0.35, 0.4, 0.3, 0.35, 0.4), [-(2.0**-k) for k in range(7, 11)])
    assert rungs == [320] * 4 + [640] * 2 + [320] * 3 + [640]


def test_growth_check_tet_sum_raises_before_the_potential(monkeypatch):
    # the hint's inputs are computed ahead of the sum, but a failing sum still reports first
    def broken_floor(x):
        raise RuntimeError("floor")

    monkeypatch.setattr(asymptotics, "tet_summation_floor", broken_floor)
    with pytest.raises(RuntimeError, match="floor"):
        growth_check_tet((0.35,) * 6, (-0.1, -0.05))
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (1, 1 << 50000, 0))
    with pytest.raises(LadderExhaustedError):
        growth_check_tet((0.35,) * 6, (-0.1, -0.05))


def test_log_abs_tet_zero_survivor_climbs(monkeypatch):
    # a computed zero is an untrusted survivor: the next rung decides
    zero = mpmath.mpf(0)
    monkeypatch.setattr(
        asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (0, 1 << 10, zero) if bits == 320 else (3, 4, zero)
    )
    val, diag = log_abs_tet((4,) * 6, -0.1)
    assert abs(val - math.log(3.0)) <= 1e-15
    assert diag == {"cancellation": 0.75, "precision_bits": 640}
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (0, 1, zero))
    with pytest.raises(LadderExhaustedError):
        log_abs_tet((4,) * 6, -0.1)


# -- the ladder's fixed-point exp and log, against mpmath --


# hbar from -2^-60 to -700, times the rung's multipliers: 1 (q), 3 (q^3) and
# 6 lo + 2 - 2 sum t (with half of hbar), which reaches +-10^5 near the color cap
_EXP_HBARS = (-(2.0**-60), -1e-9, -(2.0**-10), -0.1, -(2.0**-1), -1.0, -7.5, -700.0)
_EXP_MULTS = (1, 3, -2, 5, -99_999, 100_000)
# bits of the top rung plus guard bits of the benchmark rows
_TOP_P = asymptotics._TOP_BITS + 31


def _dyadic(x: float) -> tuple:
    a, d = x.as_integer_ratio()
    return a, d.bit_length() - 1


def _mp_floor_mantissa(a: int, b: int, p: int) -> tuple:
    # floor(e^x / 2^ex) at p bits, from mpmath 64 bits beyond
    with mpmath.workprec(p + 64):
        frac, ex = mpmath.frexp(mpmath.exp(mpmath.ldexp(a, -b)))
        return int(mpmath.floor(mpmath.ldexp(frac, p))), ex - p


@pytest.mark.parametrize("p", [64, 353, 2591])
@pytest.mark.parametrize("hbar", _EXP_HBARS)
def test_exp_mantissa_is_the_truncated_mantissa(p, hbar):
    a, b = _dyadic(hbar)
    for mult in _EXP_MULTS:
        for shift in (0, 1):
            man, ex = asymptotics._exp_mantissa(a * mult, b + shift, p)
            assert man.bit_length() == p
            assert (man, ex) == _mp_floor_mantissa(a * mult, b + shift, p)


@pytest.mark.parametrize("hbar, mult", [(-(2.0**-10), 1), (-(2.0**-10), -2345), (-(2.0**-60), 3), (-700.0, 100_000)])
def test_exp_mantissa_at_the_top_rung(hbar, mult):
    a, b = _dyadic(hbar)
    assert asymptotics._exp_mantissa(a * mult, b + 1, _TOP_P) == _mp_floor_mantissa(a * mult, b + 1, _TOP_P)


def test_exp_mantissa_of_zero():
    assert asymptotics._exp_mantissa(0, 5, 64) == (1 << 63, -63)


def test_rung_q_is_truncated_to_p_fractional_bits():
    # q = man >> (-p - ex) is floor(e^hbar 2^p), as the rung's bound assumes, also when it underflows to 0
    for hbar in _EXP_HBARS:
        a, b = _dyadic(hbar)
        man, ex = asymptotics._exp_mantissa(a, b, 353)
        with mpmath.workprec(353 + 64):
            want = int(mpmath.floor(mpmath.ldexp(mpmath.exp(mpmath.mpf(hbar)), 353)))
        assert man >> -353 - ex == want


@pytest.mark.parametrize("w", [64, 160, 1000, _TOP_P + 64])
def test_ln2_is_the_floor(monkeypatch, w):
    monkeypatch.setattr(asymptotics, "_LN2_CACHE", (0, 0))
    got = asymptotics._ln2(w)
    with mpmath.workprec(w + 64):
        assert got == int(mpmath.floor(mpmath.ldexp(mpmath.ln2, w)))
    # a later call for fewer bits shifts the cached value; only more bits sum again
    have = asymptotics._LN2_CACHE[0]
    assert asymptotics._ln2(w // 2) == got >> (w - w // 2)
    assert asymptotics._LN2_CACHE[0] == have
    assert asymptotics._ln2(have + 1) >> (have + 1 - w) == got
    assert asymptotics._LN2_CACHE[0] > have


@pytest.mark.parametrize("w", [64, 160, 351, 2000])
def test_log_fixed_error_bound(w):
    rng = random.Random(w)
    ints = [1, 2, 3, 5, 7, (1 << 64) - 1, 1 << 64, 3 << 999]
    ints += [rng.getrandbits(k) | 1 << (k - 1) for k in (20, 53, 300, 5000, 100_000)]
    for n in ints:
        got = asymptotics._log_fixed(n, w)
        with mpmath.workprec(w + n.bit_length().bit_length() + 64):
            assert abs(mpmath.mpf(got) - mpmath.ldexp(mpmath.log(n), w)) < 2


@pytest.mark.parametrize("w", [64, 160, 200, 2000])
def test_log1m_exp_error_bound(w):
    for hbar in _EXP_HBARS:
        got = asymptotics._log1m_exp(*_dyadic(hbar), w)
        with mpmath.workprec(w + 2200):
            want = mpmath.ldexp(mpmath.log(-mpmath.expm1(mpmath.mpf(hbar))), w)
            assert abs(mpmath.mpf(got) - want) < 6


# -- the rung against the upward walk it replaced --


def _rung_oracle(taus, ups, hbar: float, bits: int) -> tuple:
    """`asymptotics._tet_rung` as it was before its window: every summand, walked up from lo at full precision.

    Returns (signed, total, log_scale): Python ints and an exact Fraction with
    signed * e^log_scale = sum_m (-1)^m T(m) and total * e^log_scale =
    sum_m T(m), where T(m) = [m+1]! / (prod_t [m-t]! prod_u [u-m]!) for
    lo = max t <= m <= hi = min u, at v = exp(hbar/2), q = v^2.

    With [k] = v^(1-k) (1 - q^k) / (1 - q) and sum t = sum u (both are the sum
    of the six colors), T(m) = v^E(m) (1 - q)^-1 (q;q)_(m+1) /
    (prod_t (q;q)_(m-t) prod_u (q;q)_(u-m)), where (q;q)_k is the product
    of 1 - q^j over j <= k and 2 E(m) = -m(m+1) + sum_t (m-t)(m-t-1) +
    sum_u (u-m)(u-m-1).  Consecutive summands differ by

        T(m+1)/T(m) = v^(6m+2-sum t-sum u) (1 - q^(m+2)) prod_u (1 - q^(u-m))
                      / prod_t (1 - q^(m+1-t)).

    The rung builds every 1 - q^k as a p-bit fixed-point int from q^k by
    repeated multiplication, forms T(lo) from the (q;q)_k products, and walks
    the summands by that ratio.  The v^E(lo) (1 - q)^-1 factor, which every
    summand shares, stays in log_scale.  Every value is an int mantissa with
    a binary exponent, so no logarithm or exponential is taken per term.

    The rung's constants are integer fixed point as well.  hbar is an exact
    dyadic, and `asymptotics._exp_mantissa` gives q = e^hbar truncated to p fractional
    bits, and v^(6 lo + 2 - sum t - sum u) and q^3 as truncated p-bit
    mantissas, exactly as the bound below assumes.  In log_scale, v^E(lo)
    gives hbar E(lo) / 2 exactly, and ln 2 and log(1 - q) are taken at
    asymptotics._LOG_BITS plus the bit length of the smallest exponent: log_scale is off
    by under 2^-150, far below the one float it feeds.

    The working precision is p = bits + g guard bits, with n = hi - lo, K the
    largest k used, and g = bit_length(n (16 (ceil(1/|hbar|) + K) + 2n + 258)) + 4:

    - q is truncated to p fractional bits and each q^k is a truncated product,
      so |q^k - exact| <= 2k 2^-p.  Since 1 - q^k >= k|hbar| / (1 + k|hbar|),
      the relative error of 1 - q^k is at most 2^(1-p) (1/|hbar| + K).  This
      conditioning near k = 1 is what costs about log2(1/|hbar|) bits.
    - One ratio has eight such factors, 16 (1/|hbar| + K) 2^-p in all.  Its
      eight truncated products, one floor division and one renormalization
      add under 256 * 2^-p (each partial product keeps at least p - 6 bits).
      The running v^e(m) is within 2^(1-p) (1 + 2j) after j steps.
    - So after d <= n steps T(lo + d) / T(lo) is within
      2^-p n (16 (1/|hbar| + K) + 2n + 258), which is at most 2^(-bits-4).
      The sums are exact: each term is shifted to the smallest exponent.
      Hence |signed error| <= 2^(-bits-4) total.  Whenever the trust test
      |signed| / total > 2^(60-bits) holds, signed is good to 2^-64 relative.
    - The error of T(lo) multiplies signed and total alike.  It leaves their
      ratio alone and moves log|signed| by far less than a double's ulp.

    By that bound a computed signed == 0 only says |true signed| <=
    2^(-bits-4) total: it fails the trust test like any small survivor.
    """
    lo, hi = max(taus), min(ups)
    n = hi - lo
    top = max(hi + 1, max(ups) - lo, hi - min(taus))
    p = bits + (n * (16 * (math.ceil(-1.0 / hbar) + top) + 2 * n + 258)).bit_length() + 4
    one = 1 << p
    ha, hb = hbar.as_integer_ratio()
    hb = hb.bit_length() - 1  # hbar = ha / 2^hb exactly
    man, ex = asymptotics._exp_mantissa(ha, hb, p)
    q = man >> -p - ex
    vp, ve = asymptotics._exp_mantissa(ha * (6 * lo + 2 - 2 * sum(taus)), hb + 1, p)
    q3, e3 = asymptotics._exp_mantissa(3 * ha, hb, p)
    # 1 - q^k = af[k] * 2^(-p - z[k]) for k >= 1, each af[k] an int of exactly
    # p bits; q^k is kept at 2^-p or more, which is within the bound above
    af, z = [one], [0]
    qk = one
    for k in range(1, top + 1):
        qk = max(qk * q >> p, 1)
        a = one - qk
        s = p - a.bit_length()
        af.append(a << s)
        z.append(s)
    # poch[k] = (man, ex) with (q;q)_k = man * 2^ex, up to what T(lo) needs
    poch = [(one, -p)]
    man, ex = one, -p
    for k in range(1, max(lo + 1, lo - min(taus), max(ups) - lo) + 1):
        x = man * af[k]
        s = x.bit_length() - p
        man = x >> s
        ex += s - p - z[k]
        poch.append((man, ex))
    num, ex = poch[lo + 1]
    den = 1
    for k in [lo - t for t in taus] + [u - lo for u in ups]:
        dm, de = poch[k]
        den *= dm
        ex -= de
    width = den.bit_length() + p
    x = (num << width) // den
    s = x.bit_length() - p
    t, te = x >> s, ex - width + s
    terms = [(t, te)]
    t0, t1, t2, t3 = taus
    u0, u1, u2 = ups
    for m in range(lo, hi):
        x = t * vp >> p
        x = x * af[m + 2] >> p
        x = x * af[u0 - m] >> p
        x = x * af[u1 - m] >> p
        x = x * af[u2 - m] >> p
        y = af[m + 1 - t0] * af[m + 1 - t1] >> p
        y = y * af[m + 1 - t2] >> p
        y = y * af[m + 1 - t3] >> p
        x = (x << p + 8) // y
        s = x.bit_length() - p
        t = x >> s
        te += ve + p - 8 + s + (
            z[m + 1 - t0] + z[m + 1 - t1] + z[m + 1 - t2] + z[m + 1 - t3]
            - z[m + 2] - z[u0 - m] - z[u1 - m] - z[u2 - m]
        )
        terms.append((t, te))
        x = vp * q3
        s = x.bit_length() - p
        vp = x >> s
        ve += e3 + s
    low = min(e for _, e in terms)
    signed = total = 0
    for m, (t, e) in enumerate(terms, lo):
        x = t << (e - low)
        total += x
        signed += -x if m % 2 else x
    big_e = -lo * (lo + 1) + sum((lo - t) * (lo - t - 1) for t in taus) + sum((u - lo) * (u - lo - 1) for u in ups)
    w = asymptotics._LOG_BITS + abs(low).bit_length()
    log_scale = Fraction(low * asymptotics._ln2(w) - asymptotics._log1m_exp(ha, hb, w), 1 << w) + Fraction(ha * big_e, 1 << hb + 2)
    return signed, total, log_scale


def _assert_rung_matches_oracle(taus, ups, hbar, bits):
    # The rung's peak summand is good to 2^-160, an error that scales signed and
    # total alike.  So signed is compared on the oracle's scale, where the two
    # totals agree, against the 2^(-bits-4) total each rung may be off by, and
    # that scale (total e^log_scale) to 2^-140.
    signed, total, scale = asymptotics._tet_rung(taus, ups, hbar, bits)
    want_signed, want_total, want_scale = _rung_oracle(taus, ups, hbar, bits)
    assert abs(Fraction(signed * want_total, total) - want_signed) <= Fraction(want_total, 1 << bits + 3)
    with mpmath.workprec(256):
        gap = mpmath.log(total) - mpmath.log(want_total)
        gap += mpmath.mpf(scale.numerator) / scale.denominator
        gap -= mpmath.mpf(want_scale.numerator) / want_scale.denominator
        assert abs(gap) < mpmath.ldexp(1, -140)


def _halves(colors):
    col = tuple(colors)
    return _triangle_halves(col), _quad_halves(col)


@pytest.mark.parametrize(
    "colors, hbar",
    NUMERIC_BENCH_ROWS + TINY_HBAR_ROWS,
    ids=lambda v: str(v[0]) if isinstance(v, tuple) else repr(v),
)
def test_rung_matches_the_oracle(colors, hbar):
    bits = log_abs_tet(colors, hbar)[1]["precision_bits"]
    for b in sorted({asymptotics._START_BITS, bits}):
        _assert_rung_matches_oracle(*_halves(colors), hbar, b)


@pytest.mark.parametrize("min_terms", [0, 128])
def test_rung_matches_the_oracle_on_random_colorings(min_terms):
    # min_terms 128 draws only sums of 128 summands or more; 0 takes every
    # nonempty sum, most of them short
    rng = random.Random(11)
    done = 0
    while done < 12:
        col = tuple(rng.randrange(600) for _ in range(6))
        if not tet_is_admissible(col):
            continue
        lo, hi = tet_sum_bounds(col)
        if hi - lo + 1 < max(min_terms, 1):
            continue
        _assert_rung_matches_oracle(*_halves(col), -rng.uniform(0.002, 0.3), rng.choice((320, 640)))
        done += 1


def test_rung_matches_the_oracle_at_4000():
    colors, hbar = (4000,) * 6, 2.0 * math.log(0.35) / 4000
    assert log_abs_tet(colors, hbar)[1]["precision_bits"] == 1280
    _assert_rung_matches_oracle(*_halves(colors), hbar, 1280)


@pytest.mark.parametrize(
    "colors, hbar, n, peak",
    [
        ((264, 53, 211, 329, 356, 364), -0.05, 0, 0),  # lo = hi = 492: one summand
        ((84, 52, 98, 36, 68, 26), -0.05, 3, 0),  # falls from lo
        ((338, 366, 372, 392, 358, 328), -0.3, 151, 151),  # rises to hi, over 16000 bits
    ],
)
def test_rung_window_edges(colors, hbar, n, peak):
    taus, ups = _halves(colors)
    ell, _ = asymptotics._tet_scan(taus, ups, hbar)
    assert len(ell) == n + 1 and ell.index(max(ell)) == peak
    for bits in (320, 640):
        _assert_rung_matches_oracle(taus, ups, hbar, bits)


def test_rung_window_covers_a_short_sum(monkeypatch):
    # 99 summands, lo = 406 and hi = 504: the scan puts the peak at lo + 85,
    # and the 24 summands below lo + 24 fall under the 320-bit budget
    formed, walked = [], []
    real_ratio, real_walk = asymptotics._pochhammer_ratio, asymptotics._walk

    def walk(*a):
        out = real_walk(*a)
        walked.append(len(out))
        return out

    monkeypatch.setattr(asymptotics, "_pochhammer_ratio", lambda *a: formed.append(a[0]) or real_ratio(*a))
    monkeypatch.setattr(asymptotics, "_walk", walk)
    taus, ups = _halves((308, 269, 235, 308, 269, 235))
    assert (max(taus), min(ups)) == (406, 504)
    _assert_rung_matches_oracle(taus, ups, -(2.0**-7), 320)
    assert formed == [406 + 85 + 1]  # (q;q)_(m*+1) with m* = lo + 85
    assert 1 + sum(walked) == 75


def _scan_altered(monkeypatch, alter):
    # _tet_scan with its predictions and slack passed through alter(ell, slack, peak index)
    real = asymptotics._tet_scan

    def scan(taus, ups, hbar):
        ell, slack = real(taus, ups, hbar)
        return alter(ell, slack, ell.index(max(ell)))

    monkeypatch.setattr(asymptotics, "_tet_scan", scan)


def test_rung_keeps_precision_through_a_predicted_dip(monkeypatch):
    # predicted summands that fall 500 bits below the peak and rise again: a
    # step keeps the precision of the largest summand still ahead of it, so the
    # true summands in the dip, near the peak, stay exact
    def dip(ell, slack, top):
        return [e - 500 if top < i <= top + 20 else e for i, e in enumerate(ell)], slack

    _scan_altered(monkeypatch, dip)
    colors, hbar = NUMERIC_BENCH_ROWS[3]
    _assert_rung_matches_oracle(*_halves(colors), hbar, 320)


def test_rung_allows_for_the_scan_error(monkeypatch):
    # predictions 100 bits low, but within the slack they come with: the window
    # and the precision widen by it and still cover the true summands
    def low(ell, slack, top):
        return [e if i == top else e - 100 for i, e in enumerate(ell)], slack + 100

    _scan_altered(monkeypatch, low)
    colors, hbar = NUMERIC_BENCH_ROWS[3]
    _assert_rung_matches_oracle(*_halves(colors), hbar, 320)


def _log2_summands(taus, ups, hbar):
    # log2 T(m)/T(lo) from the summand ratio in mpmath, 120 bits
    lo, hi = max(taus), min(ups)
    with mpmath.workprec(120):
        h = mpmath.mpf(hbar)

        def f(k):
            return mpmath.log(-mpmath.expm1(h * k), 2)

        out, acc = [0.0], mpmath.mpf(0)
        for m in range(lo, hi):
            acc += h * (6 * m + 2 - 2 * sum(taus)) / (2 * mpmath.ln2)
            acc += f(m + 2) + sum(f(u - m) for u in ups) - sum(f(m + 1 - t) for t in taus)
            out.append(acc)
        return out


@pytest.mark.parametrize(
    "colors, hbar",
    [NUMERIC_BENCH_ROWS[0], NUMERIC_BENCH_ROWS[6], TINY_HBAR_ROWS[2], ((84, 52, 98, 36, 68, 26), -0.05)],
)
def test_tet_scan_is_within_its_slack(colors, hbar):
    taus, ups = _halves(colors)
    ell, slack = asymptotics._tet_scan(taus, ups, hbar)
    assert 0 < slack < 2.0**-20
    want = _log2_summands(taus, ups, hbar)
    assert len(ell) == len(want) and all(abs(e - w) <= slack for e, w in zip(ell, want))


def test_tet_scan_overflow_keeps_every_summand():
    taus, ups = _halves((338, 366, 372, 392, 358, 328))
    assert asymptotics._tet_scan(taus, ups, -1e306) == ([0.0] * 152, 0.0)


@pytest.mark.parametrize(
    "top, lens, hbar, series",
    [
        (125, [23, 23, 23, 23, 10, 11, 11], -(2.0**-5), 0),  # (67,67,68,...)'s peak: its series would be longer
        (3951, [725] * 4 + [350] * 3, -(2.0**-10), 1),  # (2150,)^6's peak: 3226 factors as one series
        (40, [45, 3, 0, 7, 50, 2, 9], -1e-9, 0),  # lens above top, at tiny hbar
    ],
)
def test_pochhammer_ratio_within_2_to_minus_160(monkeypatch, top, lens, hbar, series):
    calls = []
    real = asymptotics._qpoch_log
    monkeypatch.setattr(asymptotics, "_qpoch_log", lambda *a: calls.append(a) or real(*a))
    a, b = _dyadic(hbar)
    x, e = asymptotics._pochhammer_ratio(top, lens, hbar, *asymptotics._exp_mantissa(a, b, 400))
    assert len(calls) == series
    with mpmath.workprec(400):
        q = mpmath.exp(mpmath.mpf(hbar))
        poch, acc, qk = [mpmath.mpf(1)], mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(max(top, *lens)):
            qk *= q
            acc *= 1 - qk
            poch.append(acc)
        want = poch[top] / mpmath.fprod(poch[n] for n in lens)
        assert abs(mpmath.ldexp(x, e) / want - 1) < mpmath.ldexp(1, -160)


def test_log_abs_tet_rejects_inadmissible():
    with pytest.raises(ValueError):
        log_abs_tet((1, 2, 2, 2, 2, 2), -0.1)


# -- color rounding --


def test_round_colors_theta_plain_and_repaired():
    colors, notes = round_colors_theta((0.5, 0.5, 0.5), -1.0 / 32.0)
    assert colors == (44, 44, 44)
    assert notes == ()
    colors, notes = round_colors_theta((0.5, 0.5, 0.5), -1.0 / 64.0)
    assert colors is not None
    assert is_admissible(*colors)
    assert sum(colors) == 265 or sum(colors) == 266
    assert any("adjust" in n for n in notes)
    assert sum(abs(c - 2.0 * math.log(0.5) / (-1.0 / 64.0)) for c in colors) <= 1.5


def test_round_colors_theta_trivial_point():
    colors, notes = round_colors_theta((0.999, 0.999, 0.999), -1.0 / 32.0)
    assert colors == (0, 0, 0)
    assert any("trivial" in n for n in notes)


def test_round_colors_theta_rejects_positive_hbar():
    with pytest.raises(ValueError):
        round_colors_theta((0.5, 0.5, 0.5), 0.1)


@pytest.mark.parametrize("round_colors, n", [(round_colors_theta, 3), (round_colors_tet, 6)], ids=["theta", "tet"])
@pytest.mark.parametrize(
    "bad, message",
    [(math.nan, "must be finite"), (0.0, "must be positive"), (1.5, "at most 1")],
    ids=["nan", "zero", "above_one"],
)
def test_round_colors_refuses_an_x_without_a_color(round_colors, n, bad, message):
    # colors n >= 0 solve x = exp(hbar n / 2), so only a finite x in (0, 1] has one
    with pytest.raises(GrowthInputError, match=message):
        round_colors((bad,) + (0.5,) * (n - 1), -1.0 / 32.0)


def test_round_colors_tet_plain_and_repaired():
    colors, notes = round_colors_tet((0.35,) * 6, -1.0 / 64.0)
    assert colors == (134,) * 6
    assert notes == ()
    colors, notes = round_colors_tet((0.35,) * 6, -1.0 / 32.0)
    assert colors is not None
    col = tuple(colors)
    assert tet_is_admissible(col)
    assert any("adjust" in n for n in notes)
    assert sum(abs(c - 2.0 * math.log(0.35) / (-1.0 / 32.0)) for c in colors) <= 3.0


def _round_colors_tet_brute(x, hbar):
    """round_colors_tet over all 729 unit shifts: the oracle of its parity filter."""
    exact = [2.0 * math.log(v) / hbar for v in x]
    base = [max(0, round(e)) for e in exact]

    def usable(c):
        col = tuple(c)
        return tet_is_admissible(col) and max(_triangle_halves(col)) <= min(_quad_halves(col))

    if usable(base):
        cand, notes = tuple(base), []
    else:
        best = None
        for deltas in itertools.product((-1, 0, 1), repeat=6):
            trial = [b + d for b, d in zip(base, deltas)]
            if min(trial) < 0 or not usable(trial):
                continue
            cost = (sum(abs(t - e) for t, e in zip(trial, exact)), tuple(trial))
            if best is None or cost < best:
                best = cost
        if best is None:
            return None, ("no admissible coloring near the requested point",)
        cand, notes = best[1], ["rounding adjusted to restore admissibility"]
    if all(c == 0 for c in cand):
        notes.append("trivial coloring, invariant equals 1")
    return cand, tuple(notes)


def test_round_colors_tet_matches_brute_force():
    cases = [((0.35,) * 6, -(2.0**-k)) for k in range(5, 11)]
    cases += [((0.3, 0.35, 0.4, 0.3, 0.35, 0.4), -(2.0**-k)) for k in range(7, 11)]
    rng = random.Random(3)
    cases += [
        (tuple(rng.uniform(0.2, 0.95) for _ in range(6)), -(2.0 ** -rng.uniform(2.0, 8.0))) for _ in range(300)
    ]
    repaired = 0
    for x, hb in cases:
        want = _round_colors_tet_brute(x, hb)
        assert round_colors_tet(x, hb) == want
        repaired += want[0] is not None and "rounding adjusted to restore admissibility" in want[1]
    assert repaired >= 30


def _round_colors_theta_looped(x, hbar):
    """round_colors_theta written out as its own loop over the six single-entry shifts: the shared routine's oracle."""
    if not hbar < 0:
        raise ValueError("growth regime needs negative hbar")
    xs = tuple(float(v.real) for v in _coords(x, THETA_EDGES))
    exact = [2.0 * math.log(v) / hbar for v in xs]
    base = [max(0, round(e)) for e in exact]
    notes = []
    if is_admissible(*base):
        cand = tuple(base)
    else:
        best = None
        for i in range(3):
            for d in (-1, 1):
                trial = list(base)
                trial[i] += d
                if min(trial) < 0 or not is_admissible(*trial):
                    continue
                cost = (sum(abs(t - e) for t, e in zip(trial, exact)), tuple(trial))
                if best is None or cost < best:
                    best = cost
        if best is None:
            return None, ("no admissible coloring near the requested point",)
        cand = best[1]
        notes.append("rounding adjusted to restore admissibility")
    if all(c == 0 for c in cand):
        notes.append("trivial coloring, invariant equals 1")
    return cand, tuple(notes)


def _round_colors_tet_looped(x, hbar):
    """round_colors_tet written out as its own loop over the parity-filtered shifts: the shared routine's oracle."""
    if not hbar < 0:
        raise ValueError("growth regime needs negative hbar")
    xs = tuple(float(v.real) for v in _coords(x, TET_EDGES))
    exact = [2.0 * math.log(v) / hbar for v in xs]
    base = [max(0, round(e)) for e in exact]

    def usable(c):
        col = tuple(c)
        if not tet_is_admissible(col):
            return False
        return max(_triangle_halves(col)) <= min(_quad_halves(col))

    if usable(base):
        cand, notes = tuple(base), []
    else:
        best = None
        for deltas in _unit_shifts_by_parity()[_face_parities(base)]:
            trial = [b + d for b, d in zip(base, deltas)]
            if min(trial) < 0 or not usable(trial):
                continue
            cost = (sum(abs(t - e) for t, e in zip(trial, exact)), tuple(trial))
            if best is None or cost < best:
                best = cost
        if best is None:
            return None, ("no admissible coloring near the requested point",)
        cand, notes = best[1], ["rounding adjusted to restore admissibility"]
    if all(c == 0 for c in cand):
        notes.append("trivial coloring, invariant equals 1")
    return cand, tuple(notes)


@pytest.mark.parametrize(
    "rounded, looped, n",
    [(round_colors_theta, _round_colors_theta_looped, 3), (round_colors_tet, _round_colors_tet_looped, 6)],
    ids=["theta", "tet"],
)
def test_shared_rounding_matches_the_looped_routines(rounded, looped, n):
    # entries spread 2%, 10% or 60% around a center in (0.05, 0.99), hbar from
    # -2 to -2^-8: plain picks, adjusted picks, points with no admissible
    # candidate and trivial colorings all occur
    rng = random.Random(20)
    seen = {"plain": 0, "adjusted": 0, "none": 0, "trivial": 0}
    for _ in range(400):
        t, w = rng.uniform(0.05, 0.99), rng.choice((0.02, 0.1, 0.6))
        x = tuple(min(1.0, t * rng.uniform(1.0 - w, 1.0 + w)) for _ in range(n))
        hb = -(2.0 ** -rng.uniform(-1.0, 8.0))
        want = looped(x, hb)
        assert rounded(x, hb) == want
        colors, notes = want
        if colors is None:
            seen["none"] += 1
        elif any("adjusted" in note for note in notes):
            seen["adjusted"] += 1
        else:
            seen["plain"] += 1
        seen["trivial"] += colors is not None and not any(colors)
    assert min(seen.values()) >= 10, seen


# -- growth tables --


def test_growth_check_theta_symmetric_point():
    table = growth_check_theta((0.5, 0.5, 0.5), (-1.0 / 32.0, -1.0 / 64.0, -1.0 / 128.0))
    assert isinstance(table, GrowthTable)
    assert table.graph == "theta"
    assert abs(table.target - (-1.0729035222567926)) < 1e-12
    assert len(table.rows) == 3
    assert table.monotone
    for ratio in table.error_ratios:
        assert 1.6 <= ratio <= 2.4
    assert table.richardson_rel_err <= 0.01
    errs = [r.error for r in table.rows]
    assert abs(errs[0] - (-0.036319)) < 2e-4
    assert abs(errs[1] - (-0.018163)) < 2e-4
    assert abs(errs[2] - (-0.009029)) < 2e-4


def test_growth_check_theta_trivial_row():
    table = growth_check_theta((0.999, 0.999, 0.999), (-1.0 / 32.0, -1.0 / 64.0))
    row = table.rows[0]
    assert row.colors == (0, 0, 0)
    assert row.scaled_log_abs == 0.0
    assert row.error != row.error
    assert any("trivial" in n for n in row.notes)


def test_growth_check_tet_symmetric_point():
    table = growth_check_tet((0.35,) * 6, (-1.0 / 32.0, -1.0 / 64.0, -1.0 / 128.0))
    assert table.graph == "tet"
    assert abs(table.target - 2.2164372196507123) < 1e-10
    assert table.monotone
    for ratio in table.error_ratios:
        assert 1.6 <= ratio <= 2.4
    assert table.richardson_rel_err <= 0.01
    for row in table.rows:
        assert any("cancellation" in n for n in row.notes)
        assert any("floor" in n for n in row.notes)


def test_growth_check_tet_reports_cancellation_scaling():
    # measured cancellation tracks exp(-gap/|hbar|) against the segment floor
    table = growth_check_tet((0.5,) * 6, (-1.0 / 64.0, -1.0 / 32.0))
    row = table.rows[0]
    note = next(n for n in row.notes if n.startswith("cancellation"))
    measured = float(note.split()[1])
    assert measured < 1e-5


def test_ratio_e3_spells_ratios_below_a_doubles_range():
    assert _ratio_e3(1, 2**4000) == "7.586e-1205"
    assert _ratio_e3(1, 2**10**6) == "1.010e-301030"
    assert _ratio_e3(1, 10**400) == "1.000e-400"
    assert _ratio_e3(123456, 10**321) == "1.235e-316"  # subnormal: the float keeps fewer digits
    assert _ratio_e3(99996, 10**313) == "1.000e-308"  # rounds up into the next decade
    assert _ratio_e3(1, 2**1074) == "4.941e-324"
    assert _ratio_e3(0, 7) == "0.000e+00"
    assert _ratio_e3(3, 4) == "7.500e-01"


def test_ratio_e3_matches_float_format_on_bench_rows():
    for colors, hbar in NUMERIC_BENCH_ROWS:
        canc = log_abs_tet(colors, hbar)[1]["cancellation"]
        num, den = canc.numerator, canc.denominator
        want = f"{num / den:.3e}"
        assert _ratio_e3(num, den) == want
        # 400 decades lower, below a double's range, the scaled route spells the same digits
        mant, ex = want.split("e")
        assert _ratio_e3(num, den * 10**400) == f"{mant}e{int(ex) - 400:+03d}"


def test_growth_check_tet_notes_a_cancellation_below_a_doubles_range(monkeypatch):
    # a survivor of 2^-4000 of the total, trusted at 5120 bits: as a float it read 0.000e+00
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (1, 1 << 4000, 0))
    row = growth_check_tet((0.35,) * 6, (-1.0 / 32.0, -1.0 / 64.0)).rows[0]
    assert "cancellation 7.586e-1205" in row.notes


def _refuse_evaluation(monkeypatch):
    # the input rules come before the potential and before every row
    def evaluated(*args, **kwargs):
        raise AssertionError("a growth table evaluated an input it should refuse")

    for name in ("w_theta", "saddle_solve_tet", "log_abs_theta", "log_abs_tet"):
        monkeypatch.setattr(asymptotics, name, evaluated)


def test_growth_check_tet_refuses_a_row_past_the_cap(monkeypatch):
    # hbar = -1e-6 rounds x = 0.35 to colors near 2.1e6; the first row is under
    # the cap, and neither row runs
    _refuse_evaluation(monkeypatch)
    with pytest.raises(GrowthInputError, match=f"cap {MAX_GROWTH_COLOR}"):
        growth_check_tet((0.35,) * 6, (-0.03125, -1e-6))


@pytest.mark.parametrize(
    "growth, x, hbars, message",
    [
        # the hbar rule comes first, before a bad x
        (growth_check_theta, (2.0,) * 3, (-0.1, 0.0), "hbar must be negative"),
        (growth_check_theta, (0.5,) * 3, (-0.1, -1e-17), r"exp\(hbar\) below 1"),
        (growth_check_tet, (0.35,) * 6, (math.nan, -0.05), "hbar must be negative and finite"),
        (growth_check_tet, (math.nan,) + (0.35,) * 5, (-0.1, -0.05), "x entries must be finite"),
        (growth_check_theta, (0.5, math.inf, 0.5), (-0.1, -0.05), "x entries must be finite"),
        (growth_check_theta, (0.5, 0.0, 0.5), (-0.1, -0.05), "must be positive"),
        (growth_check_tet, (0.35,) * 5 + (-0.35,), (-0.1, -0.05), "must be positive"),
        (growth_check_theta, (2.0,) * 3, (-0.1, -0.05), "at most 1"),
        # the cap comes before the count of hbar values
        (growth_check_tet, (0.35,) * 6, (-1e-9,), f"cap {MAX_GROWTH_COLOR}"),
        (growth_check_theta, (0.5,) * 3, (-0.1,), "at least two values"),
        (growth_check_tet, (0.35,) * 6, (), "at least two values"),
    ],
)
def test_growth_checks_refuse_inputs_before_evaluating(monkeypatch, growth, x, hbars, message):
    _refuse_evaluation(monkeypatch)
    with pytest.raises(GrowthInputError, match=message):
        growth(x, hbars)


@pytest.mark.parametrize("graph, x", [("theta", (0.5,) * 3), ("tet", (0.35,) * 6)])
def test_growth_checks_round_each_row_once(monkeypatch, graph, x):
    name = "round_colors_" + graph
    real = getattr(asymptotics, name)
    calls = []
    monkeypatch.setattr(asymptotics, name, lambda xs, hb: calls.append(hb) or real(xs, hb))
    table = getattr(asymptotics, "growth_check_" + graph)(x, (-1.0 / 32.0, -1.0 / 64.0))
    assert calls == [-1.0 / 32.0, -1.0 / 64.0]
    assert [row.colors for row in table.rows] == [real(x, hb)[0] for hb in calls]


def gx_self_check(x, hbars) -> GrowthTable:
    """First-order convergence of hbar*log [n]! to the factorial potential.

    Rounds n from x = exp(hbar n), subtracts the known pi^2/6 constant, the
    log(-hbar) terms, and the square-root measure, and reports the residual,
    which must shrink linearly in hbar with a clean Richardson limit.
    """
    xv = float(x)
    if not 0.0 < xv < 1.0:
        raise ValueError("self check needs 0 < x < 1")
    target = g_potential(xv).real
    rows = []
    for hb in hbars:
        hb = float(hb)
        n = round(math.log(xv) / hb)
        if n <= 0:
            rows.append(
                GrowthRow(hb, (0,), 0.0, target, math.nan, ("trivial rounding",))
            )
            continue
        x_eff = math.exp(hb * n)
        val = hb * _log_bracket_prefix(n, hb)[n]
        corr = (
            PI_SQ_OVER_6
            - math.log(x_eff) * math.log(-hb)
            + 0.5 * hb * math.log(TWO_PI / -hb)
        )
        shift = g_potential(x_eff).real - target
        err = val - corr - shift - target
        rows.append(GrowthRow(hb, (n,), val, target, err, ()))
    return _summarize("bracket-factorial", target, rows)


def test_gx_self_check_first_order():
    table = gx_self_check(0.5, (-1.0 / 32.0, -1.0 / 64.0, -1.0 / 128.0, -1.0 / 256.0))
    assert table.monotone
    for ratio in table.error_ratios:
        assert 1.7 <= ratio <= 2.3
    assert table.richardson_rel_err <= 0.01
    # the surviving residual is hbar times a pinned slope:
    # -log(x)/4 + log(1-x)/2 at x = 1/2
    slope = -math.log(0.5) / 4.0 + 0.5 * math.log(0.5)
    for row in table.rows[-2:]:
        n = row.colors[0]
        x_eff = math.exp(row.hbar * n)
        want = row.hbar * (-math.log(x_eff) / 4.0 + 0.5 * math.log(1.0 - x_eff))
        assert abs(row.error - want) <= 2e-4
    assert abs(slope - (-0.17328679513998632)) < 1e-12


def test_gx_self_check_rejects_bad_regime():
    with pytest.raises(ValueError):
        gx_self_check(1.5, (-0.01,))


# -- Lagrangian condition --


def test_lagrangian_theta_symmetric_point():
    assert lagrangian_residual("theta", (0.5, 0.5, 0.5)) <= 1e-10


def test_lagrangian_theta_random_points():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(50):
        x = sample_theta_point(rng)
        worst = max(worst, lagrangian_residual("theta", x))
    assert worst <= 1e-6


def test_lagrangian_tet_random_points():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(20):
        x = sample_tet_point(rng)
        worst = max(worst, lagrangian_residual("tet", x))
    assert worst <= 1e-5


def test_lagrangian_rejects_unknown_graph():
    with pytest.raises(ValueError):
        lagrangian_residual("pentagon", (0.5, 0.5, 0.5))


# -- samplers --


def test_sample_theta_point_respects_constraints():
    rng = random.Random(1)
    for _ in range(50):
        x = _sample_theta_point_subunit(rng)
        assert all(0.15 <= v <= 0.85 for v in x)
        xa, xb, xc = x
        args = (xa * xb * xc, xb * xc / xa, xa * xc / xb, xa * xb / xc, xa * xa, xb * xb, xc * xc)
        assert all(u <= 1.0 and abs(1 - u) >= 0.1 for u in args)


def test_sample_tet_point_respects_constraints():
    rng = random.Random(1)
    for _ in range(10):
        x = sample_tet_point(rng)
        rec = saddle_solve_tet(x)
        z = rec.z_roots[rec.chosen]
        assert abs(1 - z) >= 0.15 and abs(z) >= 1e-4


def _sample_tet_point_solving_every_candidate(rng, counts):
    """The tet sampler as a loop that solves each candidate before testing it: the oracle of its root pre-test."""
    for _ in range(100000):
        counts["candidates"] += 1
        xs = tuple(rng.uniform(0.2, 0.8) for _ in range(6))
        a, b, c, _ = saddle_cubic_tet(xs)
        if abs(a) < 0.05 * max(abs(b), abs(c), 1e-30):
            continue
        try:
            rec = saddle_solve_tet(xs)
        except SingularPointError:
            continue
        z = rec.z_roots[rec.chosen]
        triples, quads = asymptotics._tet_products(xs)
        if any(abs(z - p) < 0.15 * abs(p) for p in triples + quads):
            continue
        if abs(1 - z) < 0.15 or abs(z) < 1e-4:
            continue
        return xs
    raise RuntimeError("tet point sampler starved")


def test_sample_tet_record_matches_the_solving_loop():
    # the same points as the loop that solves every candidate, each with its own saddle record
    counts = {"candidates": 0}
    for seed in range(40):
        want_rng, got_rng, point_rng = random.Random(seed), random.Random(seed), random.Random(seed)
        for _ in range(20):
            want = _sample_tet_point_solving_every_candidate(want_rng, counts)
            x, rec = sample_tet_record(got_rng)
            assert x == want
            assert rec == saddle_solve_tet(x)
            assert sample_tet_point(point_rng) == want
    # the acceptance rate sample_tet_point's docstring quotes
    assert counts["candidates"] == 3130


def test_samplers_deterministic():
    a = sample_theta_point(random.Random(42))
    b = sample_theta_point(random.Random(42))
    assert a == b
    c = sample_tet_point(random.Random(42))
    d = sample_tet_point(random.Random(42))
    assert c == d
