"""Numerical companion to the exact modules.

Everything here lives in the scaling regime q = exp(hbar) with small negative
real hbar, where an edge of color n carries the holonomy eigenvalue
x = q^(n/2).  The module provides the dilogarithm, the factorial potential and
the graph potentials built from it, the twist variables obtained as
logarithmic gradients of those potentials, saddle-point data for the
tetrahedron, Lagrangian-condition probes, and growth tables comparing
hbar * log |invariant| against the potentials.

Branch policy: principal logarithms throughout.  For real dilogarithm
arguments above 1 the real part of the principal value is used; the sign
ambiguity this leaves in intermediate logs cancels in every exponentiated
quantity (the twists), which is covered by unit tests comparing both branch
choices.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from itertools import product as _iterproduct
from operator import index
from typing import NamedTuple, Optional

from .apoly import GRAPHS, TET_EDGES, THETA_EDGES
from .invariants import (
    _quad_halves,
    _triangle_halves,
    is_admissible,
    tet_is_admissible,
    tet_sum_bounds,
)

TWO_PI = 2.0 * math.pi
PI_SQ_OVER_6 = math.pi * math.pi / 6.0

# arguments this close to the unit locus are treated as singular for twists
_SING_TOL = 1e-8


class SingularPointError(ValueError):
    """Raised when a potential or twist is requested on its singular locus."""


class GrowthInputError(ValueError):
    """Raised when an x or hbar lies outside what the growth regime can evaluate."""


class LadderExhaustedError(ArithmeticError):
    """Raised when log_abs_tet runs out of precision rungs before trusting its sum."""


# -- dilogarithm -------------------------------------------------------------------------------


# B_k / (k+1)! for k < 44, with the Bernoulli numbers B_k (B_1 = -1/2), as
# floats: Li2(u) = sum_k B_k w^(k+1) / (k+1)! with w = -log(1 - u).  A literal,
# so no import pays for the recurrence; tests/test_asymptotics.py rebuilds it
# from the exact recurrence over Fraction and compares bit for bit
_LOG_SERIES_COEF = (
    1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0,
    4.72411186696901e-06, 0.0, -9.185773074661964e-08, 0.0, 1.8978869988971e-09, 0.0,
    -4.0647616451442256e-11, 0.0, 8.921691020456452e-13, 0.0, -1.9939295860721074e-14,
    0.0, 4.518980029619918e-16, 0.0, -1.0356517612181247e-17, 0.0,
    2.395218621026187e-19, 0.0, -5.581785874325009e-21, 0.0, 1.3091507554183213e-22,
    0.0, -3.0874198024267403e-24, 0.0, 7.315975652702203e-26, 0.0,
    -1.740845657234001e-27, 0.0, 4.1576356446139e-29, 0.0, -9.962148488284622e-31, 0.0,
    2.3940344248961652e-32, 0.0, -5.76834735536739e-34, 0.0, 1.393179479647008e-35, 0.0,
)


def _dilog_series(u: complex) -> complex:
    # accelerated series in w = -log(1-u); converges for |w| < 2*pi and the
    # routing below only sends arguments with |w| <= ~1.4 here
    w = -cmath.log(1 - u)
    w2 = w * w
    acc = _LOG_SERIES_COEF[0] * w + _LOG_SERIES_COEF[1] * w2
    wp = w * w2
    k = 2
    while k < len(_LOG_SERIES_COEF):
        term = _LOG_SERIES_COEF[k] * wp
        acc += term
        if abs(term) <= 1e-17 * (1.0 + abs(acc)):
            break
        wp *= w2
        k += 2
    return acc


def _dilog_routed(u: complex) -> complex:
    if u == 1:
        return complex(PI_SQ_OVER_6, 0.0)
    if abs(u) > 1.0:
        lu = cmath.log(-u)
        return -_dilog_routed(1.0 / u) - PI_SQ_OVER_6 - 0.5 * lu * lu
    if u.real > 0.5:
        return PI_SQ_OVER_6 - cmath.log(u) * cmath.log(1 - u) - _dilog_routed(1 - u)
    return _dilog_series(u)


def dilog(u) -> complex:
    """Principal-branch dilogarithm.

    Real arguments above 1 sit on the branch cut; the value returned there is
    the real part of the principal value, so exact-real input gives an
    exact-real answer.
    """
    u = complex(u)
    if u == 0:
        return 0j
    on_real_cut = u.imag == 0.0 and u.real > 1.0
    val = _dilog_routed(u)
    if on_real_cut:
        return complex(val.real, 0.0)
    return val


def g_potential(u) -> complex:
    """Factorial potential -(log u)^2/4 - Li_2(u) with the principal log."""
    u = complex(u)
    if u == 0:
        raise SingularPointError("factorial potential needs a nonzero argument")
    lu = cmath.log(u)
    return -0.25 * lu * lu - dilog(u)


# -- point containers --------------------------------------------------------------------------


class SaddleRecord(NamedTuple):
    """Roots of the tetrahedron saddle polynomial and the selected branch.

    Only a nondegenerate saddle has one: saddle_solve_tet raises
    SingularPointError when the balance quadratic has no nonzero root.

    residual is the absolute value of the edge-1 classical curve at the
    selected root's twist; curve_errors and lattice_errors hold per-root
    diagnostics (the lattice error measures the distance of the logarithmic
    slope from the 2*pi*i lattice, where a genuine saddle of the summand
    must land).
    """

    z_roots: tuple
    chosen: int
    y1: complex
    residual: float
    curve_errors: tuple
    lattice_errors: tuple


def _coords(x, labels) -> tuple:
    vals = tuple(complex(v) for v in x)
    if len(vals) != len(labels):
        raise ValueError(f"expected {len(labels)} coordinates, got {len(vals)}")
    return vals


# -- theta graph -------------------------------------------------------------------------------


def _theta_args(xa, xb, xc) -> tuple:
    return (xa * xb * xc, xb * xc / xa, xa * xc / xb, xa * xb / xc)


def w_theta(x) -> complex:
    """Growth potential of the theta graph."""
    xa, xb, xc = _coords(x, THETA_EDGES)
    if 0 in (xa, xb, xc):
        raise SingularPointError("theta potential needs nonzero eigenvalues")
    u1, u2, u3, u4 = _theta_args(xa, xb, xc)
    if u1 == 0:
        raise SingularPointError("the product of the theta eigenvalues underflows to 0")
    total = 1j * math.pi * cmath.log(u1)
    total += g_potential(u1) + g_potential(u2) + g_potential(u3) + g_potential(u4)
    total -= g_potential(xa * xa) + g_potential(xb * xb) + g_potential(xc * xc)
    return total


def _require_regular_theta(xa, xb, xc):
    for v in _theta_args(xa, xb, xc) + (xa * xa, xb * xb, xc * xc):
        if abs(v) < 1e-12:
            raise SingularPointError("zero potential argument")
        if abs(1 - v) < _SING_TOL:
            raise SingularPointError("argument on the unit locus")


def grad_log_y_theta(x) -> dict:
    """Twists of the theta graph as exponentiated potential gradients.

    Differentiating the potential in log x_j makes every squared-log piece
    cancel identically, leaving the constant i*pi plus logs of (1 - argument)
    factors.  Exponentiation turns that into a sign times a ratio of such
    factors, which is what gets evaluated here; the cancellation-free form is
    exact for real eigenvalues and branch-independent in general.

    Finite differences of w_theta reproduce these twists exactly on the
    region where every potential argument stays below 1.  Arguments beyond 1
    sit on the dilogarithm cut, where the real-part convention of w_theta
    drops the imaginary piece of individual terms; the difference
    exponentiates to a per-term sign, so there the finite-difference image
    can differ from the analytic twist by an overall sign while the twist
    itself stays branch-independent.
    """
    xa, xb, xc = _coords(x, THETA_EDGES)
    _require_regular_theta(xa, xb, xc)

    def one(p, s, t):
        u1, u2, u3, u4 = _theta_args(p, s, t)
        return -(1 - u1) * (1 - u3) * (1 - u4) / ((1 - u2) * (1 - p * p) ** 2)

    return {"a": one(xa, xb, xc), "b": one(xb, xc, xa), "c": one(xc, xa, xb)}


def _curve_residuals(graph: str, xs, ys) -> dict:
    # |classical curve of each edge of ys| at the eigenvalues xs and that edge's twist
    g = GRAPHS[graph]
    base = {"x_" + lab: v for lab, v in zip(g.edges, xs)}
    return {edge: abs(g.classical_A(edge).evaluate({**base, "y_" + edge: y})) for edge, y in ys.items()}


def check_residual_theta(x) -> dict:
    """Absolute value of each theta classical curve at the gradient twists.

    Near the singular loci the twists blow up and the check is skipped: the
    returned map then carries NaN for every edge, which is the diagnostic
    callers should report instead of a residual.
    """
    xs = _coords(x, THETA_EDGES)
    try:
        ys = grad_log_y_theta(xs)
    except SingularPointError:
        return {edge: math.nan for edge in THETA_EDGES}
    return _curve_residuals("theta", xs, ys)


# -- tetrahedron potential and saddles ---------------------------------------------------------


def _tet_products(xs) -> tuple:
    x1, x2, x12, x3, x4, x23 = xs
    triples = (x1 * x2 * x12, x3 * x4 * x12, x1 * x4 * x23, x2 * x3 * x23)
    quads = (x1 * x2 * x3 * x4, x1 * x3 * x12 * x23, x2 * x4 * x12 * x23)
    return triples, quads


def w_tet(x, z) -> complex:
    """Growth potential of the tetrahedron at auxiliary variable z."""
    xs = _coords(x, TET_EDGES)
    z = complex(z)
    if z == 0:
        raise SingularPointError("auxiliary variable must be nonzero")
    triples, quads = _tet_products(xs)
    total = 1j * math.pi * cmath.log(z) + g_potential(z)
    for p in triples:
        total -= g_potential(z / p)
    for r in quads:
        total -= g_potential(r / z)
    return total


def w_tet_slope(x, z) -> complex:
    """z times the z-derivative of the tetrahedron potential."""
    xs = _coords(x, TET_EDGES)
    z = complex(z)
    triples, quads = _tet_products(xs)
    total = 1j * math.pi - 0.5 * cmath.log(z) + cmath.log(1 - z)
    for p in triples:
        total += 0.5 * cmath.log(z / p) - cmath.log(1 - z / p)
    for r in quads:
        total += -0.5 * cmath.log(r / z) + cmath.log(1 - r / z)
    return total


def w_tet_curvature(x, z) -> complex:
    """Second logarithmic z-derivative of the tetrahedron potential."""
    xs = _coords(x, TET_EDGES)
    z = complex(z)
    triples, quads = _tet_products(xs)
    total = -0.5 - z / (1 - z)
    for p in triples:
        u = z / p
        total += 0.5 + u / (1 - u)
    for r in quads:
        u = r / z
        total += 0.5 + u / (1 - u)
    return total


def w_tet_one_loop_shape(x, z) -> complex:
    """Product of first-order factorial corrections at the saddle.

    Each factorial in the summand carries a sqrt(1 - argument) correction
    beyond its leading exponential; their ratio collapses to this single
    rational expression, whose square root scales the one-loop magnitude.
    """
    xs = _coords(x, TET_EDGES)
    z = complex(z)
    triples, quads = _tet_products(xs)
    num = 1 - z
    den = 1.0 + 0j
    for p in triples:
        den *= 1 - z / p
    for r in quads:
        den *= 1 - r / z
    if den == 0:
        raise SingularPointError("saddle sits on a correction zero")
    return num / den


def _quadratic_roots(a, b, c) -> tuple:
    """Roots of a z^2 + b z + c, in the order np.roots gives them.

    Cancellation-free: d = sqrt(b^2 - 4ac) takes the sign with
    Re(conj(b) d) >= 0, so q = -(b + d)/2 never subtracts nearly equal
    numbers, and the roots are q/a and c/q.  Real coefficients with a
    negative discriminant give an exact conjugate pair, positive imaginary
    part first.  q = 0 (b = c = 0) gives the double root 0, a = 0 the single
    linear root -c/b, and a = b = 0 no root.  No root has a negative zero
    part, so a real root has imaginary part +0.0.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if a == 0:
        roots = () if b == 0 else (-c / b,)
    elif a.imag == b.imag == c.imag == 0.0:
        a, b, c = a.real, b.real, c.real
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            re = -b / (2.0 * a)
            im = math.sqrt(-disc) / abs(2.0 * a)
            roots = (complex(re, im), complex(re, -im))
        else:
            q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
            roots = (0.0, 0.0) if q == 0.0 else (q / a, c / q)
    else:
        d = cmath.sqrt(b * b - 4.0 * a * c)
        if (b.conjugate() * d).real < 0.0:
            d = -d
        q = -(b + d) / 2.0
        roots = (0.0, 0.0) if q == 0 else (q / a, c / q)
    # adding +0.0 turns a negative zero into +0.0 and leaves every other value
    return tuple(complex(z.real + 0.0, z.imag + 0.0) for z in map(complex, roots))


def saddle_cubic_tet(x) -> tuple:
    """Coefficients (z^3, z^2, z, 1) of the saddle balance polynomial.

    The balance of the two four-fold products has identically cancelling
    quartic and constant terms, leaving z times a quadratic; the zero
    constant coefficient is kept so the tuple matches the displayed cubic.
    """
    xs = _coords(x, TET_EDGES)
    (p1, p2, p3, p4), (q1, q2, q3) = _tet_products(xs)
    s1 = p1 + p2 + p3 + p4
    s2 = p1 * p2 + p1 * p3 + p1 * p4 + p2 * p3 + p2 * p4 + p3 * p4
    s3 = p1 * p2 * p3 + p1 * p2 * p4 + p1 * p3 * p4 + p2 * p3 * p4
    r1 = q1 + q2 + q3
    r2 = q1 * q2 + q1 * q3 + q2 * q3
    r3 = q1 * q2 * q3
    return (s1 - r1 - 1.0, r1 + r2 - s2, s3 - r2 - r3, 0.0)


def saddle_twists_tet(x, z) -> dict:
    """All six twist variables determined by one saddle value.

    Each twist is an eigenvalue times a cross-ratio of the saddle against the
    triple and quadruple products; the assignments below are pinned by the
    classical curves, which they satisfy identically.
    """
    xs = _coords(x, TET_EDGES)
    z = complex(z)
    x1, x2, x12, x3, x4, x23 = xs
    (p1, p2, p3, p4), (r1, r2, r3) = _tet_products(xs)
    d12, d13, d23 = (z - r1) * (z - r2), (z - r1) * (z - r3), (z - r2) * (z - r3)
    # a product of two nonzero factors can still underflow to 0
    if 0 in (d12, d13, d23) or any(abs(z - r) < 1e-13 * abs(r) for r in (r1, r2, r3)):
        raise SingularPointError("saddle collides with a twist pole")
    return {
        "1": x3 * (z - p1) * (z - p3) / d12,
        "2": x4 * (z - p1) * (z - p4) / d13,
        "12": x23 * (z - p1) * (z - p2) / d23,
        "3": x1 * (z - p2) * (z - p4) / d12,
        "4": x2 * (z - p2) * (z - p3) / d13,
        "23": x12 * (z - p3) * (z - p4) / d23,
    }


def _lattice_error(xs, z) -> float:
    # distance of the logarithmic slope from the 2*pi*i lattice; the slope of
    # a genuine summand saddle lands on the lattice because integer shifts of
    # the summation index change the summand by exp(2*pi*i*m)
    try:
        d = w_tet_slope(xs, z)
    except (SingularPointError, ValueError, ZeroDivisionError):
        return math.inf
    if not cmath.isfinite(d):  # the logs of products that overflow or underflow
        return math.inf
    k = round(d.imag / TWO_PI)
    return abs(d - complex(0.0, TWO_PI * k))


def _curve_error_tet(xs, z) -> tuple:
    # (edge-1 twist, its curve residual), or (None, inf) at a twist pole
    try:
        y1 = saddle_twists_tet(xs, z)["1"]
    except SingularPointError:
        return None, math.inf
    return y1, _curve_residuals("tet", xs, {"1": y1})["1"]


def saddle_solve_tet(x) -> SaddleRecord:
    """Solve the saddle balance and select the branch that feeds the growth.

    Returns the two quadratic roots plus the structural zero root of the
    cubic.  Selection minimizes the edge-1 curve residual, with residuals
    below 1e-8 bucketed together; ties fall to the lattice error (bucketed at
    1e-6), then to roots in the closed lower half plane, then to smaller
    imaginary magnitude.  The structural zero root never wins because its
    slope is singular.  For a conjugate pair this picks the lower-half root,
    whose potential exceeds the upper one's by 2*pi*|arg z| and is the value
    the alternating sum actually grows with.  Raises SingularPointError
    ("degenerate") when the quadratic vanishes or both its roots are zero.
    """
    xs = _coords(x, TET_EDGES)
    a, b, c, _ = saddle_cubic_tet(xs)
    scale = max(abs(a), abs(b), abs(c))
    roots = ()
    if scale != 0.0 and abs(a) >= 1e-13 * scale:
        roots = _quadratic_roots(a, b, c) + (0j,)
    if not any(roots):
        # a vanishing quadratic, or one whose roots are both zero (x = 0)
        raise SingularPointError("degenerate saddle polynomial, whose quadratic has no nonzero root")
    twists, curve_errors = zip(*(_curve_error_tet(xs, z) if z != 0 else (None, math.inf) for z in roots))
    lattice_errors = tuple(_lattice_error(xs, z) if z != 0 else math.inf for z in roots)

    def sel_key(i):
        res = curve_errors[i]
        lat = lattice_errors[i]
        zi = roots[i]
        return (
            0.0 if res < 1e-8 else res,
            0.0 if lat < 1e-6 else lat,
            0 if zi.imag <= 1e-12 else 1,
            abs(zi.imag),
            zi.real,
        )

    candidates = [i for i, z in enumerate(roots) if z != 0]
    chosen = min(candidates, key=sel_key)
    y1 = twists[chosen]
    if y1 is None:  # the chosen root sits on a twist pole, so this raises
        saddle_twists_tet(xs, roots[chosen])
    return SaddleRecord(
        z_roots=roots,
        chosen=chosen,
        y1=y1,
        residual=curve_errors[chosen],
        curve_errors=curve_errors,
        lattice_errors=lattice_errors,
    )


def check_residual_tet(x, rec: Optional[SaddleRecord] = None) -> dict:
    """Absolute value of each tetrahedron classical curve at the selected saddle's twists.

    The edge-1 curve is saddle_solve_tet's own residual at that root; rec,
    when given, is saddle_solve_tet(x).
    """
    xs = _coords(x, TET_EDGES)
    if rec is None:
        rec = saddle_solve_tet(xs)
    ys = saddle_twists_tet(xs, rec.z_roots[rec.chosen])
    return {"1": rec.residual, **_curve_residuals("tet", xs, {e: ys[e] for e in TET_EDGES[1:]})}


def tet_real_segment(x) -> Optional[tuple]:
    """Real z-interval swept by the summation index, or None when empty."""
    xs = _coords(x, TET_EDGES)
    triples, quads = _tet_products(xs)
    lo = max(abs(r) for r in quads)
    hi = min(abs(p) for p in triples)
    if not lo < hi:
        return None
    return lo, hi


def tet_summation_floor(x) -> Optional[tuple]:
    """Interior stationary point of Re(potential) on the summation segment.

    On the open segment every potential argument stays inside (0, 1), so the
    real part is smooth with a unique interior minimum; the minimum is the
    magnitude floor of the largest summand.  Located by bisecting the real
    part of the slope, which runs from -inf to +inf across the segment.
    Returns (z, Re potential) or None when the segment is empty, or so
    short against its ends that the pad off them rounds away.
    """
    seg = tet_real_segment(x)
    if seg is None:
        return None
    xs = tuple(float(abs(v)) for v in _coords(x, TET_EDGES))
    lo, hi = seg
    pad = (hi - lo) * 1e-9
    a, b = lo + pad, hi - pad
    if not lo < a < b < hi:
        # an end's potential argument would round onto 1, outside the logs' domain
        return None
    fa = w_tet_slope(xs, a).real
    fb = w_tet_slope(xs, b).real
    if not fa < 0.0 < fb:
        return None
    # the slope is negative at a and not at b, so once mid rounds onto either
    # end no further step changes a or b
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if w_tet_slope(xs, mid).real < 0.0:
            a = mid
        else:
            b = mid
    zs = 0.5 * (a + b)
    return zs, w_tet(xs, zs).real


# -- Lagrangian condition ----------------------------------------------------------------------


# the log step of the central differences: at the default sample counts the
# largest asymmetry over seeds 0-39 reads 1.30e-7 for theta and 1.24e-7 for
# tet, against the default tolerances 1e-6 and 1e-5
LAGRANGIAN_STEP = 1e-5


def lagrangian_residual(graph: str, x, rec: Optional[SaddleRecord] = None) -> float:
    """Largest antisymmetry of the twist log-Jacobian at one point.

    Central differences in log x with step LAGRANGIAN_STEP; the twists of the
    tetrahedron are recomputed through the saddle nearest to the unperturbed
    one so the branch stays continuous.  A symmetric Jacobian is the testable
    statement that the twist pairing closes the symplectic form on the curve
    family.  rec, when given, is the tetrahedron's saddle_solve_tet(x).
    """
    labels = GRAPHS[graph].edges
    xs = tuple(float(v.real) for v in _coords(x, labels))
    if graph == "theta":
        twists_at = grad_log_y_theta
        y_ref = twists_at(xs)
    else:
        if rec is None:
            rec = saddle_solve_tet(xs)
        z_ref = rec.z_roots[rec.chosen]
        y_ref = saddle_twists_tet(xs, z_ref)

        def twists_at(pt):
            a, b, c, _ = saddle_cubic_tet(pt)
            roots = _quadratic_roots(a, b, c)
            z = min(roots, key=lambda r: abs(r - z_ref))
            return saddle_twists_tet(pt, z)

    step = LAGRANGIAN_STEP
    n = len(labels)
    jac = [[0j] * n for _ in range(n)]
    for f in range(n):
        up = list(xs)
        dn = list(xs)
        up[f] *= math.exp(step)
        dn[f] *= math.exp(-step)
        yp = twists_at(tuple(up))
        ym = twists_at(tuple(dn))
        for e, lab in enumerate(labels):
            jac[e][f] = (yp[lab] - ym[lab]) / (2.0 * step * y_ref[lab])
    return max(
        abs(jac[i][j] - jac[j][i]) for i in range(n) for j in range(i + 1, n)
    )


def sample_theta_point(rng):
    """Random eigenvalue triple in [0.15, 0.85]^3 whose potential arguments all keep 0.1 from 1."""
    for _ in range(100000):
        xa, xb, xc = (rng.uniform(0.15, 0.85) for _ in range(3))
        args = _theta_args(xa, xb, xc) + (xa * xa, xb * xb, xc * xc)
        if any(abs(1 - u) < 0.1 for u in args):
            continue
        return (xa, xb, xc)
    raise RuntimeError("theta point sampler starved")


def _clear_of_degeneracies(z, products) -> bool:
    # the tet sampler's test of a saddle z
    return not (any(abs(z - p) < 0.15 * abs(p) for p in products) or abs(1 - z) < 0.15 or abs(z) < 1e-4)


def sample_tet_record(rng) -> tuple:
    """sample_tet_point's point x and saddle_solve_tet(x), as (x, record).

    The chosen saddle is a nonzero root of the balance quadratic, so a
    candidate with no such root clear of the test is rejected unsolved.
    """
    for _ in range(100000):
        xs = tuple(rng.uniform(0.2, 0.8) for _ in range(6))
        a, b, c, _ = saddle_cubic_tet(xs)
        if abs(a) < 0.05 * max(abs(b), abs(c), 1e-30):
            continue
        triples, quads = _tet_products(xs)
        products = triples + quads
        if not any(z != 0 and _clear_of_degeneracies(z, products) for z in _quadratic_roots(a, b, c)):
            continue
        try:
            rec = saddle_solve_tet(xs)
        except SingularPointError:
            continue
        if _clear_of_degeneracies(rec.z_roots[rec.chosen], products):
            return xs, rec
    raise RuntimeError("tet point sampler starved")


def sample_tet_point(rng):
    """Random eigenvalue six-tuple in [0.2, 0.8]^6 whose saddle sits away from degeneracies.

    The saddle must keep a relative distance 0.15 from every product it can
    collide with, and the balance quadratic must be comfortably nondegenerate.
    Acceptance runs near 26 percent (800 of 3130 candidates, seeds 0-39).
    """
    return sample_tet_record(rng)[0]


# -- exact magnitude evaluation in the growth regime -------------------------------------------


def _log_bracket_prefix(n: int, hbar: float) -> list:
    # prefix sums of log [k] at v = exp(hbar/2); all factors are positive for
    # hbar < 0 so plain log arithmetic is exact-form evaluation
    base = math.log1p(-math.exp(hbar))
    out = [0.0]
    acc = 0.0
    for k in range(1, n + 1):
        acc += (1 - k) * hbar / 2.0 + math.log1p(-math.exp(hbar * k)) - base
        out.append(acc)
    return out


def _negative_hbar(hbar) -> float:
    """hbar as a float; log(1 - e^(hbar k)) and the sums' bounds need it negative and finite.

    An hbar whose exp rounds to 1 would take the log of 0.
    """
    hbar = float(hbar)
    if not (-math.inf < hbar < 0 and math.exp(hbar) < 1.0):
        raise GrowthInputError(f"hbar must be negative and finite, with exp(hbar) below 1, got {hbar!r}")
    return hbar


def log_abs_theta(colors, hbar: float) -> float:
    """log of the theta invariant magnitude at v = exp(hbar/2).

    Works through the factored factorial form term by term in log space, so
    there is no cancellation and double precision suffices at any color.
    """
    a, b, c = map(index, colors)
    hbar = _negative_hbar(hbar)
    if not is_admissible(a, b, c):
        raise ValueError(f"inadmissible coloring {(a, b, c)}")
    s = (a + b + c) // 2
    pref = _log_bracket_prefix(s + 1, hbar)
    return (pref[s + 1] + pref[s - a] + pref[s - b] + pref[s - c]) - (
        pref[a] + pref[b] + pref[c]
    )


def _exp_mantissa(a: int, b: int, p: int) -> tuple:
    """e^x for the exact dyadic x = a / 2^b, as (man, ex): man = floor(e^x / 2^ex), of exactly p bits.

    x is halved s times, to the still exact r = a / 2^(b+s) with |r| < 2^-8,
    so each Taylor term costs a product with the short a and a division by
    a small int rather than a full product (at 41000 bits, 18 us against
    0.9 ms on a 2-vCPU VM).  For the same reason a large |x| is halved
    further instead of reduced by k ln 2, which would make r full length.
    s squarings undo the halvings.

    Error, at w = p + guard fractional bits: each term is floored twice and
    so stays within 4 units of 2^-w of its true value; the terms at least
    halve, so the N terms summed and the tail dropped are within 4N + 8
    units of e^r 2^w > 2^(w-1).  Each squaring doubles the relative error
    and its truncation to w bits adds 2^(1-w), so the result is within
    2^(s+2) (4N + 10) 2^-w relative, and R, twice that times the mantissa
    plus 1, covers the second-order terms as well.  When the mantissa minus R
    and plus R floor to different p-bit ints, the guard bits double and it
    runs again, so man is exact.  x = 0 returns at once.
    """
    if a == 0:
        return 1 << (p - 1), 1 - p
    s = max(0, a.bit_length() - b + 8)
    c = b + s
    m = abs(a)
    guard = s + p.bit_length() + 24
    while True:
        w = p + guard
        term = total = 1 << w
        n = 0
        while term:
            n += 1
            term = (term * m >> c) // n
            total += -term if a < 0 and n % 2 else term
        man, ex = total, -w
        for _ in range(s):
            x = man * man
            d = x.bit_length() - w
            man, ex = x >> d, 2 * ex + d
        r = ((4 * n + 10 << s + 3) * man >> w) + 1
        d = man.bit_length() - p
        low, high = (man - r) >> d, (man + r) >> d
        if low == high and low.bit_length() == p:
            return low, ex + d
        guard *= 2


# (bits, ln 2 in fixed point at those bits, within 1.5 units and not above);
# a tuple rebound whole, so a reader never sees one half of an update
_LN2_CACHE = (0, 0)


def _ln2(w: int) -> int:
    """floor(ln 2 * 2^w), exactly.

    Shifted down from the cached value, which is at least 1 bit longer and
    within 1.5 units below ln 2.  Only when more bits are asked for, or the
    shift leaves the floor in doubt, is it summed again, 64 bits (then 128,
    ...) longer: 2 atanh(1/3) = sum_j 2 / ((2j+1) 3^(2j+1)) at g more bits,
    each term floored twice, under 2 units each and 2^(g-1) in all with
    g = bit_length(bits) + 4.
    """
    global _LN2_CACHE
    have, val = _LN2_CACHE
    extra = 64
    while have <= w or val >> have - w != val + 1 >> have - w:
        have = max(have, w) + extra
        extra *= 2
        g = have.bit_length() + 4
        term = (2 << have + g) // 3
        val, j = 0, 0
        while term:
            val += term // (2 * j + 1)
            term //= 9
            j += 1
        val >>= g
        _LN2_CACHE = have, val
    return val >> have - w


def _log_fixed(n: int, w: int) -> int:
    """log n for an int n >= 1, in fixed point: an int within 2 of log n * 2^w.

    n = m 2^k with m in [1/sqrt 2, sqrt 2), and log m = 2 atanh(z) with
    z = (m - 1)/(m + 1), |z| < 0.172, so each term of the series gives over
    five bits.  m is taken to wg = w + g bits and k ln 2 at wg + bit_length(k);
    the truncations of m, z, z^2 and every term stay under 2^(g-2) units of
    2^-wg, so the result is within 1 unit before its final floor.
    """
    k = n.bit_length()
    if n * n < 1 << 2 * k - 1:  # m = n / 2^k < 1/sqrt 2
        k -= 1
    g = w.bit_length() + 8
    wg = w + g
    one = 1 << wg
    x = n << wg - k if wg >= k else n >> k - wg
    z = ((x - one) << wg) // (x + one)
    z2 = z * z >> wg
    term, total, j = abs(z), 0, 1
    while term:
        total += term // j
        term = term * z2 >> wg
        j += 2
    if z < 0:
        total = -total
    kb = k.bit_length()
    return (2 * total + (k * _ln2(wg + kb) >> kb)) >> g


def _log1m_exp(a: int, b: int, w: int) -> int:
    """log(1 - e^x) for the dyadic x = a / 2^b < 0, in fixed point: an int within 6 of it times 2^w.

    1 - e^x is num 2^ex, up to one unit of num, from a mantissa of e^x at
    enough bits that num >= 2^(w+2); so num's log is off by under a unit.
    """
    man, ex = _exp_mantissa(a, b, w + 5 + max(0, b - a.bit_length()))
    eb = (-ex).bit_length()
    return _log_fixed((1 << -ex) - man, w) + (ex * _ln2(w + eb) >> eb)


# fractional bits of log_scale and of the final log, which only feed one float
_LOG_BITS = 160

# a walk's precision falls in steps of this many bits; each fall costs a pass
# over the table entries that the steps at the new precision read
_DROP_STEP = 64


def _merge_runs(runs) -> list:
    # the union of inclusive ranges (first, last), as sorted disjoint [first, last] pairs
    out = []
    for a, b in sorted(runs):
        if out and a <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _q_fixed(j: int, ha: int, hb: int, w: int) -> int:
    # q^j = e^(hbar j) truncated to w fractional bits, hbar = ha / 2^hb
    man, ex = _exp_mantissa(ha * j, hb, w)
    return man >> -w - ex


def _qpoch_log(j0: int, j1: int, q: int, ha: int, hb: int, w: int) -> int:
    """log prod_{j0 < j <= j1} (1 - q^j) in fixed point at w bits, for q^(j0+1) < 3/4.

    Sums -sum_r (X^r - Y^r) / (r (1 - q^r)), X = q^(j0+1) and Y = q^(j1+1)
    truncated to w fractional bits and q given so, up to the first X^r that
    truncates to 0.  X^r shrinks by 3/4 or more a term, so that takes under
    3w terms, against j1 - j0 products to multiply the factors out.
    """
    one = 1 << w
    x0, y0 = _q_fixed(j0 + 1, ha, hb, w), _q_fixed(j1 + 1, ha, hb, w)
    x, y, qr, r, acc = x0, y0, q, 1, 0
    while x:
        acc += ((x - y) << w) // (r * (one - qr))
        r += 1
        x = x * x0 >> w
        y = y * y0 >> w
        qr = qr * q >> w
    return -acc


def _pochhammer_ratio(top: int, lens, hbar: float, man: int, ex: int) -> tuple:
    """(q;q)_top / prod_l (q;q)_l over l in lens, as (mantissa, exponent), within 2^-160 relative.

    man 2^ex is e^hbar truncated (`_exp_mantissa`).  The ratio is prod_j
    (1 - q^j)^e(j), e(j) = [j <= top] - #{l in lens : l >= j}, and e is
    constant between consecutive cuts, the distinct values of 0, top and
    lens.  A stretch between cuts with e != 0 is multiplied out at p0 =
    _LOG_BITS + bit_length(8 K (ceil(1/|hbar|) + K + 2)) + 4 bits, K the
    largest cut, and taken to the power |e| <= 7: its factors are within
    2^(1-p0) (1/|hbar| + K) relative, as in `_tet_rung`, and its products
    2^(1-p0), so the stretches together are within 2^(-_LOG_BITS-3).  A
    stretch whose first q^j is below 3/4 and that is more than three times
    as long as its series (about w / log2(1/q^j) terms) is summed by
    `_qpoch_log` instead, at w = p0 +
    2 bit_length(4K + 3 p0) + 16 bits; there 1/|hbar| < 4K, and each log
    is within 2^(7-w) (4K + 3 p0)^2, so their at most 56 copies together
    within 2^(-p0-3).  One `_exp_mantissa` takes their sum back.
    """
    cuts = sorted({0, top, *lens})
    p0 = _LOG_BITS + (8 * cuts[-1] * (math.ceil(-1.0 / hbar) + cuts[-1] + 2)).bit_length() + 4
    w = p0 + 2 * (4 * cuts[-1] + 3 * p0).bit_length() + 16
    ha, hb = hbar.as_integer_ratio()
    hb = hb.bit_length() - 1
    if -ex < w:
        man, ex = _exp_mantissa(ha, hb, w)
    q0, qw = man >> -p0 - ex, man >> -w - ex
    one = 1 << p0
    frac = [one, -p0, one, -p0]  # numerator and denominator, (mantissa, exponent) each
    lg = 0  # the series' logs, times e, at w bits
    qk, k = one, 0
    for j0, j1 in zip(cuts, cuts[1:]):
        e = (j1 <= top) - sum(j1 <= x for x in lens)
        if not e:
            continue
        if -(j0 + 1) * hbar > 0.3 and -(j0 + 1) * hbar * (j1 - j0) > 3 * w * math.log(2.0):
            lg += e * _qpoch_log(j0, j1, qw, ha, hb, w)
            continue
        if j0 != k:
            qk = _q_fixed(j0, ha, hb, p0)
        f, fe = one, -p0
        for k in range(j0 + 1, j1 + 1):
            qk = qk * q0 >> p0 or 1
            x = f * (one - qk)
            s = x.bit_length() - p0
            f = x >> s
            fe += s - p0
        i = 0 if e > 0 else 2
        for _ in range(abs(e)):
            x = frac[i] * f
            s = x.bit_length() - p0
            frac[i] = x >> s
            frac[i + 1] += fe + s
    if lg:
        f, fe = _exp_mantissa(lg, w, p0)
        x = frac[0] * f
        s = x.bit_length() - p0
        frac[0] = x >> s
        frac[1] += fe + s
    x = (frac[0] << p0 + 1) // frac[2]
    return x, frac[1] - frac[3] - p0 - 1


def _tet_scan(taus, ups, hbar: float) -> tuple:
    """log2 T(m)/T(lo) for lo <= m <= hi in doubles, and a bound on their error in bits.

    Sums the logs of `_tet_rung`'s summand ratio, log2 v^(6m+2-2 sum t) +
    log2(1 - q^(m+2)) + sum_u log2(1 - q^(u-m)) - sum_t log2(1 - q^(m+1-t)),
    taking each log2(1 - q^k) = log2(-expm1(hbar k)) once over the merged runs
    of k that the ratio reads: O(hi - lo) logs, not one per k up to hi.

    Error: hbar k, expm1 and log2 each round once, and |x f'(x)| <= 1 for
    f(x) = log(1 - e^x), so each log2(1 - q^k) is within 2^-50 (1 + its
    magnitude).  With B the sum of the largest magnitudes of a ratio's nine
    terms, each ratio's log is within 2^-46 (1 + B), and the n = hi - lo
    running sums round under 2^-53 n B each, so every entry is within
    slack = 2^-46 n (n + 1) (1 + B).  If a double overflows, every entry is 0
    with slack 0: then no summand is dropped and every step keeps full precision.
    """
    lo, hi = max(taus), min(ups)
    n = hi - lo
    if not n:
        return [0.0], 0.0
    log2, expm1 = math.log2, math.expm1
    # the k of each factor as m runs from lo to hi - 1, as (first k, step)
    runs = [(lo + 2, 1)] + [(u - lo, -1) for u in ups] + [(lo + 1 - t, 1) for t in taus]
    spans = [
        (a, b, [log2(-expm1(hbar * k)) for k in range(a, b + 1)])
        for a, b in _merge_runs({(k, k + n - 1) if d > 0 else (k - n + 1, k) for k, d in runs})
    ]
    cols = []
    for k, d in runs:
        first = k if d > 0 else k - n + 1
        a, vals = next((a, vals) for a, b, vals in spans if a <= first <= b)
        col = vals[first - a : first - a + n]
        cols.append(col if d > 0 else col[::-1])
    c1 = 3 * hbar / math.log(2.0)
    c0 = c1 * (lo + (1 - sum(taus)) / 3)
    ell = list(
        accumulate(
            (c0 + c1 * i + a + b + c + d - e - f - g - h for i, (a, b, c, d, e, f, g, h) in enumerate(zip(*cols))),
            initial=0.0,
        )
    )
    slack = 2.0**-46 * n * (n + 1) * (1 + abs(c0) + abs(c1) * n + 8 * abs(spans[0][2][0]))
    if not (math.isfinite(ell[-1]) and math.isfinite(slack)):
        return [0.0] * (n + 1), 0.0
    return ell, slack


def _walk(t, te, vm, ve, q3, e3, p, af, z, drops, ks) -> list:
    """The summands reached from (t, te) one ratio at a time, as (mantissa, exponent) pairs.

    Step i multiplies by the running power of v (vm, ve, times q^3 = q3 2^e3
    after each step) and by 1 - q^k for its first four k in ks, and divides by
    1 - q^k for the last four.  It works at p - drops[i] bits.  drops never
    falls, and each run of steps with one drop d > 0 reads the p-bit table
    (1 - q^k = af[k] 2^(-p - z[k])) shifted down by d, once for each k it
    reads; t and vm are shifted down as the precision falls.
    """
    out = []
    tab, cur, i = af, 0, 0
    while i < len(drops):
        d = drops[i]
        j = bisect_right(drops, d, i)
        cols = [f[i:j] for f in ks]
        i = j
        if d:
            t >>= d - cur
            vm >>= d - cur
            te += d - cur
            ve += d - cur
            cur = d
            if tab is af:
                tab = af.copy()
            for k0, k1 in _merge_runs((min(c[0], c[-1]), max(c[0], c[-1])) for c in cols):
                tab[k0 : k1 + 1] = [x >> d for x in af[k0 : k1 + 1]]
        w = p - d
        q3w = q3 >> d
        for i0, i1, i2, i3, j0, j1, j2, j3 in zip(*cols):
            x = t * vm >> w
            x = x * tab[i0] >> w
            x = x * tab[i1] >> w
            x = x * tab[i2] >> w
            x = x * tab[i3] >> w
            y = tab[j0] * tab[j1] >> w
            y = y * tab[j2] >> w
            y = y * tab[j3] >> w
            x = (x << w + 8) // y
            s = x.bit_length() - w
            t = x >> s
            te += ve + w - 8 + s + z[j0] + z[j1] + z[j2] + z[j3] - z[i0] - z[i1] - z[i2] - z[i3]
            out.append((t, te))
            x = vm * q3w
            s = x.bit_length() - w
            vm = x >> s
            ve += e3 + d + s
    return out


def _tet_rung(taus, ups, hbar: float, bits: int) -> tuple:
    """One rung of the log_abs_tet ladder, in integer arithmetic.

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

    Most summands lie far below the error budget, so the rung spends
    precision only where the budget can see it.  `_tet_scan` predicts log2
    T(m) in doubles, within slack bits.  With peak the largest prediction,
    every summand predicted below peak - 2 slack - (bits + 5 +
    bit_length(n + 1)), n = hi - lo, is under 2^(-bits-5) M / (n + 1), where M
    is the largest summand; they are dropped, and only the summands a..b from
    the first to the last one above that line are computed.  The one at the
    peak, m*, is formed from the (q;q)_k products (`_pochhammer_ratio`); the
    walk goes outward from it in both directions, up by the ratio and down
    by its inverse (`_walk`).  If the scan overflows, every prediction is 0:
    every summand counts as the peak, so the walk goes up from lo at full
    precision.  Every value is an int mantissa with a binary exponent, so
    no logarithm or exponential is taken per term.  The v^E(m*) (1 - q)^-1
    factor, which every summand shares, stays in log_scale.

    The rung's constants are integer fixed point as well.  hbar is an exact
    dyadic, and `_exp_mantissa` gives q = e^hbar truncated to p fractional
    bits, the first upward ratio's power of v and q^3 as truncated p-bit
    mantissas; the first downward power of v is q^3 over the upward one.
    1 - q^k is a p-bit mantissa for each k that a..b reads.  Each merged run
    k0..k1 of those k starts from the exact q^(k0-1) truncated to p
    fractional bits (1 when k0 = 1) and goes on by products with q.  In
    log_scale, v^E(m*) gives hbar E(m*) / 2 exactly, and ln 2 and log(1 - q)
    are taken at _LOG_BITS plus the bit length of the smallest exponent:
    log_scale is off by under 2^-150, far below the one float it feeds.

    The working precision is p = bits + bit_length(n^2 C) + 6 bits, with K the
    largest k read and C = 16 (ceil(1/|hbar|) + K) + 8n + 300:

    - Each q^k is truncated or a truncated product, so |q^k - exact| <=
      2k 2^-p.  Since 1 - q^k >= k|hbar| / (1 + k|hbar|), the relative error
      of 1 - q^k is at most 2^(1-p) (1/|hbar| + K).  This conditioning near
      k = 1 is what costs about log2(1/|hbar|) bits.
    - A step whose error reaches no summand above 2^-d M runs at w = p - d
      bits, d >= 0 a multiple of _DROP_STEP: the predictions bound the
      largest summand still ahead on its side, never the current one alone,
      so a sequence that dips and rises again keeps its precision through
      the dip.  Its eight factors,
      shifted to w bits, are within 16 (1/|hbar| + K + 1) 2^-w; its eight
      truncated products, floor division, renormalization and the drop of t
      to w bits add under 260 2^-w (each partial product keeps at least w - 6
      bits); and the running power of v, which starts within 6 2^-p and
      per step gains a truncated product, a shifted q^3 and at most one
      drop to w bits, is within (8j + 6) 2^-w after j steps.  So each step's relative error eta is at
      most C 2^-w, and w >= bit_length(n C) + 1 keeps the etas of one side
      summing to at most 1.
    - A summand's relative error is then at most twice the sum of the etas
      before it, and a step's error reaches at most n summands, each under
      2^-d M.  Summed over at most n steps, the computed summands are within
      2 n^2 C 2^-p M <= 2^(-bits-5) M of exact.  Measured against M rather
      than against each summand itself, this costs about log2 n bits more
      than an upward walk from lo.  The sums are exact: each term is
      shifted to the smallest exponent.  With the dropped summands, |signed
      error| <= 2^(-bits-4) M <= 2^(-bits-4) total.  Whenever the trust test
      |signed| / total > 2^(60-bits) holds, signed is good to 2^-64 relative.
    - T(m*) is within 2^-160 relative (`_pochhammer_ratio`).  That error
      multiplies signed and total alike: it leaves their ratio alone and
      moves log|signed| by far less than a double's ulp.

    By that bound a computed signed == 0 only says |true signed| <=
    2^(-bits-4) total: it fails the trust test like any small survivor.
    """
    lo, hi = max(taus), min(ups)
    n = hi - lo
    ell, slack = _tet_scan(taus, ups, hbar)
    peak = max(ell)
    line = peak - 2 * slack - bits - 5 - (n + 1).bit_length()
    first = next(i for i, e in enumerate(ell) if e >= line)
    last = n - next(i for i, e in enumerate(reversed(ell)) if e >= line)
    top = ell.index(peak)
    a, mid, b = lo + first, lo + top, lo + last
    # the k that the ratios of m = a .. b-1 read: m + 2, u - m and m + 1 - t
    runs = [(a + 2, b + 1)] + [(u - b + 1, u - a) for u in ups] + [(a + 1 - t, b - t) for t in taus]
    runs = runs if a < b else []
    kmax = max(k for _, k in runs) if runs else 0
    c = 16 * (math.ceil(-1.0 / hbar) + kmax) + 8 * n + 300
    p = bits + (n * n * c).bit_length() + 6
    cap = p - (n * c).bit_length() - 1
    base = peak - 2 * slack

    def drops(maxima):
        # the bits each step drops, from the largest prediction still ahead of it
        return [min(cap, d - d % _DROP_STEP) if d > 0 else 0 for d in [int(base - s) for s in maxima]]

    ha, hb = hbar.as_integer_ratio()
    hb = hb.bit_length() - 1  # hbar = ha / 2^hb exactly
    man, ex = _exp_mantissa(ha, hb, p)
    q = man >> -p - ex
    # T(m*) = v^E(m*) (1 - q)^-1 (q;q)_(m*+1) / (prod_t (q;q)_(m*-t) prod_u (q;q)_(u-m*))
    lens = [mid - t for t in taus] + [u - mid for u in ups]
    x, xe = _pochhammer_ratio(mid + 1, lens, hbar, man, ex)
    s = x.bit_length() - p
    t, te = x >> s if s >= 0 else x << -s, xe + s
    # 1 - q^k = af[k] * 2^(-p - z[k]) for the k that a..b reads, each af[k] an int of exactly p bits
    one = 1 << p
    af, z = [0] * (kmax + 1), [0] * (kmax + 1)
    for k0, k1 in _merge_runs(runs):
        qk = _q_fixed(k0 - 1, ha, hb, p) if k0 > 1 else one
        for k in range(k0, k1 + 1):
            qk = qk * q >> p or 1
            x = one - qk
            s = p - x.bit_length()
            af[k] = x << s
            z[k] = s
    vm, ve = _exp_mantissa(ha * (6 * mid + 2 - 2 * sum(taus)), hb + 1, p)
    q3, e3 = _exp_mantissa(3 * ha, hb, p)
    x = (q3 << p + 1) // vm
    s = x.bit_length() - p
    vd, vde = x >> s, e3 - ve - p - 1 + s
    up = _walk(
        t, te, vm, ve, q3, e3, p, af, z,
        drops(list(accumulate(reversed(ell[top + 1 : last + 1]), max))[::-1]),
        [range(mid + 2, b + 2)] + [range(u - mid, u - b, -1) for u in ups] + [range(mid + 1 - t, b + 1 - t) for t in taus],
    )
    down = _walk(
        t, te, vd, vde, q3, e3, p, af, z,
        drops(list(accumulate(ell[first:top], max))[::-1]),
        [range(mid - t, a - t, -1) for t in taus] + [range(mid + 1, a + 1, -1)] + [range(u - mid + 1, u - a + 1) for u in ups],
    )
    terms = down[::-1] + [(t, te)] + up
    low = min(e for _, e in terms)
    signed = total = 0
    for m, (x, e) in enumerate(terms, a):
        x <<= e - low
        total += x
        signed += -x if m % 2 else x
    big_e = -mid * (mid + 1) + sum(x * (x - 1) for x in lens)
    w = _LOG_BITS + abs(low).bit_length()
    log_scale = Fraction(low * _ln2(w) - _log1m_exp(ha, hb, w), 1 << w) + Fraction(ha * big_e, 1 << hb + 2)
    return signed, total, log_scale


# the precision ladder's first and last rungs, in nominal bits
_START_BITS = 320
_TOP_BITS = _START_BITS << 7

# bits by which a hint must fall below a rung's trust threshold to skip it: over
# 28 growth_check_tet rows at five points the measured log2 cancellation
# exceeded the hint by at most 0.7 bits (near interference nodes it falls up
# to 9 bits below, which only costs a climb)
_HINT_MARGIN = 2.0


def log_abs_tet(colors, hbar: float, log2_hint=None) -> tuple:
    """log of the normalized tetrahedron invariant magnitude at v = exp(hbar/2).

    The alternating sum cancels catastrophically in the growth regime (the
    surviving fraction shrinks like exp(-gap/|hbar|)), so each rung sums it
    at `bits` nominal bits plus guard bits (see `_tet_rung`), starting at
    _START_BITS and doubling until |signed| / total > 2^(60 - bits), or
    raising LadderExhaustedError after the _TOP_BITS rung.  A computed zero
    is never trusted.  Returns (log magnitude, diagnostics dict) with the
    measured cancellation |signed| / total, an exact Fraction (as a float it
    would read 0 below about 2^-1075), and the nominal bits of the trusted
    rung.

    log2_hint, a predicted log2(|signed| / total), only saves work: the
    ladder starts at the lowest rung the hint does not say fails by
    _HINT_MARGIN bits (a hint that is None or not finite skips nothing).  A
    rung trusted above skipped ones must also certify that the highest
    skipped rung s fails: |signed| 2^(s+1) < total 2^60.  By `_tet_rung`'s
    error bound, rung s then computes a ratio below 2^(59-s) + 2^(-bits-4) +
    2^(-s-4) < 2^(60-s), and lower rungs fail alike.  Without the
    certificate the ladder reruns from _START_BITS, so a wrong hint costs
    time but never changes the value or the diagnostics.
    """
    col = tuple(map(index, colors))
    hbar = _negative_hbar(hbar)
    if not tet_is_admissible(col):
        raise ValueError(f"inadmissible coloring {col}")
    lo, hi = tet_sum_bounds(col)
    if lo > hi:
        raise ValueError("empty summation range")
    taus = _triangle_halves(col)
    ups = _quad_halves(col)
    start = _START_BITS
    if log2_hint is not None and math.isfinite(log2_hint):
        while start < _TOP_BITS and log2_hint + _HINT_MARGIN <= 60 - start:
            start *= 2
    bits = start
    while True:
        signed, total, log_scale = _tet_rung(taus, ups, hbar, bits)
        if abs(signed) << bits > total << 60:
            if start > _START_BITS and abs(signed) << (start // 2 + 1) >= total << 60:
                bits = start = _START_BITS  # a skipped rung might have trusted its sum
                continue
            val = float(Fraction(_log_fixed(abs(signed), _LOG_BITS), 1 << _LOG_BITS) + log_scale)
            return val, {"cancellation": Fraction(abs(signed), total), "precision_bits": bits}
        if bits == _TOP_BITS:
            raise LadderExhaustedError("cancellation exhausted the precision ladder")
        bits *= 2


# -- color rounding ----------------------------------------------------------------------------


# Largest color a growth table rounds to.  Timed on a
# 2-vCPU VM (Python 3.11): log_abs_tet at (10000,)*6, x = 0.35, trusts the
# 2560-bit rung; it takes 0.15-0.23 s when growth_check_tet's hint starts it
# there, 0.20-0.23 s when it climbs from 320 bits.  The cost grows about
# fourfold each time the colors double, since the bits needed grow with them.
MAX_GROWTH_COLOR = 10_000


def _growth_eigenvalues(x, labels) -> tuple:
    """x's real parts as floats, each finite and in (0, 1], else GrowthInputError."""
    xs = tuple(float(v.real) for v in _coords(x, labels))
    if not all(math.isfinite(v) for v in xs):
        raise GrowthInputError(f"x entries must be finite, got {xs}")
    if any(v <= 0 for v in xs):
        raise GrowthInputError(f"x entries must be positive (0 is a singular point of the potential), got {xs}")
    if any(v > 1 for v in xs):
        raise GrowthInputError(f"x entries must be at most 1 (no color n >= 0 has exp(hbar * n / 2) > 1), got {xs}")
    return xs


def _round_colors(x, labels, hbar: float, usable, shifts) -> tuple:
    """Nearest usable coloring for the requested eigenvalues.

    Colors solve x = exp(hbar n / 2).  When the plain rounding `base` is not
    usable, the cheapest of the unit shifts shifts(base) that gives a usable
    coloring is taken, ties going to the smaller coloring.  Returns (colors
    or None, notes).  Refuses what `_negative_hbar`, then
    `_growth_eigenvalues`, refuses.
    """
    hbar = _negative_hbar(hbar)
    xs = _growth_eigenvalues(x, labels)
    exact = [2.0 * math.log(v) / hbar for v in xs]
    base = [max(0, round(e)) for e in exact]
    if usable(base):
        cand, notes = tuple(base), []
    else:
        best = None
        for deltas in shifts(base):
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


def round_colors_theta(x, hbar: float) -> tuple:
    """Nearest admissible theta coloring, over the six single-entry unit shifts."""
    shifts = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))
    return _round_colors(x, THETA_EDGES, hbar, GRAPHS["theta"].admissible, lambda base: shifts)


def _face_parities(c) -> tuple:
    # parity of each triangle sum, in the order of invariants._triangle_halves
    j1, j2, j12, j3, j4, j23 = c
    return ((j1 + j2 + j12) % 2, (j3 + j4 + j12) % 2, (j1 + j4 + j23) % 2, (j2 + j3 + j23) % 2)


@lru_cache(maxsize=1)
def _unit_shifts_by_parity() -> dict:
    # the 729 unit shifts in product order, grouped by the face parities they
    # flip: 8 groups of 81 to 108, since the four parities always sum to 0
    groups = {}
    for deltas in _iterproduct((-1, 0, 1), repeat=6):
        groups.setdefault(_face_parities(deltas), []).append(deltas)
    return groups


def _tet_usable(c) -> bool:
    # admissible, with a nonempty summation range
    lo, hi = tet_sum_bounds(c)
    return tet_is_admissible(c) and lo <= hi


def round_colors_tet(x, hbar: float) -> tuple:
    """Nearest admissible tetrahedron coloring, over the unit shifts that make every face sum even."""
    return _round_colors(x, TET_EDGES, hbar, _tet_usable, lambda base: _unit_shifts_by_parity()[_face_parities(base)])


# -- growth tables -----------------------------------------------------------------------------


class GrowthRow(NamedTuple):
    """One growth-table line: measured magnitude against the potential."""

    hbar: float
    colors: Optional[tuple]
    scaled_log_abs: float
    target: float
    error: float
    notes: tuple = ()


class GrowthTable(NamedTuple):
    """Summary of a growth check across several hbar values.

    error_ratios holds consecutive |error| quotients (about 2 when the
    residual is first order and hbar halves); richardson is the two-point
    extrapolation of the corrected magnitudes, to be compared against target.
    """

    graph: str
    target: float
    rows: tuple
    error_ratios: tuple
    monotone: bool
    richardson: float
    richardson_rel_err: float


def _summarize(graph: str, target: float, rows: list) -> GrowthTable:
    errs = [r.error for r in rows if math.isfinite(r.error)]
    ratios = tuple(
        abs(e0 / e1) for e0, e1 in zip(errs, errs[1:]) if e1 != 0.0
    )
    monotone = len(errs) >= 2 and all(
        abs(e0) > abs(e1) for e0, e1 in zip(errs, errs[1:])
    )
    if len(errs) >= 2:
        rich = 2.0 * (errs[-1] + target) - (errs[-2] + target)
        rel = abs(rich - target) / abs(target) if target != 0 else math.inf
    else:
        rich, rel = math.nan, math.nan
    return GrowthTable(graph, target, tuple(rows), ratios, monotone, rich, rel)


def _growth_rows(x, hbars, labels, round_colors) -> tuple:
    """The table's eigenvalues and its rows (hbar, colors or None, notes), each rounded once.

    Refuses, in this order and before anything is evaluated: an hbar that
    `_negative_hbar` rejects; an x that `_growth_eigenvalues` rejects; a row
    whose colors exceed MAX_GROWTH_COLOR; and fewer than two hbar values,
    since the error ratios and the extrapolation compare consecutive rows.
    """
    hbars = tuple(map(_negative_hbar, hbars))
    xs = _growth_eigenvalues(x, labels)
    rows = []
    for hb in hbars:
        colors, notes = round_colors(xs, hb)
        top = max(colors or (0,))
        if top > MAX_GROWTH_COLOR:
            raise GrowthInputError(
                f"hbar {hb!r} rounds x to colors up to {top}, above the growth-table cap {MAX_GROWTH_COLOR}"
            )
        rows.append((hb, colors, notes))
    if len(rows) < 2:
        raise GrowthInputError(f"hbar needs at least two values, got {len(rows)}")
    return xs, rows


def _ratio_e3(num: int, den: int) -> str:
    """num / den, for ints 0 <= num <= den, as format(num / den, ".3e") spells it.

    Below a double's normal range, where that float loses digits or
    underflows to 0, the quotient is first scaled by 10^k into the range and
    k comes off the printed exponent.
    """
    k = 0 if num == 0 or num / den >= sys.float_info.min else (den.bit_length() - num.bit_length()) * 30103 // 100000
    mant, ex = f"{num * 10**k / den:.3e}".split("e")
    return f"{mant}e{int(ex) - k:+03d}"


# subtracting these normalizations leaves a residual linear in hbar
_THETA_CONST = PI_SQ_OVER_6
_THETA_LOG_COEF = 1.5


def growth_check_theta(x, hbars) -> GrowthTable:
    """Compare hbar*log|theta| against the potential across hbar values.

    Each row evaluates the exact invariant at the nearest admissible
    coloring.  The magnitude carries, on top of Re W, a constant pi^2/6 and a
    (3/2) hbar log(-hbar) normalization; both are subtracted, and the target
    is shifted to the effective eigenvalues of the rounded colors, so the
    error column is first order in hbar.  Expect consecutive errors to halve
    as hbar halves and the Richardson value to land on the target.  Raises
    GrowthInputError for the inputs `_growth_rows` refuses.
    """
    xs, plan = _growth_rows(x, hbars, THETA_EDGES, round_colors_theta)
    target = w_theta(xs).real
    rows = []
    for hb, colors, notes in plan:
        if colors is None:
            rows.append(GrowthRow(hb, None, math.nan, target, math.nan, notes))
            continue
        if all(c == 0 for c in colors):
            rows.append(GrowthRow(hb, colors, 0.0, target, math.nan, notes))
            continue
        val = hb * log_abs_theta(colors, hb)
        x_eff = tuple(math.exp(hb * n / 2.0) for n in colors)
        shift = w_theta(x_eff).real - target
        norm = _THETA_CONST - _THETA_LOG_COEF * hb * math.log(-hb)
        err = val - norm - shift - target
        rows.append(GrowthRow(hb, colors, val, target, err, notes))
    return _summarize("theta", target, rows)


def growth_check_tet(x, hbars) -> GrowthTable:
    """Compare hbar*log|tet| against the potential at the selected saddle.

    Beyond Re W the alternating sum carries a constant -pi^2, a
    2 hbar log(-hbar) term, and a one-loop magnitude assembled from the
    curvature, the correction product, and the interference cosine of the
    conjugate saddle pair; all are subtracted so the error column is first
    order in hbar.  Rows flag near-nodes of the cosine, report the measured
    cancellation of the sum, and note the real-segment magnitude floor whose
    gap to the saddle value sets that cancellation.  Raises GrowthInputError
    for the inputs `_growth_rows` refuses, and SingularPointError for a
    degenerate saddle at x or at a row's rounded colors.
    """
    xs, plan = _growth_rows(x, hbars, TET_EDGES, round_colors_tet)
    rec = saddle_solve_tet(xs)
    target = w_tet(xs, rec.z_roots[rec.chosen]).real
    rows = []
    for hb, colors, notes in plan:
        notes = list(notes)
        if colors is None:
            rows.append(GrowthRow(hb, None, math.nan, target, math.nan, tuple(notes)))
            continue
        if all(c == 0 for c in colors):
            rows.append(GrowthRow(hb, colors, 0.0, target, math.nan, tuple(notes)))
            continue
        x_eff = tuple(math.exp(hb * n / 2.0) for n in colors)
        try:
            rec_eff = saddle_solve_tet(x_eff)
            z0 = rec_eff.z_roots[rec_eff.chosen]
            w_eff = w_tet(x_eff, z0)
            curv = w_tet_curvature(x_eff, z0)
            shape = w_tet_one_loop_shape(x_eff, z0)
            phase = w_eff.imag / hb + 0.5 * cmath.phase(shape) - 0.5 * cmath.phase(curv)
            cosine = abs(math.cos(phase))
            mag = (
                math.log(2.0)
                + 0.5 * math.log(TWO_PI / (-hb * abs(curv)))
                + 0.5 * math.log(abs(shape))
                - 3.0 * math.log(TWO_PI)
                + (math.log(cosine) if cosine > 0 else -math.inf)
            )
            floor = tet_summation_floor(x_eff)
        except Exception:
            log_abs_tet(colors, hb)  # the sum runs first, so its own exception comes out first
            raise
        # the floor-to-saddle gap predicts the sum's cancellation, exp(-gap / |hbar|)
        hint = None if floor is None else (w_eff.real - floor[1]) / (hb * math.log(2.0))
        val_log, diag = log_abs_tet(colors, hb, hint)
        val = hb * val_log
        canc = diag["cancellation"]
        notes.append(f"cancellation {_ratio_e3(canc.numerator, canc.denominator)}")
        if abs(z0.imag) < 1e-12:
            notes.append("real saddle branch, interference model approximate")
        if cosine < 0.2:
            notes.append("interference node nearby, one-loop magnitude unstable")
        norm = -math.pi * math.pi + 2.0 * hb * math.log(-hb) + hb * mag
        shift = w_eff.real - target
        err = val - norm - shift - target
        if floor is not None:
            notes.append(f"max-term floor {floor[1]:.6f}")
        rows.append(GrowthRow(hb, colors, val, target, err, tuple(notes)))
    return _summarize("tet", target, rows)
