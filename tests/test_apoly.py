"""A-polynomial checks for the theta and tetrahedron graphs.

Expected facts are pinned by independent routes: a local bracket-product
oracle for the three-term recursion summands, pointwise annihilation on
admissibility grids, frozen rational evaluations of the classical curves,
and exact divisibility of the saddle-elimination resultant.  Negative
controls (miscommuted operators, wrong sign patterns, a sign-flipped
curve) guard the conventions against silent regressions.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from qgraph.apoly import (
    ClassicalAPoly,
    OperatorPoly,
    TET_EDGES,
    THETA_EDGES,
    annihilation_report,
    apply_operator,
    classical_limit,
    eliminate_saddle,
    interior_colorings,
    saddle_system,
    sweep,
    tet_classical_A,
    tet_quantum_A,
    tet_recursion_coeffs,
    tet_recursion_residual,
    theta_classical_A,
    theta_quantum_A,
)
from qgraph.invariants import (
    enumerate_theta_colorings,
    is_admissible,
    tet_is_admissible,
    tet_primed,
    theta_invariant,
    theta_recursion_factor,
)
from qgraph.laurent import BracketRatio, LaurentRat
from qgraph.multipoly import MultiPoly, compare_up_to_unit, exact_div_multi


def bracket_product(ks):
    # local oracle for products of quantum integers, zero if any index is 0
    if any(k == 0 for k in ks):
        return LaurentRat.zero()
    r = BracketRatio()
    for k in ks:
        r = r.times_bracket(k)
    return r.to_laurent_rat()


def eval_coeff(poly, labels, col) -> LaurentRat:
    # independent of the package's compiled evaluator: generic substitution
    binding = {"x_" + lab: MultiPoly.var("v", n) for lab, n in zip(labels, col)}
    return LaurentRat.from_poly(poly.substitute(binding).to_laurent("v"))


# -- operator shapes ---------------------------------------------------------


def test_operator_shapes():
    for e in THETA_EDGES:
        op = theta_quantum_A(e)
        assert op.graph == "theta" and op.edge == e
        assert len(op.coeffs) == 2  # first order in the shift
    for e in TET_EDGES:
        op = tet_quantum_A(e)
        assert op.graph == "tet" and op.edge == e
        assert len(op.coeffs) == 3  # second order in the shift
    with pytest.raises(ValueError):
        theta_quantum_A("d")
    with pytest.raises(ValueError):
        tet_quantum_A("5")
    with pytest.raises(ValueError):
        theta_classical_A("z")
    with pytest.raises(ValueError):
        tet_classical_A("z")


def test_classical_curve_shapes():
    for e in THETA_EDGES:
        cur = theta_classical_A(e)
        assert cur.poly.degree_in("y_" + e) == 1
        assert set(cur.poly.vars) == {"x_a", "x_b", "x_c", "y_" + e}
    for e in TET_EDGES:
        cur = tet_classical_A(e)
        assert cur.poly.degree_in("y_" + e) == 2
        assert set(cur.poly.vars) == {"x_" + lab for lab in TET_EDGES} | {"y_" + e}
        assert len(cur.poly.terms) == 60


# -- theta: classical curve ---------------------------------------------------


def test_theta_classical_frozen_point():
    # at x = (1/2, 1/2, 1/2) the curve is linear in y with root -7/9
    parts = theta_classical_A("a").poly.coeffs_in("y_a")
    h = Fraction(1, 2)
    pt = {"x_a": h, "x_b": h, "x_c": h}
    c0 = parts[0].eval_fraction(pt)
    c1 = parts[1].eval_fraction(pt)
    assert c0 == Fraction(7, 256)
    assert c1 == Fraction(9, 256)
    assert -c0 / c1 == Fraction(-7, 9)


def test_theta_classical_relabel_symmetry():
    base = theta_classical_A("a").poly
    swap_b = base.substitute(
        {"x_a": MultiPoly.var("x_b"), "x_b": MultiPoly.var("x_a"), "y_a": MultiPoly.var("y_b")}
    )
    assert theta_classical_A("b").poly == swap_b
    swap_c = base.substitute(
        {"x_a": MultiPoly.var("x_c"), "x_c": MultiPoly.var("x_a"), "y_a": MultiPoly.var("y_c")}
    )
    assert theta_classical_A("c").poly == swap_c


# -- theta: quantum operator ---------------------------------------------------


def test_theta_annihilates_grid():
    for e in THETA_EDGES:
        rep = annihilation_report("theta", e, 12)
        assert rep["tested"] == len(interior_colorings("theta", e, 12, 1))
        assert rep["tested"] > 0
        assert rep["failures"] == [], e


def test_theta_miscommuted_operator_fails():
    # raw displayed coefficients without the normal-ordering rescale
    bad = theta_quantum_A("b", miscommuted=True)
    rep = annihilation_report("theta", "b", 8, operator=bad)
    assert len(rep["failures"]) == rep["tested"] > 0


def test_theta_operator_ratio_is_recursion_factor():
    # first-order annihilation pins J(a+2)/J(a) = -b0/b1 at the coloring
    op = theta_quantum_A("a")
    checked = 0
    for col in enumerate_theta_colorings(10):
        a, b, c = col
        if not is_admissible(a + 2, b, c):
            continue
        try:
            factor = theta_recursion_factor(a, b, c)
        except ValueError:
            continue
        e0 = eval_coeff(op.coeffs[0], THETA_EDGES, col)
        e1 = eval_coeff(op.coeffs[1], THETA_EDGES, col)
        assert factor == -(e0 / e1), col
        checked += 1
    assert checked > 300


def test_theta_classical_limit_is_curve():
    for e in THETA_EDGES:
        lim = classical_limit(theta_quantum_A(e)).poly
        assert compare_up_to_unit(lim, theta_classical_A(e).poly) == MultiPoly.one()


# -- tetrahedron: three-term recursion ----------------------------------------


def test_tet_recursion_contract_on_grid():
    checked = 0
    for col in interior_colorings("tet", "1", 6, 1):
        down = (col[0] - 2,) + col[1:]
        if not tet_is_admissible(down):
            continue
        assert tet_recursion_residual(col).is_zero(), col
        checked += 1
    assert checked > 200


def test_tet_recursion_coeffs_domain():
    with pytest.raises(ValueError):
        tet_recursion_coeffs((1, 2, 5, 1, 1, 2))  # inadmissible
    with pytest.raises(ValueError):
        tet_recursion_coeffs((2, 1, 1, 1, 2, 2))  # up-shift breaks a triangle
    # boundary inspection: at color 0 every summand of alpha and beta carries
    # a vanishing bracket, while the down coefficient survives
    alpha, beta, gamma = tet_recursion_coeffs((0, 2, 2, 2, 2, 2), check_shifts=False)
    assert alpha.is_zero()
    assert beta.is_zero()
    assert not gamma.is_zero()


def beta_summands(col):
    j1, j2, j12, j3, j4, j23 = col
    b1 = bracket_product(
        [j1 + 2, (j1 + j23 - j4) // 2, (j1 + j4 + j23) // 2 + 1,
         (j1 + j2 - j12) // 2, (j1 + j2 + j12) // 2 + 1]
    )
    b2 = bracket_product(
        [j1, (j1 + j4 - j23) // 2 + 1, (j23 + j4 - j1) // 2,
         (j2 + j12 - j1) // 2, (j1 + j12 - j2) // 2 + 1]
    )
    b3 = bracket_product(
        [j1, j1 + 1, j1 + 2, (j3 + j2 + j23) // 2 + 1, (j2 + j23 - j3) // 2]
    )
    return b1, b2, b3


# colorings where all three middle summands and the invariant are nonzero
BETA_WITNESS = [
    (2, 2, 2, 0, 2, 2),
    (2, 2, 2, 1, 3, 3),
    (2, 2, 2, 2, 2, 2),
    (2, 2, 2, 2, 4, 4),
    (2, 2, 2, 3, 3, 3),
    (2, 2, 2, 3, 5, 5),
]


def test_tet_beta_sign_pattern_is_unique():
    # among the 8 sign choices for the middle summands only (+, +, -) works
    for col in BETA_WITNESS:
        alpha, beta, gamma = tet_recursion_coeffs(col)
        b1, b2, b3 = beta_summands(col)
        assert not (b1.is_zero() or b2.is_zero() or b3.is_zero()), col
        assert beta == b1 + b2 - b3, col
        j1 = col[0]
        up = tet_primed((j1 + 2,) + col[1:])
        mid = tet_primed(col)
        down = tet_primed((j1 - 2,) + col[1:])
        assert not mid.is_zero(), col
        for signs in product((1, -1), repeat=3):
            variant = signs[0] * b1 + signs[1] * b2 + signs[2] * b3
            residual = alpha * up - variant * mid + gamma * down
            if signs == (1, 1, -1):
                assert residual.is_zero(), col
            else:
                assert not residual.is_zero(), (col, signs)


# -- tetrahedron: quantum operator ---------------------------------------------


def test_tet_annihilates_grid_all_edges():
    for e in TET_EDGES:
        rep = annihilation_report("tet", e, 6)
        assert rep["tested"] == len(interior_colorings("tet", e, 6, 2))
        assert rep["tested"] > 1000
        assert rep["failures"] == [], e


def test_tet_miscommuted_operator_fails():
    bad = tet_quantum_A("1", miscommuted=True)
    rep = annihilation_report("tet", "1", 5, operator=bad)
    assert len(rep["failures"]) == rep["tested"] > 0


def test_tet_operator_matches_recursion_pointwise():
    # forward operator coefficients at a coloring are one common multiple of
    # the centered recursion coefficients (gamma, -beta, alpha) at the center
    op = tet_quantum_A("1")
    checked = 0
    for col in interior_colorings("tet", "1", 5, 2):
        center = (col[0] + 2,) + col[1:]
        alpha, beta, gamma = tet_recursion_coeffs(center, check_shifts=False)
        if gamma.is_zero() or beta.is_zero() or alpha.is_zero():
            continue
        e0 = eval_coeff(op.coeffs[0], TET_EDGES, col)
        e1 = eval_coeff(op.coeffs[1], TET_EDGES, col)
        e2 = eval_coeff(op.coeffs[2], TET_EDGES, col)
        ratio = e0 / gamma
        assert e1 / (-beta) == ratio, col
        assert e2 / alpha == ratio, col
        checked += 1
    assert checked > 100


def test_tet_classical_limit_is_curve_times_even_factor():
    # q -> 1 collapse acquires one palindromic factor (1 - x^2) on the edge
    for e in TET_EDGES:
        lim = classical_limit(tet_quantum_A(e)).poly
        cur = tet_classical_A(e).poly
        factor = MultiPoly.one() - MultiPoly.var("x_" + e, 2)
        assert exact_div_multi(lim, cur) == factor


# -- operator application plumbing ----------------------------------------------


def test_apply_identity_operator():
    ident = OperatorPoly("theta", "a", (MultiPoly.one(),))
    assert apply_operator(ident, "theta", (2, 2, 2)) == theta_invariant(2, 2, 2)
    ident6 = OperatorPoly("tet", "1", (MultiPoly.one(),))
    col = (2, 2, 2, 2, 2, 2)
    assert apply_operator(ident6, "tet-primed", col) == tet_primed(col)


def test_apply_operator_rejects_mismatches():
    op = theta_quantum_A("a")
    with pytest.raises(ValueError):
        apply_operator(op, "tet-primed", (2, 2, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        apply_operator(op, "nope", (2, 2, 2))
    with pytest.raises(ValueError):
        apply_operator(op, "theta", (2, 2))


def test_apply_operator_outside_domain_is_zero_sum():
    # when the coloring and its shift are both inadmissible every term
    # vanishes; no admissibility errors are raised
    op = theta_quantum_A("a")
    assert apply_operator(op, "theta", (1, 2, 7)).is_zero()


# -- report shape -----------------------------------------------------------------


def test_annihilation_report_shape_and_determinism():
    rep = annihilation_report("theta", "a", 6)
    assert set(rep) == {"check", "graph", "edge", "grid_max", "tested", "failures"}
    assert rep["check"] == "annihilation"
    assert rep["graph"] == "theta" and rep["edge"] == "a" and rep["grid_max"] == 6
    again = annihilation_report("theta", "a", 6)
    assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)
    with pytest.raises(ValueError):
        annihilation_report("cube", "a", 4)


def test_sweep_skips_out_of_domain_and_keeps_failure_order():
    def check(n):
        if n % 3 == 0:
            return None
        return [{"n": n, "k": k} for k in range(n % 3 - 1)]

    out = sweep(check, range(7))
    assert out == {"tested": 4, "failures": [{"n": 2, "k": 0}, {"n": 5, "k": 0}]}
    assert sweep(check, []) == {"tested": 0, "failures": []}


def test_annihilation_report_records_failures_as_json():
    bad = theta_quantum_A("a", miscommuted=True)
    rep = annihilation_report("theta", "a", 4, operator=bad)
    assert rep["failures"]
    first = rep["failures"][0]
    assert set(first) == {"colors", "residual"}
    assert len(first["colors"]) == 3
    assert isinstance(first["residual"], dict)


# -- saddle elimination -------------------------------------------------------------


def test_saddle_system_shape():
    balance, twist = saddle_system()
    assert balance.degree_in("z") == 3  # quartic terms cancel identically
    assert balance.coeff_of("z", 0).is_zero()  # z = 0 is the spurious root
    assert twist.degree_in("z") == 2
    assert twist.degree_in("y_1") == 1


def test_eliminate_saddle_divisibility():
    res = eliminate_saddle()
    cur = tet_classical_A("1").poly
    assert res.degree_in("y_1") == 3
    assert len(res.terms) == 1132
    quo = exact_div_multi(res, cur)
    assert quo.degree_in("y_1") == 1
    assert len(quo.terms) == 30
    assert exact_div_multi(quo * cur, res) == MultiPoly.one()


def test_eliminate_saddle_rejects_flipped_sign_curve():
    # flipping the x4*x12 summand back to its naive sign must break divisibility
    one = MultiPoly.one()
    x1, x2, x3 = MultiPoly.var("x_1"), MultiPoly.var("x_2"), MultiPoly.var("x_3")
    x4, x12, x23 = MultiPoly.var("x_4"), MultiPoly.var("x_12"), MultiPoly.var("x_23")
    mid_a = (
        x4 * x12 * (one - x1 * x1) ** 2 * (x3 - x2 * x23) * (one - x3 * x2 * x23)
    )
    flipped = tet_classical_A("1").poly - 2 * mid_a * MultiPoly.var("y_1")
    res = eliminate_saddle()
    with pytest.raises(ValueError):
        exact_div_multi(res, flipped)
