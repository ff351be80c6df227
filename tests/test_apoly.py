"""A-polynomial checks for the theta and tetrahedron graphs.

Expected facts are pinned by independent routes: a local bracket-product
oracle for the three-term recursion summands, pointwise annihilation on
admissibility grids, frozen rational evaluations of the classical curves,
and exact divisibility of the saddle-elimination resultant.  Negative
controls (miscommuted operators, built here from the displayed
coefficients; wrong sign patterns; a sign-flipped curve) guard the
conventions against silent regressions.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from qgraph import apoly
from qgraph.apoly import (
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
    operator_vanishes,
    tet_recursion_coeffs,
    tet_recursion_residual,
    tet_recursion_vanishes,
    theta_classical_A,
    theta_quantum_A,
)
from qgraph.invariants import (
    enumerate_tet_colorings,
    enumerate_theta_colorings,
    is_admissible,
    tet_is_admissible,
    tet_primed,
    theta_invariant,
    theta_recursion_factor,
)
from qgraph.laurent import LaurentPoly, LaurentRat, q_int, rat_dot, rat_dot_vanishes
from qgraph.multipoly import MultiPoly, compare_up_to_unit, exact_div_multi


def bracket_product(ks):
    # local oracle for products of quantum integers, expanded; [-k] = -[k], [0] = 0
    out = LaurentPoly.one()
    for k in ks:
        out = out * (q_int(k) if k >= 0 else -q_int(-k))
    return LaurentRat.from_poly(out)


def swap_vars(poly, pairs):
    # exchange x-label pairs, e.g. x_1 <-> x_3, leaving other labels alone
    binding = {}
    for left, right in pairs:
        binding["x_" + left], binding["x_" + right] = MultiPoly.var("x_" + right), MultiPoly.var("x_" + left)
    return poly.substitute(binding)


def miscommuted_theta(edge) -> OperatorPoly:
    # negative control: the displayed coefficients without the normal-ordering rescale
    b0, b1 = (swap_vars(b, [("a", edge)]) for b in apoly._theta_quantum_raw())
    return OperatorPoly("theta", edge, (b0, b1))


def miscommuted_tet_edge_1() -> OperatorPoly:
    # negative control: the displayed pieces, unrescaled and without their relative units
    c2, (ta, tb, tc), c0 = apoly._tet_quantum_pieces()
    return OperatorPoly("tet", "1", (c0, -(ta + tb + tc), c2))


def same_product(a, b, c, d) -> bool:
    """a * b == c * d, cross-multiplied over LaurentPoly."""
    return a.num * b.num * c.den * d.den == c.num * d.num * a.den * b.den


def eval_coeff(poly, labels, col) -> LaurentRat:
    # independent of the package's compiled evaluator: generic substitution
    binding = {"x_" + lab: MultiPoly.var("v", n) for lab, n in zip(labels, col)}
    value = poly.substitute(binding)
    assert value.vars in ((), ("v",)), value.vars
    return LaurentRat.from_poly(LaurentPoly({e[0] if e else 0: c for e, c in value.terms.items()}))


def _eval_coeff_by_constructor(poly, graph, col) -> LaurentRat:
    # the LaurentPoly constructor route: every coefficient checked and merged one by one
    labels = THETA_EDGES if graph == "theta" else TET_EDGES
    weight = {"x_" + lab: n for lab, n in zip(labels, col)}
    weight["v"] = 1
    return LaurentRat.from_poly(LaurentPoly(zip(poly.weighted_degrees(weight), poly.terms.values())))


def test_eval_coeff_matches_constructor_route():
    # every coefficient of the swept operators over the benchmark's sweep grids
    cases = [(theta_quantum_A(e), 10) for e in THETA_EDGES] + [(tet_quantum_A("1"), 4)]
    checked = 0
    for op, grid in cases:
        for col in interior_colorings(op.graph, op.edge, grid, len(op.coeffs) - 1):
            for coeff in op.coeffs:
                assert apoly._eval_coeff(coeff, op.graph, col) == _eval_coeff_by_constructor(coeff, op.graph, col)
                checked += 1
    assert checked > 500
    # colliding terms: v^2 - x_a cancels at a = 2, and v^2 + x_a + 3 v merges to 2 v^2 + 3 v
    v, x_a = MultiPoly.var("v"), MultiPoly.var("x_a")
    for poly, want in (
        (v**2 - x_a, {}),
        (v**2 + x_a + 3 * v, {2: 2, 1: 3}),
        (v**2 - x_a + 5 * MultiPoly.var("x_b"), {3: 5}),
    ):
        got = apoly._eval_coeff(poly, "theta", (2, 3, 1))
        assert got.num.terms == want == _eval_coeff_by_constructor(poly, "theta", (2, 3, 1)).num.terms
        assert got.is_zero() == (not want)


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
        assert cur.degree_in("y_" + e) == 1
        assert set(cur.vars) == {"x_a", "x_b", "x_c", "y_" + e}
    for e in TET_EDGES:
        cur = tet_classical_A(e)
        assert cur.degree_in("y_" + e) == 2
        assert set(cur.vars) == {"x_" + lab for lab in TET_EDGES} | {"y_" + e}
        assert len(cur.terms) == 60


# -- every edge from the base edge's cached form ---------------------------------

# the per-edge route: each edge's operator and curve built from the displayed
# pieces, normal ordered, and only then swapped to the edge's labels
_TET_SWAPS = {
    "1": [],
    "2": [("1", "2"), ("4", "3")],
    "3": [("1", "3"), ("12", "23")],
    "4": [("2", "3"), ("1", "4")],
    "12": [("3", "23"), ("1", "12")],
    "23": [("3", "12"), ("1", "23")],
}


def _per_edge_theta(edge):
    pairs = [] if edge == "a" else [("a", edge)]
    b0, b1 = apoly._theta_quantum_raw()
    b1 = apoly._shift_edge_var(b1, "a", 1)
    op = OperatorPoly("theta", edge, (swap_vars(b0, pairs), swap_vars(b1, pairs)))
    xa, xb, xc = (MultiPoly.var("x_" + lab) for lab in THETA_EDGES)
    one = MultiPoly.one()
    curve = xa * (xa * xb - xc) * (xa * xc - xb) * (one - xa * xb * xc) + xb * xc * (
        one - xa * xa
    ) ** 2 * (xa - xb * xc) * MultiPoly.var("y_a")
    curve = swap_vars(curve, pairs).substitute({"y_a": MultiPoly.var("y_" + edge)})
    return op, curve


def _per_edge_tet(edge):
    pairs = _TET_SWAPS[edge]
    v = apoly._v
    c2, (ta, tb, tc), b0 = apoly._tet_quantum_pieces()
    b2 = v(-12) * apoly._shift_edge_var(c2, "1", 2)
    b1 = (
        v(-6) * apoly._shift_edge_var(ta, "1", 1)
        - v(-6) * apoly._shift_edge_var(tb, "1", 1)
        - v(-4) * apoly._shift_edge_var(tc, "1", 1)
    )
    op = OperatorPoly("tet", edge, tuple(swap_vars(b, pairs) for b in (b0, b1, b2)))
    one = MultiPoly.one()
    x1, x2, x12, x3, x4, x23 = (MultiPoly.var("x_" + lab) for lab in TET_EDGES)
    y1 = MultiPoly.var("y_1")
    lead = x3 * (x1 * x4 - x23) * (x4 - x1 * x23) * (x1 * x2 - x12) * (x2 - x1 * x12)
    mid_a = x4 * x12 * (one - x1 * x1) ** 2 * (x3 - x2 * x23) * (one - x3 * x2 * x23)
    mid_b = x3 * (x23 - x1 * x4) * (x1 - x4 * x23) * (x1 - x2 * x12) * (x2 - x1 * x12)
    mid_c = x3 * (x4 - x1 * x23) * (one - x1 * x4 * x23) * (x12 - x1 * x2) * (one - x1 * x2 * x12)
    const = x3 * (x1 - x4 * x23) * (one - x1 * x4 * x23) * (x1 - x2 * x12) * (one - x1 * x2 * x12)
    curve = const + (mid_a - mid_b - mid_c) * y1 + lead * y1 * y1
    curve = swap_vars(curve, pairs).substitute({"y_1": MultiPoly.var("y_" + edge)})
    return op, curve


@pytest.mark.parametrize(
    "graph, edge",
    [("theta", e) for e in THETA_EDGES] + [("tet", e) for e in TET_EDGES],
)
def test_edges_match_per_edge_route_with_term_order(graph, edge):
    want_op, want_curve = (_per_edge_theta if graph == "theta" else _per_edge_tet)(edge)
    got_op = apoly.GRAPHS[graph].quantum_A(edge)
    got_curve = apoly.GRAPHS[graph].classical_A(edge)
    assert got_op == want_op
    assert got_curve == want_curve
    # evaluate sums in term order, so the order is part of the value's floats
    for got, want in zip(got_op.coeffs + (got_curve,), want_op.coeffs + (want_curve,)):
        assert list(got.terms) == list(want.terms)


def test_tet_operators_build_edge_1_pieces_once(monkeypatch):
    calls = []
    pieces = apoly._tet_quantum_pieces

    def counted():
        calls.append(1)
        return pieces()

    monkeypatch.setattr(apoly, "_tet_quantum_pieces", counted)
    tet_quantum_A.cache_clear()
    try:
        ops = [tet_quantum_A(e) for e in TET_EDGES]
    finally:
        tet_quantum_A.cache_clear()
    assert len(calls) == 1
    assert [op.edge for op in ops] == list(TET_EDGES)


# -- theta: classical curve ---------------------------------------------------


def test_theta_classical_frozen_point():
    # at x = (1/2, 1/2, 1/2) the curve is linear in y with root -7/9
    parts = theta_classical_A("a").coeffs_in("y_a")
    h = Fraction(1, 2)
    pt = {"x_a": h, "x_b": h, "x_c": h}
    c0 = parts[0].eval_fraction(pt)
    c1 = parts[1].eval_fraction(pt)
    assert c0 == Fraction(7, 256)
    assert c1 == Fraction(9, 256)
    assert -c0 / c1 == Fraction(-7, 9)


def test_theta_classical_relabel_symmetry():
    base = theta_classical_A("a")
    swap_b = base.substitute(
        {"x_a": MultiPoly.var("x_b"), "x_b": MultiPoly.var("x_a"), "y_a": MultiPoly.var("y_b")}
    )
    assert theta_classical_A("b") == swap_b
    swap_c = base.substitute(
        {"x_a": MultiPoly.var("x_c"), "x_c": MultiPoly.var("x_a"), "y_a": MultiPoly.var("y_c")}
    )
    assert theta_classical_A("c") == swap_c


# -- theta: quantum operator ---------------------------------------------------


def test_theta_annihilates_grid():
    for e in THETA_EDGES:
        rep = annihilation_report("theta", e, 12)
        assert rep["tested"] == len(interior_colorings("theta", e, 12, 1))
        assert rep["tested"] > 0
        assert rep["failures"] == [], e


def test_theta_miscommuted_operator_fails():
    # raw displayed coefficients without the normal-ordering rescale
    bad = miscommuted_theta("b")
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
        assert same_product(factor, e1, -e0, LaurentRat.one()), col  # factor == -e0 / e1
        checked += 1
    assert checked > 300


def test_theta_classical_limit_is_curve():
    for e in THETA_EDGES:
        lim = classical_limit(theta_quantum_A(e))
        assert compare_up_to_unit(lim, theta_classical_A(e)) == MultiPoly.one()


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
    # boundary inspection of the formulas, outside the recursion's domain: at
    # color 0 every summand of alpha and beta carries a vanishing bracket,
    # while the down coefficient survives
    with pytest.raises(ValueError):
        tet_recursion_coeffs((0, 2, 2, 2, 2, 2))  # down-shift has a negative color
    alpha, (b1, b2, b3), gamma = apoly._tet_recursion_products((0, 2, 2, 2, 2, 2))
    beta = b1 + b2 - b3
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
    bad = miscommuted_tet_edge_1()
    rep = annihilation_report("tet", "1", 5, operator=bad)
    assert len(rep["failures"]) == rep["tested"] > 0


def test_tet_operator_matches_recursion_pointwise():
    # forward operator coefficients at a coloring are one common multiple of
    # the centered recursion coefficients (gamma, -beta, alpha) at the center
    op = tet_quantum_A("1")
    checked = 0
    for col in interior_colorings("tet", "1", 5, 2):
        center = (col[0] + 2,) + col[1:]
        alpha, beta, gamma = tet_recursion_coeffs(center)  # both shifts of center are admissible
        if gamma.is_zero() or beta.is_zero() or alpha.is_zero():
            continue
        e0 = eval_coeff(op.coeffs[0], TET_EDGES, col)
        e1 = eval_coeff(op.coeffs[1], TET_EDGES, col)
        e2 = eval_coeff(op.coeffs[2], TET_EDGES, col)
        # e1 / (-beta) == e0 / gamma == e2 / alpha
        assert same_product(e1, gamma, -beta, e0), col
        assert same_product(e2, gamma, alpha, e0), col
        checked += 1
    assert checked > 100


def test_tet_classical_limit_is_curve_times_even_factor():
    # q -> 1 collapse acquires one palindromic factor (1 - x^2) on the edge
    for e in TET_EDGES:
        lim = classical_limit(tet_quantum_A(e))
        cur = tet_classical_A(e)
        factor = MultiPoly.one() - MultiPoly.var("x_" + e, 2)
        assert exact_div_multi(lim, cur) == factor


# -- operator application plumbing ----------------------------------------------


def test_apply_identity_operator():
    ident = OperatorPoly("theta", "a", (MultiPoly.one(),))
    assert apply_operator(ident, (2, 2, 2)) == theta_invariant(2, 2, 2)
    ident6 = OperatorPoly("tet", "1", (MultiPoly.one(),))
    col = (2, 2, 2, 2, 2, 2)
    assert apply_operator(ident6, col) == tet_primed(col)


def test_apply_operator_rejects_mismatches():
    op = theta_quantum_A("a")
    with pytest.raises(ValueError):
        apply_operator(op, (2, 2))
    with pytest.raises(ValueError):
        apply_operator(OperatorPoly("cube", "a", op.coeffs), (2, 2, 2))


def test_apply_operator_outside_domain_is_zero_sum():
    # when the coloring and its shift are both inadmissible every term
    # vanishes; no admissibility errors are raised
    op = theta_quantum_A("a")
    assert apply_operator(op, (1, 2, 7)).is_zero()


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
    bad = miscommuted_theta("a")
    rep = annihilation_report("theta", "a", 4, operator=bad)
    assert rep["failures"]
    first = rep["failures"][0]
    assert set(first) == {"colors", "residual"}
    assert len(first["colors"]) == 3
    assert isinstance(first["residual"], dict)


# -- zero test by evaluation ----------------------------------------------------------


def recursum_colorings(grid_max):
    # the colorings `verify recursum` tests: both j1 shifts admissible
    out = []
    for col in enumerate_tet_colorings(grid_max):
        col = tuple(col)
        rest = col[1:]
        if tet_is_admissible((col[0] + 2,) + rest) and tet_is_admissible((col[0] - 2,) + rest):
            out.append(col)
    return out


def shifted_primed(col):
    rest = col[1:]
    return tet_primed((col[0] + 2,) + rest), tet_primed(col), tet_primed((col[0] - 2,) + rest)


def test_zero_test_matches_rat_dot_on_recursum_grid_6():
    # both routes of `verify recursum`, and the recursion with gamma + 1 in place of gamma
    op = tet_quantum_A("1")
    cols = recursum_colorings(6)
    assert len(cols) == 1033
    perturbed_nonzero = 0
    for col in cols:
        assert tet_recursion_vanishes(col) and tet_recursion_residual(col).is_zero(), col
        assert operator_vanishes(op, col) and apply_operator(op, col).is_zero(), col
        alpha, beta, gamma = tet_recursion_coeffs(col)
        up, mid, down = shifted_primed(col)
        pairs = [(alpha, up), (-beta, mid), (gamma + 1, down)]
        zero = rat_dot(pairs).is_zero()
        assert rat_dot_vanishes(pairs) == zero, col
        perturbed_nonzero += not zero
    assert perturbed_nonzero == len(cols)


def test_zero_test_matches_rat_dot_on_theta_grid_12():
    # every edge, with the operator as built and with its top coefficient negated
    for edge in THETA_EDGES:
        op = theta_quantum_A(edge)
        flipped = OperatorPoly("theta", edge, (op.coeffs[0], MultiPoly.zero() - op.coeffs[1]))
        cols = interior_colorings("theta", edge, 12, 1)
        assert len(cols) > 100
        for col in cols:
            assert operator_vanishes(op, col) and apply_operator(op, col).is_zero(), col
            assert not operator_vanishes(flipped, col), col
            assert not apply_operator(flipped, col).is_zero(), col


def bump_top(value, delta):
    # value with delta added to the top coefficient of its numerator: value
    # plus delta v^top over its denominator, a pure product of Phi_d
    num, den = value.num, value.den
    bump = LaurentPoly({num.max_exp(): delta})
    over_den = LaurentRat._product(1, 0, {d: m for d, m in value._form[2].items() if m < 0})
    out = value + LaurentRat.from_poly(bump) * over_den
    assert out.num * den == (num + bump) * out.den
    return out


def test_zero_test_sees_a_unit_change_at_a_top_coefficient():
    cases = [
        ([eval_coeff(c, THETA_EDGES, col) for c in theta_quantum_A("a").coeffs], [col, (col[0] + 2,) + col[1:]])
        for col in ((2, 2, 2), (3, 5, 4), (6, 4, 6))
    ]
    tet_op = tet_quantum_A("1")
    for col in interior_colorings("tet", "1", 5, 2)[::150]:
        coeffs = [eval_coeff(c, TET_EDGES, col) for c in tet_op.coeffs]
        cases.append((coeffs, [(col[0] + 2 * l,) + col[1:] for l in range(3)]))
    for coeffs, cols in cases:
        values = [theta_invariant(*c) if len(c) == 3 else tet_primed(c) for c in cols]
        pairs = list(zip(coeffs, values))
        assert rat_dot_vanishes(pairs)
        for i in range(len(pairs)):
            for side in (0, 1):
                for delta in (1, -1):
                    bumped = list(pairs)
                    pair = list(bumped[i])
                    pair[side] = bump_top(pair[side], delta)
                    bumped[i] = tuple(pair)
                    assert not rat_dot(bumped).is_zero()
                    assert not rat_dot_vanishes(bumped), (cols[0], i, side, delta)
    assert len(cases) > 5


def test_annihilation_report_expands_only_failures(monkeypatch):
    # passing colorings are decided by evaluation; a failure still reports its expanded residual
    calls = []
    real = apoly.rat_dot
    monkeypatch.setattr(apoly, "rat_dot", lambda pairs: calls.append(1) or real(pairs))
    rep = annihilation_report("theta", "b", 8)
    assert rep["tested"] > 0 and rep["failures"] == [] and calls == []
    rep = annihilation_report("theta", "a", 4, operator=miscommuted_theta("a"))
    assert len(calls) == len(rep["failures"]) > 0
    for record in rep["failures"]:
        residual = apply_operator(miscommuted_theta("a"), record["colors"])
        assert record["residual"] == residual.to_json_obj()


# -- saddle elimination -------------------------------------------------------------


def test_saddle_system_shape():
    balance, twist = saddle_system()
    assert balance.degree_in("z") == 3  # quartic terms cancel identically
    assert 0 not in balance.coeffs_in("z")  # z = 0 is the spurious root
    assert twist.degree_in("z") == 2
    assert twist.degree_in("y_1") == 1


def test_eliminate_saddle_divisibility():
    res = eliminate_saddle()
    cur = tet_classical_A("1")
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
    flipped = tet_classical_A("1") - 2 * mid_a * MultiPoly.var("y_1")
    res = eliminate_saddle()
    with pytest.raises(ValueError):
        exact_div_multi(res, flipped)
