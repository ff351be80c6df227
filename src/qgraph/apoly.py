"""Classical and quantum A-polynomial families for the theta and tetrahedron graphs.

Each edge of a graph carries a holonomy variable x and a conjugate twist
variable y.  A ClassicalAPoly is a polynomial in (y, x-labels) whose zero
locus is one defining equation of the character variety.  An OperatorPoly is
its quantization: a q-difference operator sum_l b_l(x; q) * y^l that
annihilates the family of quantum invariants, where y now shifts the edge's
color by 2 and x multiplies by v^color (v = q^(1/2), so q-exponents stay
integral in v).

Ordering contract.  Coefficients are stored normal ordered, with every shift
operator moved to the right of its coefficient: applying an operator at a
coloring evaluates each b_l at the UNSHIFTED colors and multiplies by the
invariant at the l-times-shifted coloring.  Moving a shift operator left
through x rescales x by q per step; forgetting that rescaling produces a
"miscommuted" operator that must fail annihilation.  Both quantum builders
expose miscommuted=True so tests can guard the convention with a variant
that is known to be wrong.

Normalization.  The relative normalization of the tetrahedron operator's
three coefficients (and the relative sign of one summand in the middle
coefficient of both the operator and the classical curve) is pinned by two
independent checks rather than taken from any single display: exact
annihilation of the primed tetrahedron family on verification grids, and
exact divisibility of the saddle-elimination resultant by the classical
curve.  The miscommuted variants keep the uncorrected coefficients so the
negative-control tests exercise a realistic failure mode.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .invariants import (
    TetColoring,
    ThetaColoring,
    enumerate_tet_colorings,
    enumerate_theta_colorings,
    is_admissible,
    tet_is_admissible,
    tet_primed,
    theta_invariant,
)
from .laurent import BracketRatio, LaurentPoly, LaurentRat, rat_dot
from .multipoly import MultiPoly, exact_div_multi, resultant_in

THETA_EDGES = ("a", "b", "c")
TET_EDGES = ("1", "2", "12", "3", "4", "23")

# slot of each edge's color in the coloring tuple
_THETA_SLOT = {"a": 0, "b": 1, "c": 2}
_TET_SLOT = {"1": 0, "2": 1, "12": 2, "3": 3, "4": 4, "23": 5}

# variable swaps mapping edge 1 data to the other tetrahedron edges
_TET_EDGE_SWAP = {
    "2": ("1", "2", "4", "3"),
    "3": ("1", "3", "12", "23"),
    "4": ("2", "3", "1", "4"),
    "12": ("3", "23", "1", "12"),
    "23": ("3", "12", "1", "23"),
}


class OperatorPoly(NamedTuple):
    """q-difference annihilator for one edge: sum_l coeffs[l] * (shift by 2)^l."""

    graph: str
    edge: str
    coeffs: tuple


class ClassicalAPoly(NamedTuple):
    """One character-variety equation: a polynomial in y_<edge> and the x-labels."""

    graph: str
    edge: str
    poly: MultiPoly


def _v(k: int) -> MultiPoly:
    return MultiPoly.var("v", k)


def _x(label: str, exp: int = 1) -> MultiPoly:
    return MultiPoly.var("x_" + label, exp)


def _swap_vars(poly: MultiPoly, pairs) -> MultiPoly:
    """Exchange variable pairs, e.g. x_1 <-> x_3, leaving other labels alone."""
    binding = {}
    for left, right in pairs:
        binding["x_" + left] = _x(right)
        binding["x_" + right] = _x(left)
    return poly.substitute(binding)


def _shift_edge_var(poly: MultiPoly, label: str, steps: int) -> MultiPoly:
    # x_label -> q^steps * x_label; one step per shift operator commuted past
    if steps == 0:
        return poly
    return poly.substitute({"x_" + label: _v(2 * steps) * _x(label)})


# -- theta operators --------------------------------------------------------------------


def _theta_quantum_raw() -> tuple:
    """Edge-a theta coefficients as displayed, before normal ordering."""
    q = _v(2)
    xa, xb, xc = _x("a"), _x("b"), _x("c")
    one = MultiPoly.one()
    b0 = xa * (q * xa * xb - xc) * (q * xa * xc - xb) * (one - _v(4) * xa * xb * xc)
    b1 = _v(-3) * xb * xc * (one - xa * xa) * (q - xa * xa) * (xa - q * xb * xc)
    return (b0, b1)


@lru_cache(maxsize=None)
def theta_quantum_A(edge: str, miscommuted: bool = False) -> OperatorPoly:
    """Annihilating operator for one theta edge (first order in the shift)."""
    if edge not in THETA_EDGES:
        raise ValueError(f"unknown theta edge {edge!r}")
    b0, b1 = _theta_quantum_raw()
    if not miscommuted:
        b1 = _shift_edge_var(b1, "a", 1)
    if edge != "a":
        b0 = _swap_vars(b0, [("a", edge)])
        b1 = _swap_vars(b1, [("a", edge)])
    return OperatorPoly("theta", edge, (b0, b1))


@lru_cache(maxsize=None)
def theta_classical_A(edge: str) -> ClassicalAPoly:
    """Classical curve for one theta edge, linear in the twist variable."""
    if edge not in THETA_EDGES:
        raise ValueError(f"unknown theta edge {edge!r}")
    xa, xb, xc = _x("a"), _x("b"), _x("c")
    one = MultiPoly.one()
    ya = MultiPoly.var("y_a")
    poly = xa * (xa * xb - xc) * (xa * xc - xb) * (one - xa * xb * xc) + xb * xc * (
        one - xa * xa
    ) ** 2 * (xa - xb * xc) * ya
    if edge != "a":
        poly = _swap_vars(poly, [("a", edge)])
        poly = poly.substitute({"y_a": MultiPoly.var("y_" + edge)})
    return ClassicalAPoly("theta", edge, poly)


# -- tetrahedron operators ---------------------------------------------------------------


def _tet_quantum_pieces() -> tuple:
    """Edge-1 coefficient pieces as displayed: (c2, (Ta, Tb, Tc), c0)."""
    q = _v(2)
    one = MultiPoly.one()
    x1, x2, x12 = _x("1"), _x("2"), _x("12")
    x3, x4, x23 = _x("3"), _x("4"), _x("23")
    c2 = (
        _v(6)
        * x3
        * (_v(4) - x1 * x1)
        * (x1 * x4 - x23)
        * (x4 - x1 * x23)
        * (x1 * x2 - x12)
        * (x2 - x1 * x12)
    )
    ta = (
        _v(4)
        * x4
        * x12
        * (one - x1 * x1)
        * (one - q * x1 * x1)
        * (one - _v(4) * x1 * x1)
        * (x3 - x2 * x23)
        * (one - q * x3 * x2 * x23)
    )
    tb = (
        _v(6)
        * x3
        * (one - x1 * x1)
        * (x23 - q * x1 * x4)
        * (x1 - x4 * x23)
        * (x1 - x2 * x12)
        * (x2 - q * x1 * x12)
    )
    tc = (
        q
        * x3
        * (one - _v(4) * x1 * x1)
        * (x4 - x1 * x23)
        * (one - q * x1 * x4 * x23)
        * (x12 - x1 * x2)
        * (one - q * x1 * x2 * x12)
    )
    c0 = (
        x3
        * (one - _v(8) * x1 * x1)
        * (x1 - x4 * x23)
        * (one - _v(4) * x1 * x4 * x23)
        * (x1 - x2 * x12)
        * (one - _v(4) * x1 * x2 * x12)
    )
    return c2, (ta, tb, tc), c0


@lru_cache(maxsize=None)
def tet_quantum_A(edge: str, miscommuted: bool = False) -> OperatorPoly:
    """Annihilating operator for one tetrahedron edge (second order in the shift).

    The canonical form applies the normal-ordering rescale x -> q^l x to the
    coefficient of the l-th shift power and fixes the relative units of the
    pieces (q^-6 on the top coefficient; q^-3, q^-3, q^-2 and a relative sign
    flip on the three middle summands).  These units are forced by exact
    annihilation of the primed family; see the module docstring.
    """
    if edge not in TET_EDGES:
        raise ValueError(f"unknown tetrahedron edge {edge!r}")
    c2, (ta, tb, tc), c0 = _tet_quantum_pieces()
    if miscommuted:
        b2 = c2
        b1 = -(ta + tb + tc)
        b0 = c0
    else:
        b2 = _v(-12) * _shift_edge_var(c2, "1", 2)
        b1 = (
            _v(-6) * _shift_edge_var(ta, "1", 1)
            - _v(-6) * _shift_edge_var(tb, "1", 1)
            - _v(-4) * _shift_edge_var(tc, "1", 1)
        )
        b0 = c0
    if edge != "1":
        pairs = _TET_EDGE_SWAP[edge]
        swaps = [(pairs[0], pairs[1]), (pairs[2], pairs[3])]
        b0 = _swap_vars(b0, swaps)
        b1 = _swap_vars(b1, swaps)
        b2 = _swap_vars(b2, swaps)
    return OperatorPoly("tet", edge, (b0, b1, b2))


@lru_cache(maxsize=None)
def tet_classical_A(edge: str) -> ClassicalAPoly:
    """Classical curve for one tetrahedron edge, quadratic in the twist variable.

    The relative sign of the x4*x12 summand in the linear coefficient is fixed
    by requiring the curve to divide the saddle-elimination resultant; the
    other two summands keep their displayed sign.
    """
    if edge not in TET_EDGES:
        raise ValueError(f"unknown tetrahedron edge {edge!r}")
    one = MultiPoly.one()
    x1, x2, x12 = _x("1"), _x("2"), _x("12")
    x3, x4, x23 = _x("3"), _x("4"), _x("23")
    y1 = MultiPoly.var("y_1")
    lead = x3 * (x1 * x4 - x23) * (x4 - x1 * x23) * (x1 * x2 - x12) * (x2 - x1 * x12)
    mid_a = (
        x4
        * x12
        * (one - x1 * x1) ** 2
        * (x3 - x2 * x23)
        * (one - x3 * x2 * x23)
    )
    mid_b = x3 * (x23 - x1 * x4) * (x1 - x4 * x23) * (x1 - x2 * x12) * (x2 - x1 * x12)
    mid_c = (
        x3
        * (x4 - x1 * x23)
        * (one - x1 * x4 * x23)
        * (x12 - x1 * x2)
        * (one - x1 * x2 * x12)
    )
    const = (
        x3
        * (x1 - x4 * x23)
        * (one - x1 * x4 * x23)
        * (x1 - x2 * x12)
        * (one - x1 * x2 * x12)
    )
    poly = const + (mid_a - mid_b - mid_c) * y1 + lead * y1 * y1
    if edge != "1":
        pairs = _TET_EDGE_SWAP[edge]
        poly = _swap_vars(poly, [(pairs[0], pairs[1]), (pairs[2], pairs[3])])
        poly = poly.substitute({"y_1": MultiPoly.var("y_" + edge)})
    return ClassicalAPoly("tet", edge, poly)


# -- three-term recursion contract --------------------------------------------------------


def _bracket_product(ks) -> LaurentRat:
    if any(k == 0 for k in ks):
        return LaurentRat.zero()
    ratio = BracketRatio()
    for k in ks:
        ratio = ratio.times_bracket(k)
    return ratio.to_laurent_rat()


def tet_recursion_coeffs(col, check_shifts: bool = True) -> tuple:
    """Coefficients (alpha, beta, gamma) of the centered three-term recursion.

    Contract: alpha * J'(j1+2) - beta * J'(j1) + gamma * J'(j1-2) = 0 on the
    primed family whenever both shifted colorings are admissible.  beta's
    middle summands carry the signs (+, +, -); that pattern is the unique one
    among the eight choices that annihilates the verification grid.

    check_shifts=False skips the domain validation so the coefficient
    formulas themselves can be inspected at boundary colorings.
    """
    col = TetColoring(*col)
    if not tet_is_admissible(col):
        raise ValueError(f"inadmissible coloring {tuple(col)}")
    j1, j2, j12, j3, j4, j23 = col
    if check_shifts:
        for d in (2, -2):
            shifted = (j1 + d,) + tuple(col)[1:]
            if not tet_is_admissible(shifted):
                raise ValueError(f"shifted coloring {shifted} is inadmissible")
    alpha = _bracket_product(
        [
            j1,
            (j1 + j4 - j23) // 2 + 1,
            (j1 + j23 - j4) // 2 + 1,
            (j1 + j2 - j12) // 2 + 1,
            (j1 + j12 - j2) // 2 + 1,
        ]
    )
    beta = (
        _bracket_product(
            [
                j1 + 2,
                (j1 + j23 - j4) // 2,
                (j1 + j4 + j23) // 2 + 1,
                (j1 + j2 - j12) // 2,
                (j1 + j2 + j12) // 2 + 1,
            ]
        )
        + _bracket_product(
            [
                j1,
                (j1 + j4 - j23) // 2 + 1,
                (j23 + j4 - j1) // 2,
                (j2 + j12 - j1) // 2,
                (j1 + j12 - j2) // 2 + 1,
            ]
        )
        - _bracket_product(
            [
                j1,
                j1 + 1,
                j1 + 2,
                (j3 + j2 + j23) // 2 + 1,
                (j2 + j23 - j3) // 2,
            ]
        )
    )
    gamma = _bracket_product(
        [
            j1 + 2,
            (j1 + j4 + j23) // 2 + 1,
            (j23 + j4 - j1) // 2 + 1,
            (j2 + j12 + j1) // 2 + 1,
            (j2 + j12 - j1) // 2 + 1,
        ]
    )
    return alpha, beta, gamma


def tet_recursion_residual(col) -> LaurentRat:
    """Exact value of alpha*J'(up) - beta*J'(col) + gamma*J'(down)."""
    alpha, beta, gamma = tet_recursion_coeffs(col)
    j1 = col[0]
    rest = tuple(col)[1:]
    up = tet_primed((j1 + 2,) + rest)
    down = tet_primed((j1 - 2,) + rest)
    return rat_dot([(alpha, up), (-beta, tet_primed(tuple(col))), (gamma, down)])


# -- operator application ------------------------------------------------------------------


_FAMILIES = {
    "theta": ("theta", 3, THETA_EDGES, _THETA_SLOT),
    "tet-primed": ("tet", 6, TET_EDGES, _TET_SLOT),
}


def _family_value(family: str, col) -> LaurentRat:
    if family == "theta":
        if not is_admissible(*col):
            return LaurentRat.zero()
        return theta_invariant(*col)
    if not tet_is_admissible(col):
        return LaurentRat.zero()
    return tet_primed(col)


@lru_cache(maxsize=None)
def _compiled_coeff(poly: MultiPoly, labels: tuple) -> tuple:
    """Rows (coefficient, v exponent, per-slot x exponents) for fast evaluation."""
    slot = {"x_" + lab: i for i, lab in enumerate(labels)}
    rows = []
    for exps, c in poly.terms.items():
        base = 0
        weights = [0] * len(labels)
        for name, e in zip(poly.vars, exps):
            if name == "v":
                base = e
            else:
                weights[slot[name]] = e
        rows.append((c, base, tuple(weights)))
    return tuple(rows)


def _eval_coeff(poly: MultiPoly, graph: str, col) -> LaurentRat:
    labels = THETA_EDGES if graph == "theta" else TET_EDGES
    acc: dict = {}
    for c, base, weights in _compiled_coeff(poly, labels):
        e = base
        for w, n in zip(weights, col):
            if w:
                e += w * n
        s = acc.get(e)
        s = c if s is None else s + c
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]
    out = LaurentPoly()
    out.terms = acc
    return LaurentRat.from_poly(out)


def apply_operator(op: OperatorPoly, family: str, col) -> LaurentRat:
    """Evaluate sum_l b_l(x = v^colors) * invariant(col shifted l times by 2).

    Coefficients always see the unshifted colors; colorings outside the
    admissible set contribute zero through the invariant factor.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    graph, arity, _, slots = _FAMILIES[family]
    if op.graph != graph:
        raise ValueError(f"operator for graph {op.graph!r} applied to family {family!r}")
    col = tuple(col)
    if len(col) != arity:
        raise ValueError(f"expected {arity} colors, got {len(col)}")
    slot = slots[op.edge]
    pairs = []
    for step, coeff in enumerate(op.coeffs):
        if coeff.is_zero():
            continue
        shifted = col[:slot] + (col[slot] + 2 * step,) + col[slot + 1 :]
        value = _family_value(family, shifted)
        if value.is_zero():
            continue
        pairs.append((_eval_coeff(coeff, graph, col), value))
    return rat_dot(pairs)


def classical_limit(op: OperatorPoly) -> ClassicalAPoly:
    """Send q to 1 and replace the shift operator by a commuting twist variable."""
    limit = MultiPoly.zero()
    y = MultiPoly.var("y_" + op.edge)
    power = MultiPoly.one()
    for coeff in op.coeffs:
        limit = limit + coeff.substitute({"v": MultiPoly.const(1)}) * power
        power = power * y
    if limit.is_zero():
        raise ValueError("operator collapsed to zero in the classical limit")
    return ClassicalAPoly(op.graph, op.edge, limit)


# -- saddle elimination ---------------------------------------------------------------------


def saddle_system() -> tuple:
    """Cleared polynomial forms (in the auxiliary variable z) of the saddle pair.

    The first relation balances the two quartic products; its z^4 and z^0
    coefficients cancel identically, leaving z times a quadratic whose roots
    are the genuine saddles.  The second defines the edge-1 twist.
    """
    one = MultiPoly.one()
    x1, x2, x12 = _x("1"), _x("2"), _x("12")
    x3, x4, x23 = _x("3"), _x("4"), _x("23")
    z = MultiPoly.var("z")
    y1 = MultiPoly.var("y_1")
    p_1 = x1 * x2 * x12
    p_2 = x3 * x4 * x12
    p_3 = x1 * x4 * x23
    p_4 = x2 * x3 * x23
    r_1 = x1 * x2 * x3 * x4
    r_2 = x1 * x3 * x12 * x23
    r_3 = x2 * x4 * x12 * x23
    balance = (z - one) * (z - r_1) * (z - r_2) * (z - r_3) - (z - p_1) * (z - p_2) * (
        z - p_3
    ) * (z - p_4)
    twist = x3 * (z - p_3) * (z - p_1) - y1 * (z - r_1) * (z - r_2)
    return balance, twist


def eliminate_saddle() -> MultiPoly:
    """Eliminate z from the saddle pair and certify the edge-1 curve divides it.

    Returns the full resultant (which carries extraneous factors from the
    spurious z = 0 root and the clearing units); raises if the classical
    curve does not divide it exactly.
    """
    balance, twist = saddle_system()
    res = resultant_in(balance, twist, "z")
    curve = tet_classical_A("1").poly
    try:
        exact_div_multi(res, curve)
    except ValueError as exc:
        raise ValueError(
            "saddle resultant is not a multiple of the edge-1 classical curve: "
            f"{exc}"
        ) from exc
    return res


# -- verification sweeps ----------------------------------------------------------------------


def sweep(check, colorings) -> dict:
    """Run `check` over `colorings` in order and collect its failures.

    check(col) returns None for a coloring outside its domain, which is
    skipped and not counted, and otherwise the list of failure records for
    that coloring (empty when it passes).
    """
    tested = 0
    failures = []
    for col in colorings:
        found = check(col)
        if found is None:
            continue
        tested += 1
        failures.extend(found)
    return {"tested": tested, "failures": failures}


def interior_colorings(graph: str, edge: str, grid_max: int, order: int) -> list:
    """Base colorings whose first `order` shifts along `edge` stay admissible."""
    if graph == "theta":
        slot = _THETA_SLOT[edge]
        cols = enumerate_theta_colorings(grid_max)
        admissible = lambda c: is_admissible(*c)
    else:
        slot = _TET_SLOT[edge]
        cols = enumerate_tet_colorings(grid_max)
        admissible = tet_is_admissible
    out = []
    for col in cols:
        col = tuple(col)
        ok = True
        for step in range(1, order + 1):
            shifted = col[:slot] + (col[slot] + 2 * step,) + col[slot + 1 :]
            if not admissible(shifted):
                ok = False
                break
        if ok:
            out.append(col)
    return out


def annihilation_report(
    graph: str,
    edge: str,
    grid_max: int,
    operator: Optional[OperatorPoly] = None,
) -> dict:
    """Sweep the interior grid and report any nonzero operator applications."""
    if graph == "theta":
        op = operator if operator is not None else theta_quantum_A(edge)
        family = "theta"
    elif graph == "tet":
        op = operator if operator is not None else tet_quantum_A(edge)
        family = "tet-primed"
    else:
        raise ValueError(f"unknown graph {graph!r}")
    order = len(op.coeffs) - 1

    def check(col):
        residual = apply_operator(op, family, col)
        if residual.is_zero():
            return []
        return [{"colors": list(col), "residual": residual.to_json_obj()}]

    return {
        "check": "annihilation",
        "graph": graph,
        "edge": edge,
        "grid_max": grid_max,
        **sweep(check, interior_colorings(graph, edge, grid_max, order)),
    }
