"""Classical and quantum A-polynomial families for the theta and tetrahedron graphs.

Each edge of a graph carries a holonomy variable x and a conjugate twist
variable y.  A classical curve is a MultiPoly in (y, x-labels) whose zero
locus is one defining equation of the character variety.  An OperatorPoly is
its quantization: a q-difference operator sum_l b_l(x; q) * y^l that
annihilates the family of quantum invariants, where y now shifts the edge's
color by 2 and x multiplies by v^color (v = q^(1/2), so q-exponents stay
integral in v).

Edges.  Only edge a (theta) and edge 1 (tetrahedron) are built from their
displayed factors; every other edge's operator and curve is the cached
base one's image under x-label swaps and the y relabel (_edge_image).

Ordering contract.  Coefficients are stored normal ordered, with every shift
operator moved to the right of its coefficient: applying an operator at a
coloring evaluates each b_l at the UNSHIFTED colors and multiplies by the
invariant at the l-times-shifted coloring.  Moving a shift operator left
through x rescales x by q per step; forgetting that rescaling produces a
"miscommuted" operator that must fail annihilation.  The tests build that
variant from _theta_quantum_raw and _tet_quantum_pieces to guard the
convention with an operator that is known to be wrong.

Normalization.  The relative normalization of the tetrahedron operator's
three coefficients (and the relative sign of one summand in the middle
coefficient of both the operator and the classical curve) is pinned by two
independent checks rather than taken from any single display: exact
annihilation of the primed tetrahedron family on verification grids, and
exact divisibility of the saddle-elimination resultant by the classical
curve.  The miscommuted variants in the tests keep the uncorrected
coefficients, so the negative controls exercise a realistic failure mode.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .invariants import (
    enumerate_tet_colorings,
    enumerate_theta_colorings,
    is_admissible,
    tet_full,
    tet_is_admissible,
    tet_primed,
    theta_invariant,
)
from .laurent import LaurentPoly, LaurentRat, rat_dot, rat_dot_vanishes
from .multipoly import MultiPoly, exact_div_multi, resultant_in

THETA_EDGES = ("a", "b", "c")
TET_EDGES = ("1", "2", "12", "3", "4", "23")

# the x-label pairs whose swaps carry the base edge's operator and curve (edge
# a's for theta, edge 1's for the tetrahedron) to each other edge
_EDGE_SWAPS = {
    "b": (("a", "b"),),
    "c": (("a", "c"),),
    "2": (("1", "2"), ("4", "3")),
    "3": (("1", "3"), ("12", "23")),
    "4": (("2", "3"), ("1", "4")),
    "12": (("3", "23"), ("1", "12")),
    "23": (("3", "12"), ("1", "23")),
}


class OperatorPoly(NamedTuple):
    """q-difference annihilator for one edge: sum_l coeffs[l] * (shift by 2)^l."""

    graph: str
    edge: str
    coeffs: tuple


def _v(k: int) -> MultiPoly:
    return MultiPoly.var("v", k)


def _x(label: str, exp: int = 1) -> MultiPoly:
    return MultiPoly.var("x_" + label, exp)


def _edge_image(value, base: str, edge: str):
    """The base edge's operator or curve carried to edge: each x-label pair of
    _EDGE_SWAPS[edge] exchanged, and y_base renamed y_edge."""
    binding = {"y_" + base: MultiPoly.var("y_" + edge)}
    for left, right in _EDGE_SWAPS[edge]:
        binding["x_" + left], binding["x_" + right] = _x(right), _x(left)
    if isinstance(value, OperatorPoly):
        return value._replace(edge=edge, coeffs=tuple(b.substitute(binding) for b in value.coeffs))
    return value.substitute(binding)


def _shift_edge_var(poly: MultiPoly, label: str, steps: int) -> MultiPoly:
    # x_label -> q^steps * x_label; one step per shift operator commuted past
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
def theta_quantum_A(edge: str) -> OperatorPoly:
    """Annihilating operator for one theta edge, first order in the shift: edge a's or its image."""
    if edge not in THETA_EDGES:
        raise ValueError(f"unknown theta edge {edge!r}")
    if edge != "a":
        return _edge_image(theta_quantum_A("a"), "a", edge)
    b0, b1 = _theta_quantum_raw()
    return OperatorPoly("theta", "a", (b0, _shift_edge_var(b1, "a", 1)))


@lru_cache(maxsize=None)
def theta_classical_A(edge: str) -> MultiPoly:
    """Classical curve for one theta edge, linear in the twist variable: edge a's or its image."""
    if edge not in THETA_EDGES:
        raise ValueError(f"unknown theta edge {edge!r}")
    if edge != "a":
        return _edge_image(theta_classical_A("a"), "a", edge)
    xa, xb, xc = _x("a"), _x("b"), _x("c")
    one = MultiPoly.one()
    ya = MultiPoly.var("y_a")
    return xa * (xa * xb - xc) * (xa * xc - xb) * (one - xa * xb * xc) + xb * xc * (
        one - xa * xa
    ) ** 2 * (xa - xb * xc) * ya


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
def tet_quantum_A(edge: str) -> OperatorPoly:
    """Annihilating operator for one tetrahedron edge (second order in the shift).

    The canonical form applies the normal-ordering rescale x -> q^l x to the
    coefficient of the l-th shift power and fixes the relative units of the
    pieces (q^-6 on the top coefficient; q^-3, q^-3, q^-2 and a relative sign
    flip on the three middle summands).  These units are forced by exact
    annihilation of the primed family; see the module docstring.  Every other
    edge's operator is edge 1's image.
    """
    if edge not in TET_EDGES:
        raise ValueError(f"unknown tetrahedron edge {edge!r}")
    if edge != "1":
        return _edge_image(tet_quantum_A("1"), "1", edge)
    c2, (ta, tb, tc), b0 = _tet_quantum_pieces()
    b2 = _v(-12) * _shift_edge_var(c2, "1", 2)
    b1 = (
        _v(-6) * _shift_edge_var(ta, "1", 1)
        - _v(-6) * _shift_edge_var(tb, "1", 1)
        - _v(-4) * _shift_edge_var(tc, "1", 1)
    )
    return OperatorPoly("tet", "1", (b0, b1, b2))


@lru_cache(maxsize=None)
def tet_classical_A(edge: str) -> MultiPoly:
    """Classical curve for one tetrahedron edge, quadratic in the twist variable.

    The relative sign of the x4*x12 summand in the linear coefficient is fixed
    by requiring the curve to divide the saddle-elimination resultant; the
    other two summands keep their displayed sign.  Every other edge's curve is
    edge 1's image.
    """
    if edge not in TET_EDGES:
        raise ValueError(f"unknown tetrahedron edge {edge!r}")
    if edge != "1":
        return _edge_image(tet_classical_A("1"), "1", edge)
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
    return const + (mid_a - mid_b - mid_c) * y1 + lead * y1 * y1


# -- three-term recursion contract --------------------------------------------------------


def _check_recursion_domain(col) -> None:
    """Raise ValueError unless col and both of its j1 shifts by 2 are admissible."""
    if not tet_is_admissible(col):
        raise ValueError(f"inadmissible coloring {tuple(col)}")
    for d in (2, -2):
        shifted = (col[0] + d,) + tuple(col)[1:]
        if not tet_is_admissible(shifted):
            raise ValueError(f"shifted coloring {shifted} is inadmissible")


def _tet_recursion_products(col) -> tuple:
    """(alpha, (beta_1, beta_2, beta_3), gamma), with beta = beta_1 + beta_2 - beta_3.

    Every entry is a product of brackets (LaurentRat.brackets); see
    tet_recursion_coeffs.  The formulas take any coloring; the callers check
    the recursion's domain.
    """
    j1, j2, j12, j3, j4, j23 = col
    alpha = LaurentRat.brackets(
        1,
        [
            j1,
            (j1 + j4 - j23) // 2 + 1,
            (j1 + j23 - j4) // 2 + 1,
            (j1 + j2 - j12) // 2 + 1,
            (j1 + j12 - j2) // 2 + 1,
        ],
    )
    betas = (
        LaurentRat.brackets(
            1,
            [
                j1 + 2,
                (j1 + j23 - j4) // 2,
                (j1 + j4 + j23) // 2 + 1,
                (j1 + j2 - j12) // 2,
                (j1 + j2 + j12) // 2 + 1,
            ],
        ),
        LaurentRat.brackets(
            1,
            [
                j1,
                (j1 + j4 - j23) // 2 + 1,
                (j23 + j4 - j1) // 2,
                (j2 + j12 - j1) // 2,
                (j1 + j12 - j2) // 2 + 1,
            ],
        ),
        LaurentRat.brackets(
            1,
            [
                j1,
                j1 + 1,
                j1 + 2,
                (j3 + j2 + j23) // 2 + 1,
                (j2 + j23 - j3) // 2,
            ],
        ),
    )
    gamma = LaurentRat.brackets(
        1,
        [
            j1 + 2,
            (j1 + j4 + j23) // 2 + 1,
            (j23 + j4 - j1) // 2 + 1,
            (j2 + j12 + j1) // 2 + 1,
            (j2 + j12 - j1) // 2 + 1,
        ],
    )
    return alpha, betas, gamma


def tet_recursion_coeffs(col) -> tuple:
    """Coefficients (alpha, beta, gamma) of the centered three-term recursion.

    Contract: alpha * J'(j1+2) - beta * J'(j1) + gamma * J'(j1-2) = 0 on the
    primed family whenever both shifted colorings are admissible.  beta's
    middle summands carry the signs (+, +, -); that pattern is the unique one
    among the eight choices that annihilates the verification grid.
    Raises ValueError outside that domain.
    """
    _check_recursion_domain(col)
    alpha, (b1, b2, b3), gamma = _tet_recursion_products(col)
    return alpha, b1 + b2 - b3, gamma


def _tet_shifted_values(col) -> tuple:
    """J'(j1 + 2), J'(col), J'(j1 - 2) on the primed family."""
    col = tuple(col)
    return tet_primed(_shifted(col, 0, 1)), tet_primed(col), tet_primed(_shifted(col, 0, -1))


def tet_recursion_residual(col) -> LaurentRat:
    """Exact value of alpha*J'(up) - beta*J'(col) + gamma*J'(down)."""
    alpha, beta, gamma = tet_recursion_coeffs(col)
    up, mid, down = _tet_shifted_values(col)
    return rat_dot([(alpha, up), (-beta, mid), (gamma, down)])


def tet_recursion_vanishes(col) -> bool:
    """Whether tet_recursion_residual(col) is zero, decided by rat_dot_vanishes.

    beta enters as its three bracket products, so it is never summed.
    """
    _check_recursion_domain(col)
    alpha, (b1, b2, b3), gamma = _tet_recursion_products(col)
    up, mid, down = _tet_shifted_values(col)
    return rat_dot_vanishes([(alpha, up), (-b1, mid), (-b2, mid), (b3, mid), (gamma, down)])


# -- the two graphs ---------------------------------------------------------------------------


class Graph(NamedTuple):
    """One graph as every layer sees it.

    Entries that name a traced function call it through its module
    attribute, so a span wrapper installed there sees each call.
    """

    edges: tuple  # edge labels, in coloring order
    admissible: Callable  # coloring tuple -> bool
    colorings: Callable  # grid bound -> admissible colorings, in lexicographic order
    value: Callable  # coloring -> the invariant, as the graph's value command prints it
    family: Callable  # coloring -> the family the operators annihilate
    quantum_A: Callable  # edge -> OperatorPoly
    classical_A: Callable  # edge -> classical curve (MultiPoly)


class _Graphs(dict):
    def __missing__(self, name):
        raise ValueError(f"unknown graph {name!r}")


GRAPHS = _Graphs(
    theta=Graph(
        THETA_EDGES,
        lambda col: is_admissible(*col),
        enumerate_theta_colorings,
        lambda col: theta_invariant(*col),
        lambda col: theta_invariant(*col),
        lambda edge: theta_quantum_A(edge),
        lambda edge: theta_classical_A(edge),
    ),
    tet=Graph(
        TET_EDGES,
        tet_is_admissible,
        enumerate_tet_colorings,
        lambda col: tet_full(col),
        lambda col: tet_primed(col),
        lambda edge: tet_quantum_A(edge),
        lambda edge: tet_classical_A(edge),
    ),
)


def _shifted(col: tuple, slot: int, step: int) -> tuple:
    """col with the color at slot raised by 2 * step."""
    return col[:slot] + (col[slot] + 2 * step,) + col[slot + 1 :]


# -- operator application ------------------------------------------------------------------


def _eval_coeff(poly: MultiPoly, graph: str, col) -> LaurentRat:
    """b(x = v^colors): each term's v-exponent plus its x-exponents times the colors."""
    weight = {"x_" + lab: n for lab, n in zip(GRAPHS[graph].edges, col)}
    weight["v"] = 1
    # the MultiPoly's coefficients are canonical ints; only colliding terms need merging
    out: dict[int, int] = {}
    for e, c in zip(poly.weighted_degrees(weight), poly.terms.values()):
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return LaurentRat.from_poly(LaurentPoly._wrap(out))


def _operator_pairs(op: OperatorPoly, col) -> list:
    """The (b_l(x = v^colors), family value at col shifted l times by 2) pairs of an application."""
    graph = GRAPHS[op.graph]
    col = tuple(col)
    if len(col) != len(graph.edges):
        raise ValueError(f"expected {len(graph.edges)} colors, got {len(col)}")
    slot = graph.edges.index(op.edge)
    pairs = []
    for step, coeff in enumerate(op.coeffs):
        if coeff.is_zero():
            continue
        shifted = _shifted(col, slot, step)
        if not graph.admissible(shifted):
            continue
        value = graph.family(shifted)
        if value.is_zero():
            continue
        pairs.append((_eval_coeff(coeff, op.graph, col), value))
    return pairs


def apply_operator(op: OperatorPoly, col) -> LaurentRat:
    """Evaluate sum_l b_l(x = v^colors) * family value at col shifted l times by 2.

    The family is the one op.graph's operators annihilate: the theta value,
    or the primed tetrahedron sum.  Coefficients always see the unshifted
    colors; colorings outside the admissible set contribute zero through the
    invariant factor.
    """
    return rat_dot(_operator_pairs(op, col))


def operator_vanishes(op: OperatorPoly, col) -> bool:
    """Whether apply_operator(op, col) is zero, decided by rat_dot_vanishes."""
    return rat_dot_vanishes(_operator_pairs(op, col))


def classical_limit(op: OperatorPoly) -> MultiPoly:
    """Send q to 1 and replace the shift operator by a commuting twist variable."""
    limit = MultiPoly.zero()
    y = MultiPoly.var("y_" + op.edge)
    power = MultiPoly.one()
    for coeff in op.coeffs:
        limit = limit + coeff.substitute({"v": MultiPoly.const(1)}) * power
        power = power * y
    if limit.is_zero():
        raise ValueError("operator collapsed to zero in the classical limit")
    return limit


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
    curve = tet_classical_A("1")
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
    g = GRAPHS[graph]
    slot = g.edges.index(edge)
    steps = range(1, order + 1)
    return [col for col in g.colorings(grid_max) if all(g.admissible(_shifted(col, slot, s)) for s in steps)]


def annihilation_report(
    graph: str,
    edge: str,
    grid_max: int,
    operator: Optional[OperatorPoly] = None,
) -> dict:
    """Sweep the interior grid and report any nonzero operator applications."""
    op = operator if operator is not None else GRAPHS[graph].quantum_A(edge)
    order = len(op.coeffs) - 1

    def check(col):
        # zero is decided by evaluation; only a failure expands its residual
        if operator_vanishes(op, col):
            return []
        return [{"colors": list(col), "residual": apply_operator(op, col).to_json_obj()}]

    return {
        "check": "annihilation",
        "graph": graph,
        "edge": edge,
        "grid_max": grid_max,
        **sweep(check, interior_colorings(graph, edge, grid_max, order)),
    }
