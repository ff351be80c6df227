"""Independent exact values of the theta and tetrahedron invariants at v = 2.

Written from the defining formulas, not from qgraph's code, so that a
large-color value the CLI prints can be checked against a second route:

    [n]      = (v^n - v^-n) / (v - v^-1)
    theta    = (-1)^s [s+1]! [s-a]! [s-b]! [s-c]! / ([a]! [b]! [c]!),  s = (a+b+c)/2
    tet'     = sum_m (-1)^m [m+1]! / (prod_i [m - T_i]! prod_j [Q_j - m]!)
    tet      = prod_vertices [(-a+b+c)/2]! [(a-b+c)/2]! [(a+b-c)/2]! / prod_edges [j]!  * tet'

T_i are the half-sums of the three colors at each graph vertex, and Q_j the
half-sums of the four colors left when a pair of opposite edges is removed.
The tetrahedral graph's structure is stated once, as the two vertices each
edge joins, and everything else is derived from it.
"""

from fractions import Fraction
from itertools import combinations

V = Fraction(2)

# edge order of `qgraph tet -c j1,j2,j12,j3,j4,j23`, as the pair of graph
# vertices (A, B, C, D) each edge joins
TET_EDGE_ENDS = (("A", "C"), ("A", "D"), ("A", "B"), ("B", "D"), ("B", "C"), ("C", "D"))
_VERTICES = ("A", "B", "C", "D")


def _bracket(n: int) -> Fraction:
    return (V ** n - V ** -n) / (V - 1 / V)


def _factorial(n: int) -> Fraction:
    if n < 0:
        raise ValueError(f"negative factorial {n}")
    out = Fraction(1)
    for k in range(2, n + 1):
        out *= _bracket(k)
    return out


def _admissible_triangle(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and a <= b + c and b <= a + c and c <= a + b


def theta_at_2(a: int, b: int, c: int) -> Fraction:
    if not _admissible_triangle(a, b, c):
        return Fraction(0)
    s = (a + b + c) // 2
    sign = -1 if s % 2 else 1
    num = _factorial(s + 1) * _factorial(s - a) * _factorial(s - b) * _factorial(s - c)
    return sign * num / (_factorial(a) * _factorial(b) * _factorial(c))


def _vertex_colors(col) -> list:
    return [[j for j, ends in zip(col, TET_EDGE_ENDS) if v in ends] for v in _VERTICES]


def _opposite_pairs() -> list:
    idx = range(len(TET_EDGE_ENDS))
    return [
        (i, k)
        for i, k in combinations(idx, 2)
        if not set(TET_EDGE_ENDS[i]) & set(TET_EDGE_ENDS[k])
    ]


def tet_at_2(col, primed: bool) -> Fraction:
    col = [int(j) for j in col]
    vertices = _vertex_colors(col)
    if not all(_admissible_triangle(*tri) for tri in vertices):
        return Fraction(0)
    lows = [sum(tri) // 2 for tri in vertices]
    total = sum(col)
    highs = [(total - col[i] - col[k]) // 2 for i, k in _opposite_pairs()]
    acc = Fraction(0)
    for m in range(max(lows), min(highs) + 1):
        den = Fraction(1)
        for t in lows:
            den *= _factorial(m - t)
        for q in highs:
            den *= _factorial(q - m)
        term = _factorial(m + 1) / den
        acc += -term if m % 2 else term
    if primed:
        return acc
    pre = Fraction(1)
    for a, b, c in vertices:
        pre *= _factorial((-a + b + c) // 2) * _factorial((a - b + c) // 2) * _factorial((a + b - c) // 2)
    for j in col:
        pre /= _factorial(j)
    return pre * acc


def value_json_at_2(value: dict) -> Fraction:
    """Evaluate a CLI value object {"num": {"terms": ...}, "den": {...}} at v = 2."""

    def poly(obj) -> Fraction:
        terms = [(int(e), Fraction(c)) for e, c in obj["terms"]]
        if not terms:
            return Fraction(0)
        low = min(e for e, _ in terms)
        # integer powers of 2 above the lowest exponent, then one scaling
        return sum(c * (1 << (e - low)) for e, c in terms) * V ** low

    den = poly(value["den"])
    if den == 0:
        raise ZeroDivisionError("value has a pole at v = 2")
    return poly(value["num"]) / den
