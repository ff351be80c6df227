"""Exact colored quantum invariants of the theta and tetrahedron graphs.

Colors are nonnegative integers (twice the spin), taken through
operator.index, so a color of any other type raises TypeError.  A triple
of colors meeting at a vertex must satisfy the fusion rule: triangle
inequalities plus even total parity.  Inadmissible colorings evaluate to 0.

The tetrahedron invariant is an alternating single sum over an index m.
Its summands follow the "triangle-sum" convention: the four lower
factorial arguments are m - (triangle half-sum) over the four vertex
triples and the three upper ones are (quadrilateral half-sum) - m.  This
convention passes the symmetry-orbit, theta-reduction, and hypergeometric
cross-checks.  The printed variant, whose lower arguments subtract
pairwise color differences instead, fails them; the tests build it from
_tet_summands as a negative control.

Values live in the fraction field (LaurentRat): theta values are not
always Laurent polynomials, e.g. the all-2 theta value -[4][3]/[2]^2.
Each theta value, recursion factor and summand is a signed ratio of
q-factorials or brackets, built as a pure product by LaurentRat.factorials
or LaurentRat.brackets without expanding anything; the alternating sums go
through bracket_ratio_sum once, over the lcm of their denominators.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Optional

from .laurent import LaurentRat, bracket_ratio_sum, mul_products

CONVENTION_TRIANGLE = "triangle-sum"


def is_admissible(a: int, b: int, c: int) -> bool:
    """Fusion rule: all >= 0, even total, triangle inequalities."""
    if a < 0 or b < 0 or c < 0:
        return False
    if (a + b + c) % 2:
        return False
    return abs(a - b) <= c <= a + b


def tet_is_admissible(col) -> bool:
    j1, j2, j12, j3, j4, j23 = col
    return (
        is_admissible(j1, j2, j12)
        and is_admissible(j3, j4, j12)
        and is_admissible(j1, j4, j23)
        and is_admissible(j2, j3, j23)
    )


# -- theta graph ---------------------------------------------------------------


# typed, so that a float or Fraction equal to a cached int color meets index
@lru_cache(maxsize=None, typed=True)
def theta_invariant(a: int, b: int, c: int) -> LaurentRat:
    """Value of the theta graph colored (a, b, c); 0 if inadmissible."""
    a, b, c = map(index, (a, b, c))
    if not is_admissible(a, b, c):
        return LaurentRat.zero()
    s = (a + b + c) // 2
    return LaurentRat.factorials(1 if s % 2 == 0 else -1, (s + 1, s - a, s - b, s - c), (a, b, c))


def theta_recursion_factor(a: int, b: int, c: int) -> LaurentRat:
    """Exact ratio of the (a+2, b, c) theta value to the (a, b, c) one."""
    a, b, c = map(index, (a, b, c))
    if not is_admissible(a, b, c):
        raise ValueError(f"inadmissible coloring {(a, b, c)}")
    if not is_admissible(a + 2, b, c):
        raise ValueError(f"shifted coloring {(a + 2, b, c)} inadmissible")
    s = (a + b + c) // 2
    # the shift raises s by 1; all factorial ratios collapse to single brackets
    return LaurentRat.brackets(
        -1, (s + 2, (a - b + c) // 2 + 1, (a + b - c) // 2 + 1), ((-a + b + c) // 2, a + 1, a + 2)
    )


def _third_colors(a: int, b: int, max_entry: int) -> range:
    """The c <= max_entry with (a, b, c) admissible, in increasing order."""
    return range(abs(a - b), min(a + b, max_entry) + 1, 2)


def enumerate_theta_colorings(max_entry: int) -> list[tuple]:
    """Admissible colorings (a, b, c) with entries up to max_entry, in lexicographic order."""
    rng = range(max_entry + 1)
    return [(a, b, c) for a in rng for b in rng for c in _third_colors(a, b, max_entry)]


# -- tetrahedron graph ------------------------------------------------------------


def _triangle_halves(col) -> list[int]:
    j1, j2, j12, j3, j4, j23 = col
    return [
        (j1 + j2 + j12) // 2,
        (j3 + j4 + j12) // 2,
        (j1 + j4 + j23) // 2,
        (j2 + j3 + j23) // 2,
    ]


def _quad_halves(col) -> list[int]:
    j1, j2, j12, j3, j4, j23 = col
    return [
        (j1 + j2 + j3 + j4) // 2,
        (j1 + j3 + j12 + j23) // 2,
        (j2 + j4 + j12 + j23) // 2,
    ]


def tet_sum_bounds(col) -> tuple:
    """Range (lo, hi) of the summation index, all factorial arguments nonnegative; empty if lo > hi."""
    return max(max(_triangle_halves(col)), 0), min(_quad_halves(col))


def _tet_summands(
    lowers: list[int], uppers: list[int], m_min: int, m_max: int, extra: LaurentRat | None = None
) -> list[LaurentRat]:
    """Summands (-1)^m [m+1]! / (prod [m-T]! prod [Q-m]!), times an optional pure product."""
    out = []
    for m in range(m_min, m_max + 1):
        downs = [m - t for t in lowers] + [q - m for q in uppers]
        term = LaurentRat.factorials(1 if m % 2 == 0 else -1, (m + 1,), downs)
        if extra is not None:
            term = mul_products(term, extra)
        out.append(term)
    return out


def _tet_sum(col: tuple, with_prefactor: bool) -> LaurentRat:
    if not tet_is_admissible(col):
        return LaurentRat.zero()
    lo, hi = tet_sum_bounds(col)
    if lo > hi:
        return LaurentRat.zero()
    # folding the prefactor into every summand keeps the sum gcd-free
    pre = tet_prefactor(col) if with_prefactor else None
    return bracket_ratio_sum(_tet_summands(_triangle_halves(col), _quad_halves(col), lo, hi, pre))


@lru_cache(maxsize=None)
def _tet_primed_cached(col: tuple) -> LaurentRat:
    return _tet_sum(col, with_prefactor=False)


def tet_primed(col) -> LaurentRat:
    """Summation part of the tetrahedron invariant (prefactor stripped)."""
    return _tet_primed_cached(tuple(map(index, col)))


def tet_prefactor(col) -> LaurentRat:
    """Product of the four vertex factors over the six edge factorials."""
    j1, j2, j12, j3, j4, j23 = col
    deltas = []
    for a, b, c in ((j1, j2, j12), (j3, j4, j12), (j1, j4, j23), (j2, j3, j23)):
        deltas += [(-a + b + c) // 2, (a - b + c) // 2, (a + b - c) // 2]
    return LaurentRat.factorials(1, deltas, col)


@lru_cache(maxsize=None)
def _tet_full_cached(col: tuple) -> LaurentRat:
    return _tet_sum(col, with_prefactor=True)


def tet_full(col) -> LaurentRat:
    """Full tetrahedron invariant: vertex prefactor times the primed sum."""
    return _tet_full_cached(tuple(map(index, col)))


def tet_symmetry_orbit(col) -> list[tuple]:
    """The five relabelings under which the invariant is unchanged."""
    j1, j2, j12, j3, j4, j23 = col
    return [
        (j1, j2, j12, j3, j4, j23),
        (j2, j1, j12, j4, j3, j23),
        (j12, j2, j1, j23, j4, j3),
        (j3, j2, j23, j1, j4, j12),
        (j3, j4, j12, j1, j2, j23),
    ]


def enumerate_tet_colorings(max_entry: int) -> list[tuple]:
    """Admissible colorings (j1, j2, j12, j3, j4, j23) with entries up to max_entry, in lexicographic order.

    Each entry runs over its admissible range given the ones before it; the
    first two triangles make j1 + j4 and j2 + j3 of equal parity, so the
    ranges of j23 in the last two triangles line up.
    """
    out = []
    rng = range(max_entry + 1)
    for j1 in rng:
        for j2 in rng:
            for j12 in _third_colors(j1, j2, max_entry):
                for j3 in rng:
                    for j4 in _third_colors(j3, j12, max_entry):
                        top = min(j1 + j4, j2 + j3, max_entry)
                        for j23 in range(max(abs(j1 - j4), abs(j2 - j3)), top + 1, 2):
                            out.append((j1, j2, j12, j3, j4, j23))
    return out


# -- hypergeometric cross-form ----------------------------------------------------


def _hypergeom_raw(col) -> Optional[LaurentRat]:
    """Terminating basic hypergeometric evaluation of the primed sum.

    Needs the first quadrilateral half-sum to be minimal (the two series
    denominator offsets must be nonnegative); returns None otherwise.
    """
    j1, j2, j12, j3, j4, j23 = col
    q1, q2, q3 = _quad_halves(col)
    e1 = (j3 + j4 - j12) // 2
    e2 = (j1 + j2 - j12) // 2
    e3 = (j2 + j3 - j23) // 2
    e4 = (j1 + j4 - j23) // 2
    f2 = q2 - q1
    f3 = q3 - q1
    if f2 < 0 or f3 < 0:
        return None
    # prefactor (-1)^{q1} [q1+1]! / ([e1]![e2]![e3]![e4]![f2]![f3]!)
    pre = LaurentRat.factorials(1 if q1 % 2 == 0 else -1, (q1 + 1,), (e1, e2, e3, e4, f2, f3))
    # series sum_n (-1)^n prod_i [e_i]!/[e_i-n]! / ([n]! [q1+1]!/[q1+1-n]! [f2+n]!/[f2]! [f3+n]!/[f3]!)
    terms = []
    for n in range(min(e1, e2, e3, e4) + 1):
        term = LaurentRat.factorials(
            1 if n % 2 == 0 else -1,
            (e1, e2, e3, e4, q1 + 1 - n, f2, f3),
            (e1 - n, e2 - n, e3 - n, e4 - n, n, q1 + 1, f2 + n, f3 + n),
        )
        terms.append(mul_products(pre, term))
    return bracket_ratio_sum(terms)


def tet_hypergeom(col) -> LaurentRat:
    """Primed invariant through the hypergeometric route.

    The series form requires the first quadrilateral half-sum to be the
    smallest; a symmetry relabeling (which permutes the three half-sums)
    arranges that, so every admissible coloring is covered.
    """
    col = tuple(map(index, col))
    if not tet_is_admissible(col):
        return LaurentRat.zero()
    j1, j2, j12, j3, j4, j23 = col
    q1, q2, q3 = _quad_halves(col)
    if q1 <= q2 and q1 <= q3:
        use = col
    elif q3 <= q2:
        use = (j12, j2, j1, j23, j4, j3)  # swaps q1 and q3
    else:
        # route the smallest (q2) into the first slot: swap it to q3, then to q1
        use = (j12, j1, j2, j23, j3, j4)
    got = _hypergeom_raw(use)
    if got is None:
        raise AssertionError(f"relabeling failed to order half-sums for {col}")
    return got


# -- reduction to theta --------------------------------------------------------------


def theta_reduction_check(a: int, b: int, c: int) -> tuple[bool, Optional[LaurentRat]]:
    """Color one tetrahedron edge 0 and compare with the theta value.

    Returns (True, unit) when the zero-edge tetrahedron value equals a
    unit monomial times theta(a, b, c); the measured unit is returned
    (it comes out exactly 1 in this normalization).
    """
    a, b, c = map(index, (a, b, c))
    if not is_admissible(a, b, c):
        raise ValueError(f"inadmissible coloring {(a, b, c)}")
    tet = tet_full((a, b, c, b, a, 0))
    th = theta_invariant(a, b, c)
    if th.is_zero() or tet.is_zero():
        return (tet.is_zero() and th.is_zero(), None)
    ratio = tet / th
    if ratio.is_laurent_poly() and ratio.num.is_monomial():
        return True, ratio
    return False, None


# -- CLI-facing record -----------------------------------------------------------------


def invariant_record(graph: str, colors, primed: bool = False, value=None) -> dict:
    """Report record of a value command: the graph's value, or with primed its annihilated family.

    A caller that already holds that value passes it, so the table is not asked twice.
    """
    from .apoly import GRAPHS  # apoly imports this module, so its table is read at call time

    g = GRAPHS[graph]
    colors = list(map(index, colors))
    if len(colors) != len(g.edges):
        raise ValueError(f"{graph} takes {len(g.edges)} colors")
    if value is None:
        value = (g.family if primed else g.value)(colors)
    record = {
        "graph": graph,
        "colors": colors,
        "value": value.to_json_obj(),
        "admissible": g.admissible(colors),
        "convention": CONVENTION_TRIANGLE,
    }
    if primed:
        record["primed"] = True
    return record
