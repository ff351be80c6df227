"""Exact colored quantum invariants of the theta and tetrahedron graphs.

Colors are nonnegative integers (twice the spin).  A triple of colors
meeting at a vertex must satisfy the fusion rule: triangle inequalities
plus even total parity.  Inadmissible colorings evaluate to 0.

The tetrahedron invariant is an alternating single sum over an index m.
Two summand conventions are supported:

* "triangle-sum" (default): the four lower factorial arguments are
  m - (triangle half-sum) over the four vertex triples and the three
  upper ones are (quadrilateral half-sum) - m.  This convention passes
  the symmetry-orbit, theta-reduction, and hypergeometric cross-checks.
* "printed": a variant whose lower arguments subtract pairwise color
  differences instead of triangle sums.  It fails the cross-checks and
  is retained only so the discrepancy can be demonstrated.

Values live in the fraction field (LaurentRat): theta values are not
always Laurent polynomials, e.g. the all-2 theta value -[4][3]/[2]^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .laurent import BracketRatio, LaurentPoly, LaurentRat, bracket_ratio_sum

CONVENTION_TRIANGLE = "triangle-sum"
CONVENTION_PRINTED = "printed"


class ThetaColoring(NamedTuple):
    a: int
    b: int
    c: int


class TetColoring(NamedTuple):
    j1: int
    j2: int
    j12: int
    j3: int
    j4: int
    j23: int


class SumBounds(NamedTuple):
    m_min: int
    m_max: int

    def is_empty(self) -> bool:
        return self.m_min > self.m_max


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


@lru_cache(maxsize=None)
def theta_invariant(a: int, b: int, c: int) -> LaurentRat:
    """Value of the theta graph colored (a, b, c); 0 if inadmissible."""
    if not is_admissible(a, b, c):
        return LaurentRat.zero()
    s = (a + b + c) // 2
    br = BracketRatio(1 if s % 2 == 0 else -1)
    br = br * BracketRatio.factorial(s + 1)
    br = br * BracketRatio.factorial(s - a)
    br = br * BracketRatio.factorial(s - b)
    br = br * BracketRatio.factorial(s - c)
    br = br * BracketRatio.factorial(a, inverse=True)
    br = br * BracketRatio.factorial(b, inverse=True)
    br = br * BracketRatio.factorial(c, inverse=True)
    return br.to_laurent_rat()


def theta_recursion_factor(a: int, b: int, c: int) -> LaurentRat:
    """Exact ratio of the (a+2, b, c) theta value to the (a, b, c) one."""
    if not is_admissible(a, b, c):
        raise ValueError(f"inadmissible coloring {(a, b, c)}")
    if not is_admissible(a + 2, b, c):
        raise ValueError(f"shifted coloring {(a + 2, b, c)} inadmissible")
    s = (a + b + c) // 2
    # the shift raises s by 1; all factorial ratios collapse to single brackets
    br = BracketRatio(-1)
    br = br.times_bracket(s + 2)
    br = br.times_bracket((a - b + c) // 2 + 1)
    br = br.times_bracket((a + b - c) // 2 + 1)
    br = br.times_bracket((-a + b + c) // 2, -1)
    br = br.times_bracket(a + 1, -1)
    br = br.times_bracket(a + 2, -1)
    return br.to_laurent_rat()


def enumerate_theta_colorings(max_entry: int) -> list[ThetaColoring]:
    out = []
    for a in range(max_entry + 1):
        for b in range(max_entry + 1):
            for c in range(max_entry + 1):
                if is_admissible(a, b, c):
                    out.append(ThetaColoring(a, b, c))
    return out


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


def _printed_lower_halves(col) -> list[int]:
    # alternate convention: pairwise differences instead of triangle sums
    j1, j2, j12, j3, j4, j23 = col
    return [
        (j1 - j2 - j12) // 2,
        (j3 - j4 - j12) // 2,
        (j1 - j4 - j23) // 2,
        (j2 - j3 - j23) // 2,
    ]


def tet_sum_bounds(col, convention: str = CONVENTION_TRIANGLE) -> SumBounds:
    """Range of the summation index: all factorial arguments nonnegative."""
    if convention == CONVENTION_TRIANGLE:
        lowers = _triangle_halves(col)
    elif convention == CONVENTION_PRINTED:
        lowers = _printed_lower_halves(col) + [0]
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return SumBounds(max(max(lowers), 0), min(_quad_halves(col)))


def _tet_summands(
    lowers: list[int], uppers: list[int], m_min: int, m_max: int, extra: BracketRatio | None = None
) -> list[BracketRatio]:
    """Summands (-1)^m [m+1]! / (prod [m-T]! prod [Q-m]!), times an optional factor."""
    out = []
    for m in range(m_min, m_max + 1):
        br = BracketRatio(1 if m % 2 == 0 else -1)
        br = br * BracketRatio.factorial(m + 1)
        for t in lowers:
            br = br * BracketRatio.factorial(m - t, inverse=True)
        for q in uppers:
            br = br * BracketRatio.factorial(q - m, inverse=True)
        if extra is not None:
            br = br * extra
        out.append(br)
    return out


def _tet_sum(col: tuple, convention: str, with_prefactor: bool) -> LaurentRat:
    if not tet_is_admissible(col):
        return LaurentRat.zero()
    bounds = tet_sum_bounds(col, convention)
    if bounds.is_empty():
        return LaurentRat.zero()
    if convention == CONVENTION_TRIANGLE:
        lowers = _triangle_halves(col)
    else:
        lowers = _printed_lower_halves(col)
    # folding the prefactor into every summand keeps the sum gcd-free
    pre = _tet_prefactor_ratio(col) if with_prefactor else None
    return bracket_ratio_sum(_tet_summands(lowers, _quad_halves(col), bounds.m_min, bounds.m_max, pre))


@lru_cache(maxsize=None)
def _tet_primed_cached(col: tuple, convention: str) -> LaurentRat:
    return _tet_sum(col, convention, with_prefactor=False)


def tet_primed(col, convention: str = CONVENTION_TRIANGLE) -> LaurentRat:
    """Summation part of the tetrahedron invariant (prefactor stripped)."""
    if convention not in (CONVENTION_TRIANGLE, CONVENTION_PRINTED):
        raise ValueError(f"unknown convention {convention!r}")
    return _tet_primed_cached(tuple(int(j) for j in col), convention)


def _delta_factorials(a: int, b: int, c: int) -> BracketRatio:
    br = BracketRatio.factorial((-a + b + c) // 2)
    br = br * BracketRatio.factorial((a - b + c) // 2)
    br = br * BracketRatio.factorial((a + b - c) // 2)
    return br


def _tet_prefactor_ratio(col) -> BracketRatio:
    j1, j2, j12, j3, j4, j23 = col
    br = _delta_factorials(j1, j2, j12)
    br = br * _delta_factorials(j3, j4, j12)
    br = br * _delta_factorials(j1, j4, j23)
    br = br * _delta_factorials(j2, j3, j23)
    for j in col:
        br = br * BracketRatio.factorial(j, inverse=True)
    return br


def tet_prefactor(col) -> LaurentRat:
    """Product of the four vertex factors over the six edge factorials."""
    return _tet_prefactor_ratio(col).to_laurent_rat()


@lru_cache(maxsize=None)
def _tet_full_cached(col: tuple, convention: str) -> LaurentRat:
    return _tet_sum(col, convention, with_prefactor=True)


def tet_full(col, convention: str = CONVENTION_TRIANGLE) -> LaurentRat:
    """Full tetrahedron invariant: vertex prefactor times the primed sum."""
    if convention not in (CONVENTION_TRIANGLE, CONVENTION_PRINTED):
        raise ValueError(f"unknown convention {convention!r}")
    return _tet_full_cached(tuple(int(j) for j in col), convention)


def tet_symmetry_orbit(col) -> list[TetColoring]:
    """The five relabelings under which the invariant is unchanged."""
    j1, j2, j12, j3, j4, j23 = col
    return [
        TetColoring(j1, j2, j12, j3, j4, j23),
        TetColoring(j2, j1, j12, j4, j3, j23),
        TetColoring(j12, j2, j1, j23, j4, j3),
        TetColoring(j3, j2, j23, j1, j4, j12),
        TetColoring(j3, j4, j12, j1, j2, j23),
    ]


def enumerate_tet_colorings(max_entry: int) -> list[TetColoring]:
    out = []
    rng = range(max_entry + 1)
    for j1 in rng:
        for j2 in rng:
            for j12 in rng:
                if not is_admissible(j1, j2, j12):
                    continue
                for j3 in rng:
                    for j4 in rng:
                        if not is_admissible(j3, j4, j12):
                            continue
                        for j23 in rng:
                            if is_admissible(j1, j4, j23) and is_admissible(j2, j3, j23):
                                out.append(TetColoring(j1, j2, j12, j3, j4, j23))
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
    pre = BracketRatio(1 if q1 % 2 == 0 else -1)
    pre = pre * BracketRatio.factorial(q1 + 1)
    for e in (e1, e2, e3, e4, f2, f3):
        pre = pre * BracketRatio.factorial(e, inverse=True)
    # series sum_n (-1)^n prod_i [e_i]!/[e_i-n]! / ([n]! [q1+1]!/[q1+1-n]! [f2+n]!/[f2]! [f3+n]!/[f3]!)
    terms = []
    for n in range(min(e1, e2, e3, e4) + 1):
        term = BracketRatio(1 if n % 2 == 0 else -1)
        for e in (e1, e2, e3, e4):
            term = term * BracketRatio.factorial(e) * BracketRatio.factorial(e - n, inverse=True)
        term = term * BracketRatio.factorial(n, inverse=True)
        term = term * BracketRatio.factorial(q1 + 1 - n) * BracketRatio.factorial(q1 + 1, inverse=True)
        term = term * BracketRatio.factorial(f2) * BracketRatio.factorial(f2 + n, inverse=True)
        term = term * BracketRatio.factorial(f3) * BracketRatio.factorial(f3 + n, inverse=True)
        terms.append(pre * term)
    return bracket_ratio_sum(terms)


def tet_hypergeom(col) -> LaurentRat:
    """Primed invariant through the hypergeometric route.

    The series form requires the first quadrilateral half-sum to be the
    smallest; a symmetry relabeling (which permutes the three half-sums)
    arranges that, so every admissible coloring is covered.
    """
    col = tuple(int(j) for j in col)
    if not tet_is_admissible(col):
        return LaurentRat.zero()
    j1, j2, j12, j3, j4, j23 = col
    q1, q2, q3 = _quad_halves(col)
    swap_q2_q3 = TetColoring(j2, j1, j12, j4, j3, j23)
    swap_q1_q3 = TetColoring(j12, j2, j1, j23, j4, j3)
    if q1 <= q2 and q1 <= q3:
        use = col
    elif q3 <= q2:
        use = swap_q1_q3
    else:
        # route the smallest (q2) into the first slot: swap it to q3, then to q1
        t = swap_q2_q3
        use = TetColoring(t.j12, t.j2, t.j1, t.j23, t.j4, t.j3)
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


def invariant_record(graph: str, colors, convention: str = CONVENTION_TRIANGLE) -> dict:
    colors = [int(x) for x in colors]
    if graph == "theta":
        if len(colors) != 3:
            raise ValueError("theta takes 3 colors")
        adm = is_admissible(*colors)
        value = theta_invariant(*colors)
    elif graph == "tet":
        if len(colors) != 6:
            raise ValueError("tet takes 6 colors")
        adm = tet_is_admissible(colors)
        value = tet_full(colors, convention)
    else:
        raise ValueError(f"unknown graph {graph!r}")
    return {
        "graph": graph,
        "colors": colors,
        "value": value.to_json_obj(),
        "admissible": adm,
        "convention": convention,
    }
