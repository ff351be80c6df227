"""Colored invariants of the theta and tetrahedron graphs.

The expected values here come from two independent routes: hand-frozen
small cases, and a naive straight-from-the-formula summation oracle
implemented locally in this file (plain factorial polynomials, each value
a numerator and a denominator LaurentPoly, compared with the package's value
by cross-multiplication; it shares only the multiply with the package
implementation, none of its factored-ratio or cyclotomic machinery).
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qgraph import invariants
from qgraph.asymptotics import log_abs_tet, log_abs_theta
from qgraph.laurent import LaurentPoly, LaurentRat, bracket_ratio_sum, q_factorial, q_int
from qgraph.invariants import (
    enumerate_tet_colorings,
    enumerate_theta_colorings,
    invariant_record,
    is_admissible,
    tet_full,
    tet_hypergeom,
    tet_is_admissible,
    tet_prefactor,
    tet_primed,
    tet_sum_bounds,
    tet_symmetry_orbit,
    theta_invariant,
    theta_recursion_factor,
    theta_reduction_check,
)


# -- naive oracle (no shared code with the optimized bracket/cyclotomic path) --


@lru_cache(maxsize=None)
def _fact(n: int) -> LaurentPoly:
    p = LaurentPoly.one()
    for k in range(2, n + 1):
        p = p * LaurentPoly({k - 1 - 2 * i: 1 for i in range(k)})
    return p


def is_ratio(value, num, den) -> bool:
    """value == num / den, cross-multiplied over LaurentPoly."""
    return value.num * den == num * value.den


_ZERO = (LaurentPoly.zero(), LaurentPoly.one())


def naive_theta(a, b, c):
    """(num, den) of the theta value."""
    if not is_admissible(a, b, c):
        return _ZERO
    s = (a + b + c) // 2
    num = _fact(s + 1) * _fact(s - a) * _fact(s - b) * _fact(s - c)
    if s % 2:
        num = -num
    return num, _fact(a) * _fact(b) * _fact(c)


def naive_tet_primed(col):
    """(num, den) of the tet sum, its summands added over the product of their denominators."""
    if not tet_is_admissible(col):
        return _ZERO
    j1, j2, j12, j3, j4, j23 = col
    lowers = [(j1 + j2 + j12) // 2, (j3 + j4 + j12) // 2, (j1 + j4 + j23) // 2, (j2 + j3 + j23) // 2]
    uppers = [(j1 + j2 + j3 + j4) // 2, (j1 + j3 + j12 + j23) // 2, (j2 + j4 + j12 + j23) // 2]
    total, total_den = _ZERO
    for m in range(max(lowers), min(uppers) + 1):
        num = _fact(m + 1)
        if m % 2:
            num = -num
        den = LaurentPoly.one()
        for t in lowers:
            den = den * _fact(m - t)
        for u in uppers:
            den = den * _fact(u - m)
        total, total_den = total * den + num * total_den, total_den * den
    return total, total_den


def naive_tet_full(col):
    """(num, den) of the tet value."""
    if not tet_is_admissible(col):
        return _ZERO
    j1, j2, j12, j3, j4, j23 = col

    def delta(a, b, c):
        return _fact((-a + b + c) // 2) * _fact((a - b + c) // 2) * _fact((a + b - c) // 2)

    num = delta(j1, j2, j12) * delta(j3, j4, j12) * delta(j1, j4, j23) * delta(j2, j3, j23)
    den = LaurentPoly.one()
    for j in col:
        den = den * _fact(j)
    primed_num, primed_den = naive_tet_primed(col)
    return num * primed_num, den * primed_den


# -- admissibility -----------------------------------------------------------


def test_admissibility():
    assert is_admissible(1, 1, 0)
    assert not is_admissible(1, 1, 1)  # parity
    assert not is_admissible(1, 2, 5)  # triangle
    assert not is_admissible(-2, 2, 0)
    assert is_admissible(0, 0, 0)
    assert tet_is_admissible((1, 1, 2, 1, 1, 2))
    assert not tet_is_admissible((1, 2, 5, 1, 1, 2))


def _filtered_theta_colorings(max_entry):
    # oracle: every triple of the box, kept when admissible
    rng = range(max_entry + 1)
    return [(a, b, c) for a in rng for b in rng for c in rng if is_admissible(a, b, c)]


def _filtered_tet_colorings(max_entry):
    # oracle: the box walked entry by entry, each triangle tested once it is complete
    out = []
    rng = range(max_entry + 1)
    for j1, j2, j12 in itertools.product(rng, repeat=3):
        if not is_admissible(j1, j2, j12):
            continue
        for j3, j4 in itertools.product(rng, repeat=2):
            if not is_admissible(j3, j4, j12):
                continue
            for j23 in rng:
                if is_admissible(j1, j4, j23) and is_admissible(j2, j3, j23):
                    out.append((j1, j2, j12, j3, j4, j23))
    return out


@pytest.mark.parametrize("max_entry", range(9))
def test_enumerations_match_filtered_loops(max_entry):
    # the same colorings in the same order
    assert enumerate_theta_colorings(max_entry) == _filtered_theta_colorings(max_entry)
    assert enumerate_tet_colorings(max_entry) == _filtered_tet_colorings(max_entry)


# -- theta invariant ------------------------------------------------------------


def test_theta_frozen_values():
    assert theta_invariant(0, 0, 0) == LaurentRat.one()
    assert theta_invariant(1, 1, 0) == LaurentRat.from_poly(-q_int(2))
    assert is_ratio(theta_invariant(2, 2, 2), -(q_int(4) * q_int(3)), q_int(2) * q_int(2))
    assert theta_invariant(2, 2, 2).eval_exact(Fraction(1)) == -3
    assert theta_invariant(1, 2, 5).is_zero()
    # witness that values are rational, not polynomial
    assert not theta_invariant(2, 2, 2).is_laurent_poly()


def test_theta_matches_naive_oracle():
    for col in enumerate_theta_colorings(10):
        assert is_ratio(theta_invariant(*col), *naive_theta(*col)), col


def test_theta_totally_symmetric():
    for a, b, c in enumerate_theta_colorings(20):
        v = theta_invariant(a, b, c)
        for p in itertools.permutations((a, b, c)):
            assert theta_invariant(*p) == v, (a, b, c, p)


def test_theta_zero_edge_is_loop_value():
    # c = 0 forces a = b and the value collapses to a signed quantum integer
    for a in range(21):
        v = theta_invariant(a, a, 0)
        expect = q_int(a + 1) if a % 2 == 0 else -q_int(a + 1)
        assert v == LaurentRat.from_poly(expect), a
        assert theta_invariant(a, a + 2, 0).is_zero()


def test_theta_palindromic():
    for col in enumerate_theta_colorings(12):
        v = theta_invariant(*col)
        w = v.v_inverted()
        assert w == v or w == -v, col


# -- theta recursion ---------------------------------------------------------------


def test_recursion_factor_examples():
    assert is_ratio(theta_recursion_factor(1, 1, 2), -q_int(4), q_int(3))
    assert is_ratio(theta_recursion_factor(2, 2, 2), -(q_int(5) * q_int(2) * q_int(2)), q_int(3) * q_int(4))


def test_recursion_factor_boundary_rejected():
    # shifted coloring (3,1,0) is inadmissible: the factor has a vanishing bracket below
    with pytest.raises(ValueError):
        theta_recursion_factor(1, 1, 0)
    with pytest.raises(ValueError):
        theta_recursion_factor(1, 2, 5)


def test_recursion_contract_on_grid():
    for a, b, c in enumerate_theta_colorings(20):
        if not is_admissible(a + 2, b, c):
            continue
        lhs = theta_recursion_factor(a, b, c) * theta_invariant(a, b, c)
        assert lhs == theta_invariant(a + 2, b, c), (a, b, c)


# -- tetrahedron sum bounds ----------------------------------------------------------


def test_sum_bounds_known():
    assert tet_sum_bounds((2, 2, 2, 2, 2, 2)) == (3, 4)
    assert tet_sum_bounds((1, 1, 2, 1, 1, 2)) == (2, 2)
    assert tet_sum_bounds((0, 0, 0, 0, 0, 0)) == (0, 0)
    lo, hi = tet_sum_bounds((2, 2, 2, 2, 2, 2))
    assert lo <= hi


def test_colorings_and_bounds_are_plain_tuples():
    # one representation: no named tuple type anywhere a coloring or range is handed out
    assert type(enumerate_theta_colorings(2)[0]) is tuple
    assert type(enumerate_tet_colorings(2)[0]) is tuple
    orbit = tet_symmetry_orbit((1, 2, 3, 4, 5, 6))
    assert len(orbit) == 5 and all(type(img) is tuple for img in orbit)
    bounds = tet_sum_bounds((2, 2, 2, 2, 2, 2))
    assert type(bounds) is tuple and bounds == (3, 4)


# -- tetrahedron invariant -------------------------------------------------------------


def test_tet_primed_frozen_values():
    assert tet_primed((0, 0, 0, 0, 0, 0)) == LaurentRat.one()
    assert tet_primed((1, 1, 2, 1, 1, 2)) == LaurentRat.from_poly(q_factorial(3))
    assert tet_primed((2, 2, 2, 2, 2, 2)) == LaurentRat.from_poly(q_factorial(5) - q_factorial(4))
    assert tet_primed((1, 2, 5, 1, 1, 2)).is_zero()


def test_tet_full_golden():
    # golden value frozen from the naive summation oracle
    assert is_ratio(tet_full((2, 2, 2, 2, 2, 2)), q_factorial(5) - q_factorial(4), q_int(2) ** 6)
    assert tet_full((2, 2, 2, 2, 2, 2)).eval_exact(Fraction(1)) == Fraction(3, 2)
    assert tet_full((0, 0, 0, 0, 0, 0)) == LaurentRat.one()
    assert tet_full((1, 2, 5, 1, 1, 2)).is_zero()


def test_tet_matches_naive_oracle_exhaustive():
    for col in enumerate_tet_colorings(4):
        assert is_ratio(tet_primed(col), *naive_tet_primed(col)), col
        assert is_ratio(tet_full(col), *naive_tet_full(col)), col


def test_tet_matches_naive_oracle_sampled():
    rng = random.Random(777)
    cols = enumerate_tet_colorings(8)
    for col in rng.sample(cols, 60):
        assert is_ratio(tet_primed(col), *naive_tet_primed(col)), col


def test_tet_prefactor_times_primed_is_full():
    rng = random.Random(12321)
    cols = enumerate_tet_colorings(6)
    for col in rng.sample(cols, 80):
        assert tet_prefactor(col) * tet_primed(col) == tet_full(col), col


def test_tet_palindromic():
    rng = random.Random(31415)
    cols = enumerate_tet_colorings(6)
    for col in rng.sample(cols, 120):
        v = tet_full(col)
        if v.is_zero():
            continue
        w = v.v_inverted()
        assert w == v or w == -v, col


# -- symmetry orbit ----------------------------------------------------------------------


def test_symmetry_orbit_images():
    col = (1, 2, 3, 4, 5, 6)
    orbit = tet_symmetry_orbit(col)
    assert orbit[0] == col
    assert orbit[1] == (2, 1, 3, 5, 4, 6)
    assert orbit[2] == (3, 2, 1, 6, 5, 4)
    assert orbit[3] == (4, 2, 6, 1, 5, 3)
    assert orbit[4] == (4, 5, 3, 1, 2, 6)
    # all-equal coloring is a fixed point of every image
    allsame = (2, 2, 2, 2, 2, 2)
    assert all(img == allsame for img in tet_symmetry_orbit(allsame))
    # explicit pattern for a zero-edge coloring
    assert tet_symmetry_orbit((0, 2, 2, 2, 0, 2))[3] == (2, 2, 2, 0, 0, 2)


def test_symmetry_invariance_grid():
    for col in enumerate_tet_colorings(6):
        v = tet_full(col)
        p = tet_primed(col)
        for img in tet_symmetry_orbit(col):
            assert tet_full(img) == v, (col, img)
            assert tet_primed(img) == p, (col, img)


# -- hypergeometric cross-form -------------------------------------------------------------


def test_hypergeom_trivial_and_single():
    assert tet_hypergeom((0, 0, 0, 0, 0, 0)) == LaurentRat.one()
    assert tet_hypergeom((1, 1, 2, 1, 1, 2)) == tet_primed((1, 1, 2, 1, 1, 2))


def test_hypergeom_exhaustive_small():
    for col in enumerate_tet_colorings(4):
        assert tet_hypergeom(col) == tet_primed(col), col


def test_hypergeom_sampled_large():
    rng = random.Random(271828)
    cols = enumerate_tet_colorings(8)
    for col in rng.sample(cols, 200):
        assert tet_hypergeom(col) == tet_primed(col), col


# -- summand-convention reconciliation -------------------------------------------------------


def printed_primed(col) -> LaurentRat:
    # negative control: the printed formula, whose lower factorial arguments
    # subtract pairwise color differences instead of triangle half-sums
    j1, j2, j12, j3, j4, j23 = col
    lowers = [(j1 - j2 - j12) // 2, (j3 - j4 - j12) // 2, (j1 - j4 - j23) // 2, (j2 - j3 - j23) // 2]
    uppers = invariants._quad_halves(col)
    return bracket_ratio_sum(invariants._tet_summands(lowers, uppers, max(lowers + [0]), min(uppers)))


def test_printed_convention_differs():
    # the alternate convention produces different values...
    col = (2, 2, 2, 2, 2, 2)
    assert printed_primed(col) != tet_primed(col)


def test_printed_convention_fails_crosschecks():
    # ...and breaks the symmetry / reduction / hypergeometric identities
    # that the adopted convention satisfies, on at least one grid point.
    sym_breaks = 0
    hyp_breaks = 0
    for col in enumerate_tet_colorings(3):
        v = printed_primed(col)
        if any(printed_primed(img) != v for img in tet_symmetry_orbit(col)):
            sym_breaks += 1
        if tet_hypergeom(col) != v:
            hyp_breaks += 1
    assert sym_breaks > 0
    assert hyp_breaks > 0


# -- reduction to theta ------------------------------------------------------------------------


def test_theta_reduction_unit_is_one():
    for a, b, c in enumerate_theta_colorings(10):
        ok, unit = theta_reduction_check(a, b, c)
        assert ok, (a, b, c)
        if unit is not None:
            assert unit == LaurentRat.one(), (a, b, c, str(unit))


def test_theta_reduction_explicit():
    # zero-edge tetrahedron evaluates to exactly the theta value
    assert tet_full((1, 1, 0, 1, 1, 0)) == theta_invariant(1, 1, 0)
    assert tet_full((2, 2, 2, 2, 2, 0)) == theta_invariant(2, 2, 2)


# -- record format ---------------------------------------------------------------------------


def _json_ratio(obj):
    """(num, den) of a value's JSON record."""
    return LaurentPoly.from_json_obj(obj["num"]), LaurentPoly.from_json_obj(obj["den"])


def test_invariant_record_theta():
    rec = invariant_record("theta", (1, 1, 0))
    assert rec["graph"] == "theta"
    assert rec["colors"] == [1, 1, 0]
    assert rec["admissible"] is True
    assert rec["convention"] == "triangle-sum"
    assert is_ratio(theta_invariant(1, 1, 0), *_json_ratio(rec["value"]))


def test_invariant_record_tet():
    rec = invariant_record("tet", (2, 2, 2, 2, 2, 2))
    assert rec["graph"] == "tet"
    assert rec["admissible"] is True
    assert is_ratio(tet_full((2, 2, 2, 2, 2, 2)), *_json_ratio(rec["value"]))
    rec2 = invariant_record("tet", (1, 2, 5, 1, 1, 2))
    assert rec2["admissible"] is False
    assert _json_ratio(rec2["value"]) == _ZERO


def test_invariant_record_rejects():
    with pytest.raises(ValueError):
        invariant_record("theta", (1, 1))
    with pytest.raises(ValueError):
        invariant_record("cube", (1, 1, 0))


# each entry point that takes colors, with its first color c and the rest 2
COLOR_ENTRIES = {
    "theta_invariant": lambda c: theta_invariant(c, 2, 2),
    "theta_recursion_factor": lambda c: theta_recursion_factor(c, 2, 2),
    "theta_reduction_check": lambda c: theta_reduction_check(c, 2, 2),
    "tet_primed": lambda c: tet_primed((c, 2, 2, 2, 2, 2)),
    "tet_full": lambda c: tet_full((c, 2, 2, 2, 2, 2)),
    "tet_hypergeom": lambda c: tet_hypergeom((c, 2, 2, 2, 2, 2)),
    "invariant_record_theta": lambda c: invariant_record("theta", (c, 2, 2)),
    "invariant_record_tet": lambda c: invariant_record("tet", (c, 2, 2, 2, 2, 2), primed=True),
    "log_abs_theta": lambda c: log_abs_theta((c, 2, 2), -0.1),
    "log_abs_tet": lambda c: log_abs_tet((c, 2, 2, 2, 2, 2), -0.1),
}


@pytest.mark.parametrize("name", sorted(COLOR_ENTRIES))
def test_colors_enter_as_integers(name):
    """A color that is not an int raises TypeError, even one equal to an int color already cached."""
    entry = COLOR_ENTRIES[name]
    entry(2)
    for c in (2.5, Fraction(5, 2), 2.0, Fraction(4, 2)):
        with pytest.raises(TypeError):
            entry(c)
