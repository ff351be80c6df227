"""Exact Laurent arithmetic: ring/field axioms, quantum integers, factored ratios."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgraph.laurent import (
    LaurentPoly,
    LaurentRat,
    PoleError,
    cyclotomic,
    exact_div_poly,
    poly_gcd,
    q_factorial,
    q_int,
    rat_dot,
    rat_dot_vanishes,
)
from qgraph.laurent import (  # the integer kernel
    _KRONECKER_MIN_TERMS,
    _bracket_cyclo_divisors,
    _cancel_phi,
    _cyclo_int,
    _eval_ratio,
    _factorial_exponents,
    _factorial_exponents_sorted,
    _homogeneous,
    _idiv_exact,
    _imul,
    _imul_kron,
    _imul_school,
    _mobius_quotient,
    _mobius_steps,
    _phi_power_int,
    _phi_product,
    _strip_phi,
)
from qgraph.kronecker import _dense
from qgraph.multipoly import MultiPoly


def rand_poly(rng, max_terms=6, max_exp=8, allow_zero=True):
    n = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    terms = {}
    for _ in range(n):
        e = rng.randrange(-max_exp, max_exp + 1)
        c = rng.randrange(-9, 10)
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def rand_nonzero(rng, **kw):
    while True:
        p = rand_poly(rng, allow_zero=False, **kw)
        if not p.is_zero():
            return p


def rand_rat(rng, **kw):
    """A random poly over 0-3 random brackets [k], k <= 6: a poly times a pure product, as the package builds."""
    downs = [rng.randrange(1, 7) for _ in range(rng.randrange(0, 4))]
    return LaurentRat.from_poly(rand_poly(rng, **kw)) * LaurentRat.brackets(rng.choice((1, -1)), (), downs)


def expanded(value):
    """The same value as a form with a poly: its numerator over its denominator's Phi_d."""
    over_den = LaurentRat._product(1, 0, {d: m for d, m in value._form[2].items() if m < 0})
    return LaurentRat.from_poly(value.num) * over_den


def check_value(got, num, den):
    """got is num/den: equal cross-multiplied in the ring, coprime by poly_gcd, den normalized."""
    assert got.num * den == num * got.den
    assert poly_gcd(got.num, got.den).is_one()
    assert got.den.min_exp() == 0 and got.den.terms[0] == 1


def assert_canonical(p):
    """Every coefficient is stored as an int."""
    for c in p.terms.values():
        assert type(c) is int, repr(c)


# -- quantum integers ------------------------------------------------------


def test_q_int_small_values():
    assert q_int(0).is_zero()
    assert q_int(1).is_one()
    assert q_int(2).terms == {1: Fraction(1), -1: Fraction(1)}
    assert q_int(3).terms == {2: Fraction(1), 0: Fraction(1), -2: Fraction(1)}


def test_q_factorial_three():
    # [3]! = [3][2] = v^3 + 2v + 2v^-1 + v^-3
    got = q_factorial(3)
    assert got.terms == {3: Fraction(1), 1: Fraction(2), -1: Fraction(2), -3: Fraction(1)}


def test_q_int_at_i():
    # [3] at v = i evaluates to i^2 + 1 + i^-2 = -1
    assert q_int(3).eval_complex(1j) == pytest.approx(-1)


def test_q_int_palindromic():
    for n in range(201):
        p = q_int(n)
        assert p == p.v_inverted()


def test_q_int_classical_value():
    for n in range(201):
        assert q_int(n).eval_exact(Fraction(1)) == n


def test_q_factorial_classical_value():
    import math

    for n in range(0, 40):
        assert q_factorial(n).eval_exact(Fraction(1)) == math.factorial(n)


def test_q_int_negative_rejected():
    with pytest.raises(ValueError):
        q_int(-1)
    with pytest.raises(ValueError):
        q_factorial(-2)


def test_factorial_ratio_is_bracket():
    for n in range(1, 30):
        r = LaurentRat.factorials(1, (n,), (n - 1,))
        check_value(r, q_factorial(n), q_factorial(n - 1))
        assert r == LaurentRat.from_poly(q_int(n))


# -- ring axioms -------------------------------------------------------------


def test_poly_ring_axioms_bulk():
    rng = random.Random(20240811)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    # an int base to a negative power would be a float; the value stays exact
    assert LaurentPoly({-2: 1}).eval_exact(2) == Fraction(1, 4)
    # a lowest coefficient of 2 divides over Z, or not at all
    quot = exact_div_poly(LaurentPoly({0: 2, 1: 2}), LaurentPoly({-1: 2, 0: 2}))
    assert quot.terms == {1: 1} and type(quot.terms[1]) is int
    with pytest.raises(ValueError):
        exact_div_poly(LaurentPoly({0: 1, 1: 1}), LaurentPoly({-1: 2, 0: 2}))
    for _ in range(1000):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
        twice = LaurentPoly(list(a.terms.items()) * 2)  # the constructor merges repeats
        assert twice == a * 2
        for p in (a, a + b, a - b, a * b, a * (b + c), -a, a * 3, twice):
            assert_canonical(p)
        if b:
            # lowest coefficients other than 1 take the dividing branch
            quot = exact_div_poly(a * b, b)
            assert quot == a
            assert_canonical(quot)
        for v0 in (2, -1):
            value = a.eval_exact(v0)
            assert type(value) is Fraction and value == a.eval_exact(Fraction(v0))


def test_coefficients_enter_as_integers():
    """Every entry point of outside input stores an int and raises TypeError on a Fraction, even 4/2."""
    p = LaurentPoly({0: 1, 1: 1})
    r = LaurentRat.from_poly(p)
    u = LaurentRat.brackets(1, (3,))  # a divisor: a pure product
    polys = (
        lambda c: LaurentPoly({1: c}),
        lambda c: LaurentPoly([(1, c), (2, 1)]),
        lambda c: LaurentPoly.from_int_coeffs([0, c]),
        lambda c: p + c,
        lambda c: c + p,
        lambda c: p - c,
        lambda c: c - p,
        lambda c: p * c,
        lambda c: c * p,
    )
    rats = (
        lambda c: LaurentRat(c),
        lambda c: r + c,
        lambda c: c + r,
        lambda c: r - c,
        lambda c: c - r,
        lambda c: r * c,
        lambda c: c * r,
        lambda c: c / u,
    )
    for make in polys + rats:
        for c in (Fraction(3, 2), Fraction(4, 2)):
            with pytest.raises(TypeError):
                make(c)
        got = make(True)  # operator.index stores an int subclass as its int
        got = got.num if isinstance(got, LaurentRat) else got
        assert got and all(type(c) is int for c in got.terms.values())
    for c in (Fraction(3, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            r / c
    # JSON coefficients are int strings
    for c in ("3/2", "4/2"):
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"terms": [[1, c]]})
    got = LaurentPoly.from_json_obj({"terms": [[1, "2"]]})
    assert got.terms == {1: 2} and type(got.terms[1]) is int
    # a Fraction compares unequal, even one equal to the int
    assert LaurentPoly({0: 2}) == 2 and LaurentRat(2) == 2
    assert LaurentPoly({0: 2}) != Fraction(4, 2) and LaurentRat(2) != Fraction(4, 2)
    assert p != Fraction(3, 2) and not (r == Fraction(3, 2))
    # evaluation points are exact: an int or a Fraction, never a float
    assert p.eval_exact(Fraction(1, 2)) == Fraction(3, 2) and r.eval_exact(1) == 2
    with pytest.raises(TypeError):
        p.eval_exact(0.5)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize(
    "make",
    [lambda n: LaurentPoly({0: n}), LaurentRat, MultiPoly.const],
    ids=["LaurentPoly", "LaurentRat", "MultiPoly"],
)
def test_constant_hashes_as_its_int(make, n):
    # a constant equals its int, so a set or a dict key must not tell them apart
    value = make(n)
    assert value == n and hash(value) == hash(n)
    assert len({value, n}) == 1


def test_poly_pow_matches_repeated_mul():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, max_terms=4, max_exp=4)
        acc = LaurentPoly.one()
        for k in range(5):
            assert a ** k == acc
            acc = acc * a


def test_poly_eval_is_ring_hom():
    rng = random.Random(99)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        v0 = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        assert (a + b).eval_exact(v0) == a.eval_exact(v0) + b.eval_exact(v0)
        assert (a * b).eval_exact(v0) == a.eval_exact(v0) * b.eval_exact(v0)


# -- fraction field -----------------------------------------------------------


def _computed_values() -> list:
    """Nonzero values the package computes, the two thetas first, then the same values expanded."""
    from qgraph.apoly import (
        OperatorPoly,
        _theta_quantum_raw,
        apply_operator,
        tet_quantum_A,
        tet_recursion_coeffs,
        theta_quantum_A,
    )
    from qgraph.invariants import tet_full, tet_primed, theta_invariant
    from qgraph.multipoly import MultiPoly

    col = (2, 2, 2, 2, 2, 2)  # j1 - 2 and j1 + 2 are admissible too
    theta_lead = OperatorPoly("theta", "a", theta_quantum_A("a").coeffs[:1])
    tet_lead = OperatorPoly("tet", "1", tet_quantum_A("1").coeffs[:1])
    # the edge-b operator without its normal-ordering rescale, which annihilates nothing
    swap = {"x_a": MultiPoly.var("x_b"), "x_b": MultiPoly.var("x_a")}
    miscommuted_b = OperatorPoly("theta", "b", tuple(b.substitute(swap) for b in _theta_quantum_raw()))
    values = [
        theta_invariant(2, 3, 3),
        theta_invariant(4, 4, 2),
        tet_primed(col),
        tet_full(col),
        tet_full((3, 3, 2, 3, 3, 2)),
        *tet_recursion_coeffs(col),
        apply_operator(theta_lead, (4, 4, 2)),
        apply_operator(tet_lead, col),
        apply_operator(miscommuted_b, (4, 4, 4)),
    ]
    return values + [expanded(v) for v in values]


def test_rat_field_axioms_bulk():
    rng = random.Random(31337)
    one = LaurentRat.one()
    zero = LaurentRat.zero()
    computed = _computed_values()
    thetas = computed[:2]  # pure products, so divisors
    for v in computed:
        assert not v.is_zero()
        assert_canonical(v.num)
        assert_canonical(v.den)
    for trial in range(1000):
        a = rand_rat(rng, max_terms=3, max_exp=4)
        b = rand_rat(rng, max_terms=3, max_exp=4)
        u = _rand_bracket_ratio(rng)  # a divisor must be a pure product
        # every tenth trial adds a draw of two computed values
        for computed_draw in (False, True) if trial % 10 == 0 else (False,):
            if computed_draw:
                a, b = computed[trial // 10 % len(computed)], computed[trial // 100]
                u = thetas[trial // 10 % 2]
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == zero
            assert a * one == a
            assert u / u == one
            assert (a * u) / u == a
            assert u * (one / u) == one
            assert (a / u) * u == a
            assert (a + b) - b == a
            for r in (a, a + b, a * b, a - b, b / u):
                assert_canonical(r.num)
                assert_canonical(r.den)


def test_rat_denominator_normalization():
    rng = random.Random(5150)
    for _ in range(300):
        r = rand_rat(rng)
        if r.is_zero():
            assert r.den.is_one()
            continue
        lo = r.den.min_exp()
        assert lo == 0
        assert r.den.terms[0] == 1


@pytest.mark.parametrize(
    "den",
    [{0: 1, 1: 2}, {0: 1, 1: 1, 3: 1}, {1: 1, 0: -1}],
    ids=["1+2v", "1+v+v^3", "v-1"],
)
def test_rat_rejects_other_denominators(den):
    # dividing by a value makes its numerator a denominator, which only a pure product has
    with pytest.raises(ValueError):
        LaurentRat.one() / LaurentRat.from_poly(LaurentPoly(den))


def test_division_takes_only_pure_products():
    x = LaurentRat.from_poly(LaurentPoly({-1: 3, 0: 1, 4: -5})) * LaurentRat.brackets(-1, (5, 3), (2,))
    y = LaurentRat.brackets(1, (3,), (4, 4)) * LaurentRat.factorials(-1, (6,), (2,))
    # a divisor with a polynomial part raises, also one whose expansion is a
    # product of Phi_d, a unit, or an int
    for divisor in (q_int(3), cyclotomic(3) ** 2, LaurentPoly({2: 1}), 2, 1, expanded(y)):
        with pytest.raises(ValueError):
            x / divisor
        with pytest.raises(ValueError):
            y / LaurentRat(divisor)
    for zero in (0, LaurentRat.zero()):
        with pytest.raises(ZeroDivisionError):
            x / zero
    # a pure product divides a value with a poly and a pure product, exponents subtracted
    for value in (x, y, LaurentRat.one()):
        got = value / y
        assert got.num * y.num * value.den == value.num * got.den * y.den
        assert got * y == value
    assert (y / y).is_laurent_poly() and y / y == 1
    # theta_reduction_check divides a tet value by a theta value
    from qgraph.invariants import theta_reduction_check

    for col in ((1, 1, 0), (2, 2, 2), (4, 6, 8)):
        ok, unit = theta_reduction_check(*col)
        assert ok and unit == 1, col


def test_pole_error():
    # [2] vanishes at v = i
    r = LaurentRat.brackets(1, (), (2,))
    with pytest.raises(PoleError):
        r.eval_complex(1j)
    with pytest.raises(PoleError):
        LaurentPoly({-1: 1}).eval_exact(Fraction(0))


@pytest.mark.parametrize("span", [53, 200])
def test_eval_at_zero_pole_or_constant_term(span):
    # [2] = v^-1 + v, 1/(v^2 + v^4) and 1/(v^span + v^(span+2)) have poles at 0
    with pytest.raises(PoleError):
        LaurentRat.from_poly(q_int(2)).eval_complex(0)
    over_2 = LaurentRat.brackets(1, (), (2,))  # 1 / [2] = v / (1 + v^2)
    with pytest.raises(PoleError):
        (LaurentRat.from_poly(LaurentPoly({-3: 1})) * over_2).eval_complex(0j)
    with pytest.raises(PoleError):
        (LaurentRat.from_poly(LaurentPoly({-span - 1: 1})) * over_2).eval_complex(0)
    # without a pole the value at 0 is the constant term over the denominator's 1,
    # also when the numerator spans more terms than Horner's rule takes; v^2 [3] = 1 + v^2 + v^4
    r = LaurentRat.from_poly(LaurentPoly({-2: 3, 0: 1, span - 2: 5})) * LaurentRat.brackets(1, (), (3,))
    assert r.eval_complex(0) == 3
    assert r.eval_exact(Fraction(0)) == 3


def test_rat_eval_matches_exact():
    rng = random.Random(8080)
    for _ in range(200):
        r = rand_rat(rng)
        v0 = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        try:
            ex = r.eval_exact(v0)
        except PoleError:
            continue
        assert r.eval_complex(complex(float(v0))) == pytest.approx(complex(ex), rel=1e-9, abs=1e-9)


class GaussQ:
    """An exact Gaussian rational re + i im, just enough for the naive sum below."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return GaussQ(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        if not isinstance(o, GaussQ):
            return GaussQ(self.re * o, self.im * o)
        return GaussQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im  # a zero divisor raises ZeroDivisionError here
        return self * GaussQ(o.re / n, -o.im / n)

    def __pow__(self, e):
        base = self if e >= 0 else GaussQ(1) / self
        out = GaussQ(1)
        for _ in range(abs(e)):
            out = out * base
        return out


def naive_value(terms, v0):
    """sum c * v0^e over terms, one exact power per term: the kernel's oracle."""
    return sum((c * v0**e for e, c in terms.items()), GaussQ(0))


def test_eval_complex_is_the_correctly_rounded_exact_value():
    # at dyadic points, real and not, eval_complex is the exact value rounded once per
    # part, and it raises PoleError exactly where the exact quotient has no value
    rng = random.Random(20261019)
    poles = 0
    for i in range(300):
        r = rand_rat(rng, max_exp=12)
        re = Fraction(rng.randrange(-40, 41), 2 ** rng.randrange(0, 6))
        im = 0 if i % 3 == 0 else Fraction(rng.randrange(-40, 41), 2 ** rng.randrange(0, 6))
        if i % 10 == 0:  # 0 and the roots of unity among these points
            re, im = rng.choice(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
        v0 = complex(re, im)
        try:
            want = naive_value(r.num.terms, GaussQ(re, im)) / naive_value(r.den.terms, GaussQ(re, im))
        except ZeroDivisionError:
            poles += 1
            with pytest.raises(PoleError):
                r.eval_complex(v0)
            continue
        assert r.eval_complex(v0) == complex(float(want.re), float(want.im))
    assert poles
    # theta(1, 1, 0) at 0.9 + 0.1j, where summing in doubles missed by an ulp
    r = LaurentRat.from_poly(-q_int(2))
    want = naive_value(r.num.terms, GaussQ(Fraction(0.9), Fraction(0.1)))
    assert r.eval_complex(0.9 + 0.1j) == complex(float(want.re), float(want.im))


def test_eval_exact_matches_naive_sum_at_odd_denominators():
    rng = random.Random(4242)
    for _ in range(200):
        r = rand_rat(rng, max_exp=12)
        v0 = Fraction(rng.randrange(-40, 41), rng.randrange(1, 40, 2) * rng.choice((1, 3, 7)))
        try:
            want = naive_value(r.num.terms, GaussQ(v0)) / naive_value(r.den.terms, GaussQ(v0))
        except ZeroDivisionError:
            with pytest.raises(PoleError):
                r.eval_exact(v0)
            continue
        assert r.eval_exact(v0) == want.re and want.im == 0


def test_single_parity_values_evaluate_in_v_squared():
    # when every exponent of num and den has lo's parity, _eval_ratio keeps every other slot and
    # walks it at g^2 over s^2; the walk over every slot at g over s gives the same Gaussian integers
    rng = random.Random(20261020)
    for i in range(300):
        dense = [rng.randrange(-(2**60), 2**60) if rng.random() < 0.7 else 0 for _ in range(rng.randrange(1, 80))]
        spread = [0] * (2 * len(dense) - 1)
        spread[::2] = dense
        x, y = rng.randrange(-(2**53), 2**53), 0 if i % 3 == 0 else rng.randrange(-(2**53), 2**53)
        s = 1 << rng.randrange(0, 60) if i % 2 else rng.randrange(1, 99, 2)
        assert _homogeneous(dense, x * x - y * y, 2 * x * y, s * s) == _homogeneous(spread, x, y, s)
    poles = 0
    for i in range(300):
        parity = i % 2

        def single_parity(size):
            terms = {2 * rng.randrange(-8, 9) + parity: rng.randrange(-9, 10) for _ in range(size)}
            return {e: c for e, c in terms.items() if c} or {parity: 1}

        num, den = single_parity(rng.randrange(1, 12)), single_parity(rng.randrange(1, 4))
        x, y, s = rng.randrange(-40, 41), 0 if i % 3 == 0 else rng.randrange(-40, 41), rng.choice((1, 2, 8, 3, 7))
        if i % 10 < 2:  # v^parity (1 + v^2) at 0, i or -i
            den = {parity: 1, parity + 2: 1}
            x, y, s = 0, rng.choice((0, 1, -1)), 1
        point = GaussQ(Fraction(x, s), Fraction(y, s))
        try:
            want = naive_value(num, point) / naive_value(den, point)
        except ZeroDivisionError:
            poles += 1
            with pytest.raises(PoleError):
                _eval_ratio(num, den, x, y, s)
            continue
        re, im, d = _eval_ratio(num, den, x, y, s)
        assert (Fraction(re, d), Fraction(im, d)) == (want.re, want.im)
    assert poles


# -- gcd / division ------------------------------------------------------------


def test_exact_div_roundtrip():
    rng = random.Random(2718)
    for _ in range(300):
        a = rand_nonzero(rng, max_terms=4, max_exp=4)
        b = rand_nonzero(rng, max_terms=4, max_exp=4)
        p = a * b
        q = exact_div_poly(p, b)
        assert q * b == p


def test_exact_div_rejects_nondivisible():
    # v^2 + 1 does not divide v + 1
    with pytest.raises(ValueError):
        exact_div_poly(LaurentPoly({1: 1, 0: 1}), LaurentPoly({2: 1, 0: 1}))


def test_poly_gcd_contains_common_factor():
    rng = random.Random(161803)
    for _ in range(150):
        g = rand_nonzero(rng, max_terms=3, max_exp=3)
        # primitive, as poly_gcd's result is, so g divides it over Z (Gauss's lemma)
        g = exact_div_poly(g, LaurentPoly({0: math.gcd(*g.terms.values())}))
        a = rand_nonzero(rng, max_terms=3, max_exp=3) * g
        b = rand_nonzero(rng, max_terms=3, max_exp=3) * g
        d = poly_gcd(a, b)
        # d must be divisible by g (up to unit); division must succeed
        quot = exact_div_poly(d, g)
        assert quot * g == d
        # and d must divide both inputs
        assert exact_div_poly(a, d) * d == a
        assert exact_div_poly(b, d) * d == b


def test_monomials_are_units():
    # monomial factors must not block reduction to a polynomial value
    p = q_int(3).shifted(5)
    r = LaurentRat.from_poly(p) / LaurentRat.brackets(1, (3,))
    assert r.is_laurent_poly() or r.den.is_monomial() is False
    assert r == LaurentRat.from_poly(LaurentPoly({5: 1}))


# -- cyclotomic factored ratios --------------------------------------------------


def test_cyclotomic_small():
    assert cyclotomic(1).terms == {1: 1, 0: -1}
    assert cyclotomic(2).terms == {1: 1, 0: 1}
    assert cyclotomic(4).terms == {2: 1, 0: 1}
    assert cyclotomic(6).terms == {2: 1, 1: -1, 0: 1}


def test_cyclotomic_product_is_v_pow_minus_one():
    for n in (1, 2, 6, 12, 30):
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == LaurentPoly({n: 1, 0: -1})
    for n in range(1, 401):
        prod = {0: 1}
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic(d)
                assert all(type(c) is int for c in phi.terms.values())
                prod = _imul(prod, phi.terms)
        assert prod == {n: 1, 0: -1}, n


def test_cyclotomic_105_is_first_with_coefficient_minus_two():
    for d in range(1, 105):
        assert set(_cyclo_int(d)) <= {-1, 0, 1}, d
    plus = (0, 1, 2, 12, 13, 14, 15, 16, 17, 31, 32, 33, 34, 35, 36, 46, 47, 48)
    minus = (5, 6, 8, 9, 20, 22, 24, 26, 28, 39, 40, 42, 43)
    want = {e: 1 for e in plus}
    want.update({e: -1 for e in minus})
    want.update({7: -2, 41: -2})
    assert cyclotomic(105).terms == want


def _cyclo_dict(d, step=1):
    """Phi_d(v^step) as an int dict."""
    return {step * e: c for e, c in enumerate(_cyclo_int(d)) if c}


def test_cyclo_int_v_squared_identities():
    # the two identities _phi_product folds into products over w = v^2
    for d in range(1, 200, 2):
        assert _imul_school(_cyclo_dict(d), _cyclo_dict(2 * d)) == _cyclo_dict(d, 2), d
    for k in range(1, 101):
        assert _cyclo_dict(4 * k) == _cyclo_dict(2 * k, 2), 4 * k


def _phi_product_oracle(mult):
    """prod Phi_d^m by the schoolbook loop, one Phi_d at a time, with no fold."""
    out = {0: 1}
    for d in sorted(mult):
        for _ in range(mult[d]):
            out = _imul_school(out, _cyclo_dict(d))
    return out


def test_phi_product_matches_unfolded_oracle():
    rng = random.Random(15)
    for trial in range(150):
        mult = {}
        for _ in range(rng.randrange(1, 7)):
            d = rng.randrange(1, 60)
            mult[d] = rng.randrange(0, 4)
            if rng.random() < 0.5:  # odd d with its 2d, at unequal powers
                mult[2 * d] = rng.randrange(0, 4)
            if rng.random() < 0.3:  # a 4 | d factor, folded twice when 16 | d
                mult[4 * d] = rng.randrange(1, 3)
        if trial % 5 == 0:
            mult[2] = rng.randrange(1, 4)
        assert _phi_product(mult) == _phi_product_oracle(mult), mult


def _check_phi_maps(monkeypatch, build):
    """Build a value and its num and den, checking every _phi_product call against the oracle."""
    import qgraph.laurent

    seen = []
    real = qgraph.laurent._phi_product

    def recorded(mult):
        out = real(mult)
        seen.append((dict(mult), dict(out)))
        return out

    monkeypatch.setattr(qgraph.laurent, "_phi_product", recorded)
    qgraph.laurent._phi_product_sorted.cache_clear()
    qgraph.laurent._phi_power_int.cache_clear()
    value = build()
    sign, shift, phi, poly = value._form
    num = _phi_product_oracle({d: m for d, m in phi.items() if m > 0})
    if poly is not None:
        num = _imul_school(num, poly)
    assert value.num.terms == {e + shift: sign * c for e, c in num.items()}
    assert value.den.terms == _phi_product_oracle({d: -m for d, m in phi.items() if m < 0})
    for mult, out in seen:
        assert out == _phi_product_oracle(mult), mult
    return value, seen


def test_large_color_values_match_unfolded_oracle(monkeypatch):
    from qgraph import invariants

    # __wrapped__ skips the invariant caches, so the value is built here
    theta, seen = _check_phi_maps(monkeypatch, lambda: invariants.theta_invariant.__wrapped__(56, 60, 64))
    assert len(theta.num.terms) > 1000 and len(seen) >= 2
    # the tet value is one poly: its large Phi_d products are the terms of the sum
    col = (24, 26, 22, 20, 28, 22)
    tet, seen = _check_phi_maps(monkeypatch, lambda: invariants._tet_primed_cached.__wrapped__(col))
    assert tet == invariants.tet_primed(col)
    assert max(len(out) for _, out in seen) > 500


def test_phi_product_result_is_not_shared():
    import qgraph.laurent

    qgraph.laurent._phi_product_sorted.cache_clear()
    # 3, 9 fold into w with 6, 18, and 12, 36 fold into w; the last map is all w
    maps = ({3: 2, 6: 1, 9: 1, 18: 2, 12: 1, 36: 3}, {3: 2, 5: 1, 6: 1, 9: 1, 18: 2, 12: 1, 36: 3}, {12: 1, 36: 3})
    for mult in maps:
        want = _phi_product_oracle(mult)
        first = _phi_product(mult)
        assert first == want
        for e in list(first):
            first[2 * e + 1] = first.pop(e)
        assert _phi_product(mult) == want, mult


# -- integer kernel: Kronecker multiply and dense exact division --------------------


def _edge_coeffs(bits: int) -> list[int]:
    # magnitudes at a power of two: the slot width steps up just past them
    return [2**bits - 1, -(2**bits - 1), 2**bits, -(2**bits)]


@st.composite
def int_polys(draw, max_terms=300):
    """Nonzero int dicts: 1-max_terms terms, |coeff| <= 2^200, negative exponents."""
    n = draw(st.integers(1, max_terms))
    lo = draw(st.integers(-40, 40))
    stride = draw(st.integers(1, 3))
    bits = draw(st.integers(0, 200))
    if draw(st.booleans()):
        coeff = st.sampled_from(_edge_coeffs(bits))
    else:
        coeff = st.integers(-(2**bits), 2**bits)
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    out = {lo + stride * k: c for k, c in enumerate(coeffs) if c}
    return out or {lo: 1}


# 64 + 64 + bitlen(255) + 1 = 137 bits, one past a whole byte: the middle
# product coefficient, 255 * (2^64 - 1)^2, needs the slot's last bit
_FULL = {k - 7: 2**64 - 1 for k in range(255)}
_ALT = {k: (-1) ** k * (2**31 - 1) for k in range(300)}  # a sign change in every slot


def _extremes(n: int, lo: int, stride: int, k: int, alternate: bool) -> dict[int, int]:
    """n terms from v^lo in steps of stride, all -2^k or -2^k and 2^k - 1 in turn."""
    return {lo + stride * i: 2**k - 1 if alternate and i % 2 else -(2**k) for i in range(n)}


def _slot_bits(a: dict, b: dict) -> int:
    """The slot size _imul_kron computes for a * b, in bits."""
    size = max(abs(c) for c in a.values()).bit_length() + max(abs(c) for c in b.values()).bit_length()
    return size + min(len(a), len(b)).bit_length() + 1


# (slot bits, a, b) where the slot handling switches: 32 bits fill four bytes
# and 33 need a fifth (both widened to 8-byte words to be read), 64 bits are
# the 8-byte word itself, and 65 bits are past it, so those slots are read one
# int.from_bytes each
_SLOT_EDGES = [
    (32, _extremes(12, -20, 3, 13, False), _extremes(40, -7, 2, 12, True)),
    (33, _extremes(12, -20, 3, 14, False), _extremes(40, -7, 2, 12, True)),
    (64, _extremes(12, -20, 3, 29, False), _extremes(40, -7, 2, 28, True)),
    (65, _extremes(12, -20, 3, 30, False), _extremes(40, -7, 2, 28, False)),
]


def test_slot_edge_examples_sit_on_the_switches():
    assert [_slot_bits(a, b) for _, a, b in _SLOT_EDGES] == [bits for bits, _, _ in _SLOT_EDGES]


@settings(max_examples=60, deadline=None)
@given(int_polys(), int_polys())
@example(_SLOT_EDGES[0][1], _SLOT_EDGES[0][2])
@example(_SLOT_EDGES[1][1], _SLOT_EDGES[1][2])
@example(_SLOT_EDGES[2][1], _SLOT_EDGES[2][2])
@example(_SLOT_EDGES[3][1], _SLOT_EDGES[3][2])
@example(_FULL, _FULL)
@example(_FULL, {e: -c for e, c in _FULL.items()})
@example(_ALT, _ALT)
@example({0: -1}, {k: -1 for k in range(300)})
@example({-3: 2**200, 5: -(2**200)}, {k: -(2**200) + 1 for k in range(-150, 150)})
def test_kronecker_multiply_matches_schoolbook(a, b):
    want = _imul_school(a, b)
    assert _imul_kron(a, b) == want
    assert _imul(a, b) == want
    assert list(_imul_kron(a, b)) == sorted(want)


def test_imul_switches_at_cut_over():
    short = {k: 3 for k in range(_KRONECKER_MIN_TERMS - 1)}
    long = {k: -5 for k in range(_KRONECKER_MIN_TERMS)}
    assert _imul(short, long) == _imul_school(short, long) == _imul_kron(short, long)
    assert _imul(long, long) == _imul_school(long, long)
    assert _imul({}, long) == {} and _imul(long, {}) == {}


def test_idiv_exact_inverts_imul():
    rng = random.Random(105)
    for trial in range(200):
        a = {e: rng.randrange(-(2**70), 2**70) or 1 for e in range(rng.randrange(-9, 9), rng.randrange(10, 60))}
        if trial % 2:
            phi = dict(_phi_power_int(rng.randrange(2, 200), rng.randrange(1, 4)))
        else:
            deg = rng.randrange(1, 40)
            phi = {0: 1, deg: rng.choice((-2, -1, 1, 3))}
            phi.update({j: c for j in range(1, deg) if (c := rng.randrange(-9, 10))})
        num = _imul(a, phi)
        assert _idiv_exact(num, phi) == a
        assert _idiv_exact({}, phi) == {}
        # a nonzero remainder, below, at the top of, or inside the product
        for e in (min(a) - 1, max(num), rng.randrange(min(a), max(num))):
            bumped = dict(num)
            bumped[e] = bumped.get(e, 0) + 1
            if not bumped[e]:
                del bumped[e]
            assert _idiv_exact(bumped, phi) is None
        # a dividend of lower degree than the divisor
        assert _idiv_exact({min(a): 1}, phi) is None


def _rand_laurent(rng, lo_min=-30, hi_max=40, coeff=50) -> dict:
    """A nonzero int dict with exponents from below 0 to above it."""
    p = {e: rng.randrange(-coeff, coeff + 1) for e in range(rng.randrange(lo_min, 0), rng.randrange(1, hi_max))}
    return {e: c for e, c in p.items() if c} or {-3: 1}


def _dense_of(p: dict) -> list:
    return _dense(p, min(p), max(p) - min(p) + 1)


# d = 2, prime powers, and d with three primes
QUOTIENT_DS = (2, 4, 8, 9, 25, 27, 30, 42, 60, 105)


def test_phi_quotient_matches_idiv_exact():
    """The dense Moebius quotient by Phi_d against _idiv_exact, the oracle.

    The dividends have negative exponents; some are shorter than Phi_d, and
    some have one coefficient bumped, so that Phi_d does not divide them.
    Long ones (above 8 d entries) take _strip_phi's mod v^d - 1 test first.
    """
    rng = random.Random(2014)
    for d in QUOTIENT_DS:
        phi_d = dict(_phi_power_int(d, 1))
        ups, downs = _mobius_steps(d)
        assert list(_cyclo_int(d)) == _mobius_quotient([1], ups, downs)
        for trial in range(24):
            a = _rand_laurent(rng, lo_min=-40, hi_max=rng.choice((5, 60, 400)))
            m = rng.randrange(1, 4)
            p = _imul(a, dict(_phi_power_int(d, m)))
            if trial % 3 == 2:
                # one coefficient off, below, inside or at the top of p
                e = rng.choice((min(p), rng.randrange(min(p), max(p) + 1), max(p)))
                p = dict(p)
                p[e] = p.get(e, 0) + rng.choice((-1, 1))
                p = {e: c for e, c in p.items() if c}
                m = 0
            q = _idiv_exact(p, phi_d)
            assert _mobius_quotient(_dense_of(p), downs, ups) == (None if q is None else _dense_of(q)), (d, trial)
            assert (q is None) == (m == 0), (d, trial)
            # _strip_phi takes out as many Phi_d as divide p, up to most
            chain = [p]
            while (q := _idiv_exact(chain[-1], phi_d)) is not None:
                chain.append(q)
            for most in range(len(chain) + 1):
                k = min(most, len(chain) - 1)
                assert _strip_phi(_dense_of(p), d, most) == (_dense_of(chain[k]), k), (d, trial, most)
        # dividends no longer than Phi_d: never divisible
        for span in range(1, max(phi_d) + 1):
            p = {e - 7: rng.randrange(1, 9) for e in range(span)}
            assert _idiv_exact(p, phi_d) is None
            assert _strip_phi(_dense_of(p), d, 3) == (_dense_of(p), 0)


def _cancel_phi_plain(num: dict, den: dict[int, int]) -> tuple[dict, dict[int, int]]:
    """_cancel_phi by trial division of the whole num, without the mod v^d - 1 test."""
    for d in sorted(den):
        phi_d = dict(_phi_power_int(d, 1))
        while den[d]:
            q = _idiv_exact(num, phi_d)
            if q is None:
                break
            num = q
            den[d] -= 1
    return num, {d: -m for d, m in den.items() if m}


def test_cancel_phi_matches_plain_trial_division():
    rng = random.Random(1729)
    assert _cancel_phi({}, {3: 1}) == ({}, {})
    for trial in range(150):
        den = {d: rng.randrange(1, 4) for d in rng.sample(range(2, 45), rng.randrange(1, 5))}
        num = _rand_laurent(rng, coeff=9)
        if trial % 5 == 4:
            num = {e: c * 7 for e, c in num.items()}
        # some of den's Phi_d, some more often than den has them, and others
        for _ in range(rng.randrange(0, 5)):
            d = rng.choice(list(den)) if rng.random() < 0.7 else rng.randrange(2, 45)
            num = _imul(num, dict(_phi_power_int(d, rng.randrange(1, 4))))
        assert _cancel_phi(dict(num), dict(den)) == _cancel_phi_plain(dict(num), dict(den)), trial
    # the shape of a large-color tet lcm: numerators of 400-900 slots with
    # 10- to 60-bit coefficients, d up to 60 with multiplicities up to 4
    for trial in range(8):
        den = {d: rng.randrange(1, 5) for d in rng.sample(range(2, 61), rng.randrange(10, 25))}
        num = _rand_laurent(rng, lo_min=-60, hi_max=rng.randrange(60, 200), coeff=2 ** rng.choice((10, 60)))
        target = rng.randrange(400, 900)
        while max(num) - min(num) < target:
            d = rng.choice(list(den)) if rng.random() < 0.8 else rng.randrange(2, 61)
            factor = dict(_phi_power_int(d, rng.randrange(1, 5)))
            if max(num) - min(num) + max(factor) < 900:
                num = _imul(num, factor)
            elif max(num) - min(num) >= 400:
                break
        assert 400 <= max(num) - min(num) < 900
        assert _cancel_phi(dict(num), dict(den)) == _cancel_phi_plain(dict(num), dict(den)), trial


def _expanded_ratio(sign, ups, downs, factor):
    """(num, den): sign * prod factor(k) over ups and prod factor(k) over downs, the expanded polys."""
    num, den = LaurentPoly({0: sign}), LaurentPoly.one()
    for k in ups:
        num = num * factor(k)
    for k in downs:
        den = den * factor(k)
    return num, den


def test_bracket_ratio_matches_direct():
    rng = random.Random(60221023)
    for _ in range(200):
        ups = [rng.randrange(1, 13) for _ in range(rng.randrange(0, 5))]
        downs = [rng.randrange(1, 13) for _ in range(rng.randrange(0, 5))]
        sign = rng.choice((1, -1))
        check_value(LaurentRat.brackets(sign, ups, downs), *_expanded_ratio(sign, ups, downs, q_int))


def test_bracket_ratio_factorials():
    for n in range(0, 15):
        assert LaurentRat.factorials(1, (n,)) == LaurentRat.from_poly(q_factorial(n))
        check_value(LaurentRat.factorials(-1, (), (n,)), LaurentPoly({0: -1}), q_factorial(n))
    # sign * prod [n]! / prod [n]! against the expanded factorials
    rng = random.Random(1123)
    for _ in range(50):
        ups = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))]
        downs = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))]
        sign = rng.choice((1, -1))
        check_value(LaurentRat.factorials(sign, ups, downs), *_expanded_ratio(sign, ups, downs, q_factorial))


def test_bracket_ratio_negative_index():
    # [-3] = -[3], in the numerator and in the denominator
    assert LaurentRat.brackets(1, (-3,)) == LaurentRat.from_poly(-q_int(3))
    check_value(LaurentRat.brackets(1, (2,), (-3,)), -q_int(2), q_int(3))
    assert LaurentRat.brackets(-1, (-3, -4)) == LaurentRat.from_poly(-q_int(3) * q_int(4))


def test_bracket_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LaurentRat.brackets(1, (), (0,))
    with pytest.raises(ZeroDivisionError):
        LaurentRat.brackets(1, (0, 2), (3, 0))


def test_bracket_zero_in_numerator_is_zero():
    for ups in ((0,), (3, 0), (0, -2, 5)):
        value = LaurentRat.brackets(-1, ups, (4,))
        assert value.is_zero() and value == 0


def test_pure_product_sign_must_be_a_unit():
    for sign in (0, 2, -3):
        with pytest.raises(ValueError):
            LaurentRat.brackets(sign, (2,))
        with pytest.raises(ValueError):
            LaurentRat.factorials(sign, (2,))


def test_factorial_exponents_closed_form():
    # floor(n/d) for odd d and floor(2n/d) for even d against the bracket divisors
    for n in range(120):
        want = {}
        for k in range(2, n + 1):
            for d in _bracket_cyclo_divisors(k):
                want[d] = want.get(d, 0) + 1
        assert _factorial_exponents((n,)) == (-n * (n - 1) // 2, want), n
    with pytest.raises(ValueError):
        _factorial_exponents((3,), (-1,))


def test_factorial_exponents_cache_ignores_order():
    # every order of ups and downs gives the uncached closed form, and one key
    from itertools import permutations

    uncached = _factorial_exponents_sorted.__wrapped__
    _factorial_exponents_sorted.cache_clear()
    for n in range(41):
        ups, downs = (n, n // 2, 1, n // 3), (n // 2, n // 4 + 1, 0)
        want = uncached(ups, downs)
        for u in permutations(ups):
            for d in permutations(downs):
                assert _factorial_exponents(u, d) == want == uncached(u, d), (n, u, d)
    assert _factorial_exponents_sorted.cache_info().currsize <= 41
    # an error is raised on every call, never cached away
    for _ in range(2):
        with pytest.raises(ValueError):
            _factorial_exponents((-1, 3))
        with pytest.raises(ValueError):
            _factorial_exponents((3,), (2, -2))


def test_factorial_exponents_cache_is_bounded():
    maxsize = _factorial_exponents_sorted.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 10**5


def test_shared_factorial_maps_stay_intact():
    # theta(a, b, c) and theta(c, a, b) hold the same cached exponent map, and so
    # do the prefactors of two tet images; no operation may change it in place
    from qgraph.invariants import tet_prefactor, tet_symmetry_orbit, theta_invariant

    _factorial_exponents_sorted.cache_clear()
    col = (4, 6, 8, 6, 4, 6)
    image = tuple(tet_symmetry_orbit(col)[2])
    assert image != col
    pairs = [
        (theta_invariant.__wrapped__(5, 7, 8), theta_invariant.__wrapped__(8, 5, 7)),
        (tet_prefactor(col), tet_prefactor(image)),
    ]
    for x, y in pairs:
        assert x._form[2] is y._form[2]
        saved = [(dict(v._form[2]), v.num, v.den) for v in (x, y)]
        other = LaurentRat.brackets(-1, (3, 5), (2, 7))
        sum_num, sum_den = x.num * y.den + y.num * x.den, x.den * y.den
        results = [
            (x * y, x.num * y.num, x.den * y.den),
            (x / y, x.num * y.den, x.den * y.num),
            (x + y, sum_num, sum_den),
            (rat_dot([(x, other), (y, other)]), sum_num * other.num, sum_den * other.den),
        ]
        # the two are equal values
        assert x == y
        assert rat_dot_vanishes([(x, other), (-y, other)])
        assert not rat_dot_vanishes([(x, other), (y, other)])
        for got, num, den in results:
            check_value(got, num, den)
        for v, (phi, num, den) in zip((x, y), saved):
            assert v._form[2] == phi
            fresh = LaurentRat._product(*v._form)
            assert (fresh.num, fresh.den) == (num, den)


# -- factored routes against cross-multiplication in the ring ---------------------


def _rand_bracket_ratio(rng):
    sign = rng.choice((1, -1))
    ups, downs = [], []
    for _ in range(rng.randrange(0, 4)):
        k = rng.choice((1, -1)) * rng.randrange(1, 13)
        power = rng.choice((1, -1, 2))
        (ups if power > 0 else downs).extend([k] * abs(power))
    value = LaurentRat.brackets(sign, ups, downs)
    if rng.random() < 0.5:
        value = value * LaurentRat.factorials(1, [rng.randrange(0, 9)], [rng.randrange(0, 9)])
    return value


def _check_factored_ops(x, y, divide=True):
    """Each operation against its definition on the expanded parts; divide only by a y whose numerator factors."""
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    check_value(x, xn, xd)
    check_value(x * y, xn * yn, xd * yd)
    check_value(x + y, xn * yd + yn * xd, xd * yd)
    check_value(x - y, xn * yd - yn * xd, xd * yd)
    if divide and y:
        check_value(x / y, xn * yd, xd * yn)
    check_value(-x, -xn, xd)
    check_value(x.v_inverted(), xn.v_inverted(), xd.v_inverted())
    # == on the forms must agree with cross-multiplication
    assert (x == y) == (xn * yd == yn * xd)
    assert (y == x) == (x == y)


def test_factored_ops_match_gcd_route():
    rng = random.Random(4669)
    for _ in range(300):
        x = _rand_bracket_ratio(rng)
        y = _rand_bracket_ratio(rng)
        _check_factored_ops(x, y)
        _check_factored_ops(x * y, x + y, divide=False)
        _check_factored_ops(x / y, x - y, divide=False)
    computed = _computed_values()
    computed = computed[: len(computed) // 2]  # without the JSON copies
    theta = computed[0]
    for i, x in enumerate(computed):
        for y in computed[i:] + [x * computed[-1 - i]]:
            _check_factored_ops(x, y, divide=False)
        _check_factored_ops(x, theta)


def test_rat_dot_factored_matches_gcd_route():
    rng = random.Random(1729)
    computed = _computed_values()
    for _ in range(100):
        pairs = []
        for _ in range(rng.randrange(0, 5)):
            a = _rand_bracket_ratio(rng)
            b = rng.choice(computed) if rng.random() < 0.5 else _rand_bracket_ratio(rng)
            pairs.append((a, b))
        num, den = LaurentPoly(), LaurentPoly.one()
        for a, b in pairs:
            num = num * a.den * b.den + a.num * b.num * den
            den = den * a.den * b.den
        check_value(rat_dot(pairs), num, den)


def test_factored_equality_cases():
    # [4]!/[2]! = [3][4], reached through different exponent maps
    x = LaurentRat.factorials(1, (4,)) / LaurentRat.factorials(1, (2,))
    y = LaurentRat.brackets(1, (3,)) * LaurentRat.brackets(1, (4,))
    assert x == y and y == x
    assert x == LaurentRat.from_poly(q_int(3) * q_int(4))
    check_value(x, q_int(3) * q_int(4), LaurentPoly.one())
    # one Phi_d exponent apart, and a sign or a unit apart
    base = LaurentRat._product(1, -3, {3: 1, 4: 2, 10: -1})
    spread = expanded(base)  # the same value as a form with a poly
    assert spread._form[3] is not None
    for other in (
        LaurentRat._product(1, -3, {3: 1, 4: 1, 10: -1}),
        LaurentRat._product(1, -3, {3: 1, 4: 2}),
        LaurentRat._product(-1, -3, {3: 1, 4: 2, 10: -1}),
        LaurentRat._product(1, -1, {3: 1, 4: 2, 10: -1}),
    ):
        assert base != other and other != base
        assert spread != other and other != spread
        assert base.num * other.den != other.num * base.den
    assert base == spread and spread == base


def test_mutated_recursion_factor_fails_everywhere():
    from qgraph.apoly import interior_colorings
    from qgraph.invariants import theta_invariant, theta_recursion_factor

    def factor(a, b, c, bump):
        # theta_recursion_factor with its [(a + b - c)/2 + 1] raised by bump
        s = (a + b + c) // 2
        ups = (s + 2, (a - b + c) // 2 + 1, (a + b - c) // 2 + 1 + bump)
        return LaurentRat.brackets(-1, ups, ((-a + b + c) // 2, a + 1, a + 2))

    grid = interior_colorings("theta", "a", 6, 1)
    assert grid
    for a, b, c in grid:
        want = theta_invariant(a + 2, b, c)
        assert factor(a, b, c, 0) == theta_recursion_factor(a, b, c)
        assert factor(a, b, c, 0) * theta_invariant(a, b, c) == want
        bad = factor(a, b, c, 1) * theta_invariant(a, b, c)
        assert bad != want and bad.num * want.den != want.num * bad.den, (a, b, c)


# -- serialization ------------------------------------------------------------


def test_rat_dot_matches_naive_sum():
    rng = random.Random(5150)
    for _ in range(300):
        pairs = [(rand_rat(rng), rand_rat(rng)) for _ in range(rng.randrange(0, 5))]
        naive = LaurentRat.zero()
        for a, b in pairs:
            naive = naive + a * b
        assert rat_dot(pairs) == naive
    assert rat_dot([]).is_zero()
    # telescoping sums collapse to exact zero
    x = LaurentRat.brackets(1, (5,), (3,))
    assert rat_dot([(x, LaurentRat.one()), (-x, LaurentRat.one())]).is_zero()


# -- zero test by evaluation ------------------------------------------------


def rand_form_rat(rng):
    """sign * v^shift * poly * prod Phi_d^m, random int poly (or none) and signed m."""
    phi = {d: rng.choice((-2, -1, 1, 2)) for d in rng.sample(range(2, 13), rng.randrange(0, 4))}
    poly = None
    if rng.randrange(3):
        poly = rand_nonzero(rng).terms
    return LaurentRat._product(rng.choice((1, -1)), rng.randrange(-4, 5), phi, poly)


def test_rat_dot_vanishes_matches_rat_dot_on_random_sums():
    # random int-coefficient pairs, then the same pairs with the first product
    # cancelled by its negation, and with every product cancelled
    rng = random.Random(2718)
    one = LaurentRat.one()
    for trial in range(300):
        pairs = [(rand_form_rat(rng), rand_form_rat(rng)) for _ in range(rng.randrange(1, 5))]
        assert rat_dot_vanishes(pairs) == rat_dot(pairs).is_zero()
        a, b = pairs[0]
        partial = pairs + [(-a, b)]
        assert rat_dot_vanishes(partial) == rat_dot(partial).is_zero()
        assert rat_dot_vanishes(pairs + [(-a, b) for a, b in pairs])
        assert rat_dot_vanishes([(a, b), (a * b, -one)])
    assert rat_dot_vanishes([])
    assert rat_dot_vanishes([(LaurentRat.zero(), LaurentRat(q_int(3)))])
    # a Phi_d power against its expansion, and a denominator cleared by its poly
    phi = LaurentRat._product(1, 0, {3: 2, 10: 1})
    expanded = LaurentRat.from_poly(cyclotomic(3) ** 2 * cyclotomic(10))
    assert rat_dot_vanishes([(phi, one), (-expanded, one)])
    inverse = LaurentRat._product(1, 0, {3: -1})
    assert rat_dot_vanishes([(inverse, LaurentRat.from_poly(cyclotomic(3))), (-one, one)])
    assert not rat_dot_vanishes([(inverse, LaurentRat.from_poly(cyclotomic(3))), (-one, -one)])


def test_rat_dot_vanishes_evaluation_point_clears_the_bound():
    one = LaurentRat.one()
    v = LaurentRat.from_poly(LaurentPoly({1: 1}))
    for s in (1, 7, 31, 64, 200):
        # a sum whose one coefficient equals the bound C, at both ends of a bit length
        for c in (2**s - 1, 2**s, -(2**s)):
            assert not rat_dot_vanishes([(LaurentRat.from_poly(LaurentPoly({3: c})), one)])
        # 2^s - v has C = 2^s + 1 and vanishes at v = 2^s = 2^(bitlen(C) - 1), so an
        # evaluation point one bit short of the bound would call it zero
        assert LaurentPoly({0: 2**s, 1: -1}).eval_exact(2**s) == 0
        pairs = [(LaurentRat.from_poly(LaurentPoly({0: 2**s})), one), (-v, one)]
        assert not rat_dot_vanishes(pairs)
        assert rat_dot_vanishes(pairs + [(v, one), (LaurentRat.from_poly(LaurentPoly({0: -(2**s)})), one)])


def test_poly_json_roundtrip():
    rng = random.Random(12)
    for _ in range(100):
        p = rand_poly(rng)
        blob = json.dumps(p.to_json_obj())
        assert LaurentPoly.from_json_obj(json.loads(blob)) == p


def test_rat_json_roundtrip():
    # a LaurentRat's JSON is its num and den, each a LaurentPoly's JSON
    rng = random.Random(13)
    for _ in range(100):
        r = rand_rat(rng)
        obj = json.loads(json.dumps(r.to_json_obj()))
        num, den = LaurentPoly.from_json_obj(obj["num"]), LaurentPoly.from_json_obj(obj["den"])
        assert (num, den) == (r.num, r.den)
        check_value(r, num, den)


def test_json_terms_sorted_ascending():
    p = q_factorial(3)
    obj = p.to_json_obj()
    exps = [e for e, _ in obj["terms"]]
    assert exps == sorted(exps)
    assert obj["variable"] == "v"
    assert obj["meaning"] == "q^(1/2)"


def test_str_rendering():
    assert str(-q_int(2)) == "-q^(-1/2) - q^(1/2)"
    assert str(q_int(3)) == "q^(-1) + 1 + q"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({2: 3, 1: -2})) == "-2*q^(1/2) + 3*q"


@pytest.mark.parametrize(
    "value",
    [LaurentRat(0), LaurentRat(-3), LaurentRat(q_int(3)), LaurentRat.brackets(1, (2,), (3,))],
    ids=["zero", "int", "poly", "bracket-ratio"],
)
def test_rat_repr_names_no_call_that_raises(value):
    # the constructor takes no (num, den) pair, so the repr is no call; num and
    # den show as LaurentPoly reprs, each of which rebuilds its polynomial
    text = repr(value)
    assert text == f"<LaurentRat num={value.num!r} den={value.den!r}>"
    names = {"LaurentPoly": LaurentPoly}
    assert eval(repr(value.num), names) == value.num and eval(repr(value.den), names) == value.den
