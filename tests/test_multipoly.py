"""Multivariate Laurent polynomials: axioms, substitution, division, resultants."""

import json
import random
from fractions import Fraction

import pytest

from qgraph.laurent import PoleError
from qgraph.multipoly import MultiPoly, compare_up_to_unit, exact_div_multi, monomial_quotient, resultant_in

VARS = ("u", "w", "x", "y", "z")


def rand_mpoly(rng, max_terms=5, max_exp=4, nvars=3, allow_zero=True, laurent=True):
    names = rng.sample(VARS, nvars)
    n = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    out = MultiPoly.zero()
    lo = -max_exp if laurent else 0
    for _ in range(n):
        exps = {nm: rng.randrange(lo, max_exp + 1) for nm in names}
        c = rng.randrange(-8, 9)
        out = out + MultiPoly.monomial(exps, c)
    return out


def rand_nonzero(rng, **kw):
    while True:
        p = rand_mpoly(rng, allow_zero=False, **kw)
        if not p.is_zero():
            return p


def test_ring_axioms_bulk():
    rng = random.Random(987654)
    zero = MultiPoly.zero()
    one = MultiPoly.one()
    for _ in range(1000):
        a = rand_mpoly(rng)
        b = rand_mpoly(rng)
        c = rand_mpoly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero


def test_variable_normalization():
    x = MultiPoly.var("x")
    # x - x + y has no x left in its variable tuple
    y = MultiPoly.var("y")
    p = x + y - x
    assert p.vars == ("y",)
    assert (x * 0).vars == ()
    assert MultiPoly.var("x", 0, 5) == MultiPoly.const(5)


def test_unification_independent_of_order():
    rng = random.Random(22)
    for _ in range(200):
        a = rand_mpoly(rng, nvars=2)
        b = rand_mpoly(rng, nvars=4)
        assert a + b == b + a
        assert a * b == b * a


def test_eval_is_hom():
    rng = random.Random(314)
    for _ in range(300):
        a = rand_mpoly(rng)
        b = rand_mpoly(rng)
        pt = {n: Fraction(rng.randrange(1, 7), rng.randrange(1, 7)) for n in VARS}
        assert (a + b).eval_fraction(pt) == a.eval_fraction(pt) + b.eval_fraction(pt)
        assert (a * b).eval_fraction(pt) == a.eval_fraction(pt) * b.eval_fraction(pt)


def test_eval_requires_bindings():
    p = MultiPoly.var("x") + MultiPoly.var("y")
    with pytest.raises(ValueError):
        p.evaluate({"x": 1.0})
    with pytest.raises(PoleError):
        MultiPoly.var("x", -1).evaluate({"x": 0.0})


def rand_monomial_binding(rng, names, laurent=True):
    """A nonzero monomial over names, with a coefficient from +-1, 2 and -3."""
    lo = -2 if laurent else 0
    return MultiPoly.monomial({n: rng.randrange(lo, 3) for n in names}, rng.choice((1, -1, 2, -3)))


def test_substitute_is_hom():
    rng = random.Random(2025)
    for _ in range(200):
        a = rand_mpoly(rng, nvars=2, laurent=False)
        b = rand_mpoly(rng, nvars=2, laurent=False)
        binding = {"x": rand_monomial_binding(rng, rng.sample(VARS, 2), laurent=False)}
        assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)
        assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


def test_substitute_negative_exponent_needs_unit():
    p = MultiPoly.var("x", -3)
    # a unit binding, +-1 times a monomial, works
    s = p.substitute({"x": MultiPoly.monomial({"v": 2}, -1)})
    assert s == MultiPoly.monomial({"v": -6}, -1)
    # a non-monomial binding, or a monomial whose coefficient is not +-1, must fail
    with pytest.raises(ValueError):
        p.substitute({"x": MultiPoly.var("v") + 1})
    with pytest.raises(ValueError):
        p.substitute({"x": MultiPoly.monomial({"v": 2}, 3)})


def test_substitute_takes_only_nonzero_monomials():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * x - 3 * x * y + 1
    for bad in (y + 1, MultiPoly.zero(), x - y):
        with pytest.raises(ValueError):
            p.substitute({"x": bad})
    # a non-unit is fine under nonnegative powers only
    assert p.substitute({"x": 2 * y}) == MultiPoly.const(1) - 2 * y * y
    with pytest.raises(ValueError):
        (p + MultiPoly.var("x", -1)).substitute({"x": 2 * y})


def test_substitute_monomial_consistent_with_eval():
    rng = random.Random(606)
    for _ in range(200):
        p = rand_mpoly(rng, nvars=3)
        sub = {n: MultiPoly.monomial({"t": rng.randrange(-2, 3)}, rng.choice((1, -1))) for n in p.vars}
        q = p.substitute(sub)
        t0 = Fraction(rng.randrange(1, 6), rng.randrange(1, 6))
        pt = {n: b.eval_fraction({"t": t0}) for n, b in sub.items()}
        assert q.eval_fraction({"t": t0}) == p.eval_fraction(pt)


def test_exact_div_roundtrip():
    rng = random.Random(40402)
    for _ in range(250):
        a = rand_nonzero(rng, max_terms=4, max_exp=3)
        b = rand_nonzero(rng, max_terms=4, max_exp=3)
        p = a * b
        q = exact_div_multi(p, b)
        assert q * b == p


def test_exact_div_rejects_nondivisible():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    with pytest.raises(ValueError):
        exact_div_multi(x ** 2 + y, x + 1)


def test_exact_div_terminates_on_unit_factors():
    # divisor with negative exponents (a Laurent unit times a poly)
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    b = (x + y) * MultiPoly.monomial({"x": -5, "y": -2})
    a = b * (x * y - 3)
    q = exact_div_multi(a, b)
    assert q == x * y - 3


def test_monomial_quotient():
    rng = random.Random(77)
    for _ in range(200):
        b = rand_nonzero(rng, max_terms=4)
        m = MultiPoly.monomial({n: rng.randrange(-3, 4) for n in ("x", "y")}, rng.randrange(-6, 7) or 1)
        got = monomial_quotient(m * b, b)
        assert got == m
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    assert monomial_quotient(x + y, x - y) is None
    assert monomial_quotient(x + y, x) is None
    # a quotient outside Z[x^+-1, ...]
    assert monomial_quotient(x, x * 3) is None


def test_compare_up_to_unit():
    rng = random.Random(40312)
    for _ in range(200):
        p = rand_nonzero(rng, max_terms=4)
        c = rng.randrange(1, 9)
        u = MultiPoly.monomial({n: rng.randrange(-3, 4) for n in ("x", "z")}, c)
        assert compare_up_to_unit(u * p, p) == u
        # p / (u p) has the coefficient 1/c, an integer only for c = 1
        back = compare_up_to_unit(p, u * p)
        if c == 1:
            assert back * u == 1
        else:
            assert back is None
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    p = x * y - 3 * x + 1
    assert compare_up_to_unit(2 * p, p) == 2
    assert compare_up_to_unit(p, 2 * p) is None
    assert compare_up_to_unit(x + y, x - y) is None
    with pytest.raises(ValueError):
        compare_up_to_unit(MultiPoly.zero(), x)
    with pytest.raises(ValueError):
        compare_up_to_unit(x, MultiPoly.zero())


def test_resultant_univariate_known():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    r = resultant_in(x ** 2 - 2, x - y, "x")
    assert r in (y ** 2 - 2, -(y ** 2) + 2)


def test_resultant_vanishes_on_common_root():
    import numpy as np

    rng = random.Random(13579)
    z = MultiPoly.var("z")
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    for _ in range(25):
        a3, a1, a0 = (rng.randrange(1, 5) for _ in range(3))
        cubic = a3 * z ** 3 + a1 * x * z - a0
        quad = y * z ** 2 - z + 2
        rr = resultant_in(cubic, quad, "z")
        xv = rng.uniform(0.2, 1.5)
        roots = np.roots([a3, 0, a1 * xv, -a0])
        z0 = roots[0]
        yv = (z0 - 2) / z0 ** 2
        scale = max(abs(c) for c in rr.terms.values())
        assert abs(rr.evaluate({"x": xv, "y": yv})) < 1e-7 * max(1.0, float(scale))


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(8642)
    z = MultiPoly.var("z")
    x = MultiPoly.var("x")
    for _ in range(20):
        p1 = z + rng.randrange(1, 5) * x
        p2 = rng.randrange(1, 4) * z + rng.randrange(1, 5)
        q = rng.randrange(1, 4) * z ** 2 + x * z + rng.randrange(1, 5)
        lhs = resultant_in(p1 * p2, q, "z")
        rhs = resultant_in(p1, q, "z") * resultant_in(p2, q, "z")
        assert lhs == rhs


def test_resultant_rejects_degree_zero():
    z = MultiPoly.var("z")
    x = MultiPoly.var("x")
    with pytest.raises(ValueError):
        resultant_in(MultiPoly.const(3), MultiPoly.const(5), "z")
    with pytest.raises(ValueError):
        resultant_in(z - 1, x + 2, "z")


def test_json_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        p = rand_mpoly(rng)
        blob = json.dumps(p.to_json_obj())
        assert MultiPoly.from_json_obj(json.loads(blob)) == p


def test_coefficients_enter_as_integers():
    """Every entry point of outside input stores an int and raises TypeError on a Fraction, even 4/2."""
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    entries = (
        lambda c: MultiPoly(("x",), {(1,): c}),
        lambda c: MultiPoly.const(c),
        lambda c: MultiPoly.var("x", 1, c),
        lambda c: MultiPoly.monomial({"x": 1}, c),
        lambda c: x + c,
        lambda c: c + x,
        lambda c: x - c,
        lambda c: c - x,
        lambda c: x * c,
        lambda c: c * x,
    )
    for make in entries:
        for c in (Fraction(3, 2), Fraction(4, 2)):
            with pytest.raises(TypeError):
                make(c)
        got = make(True)  # operator.index stores an int subclass as its int
        assert got and all(type(c) is int for c in got.terms.values())
    # JSON coefficients are int strings
    for c in ("3/2", "4/2"):
        with pytest.raises(ValueError):
            MultiPoly.from_json_obj({"vars": ["x"], "terms": [[[1], c]]})
    got = MultiPoly.from_json_obj({"vars": ["x"], "terms": [[[1], "2"]]})
    assert got == x * 2 and type(got.terms[(1,)]) is int
    # a Fraction compares unequal, even one equal to the int
    assert MultiPoly.const(2) == 2 and MultiPoly.const(2) != Fraction(4, 2)
    assert MultiPoly.const(3) != Fraction(3, 2) and x != Fraction(3, 2)
    # quotients stay in Z[x^+-1, ...], with or without a unit shift
    q = exact_div_multi(x * 3 + y * 3, x + y)
    assert q == MultiPoly.const(3) and type(q.terms[()]) is int
    q = exact_div_multi(x * x * 3 + x * y * 3, x + y)
    assert q == x * 3 and type(q.terms[(1,)]) is int
    for a, b in ((x, 2 * x), (x + y, x * 3 + y * 3)):
        with pytest.raises(ValueError):
            exact_div_multi(a, b)


def test_eval_fraction_exact_at_integer_points():
    p = MultiPoly.var("x", -4) + MultiPoly.var("y", -1, 2)
    for point in ({"x": Fraction(6), "y": Fraction(2)}, {"x": 6, "y": 2}):
        got = p.eval_fraction(point)
        assert got == Fraction(1, 1296) + 1 and type(got) is Fraction
    with pytest.raises(TypeError):
        p.eval_fraction({"x": 6.0, "y": 2})


def test_product_drops_cancelled_variable():
    x = MultiPoly.var("x")
    p = x * MultiPoly.monomial({"x": -1, "y": 1})
    assert p.vars == ("y",)
    assert p == MultiPoly.var("y")


def _evaluate_naive(p, point):
    """Per-term loop: complex coefficient times each power, summed in term order."""
    total = 0j
    vals = [complex(point[n]) for n in p.vars]
    for exps, c in p.terms.items():
        t = complex(c)
        for vv, e in zip(vals, exps):
            if e:
                t *= vv ** e
        total += t
    return total


def test_evaluate_matches_naive_loop_bitwise():
    rng = random.Random(5150)
    for _ in range(200):
        p = rand_mpoly(rng, max_terms=8, nvars=rng.randrange(1, 5))
        for _ in range(3):  # repeated calls reuse the cached plan
            point = {n: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for n in VARS}
            assert p.evaluate(point) == _evaluate_naive(p, point)


def _substitute_per_term(p, bindings):
    """The per-term MultiPoly route: each term a product of bound powers, summed one by one."""
    out = MultiPoly.zero()
    for exps, c in p.terms.items():
        term = MultiPoly.monomial({n: e for n, e in zip(p.vars, exps) if n not in bindings}, c)
        for n, e in zip(p.vars, exps):
            if n in bindings and e:
                b = bindings[n]
                if e < 0:
                    (be, bc), = b.terms.items()
                    if bc not in (1, -1):
                        raise ValueError("a negative power bound to a non-unit")
                    b, e = MultiPoly(b.vars, {tuple(-x for x in be): bc}), -e  # a unit is its own inverse
                term = term * b ** e
        out = out + term
    return out


def _assert_matches_per_term_route(p, bindings):
    try:
        want = _substitute_per_term(p, bindings)
    except ValueError:  # a negative power bound to a non-unit
        with pytest.raises(ValueError):
            p.substitute(bindings)
        return False
    got = p.substitute(bindings)
    assert got == want
    # evaluate sums in term order, so the order is part of the value's floats
    assert list(got.terms) == list(want.terms)
    return True


def test_substitute_matches_per_term_route_with_term_order():
    rng = random.Random(1618)
    mapped = refused = 0
    for _ in range(300):
        p = rand_mpoly(rng, max_terms=6, nvars=3)
        bindings = {}
        for n in p.vars[:2]:
            names = rng.choice((("t",), ("t", n), (n,), tuple(m for m in p.vars if m != n), ()))
            bindings[n] = rand_monomial_binding(rng, names)
        if _assert_matches_per_term_route(p, bindings):
            mapped += 1
        else:
            refused += 1
    assert mapped > 100 and refused > 100
    # bindings that merge or cancel terms: v -> 1, and x -> v y or x -> -y with y also free
    v, x, y = MultiPoly.var("v"), MultiPoly.var("x"), MultiPoly.var("y")
    cases = (
        (v * x + x - v * v * y + y + 3, {"v": MultiPoly.one()}),
        (v * v * x - x + v, {"v": MultiPoly.one()}),
        (x * y - v * y * y + x + y, {"x": v * y}),
        (x * x + y * y + x * y - 4 * x, {"x": -y}),
        (MultiPoly.var("x", -2) * y - y ** 3 + v, {"x": MultiPoly.monomial({"y": -1}, -1)}),
    )
    for p, bindings in cases:
        assert _assert_matches_per_term_route(p, bindings)
        assert len(p.substitute(bindings).terms) < len(p.terms)


def test_weighted_degrees_match_per_term_sums():
    # packed columns for nonnegative weights; negative weights and sums past the
    # 64-bit slots take the per-term route, with the same answer
    rng = random.Random(64)
    for _ in range(200):
        p = rand_mpoly(rng, max_terms=8, nvars=4)
        cases = (
            {name: rng.randrange(0, 50) for name in p.vars},
            {name: rng.randrange(-20, 21) for name in p.vars},
            {name: rng.randrange(2**62, 2**63) for name in p.vars},
        )
        for weights in cases:
            want = [sum(weights[name] * e for name, e in zip(p.vars, exps)) for exps in p.terms]
            assert p.weighted_degrees(weights) == want
    assert MultiPoly.const(5).weighted_degrees({}) == [0]
    assert MultiPoly.zero().weighted_degrees({}) == []
    with pytest.raises(KeyError):
        MultiPoly.var("x").weighted_degrees({"y": 1})
