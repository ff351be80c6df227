"""Exact arithmetic for Laurent polynomials and their fraction field.

Everything downstream works in the variable v = q^(1/2), so a q-exponent
of n/2 is stored as the integer v-exponent n and no fractional exponents
ever appear.  Coefficients are Python ints, so the ring is Z[v^+-1]: the
invariants are ratios whose denominators are products of Phi_d with
constant term 1, and their numerators have integer coefficients.  Rational
numbers appear only as the values of exact evaluations (eval_exact, and
eval_complex before it rounds).  Coefficients enter through LaurentPoly's
constructors and the scalar operations, which take an int (operator.index)
and raise TypeError on anything else, a Fraction too, and through
LaurentPoly.from_json_obj, which parses int strings; nothing below them
checks types.

A LaurentPoly is a sparse map {v-exponent: coefficient}.  A LaurentRat is
a reduced fraction num/den of LaurentPolys whose denominator is a product of
Phi_d, d >= 2, in the canonical form where its lowest term is 1 at exponent
0, which makes equality a structural comparison.

The quantum integer [n] = (v^n - v^-n)/(v - v^-1) and the quantum
factorial [n]! are the basic building blocks, and [n] = v^(1-n) * prod
Phi_d(v) over the divisors d >= 3 of 2n.  So every value is kept in the
Phi_d basis:

- A LaurentRat is one form (sign, shift, phi, poly), the value
  sign * v^shift * poly * prod Phi_d^phi[d], with phi a signed exponent map
  and poly a coefficient dict, or None for 1.  A signed ratio of brackets
  or factorials (LaurentRat.brackets, LaurentRat.factorials) is a pure
  product, with no poly; [n]! has the closed-form exponents floor(n/d) for
  odd d and floor(2n/d) for even d.  Products and quotients add exponents;
  equality of pure products compares the triples, which unique
  factorization makes the same as comparing the expanded values.  num and
  den are built only when they are read (rendering, evaluation, JSON).
- Sums, and products with a polynomial factor, go over the lcm in the Phi_d
  basis; the numerator is then stripped of the Phi_d it shares with the lcm
  by exact division, so the result is canonical without a polynomial gcd.
- A value is built only from ints, LaurentPolys (from_poly), brackets and
  factorials, and the sums and products above keep each denominator a
  product of Phi_d by construction.  A divisor must be a pure product, whose
  exponents are negated; one with a poly raises ValueError.

All ring operations run on one kernel of coefficient dicts {exponent: coeff}:

- Phi_d comes from the Moebius identity Phi_d(v) = Phi_r(v^(d/r)), r the
  radical of d, with Phi_r = prod over e | r of (1 - v^e)^mu(r/e); each
  factor is one pass over a dense int list (_mobius_steps lists the factors,
  and _cyclo_int runs them on a power series cut after deg Phi_d).
- Products of Phi_d^m run in a balanced product tree, and each power by
  squaring, so the big multiplications pair operands of similar size.
  Factors that are polynomials in w = v^2 are first folded there:
  Phi_d(v) * Phi_2d(v) = Phi_d(v^2) for odd d, and Phi_d(v) = Phi_(d/2)(v^2)
  when 4 | d.  Their product is taken over w, recursively, where it packs
  half the slots it would in v, and joins the tree as one factor.
- A multiplication whose shorter operand has at least _KRONECKER_MIN_TERMS
  terms goes through Kronecker substitution: both operands are packed into
  one Python int, with a slot per exponent wide enough for any product
  coefficient, and CPython's Karatsuba multiply does the convolution exactly
  (qgraph.kronecker; packing and unpacking are byte and word conversions
  with no Python loop over the coefficients).  Shorter operands stay on the
  schoolbook loop, which the layer timings in tools/kernel_bench.py show to
  be faster for short operands.
- Division by Phi_d (_cancel_phi, through _strip_phi) runs the same passes
  swapped on one dense list: times each 1 - v^e with mu = -1, one map(sub)
  pass, then over each 1 - v^e with mu = +1, a running sum along each class
  of exponents mod e whose top e sums must be 0.  That
  is 2^w passes for w primes of d, no Python loop over the coefficients and
  no bound on the quotient's.  A long dividend is first reduced mod
  v^d - 1, which Phi_d divides, so a trial that fails costs a division of
  d entries.  exact_div_poly's division is one low-to-high pass over a
  dense list (_idiv_exact); it divides by the divisor's lowest coefficient,
  with divmod, only when that is not 1, and a remainder means the divisor
  does not divide over Z.

Zero tests by evaluation.  rat_dot_vanishes(pairs) decides whether
sum a_i * b_i is zero without expanding it.  Each product keeps its two polys
apart and adds its Phi_d exponents.  Over the lcm of the denominators, with
the Phi_d powers that every term shares factored out (as in _sum_forms), the
sum is v^s * P(v) with P in Z[v] and a nonzero factor dropped, so it is zero
exactly when P is.  The l1 norm is submultiplicative and bounds every
coefficient, so each coefficient of P is at most
C = sum_i prod_d ||Phi_d||_1^need_i[d] * prod ||poly_i||_1 in absolute value.
With k = bitlen(C) + 2 every coefficient c has |c| < 2^k / 2, so P(2^k) is
a number whose balanced base-2^k digits are P's coefficients; digits are
unique, and P(2^k) = 0 exactly when P = 0.  The test is exact and
deterministic.  Phi_d(2^k) comes from _cyclo_int by shifts, each poly by one
sum of shifted coefficients, and the terms are aligned by shifts of k times
their exponent difference, so the whole test is a few big-int products and
one compare.

Evaluation at a point.  A float or complex point is (x + iy)/2^m exactly, and
an int or Fraction point x/s, so eval_complex and eval_exact run one exact
kernel (_eval_ratio): num and den over Gaussian integers by halving
(_homogeneous), and their quotient a Gaussian rational.  eval_complex rounds
its real and imaginary parts once each, so the caller sets no bits, and raises
OverflowError when one is beyond a double's range.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import gcd as int_gcd
from operator import add, index, sub
from typing import Collection, Iterable, Mapping

from .kronecker import _dense, _sparse, multiply as _imul_kron


class PoleError(ZeroDivisionError):
    """Numeric evaluation hit a vanishing denominator."""


def _exact_point(value) -> Fraction:
    """An exact evaluation point: an int or a Fraction, never a float."""
    if isinstance(value, (int, Fraction)):
        # a Fraction, because an int base to a negative power would give a float
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial in v with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                c = index(c)
                if c:
                    c += data.get(e, 0)
                    if c:
                        data[e] = c
                    else:
                        del data[e]
        self.terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, terms: dict) -> "LaurentPoly":
        """A poly over a dict already in canonical form, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._wrap({0: 1})

    @classmethod
    def from_int_coeffs(cls, coeffs: list[int]) -> "LaurentPoly":
        """coeffs[k] is the coefficient of v^k."""
        return cls(enumerate(coeffs))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {0}:  # a constant hashes as its int, which it equals
            return hash(self.terms.get(0, 0))
        return hash(tuple(sorted(self.terms.items())))

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self.terms)
        _iadd_into(data, other.terms, 1, 0)
        return LaurentPoly._wrap(data)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + -other if isinstance(other, (int, LaurentPoly)) else NotImplemented

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            c = index(other)
            return LaurentPoly._wrap({e: k * c for e, k in self.terms.items()} if c else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._wrap(_imul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly._wrap({e + k: c for e, c in self.terms.items()})

    def v_inverted(self) -> "LaurentPoly":
        """Substitute v -> 1/v."""
        return LaurentPoly._wrap({-e: c for e, c in self.terms.items()})

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, v0: int | Fraction) -> Fraction:
        return LaurentRat.from_poly(self).eval_exact(v0)

    def eval_complex(self, v0: complex) -> complex:
        return LaurentRat.from_poly(self).eval_complex(v0)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self.terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 2:
                    power = "q"
                elif e % 2 == 0:
                    power = f"q^({e // 2})"
                else:
                    power = f"q^({e}/2)"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"

    def to_json_obj(self) -> dict:
        return {
            "variable": "v",
            "meaning": "q^(1/2)",
            "terms": [[e, str(c)] for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in obj["terms"]})


# -- integer-coefficient helpers for gcd ---------------------------------


def _to_int_list(p: LaurentPoly) -> list[int]:
    """Shift to ordinary polynomial form: list[0] is the v^min term."""
    lo = p.min_exp()
    return _dense(p.terms, lo, p.max_exp() - lo + 1)


def _prim(cs: list[int]) -> list[int]:
    g = int_gcd(*cs)
    if g > 1:
        cs = [c // g for c in cs]
    if cs and cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polynomials, b nonzero."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        # a <- lb*a - la*x^(da-db)*b
        shift = da - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 >= db:
            a = _prim(a)  # a unit factor, which poly_gcd's _prim of the remainder undoes
    return a


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic-at-bottom gcd of Laurent polynomials, up to a unit v^k.

    The result is an ordinary polynomial (minimum exponent 0) with integer
    coefficients and positive leading coefficient; monomial factors v^k are
    units of the Laurent ring and are dropped.
    """
    if p.is_zero():
        return _unitize(q)
    if q.is_zero():
        return _unitize(p)
    # the first and last entries of each list are nonzero
    a, b = _prim(_to_int_list(p)), _prim(_to_int_list(q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prim(_pseudo_rem(a, b))
    return LaurentPoly.from_int_coeffs(a)


def _unitize(p: LaurentPoly) -> LaurentPoly:
    """Normalize a nonzero poly to min exponent 0 and positive primitive coefficients."""
    if p.is_zero():
        return p
    return LaurentPoly.from_int_coeffs(_prim(_to_int_list(p)))


def exact_div_poly(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a/b in the Laurent ring; raises ValueError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quot = _idiv_exact(a.terms, b.terms)
    if quot is None:
        raise ValueError("not divisible")
    return LaurentPoly._wrap(quot)


# -- quantum integers ------------------------------------------------------


def q_int(n: int) -> LaurentPoly:
    """Quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^(1-n)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"q_int requires n >= 0, got {n!r}")
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """Quantum factorial [n]! = [n][n-1]...[1], with [0]! = 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"q_factorial requires n >= 0, got {n!r}")
    if n <= 1:
        return LaurentPoly.one()
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """d-th cyclotomic polynomial Phi_d(v), exact integer coefficients."""
    return LaurentPoly.from_int_coeffs(list(_cyclo_int(d)))


@lru_cache(maxsize=None)
def _bracket_cyclo_divisors(k: int) -> tuple[int, ...]:
    """Divisors d >= 3 of 2k: [k] = v^(1-k) * prod Phi_d(v) over these d."""
    n = 2 * k
    return tuple(d for d in range(3, n + 1) if n % d == 0)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _mobius_steps(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ups, downs) with Phi_d(v) = prod (1 - v^e) over ups / prod (1 - v^e) over downs, d >= 2.

    Phi_d(v) = prod over the divisors k of d of (1 - v^(d/k))^mu(k), and
    mu(k) = 0 unless k is squarefree: ups are the d/k with mu(k) = 1, downs
    those with mu(k) = -1, 2^(w-1) each for w primes of d.  This is
    Phi_r(v^(d/r)) for r = rad(d), with Phi_r = prod over e | r of
    (1 - v^e)^mu(r/e).
    """
    ups, downs = [d], []  # k = 1; then each prime p gives k * p, with mu(k * p) = -mu(k)
    for p in _prime_factors(d):
        ups, downs = ups + [e // p for e in downs], downs + [e // p for e in ups]
    return tuple(ups), tuple(downs)


def _running_sums(c: list, e: int) -> None:
    """c[k] += c[k - e] from low k to high, in place: c times 1 + v^e + v^2e + ...

    One accumulate per class of exponents mod e, or, when the list holds
    fewer than e blocks of e entries, one map(add) per block.
    """
    n = len(c)
    if e * e <= n:
        for r in range(e):
            c[r::e] = accumulate(c[r::e])
    else:
        for i in range(e, n, e):
            c[i : i + e] = map(add, c[i : i + e], c[i - e : i])


def _mobius_quotient(c: list, times: Iterable[int], over: Iterable[int]) -> list | None:
    """c * prod (1 - v^e) over times / prod (1 - v^e) over over, or None if not exact.

    c is a dense coefficient list, entry k the coefficient of v^k, and times
    must not be empty.  Each factor of times is one map(sub) pass over the
    list.  Dividing by 1 - v^e is a running sum, q[k] = c[k] + q[k - e],
    whose top e entries are the remainder, which must be 0.  If the result
    is exact, every intermediate division is, since the factors of over
    divide the product left after the others, so any order gives the same
    answer.  The list must be longer than the result's degree.
    """
    for e in times:
        pad = [0] * e
        c = list(map(sub, c + pad, pad + c))  # a new list, which the passes below may change
    for e in over:
        _running_sums(c, e)
        if any(c[-e:]):
            return None
        del c[-e:]
    return c


@lru_cache(maxsize=None)
def _cyclo_int(d: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_d(v): entry k is the coefficient of v^k.

    For d >= 2, the factors of _mobius_steps(d) are those of Phi_r, r the
    radical of d, at v^step with step = d/r, their least exponent.  Phi_r is
    the power series of prod (1 - v^e) over its ups / prod (1 - v^e) over
    its downs, cut after deg Phi_r: one map(sub) pass per up and one running
    sum per down, then spread to every step-th entry.  Dividing by Phi_d
    (_strip_phi) runs the same factors swapped, so the two cannot drift
    apart.  No long division and no smaller Phi_e.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return (-1, 1)
    ups, downs = _mobius_steps(d)
    step = min(min(ups), min(downs))
    deg = (sum(ups) - sum(downs)) // step
    series = [1] + [0] * deg
    for e in ups:
        e //= step
        if e <= deg:
            series[e:] = map(sub, series[e:], series[:-e])
    for e in downs:
        _running_sums(series, e // step)
    if step == 1:
        return tuple(series)
    out = [0] * (deg * step + 1)
    out[::step] = series
    return tuple(out)


# Measured cut-over (tools/kernel_bench.py): below this many terms in the
# shorter operand the dict schoolbook loop is faster than packing.
_KRONECKER_MIN_TERMS = 12


def _imul_school(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _imul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if min(len(a), len(b)) >= _KRONECKER_MIN_TERMS:
        return _imul_kron(a, b)
    return _imul_school(a, b)


def _iadd_into(acc: dict, term: dict, sign: int, shift: int) -> None:
    """acc += sign * v^shift * term, in place."""
    for e, c in term.items():
        k = e + shift
        s = acc.get(k, 0) + (c if sign > 0 else -c)
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


@lru_cache(maxsize=None)
def _phi_power_int(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """Phi_d^m as sorted (exponent, coefficient) pairs, by repeated squaring."""
    if m == 0:
        return ((0, 1),)
    if m == 1:
        return tuple((e, c) for e, c in enumerate(_cyclo_int(d)) if c)
    half = dict(_phi_power_int(d, m // 2))
    out = _imul(half, half)
    if m % 2:
        out = _imul(out, dict(_phi_power_int(d, 1)))
    return tuple(sorted(out.items()))


def _phi_product(mult: Mapping[int, int]) -> dict[int, int]:
    """Product of Phi_d^m over the entries with m > 0, as a new int dict."""
    return dict(_phi_product_sorted(tuple(sorted((d, m) for d, m in mult.items() if m > 0))))


# Sums over the lcm build the same few numerator products again and again
# (the colorings of a sweep share most of their brackets); the bound keeps
# the memory of long sweeps flat.
@lru_cache(maxsize=512)
def _phi_product_sorted(factors: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """_phi_product over sorted (d, m) pairs.

    First the factors that are polynomials in w = v^2 are folded there:
    Phi_d(v) * Phi_2d(v) = Phi_d(w) for odd d, min(m_d, m_2d) times, and
    Phi_d(v) = Phi_(d/2)(w) when 4 | d.  Their product is one recursive call
    over w, past the cache, so w^2, w^4, ... fold as well, and enters the
    tree as one factor with its exponents doubled.  Otherwise a product of a
    Phi_d and its Phi_2d would only cancel the odd exponents in the last
    multiplications, whose operands then pack twice the slots they need.

    The factors are multiplied in a balanced product tree, always the two
    with fewest terms, so the large multiplications pair operands of similar
    size, where Kronecker substitution pays most.
    """
    if not factors:
        return {0: 1}
    left = dict(factors)
    in_w = {}
    for d, m in factors:
        if d % 4 == 0:
            in_w[d // 2] = left.pop(d)
        elif d % 2 and 2 * d in left:
            k = in_w[d] = min(m, left[2 * d])
            left[d] -= k
            left[2 * d] -= k
    heap = []
    for d, m in left.items():
        if m:
            f = _phi_power_int(d, m)
            heap.append((len(f), d, dict(f)))
    tick = factors[-1][0] + 1  # tie-break after the factor's d, never comparing dicts
    if in_w:
        # uncached: sweeps would fill the cache with these and miss twice as often
        w = _phi_product_sorted.__wrapped__(tuple(sorted(in_w.items())))
        heap.append((len(w), tick, {2 * e: c for e, c in w.items()}))
        tick += 1
    heapify(heap)
    while len(heap) > 1:
        a = heappop(heap)[2]
        b = heappop(heap)[2]
        c = _imul(a, b)
        heappush(heap, (len(c), tick, c))
        tick += 1
    return heap[0][2]


def _idiv_exact(num: dict, den: dict) -> dict | None:
    """num / den in the Laurent ring, or None if den does not divide num.

    One low-to-high pass over a dense copy of num: once the terms below have
    been subtracted, each entry over den's lowest coefficient is the next
    quotient coefficient, and a remainder there means den does not divide
    num over Z.  A lowest coefficient of 1, as every Phi_d has, costs no
    division.
    """
    if not num:
        return {}
    dlo = min(den)
    lead = den[dlo]
    lo = min(num)
    span = max(num) - lo + 1
    top = span - 1 - (max(den) - dlo)  # degree of the quotient, relative to lo
    if top < 0:
        return None
    cur = [0] * span
    for e, c in num.items():
        cur[e - lo] = c
    tail = [(j - dlo, c) for j, c in den.items() if j != dlo]
    for i in range(top + 1):
        q = cur[i]
        if q:
            if lead != 1:
                q, r = divmod(q, lead)
                if r:
                    return None
                cur[i] = q
            for j, c in tail:
                cur[i + j] -= q * c
    if any(cur[top + 1 :]):
        return None
    return {lo - dlo + i: c for i, c in enumerate(cur[: top + 1]) if c}


def _factorial_exponents(ups: Iterable[int], downs: Iterable[int] = ()) -> tuple[int, dict[int, int]]:
    """(v-shift, Phi_d exponents) of prod [n]! over ups divided by prod over downs.

    The map is shared with every other call on the same multisets, so it
    must not be changed in place.
    """
    return _factorial_exponents_sorted(tuple(sorted(ups)), tuple(sorted(downs)))


# Keyed by the sorted multisets: a theta value is symmetric in its colors and
# the tet symmetry images reuse the same factorials.  The cached map itself is
# handed out, which is safe because no form's exponent map is ever mutated in
# place: _add_exponents copies, and _cancel_phi consumes only the lcm map that
# _sum_forms builds.  The bound keeps the memory of long sweeps flat.
@lru_cache(maxsize=1024)
def _factorial_exponents_sorted(ups: tuple[int, ...], downs: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """_factorial_exponents over sorted tuples, in closed form.

    [n]! = prod_{k<=n} v^(1-k) prod_{d>=3, d | 2k} Phi_d, and d divides 2k for
    floor(n/d) of the k <= n when d is odd and for floor(2n/d) when d is even,
    so the exponents are written down without expanding any bracket.
    """
    acc: list[int] = []
    shift = 0
    for ns, step in ((ups, 1), (downs, -1)):
        for n in ns:
            if n < 0:
                raise ValueError("factorial of negative quantum integer")
            if 2 * n >= len(acc):
                acc.extend([0] * (2 * n + 1 - len(acc)))
            shift -= step * (n * (n - 1) // 2)
            for d in range(3, n + 1, 2):
                acc[d] += step * (n // d)
            n2 = 2 * n
            for d in range(4, n2 + 1, 2):
                acc[d] += step * (n2 // d)
    return shift, {d: m for d, m in enumerate(acc) if m}


def _add_exponents(a: dict[int, int], b: dict[int, int], sign: int = 1) -> dict[int, int]:
    """a + sign * b as a new signed exponent map without zero entries."""
    if sign > 0 and len(b) > len(a):
        a, b = b, a
    out = dict(a)
    for d, m in b.items():
        s = out.get(d, 0) + sign * m
        if s:
            out[d] = s
        else:
            del out[d]
    return out


def _form_mul(a: tuple, b: tuple) -> tuple:
    sa, ha, ea, pa = a
    sb, hb, eb, pb = b
    poly = pb if pa is None else pa if pb is None else _imul(pa, pb)
    return sa * sb, ha + hb, _add_exponents(ea, eb), poly


def mul_products(a: "LaurentRat", b: "LaurentRat") -> "LaurentRat":
    """Product of two pure products: their exponent maps add, with no sum over an lcm."""
    return LaurentRat._product(*_form_mul(a._form, b._form))


# Measured (tools/kernel_bench.py): a trial on a list shorter than this many
# blocks of d runs the full quotient without the mod v^d - 1 test first.
_FOLD_BLOCKS = 8


def _cancel_phi(num: dict, den: dict[int, int]) -> tuple[dict, dict[int, int]]:
    """num / prod Phi_d^den[d] with every Phi_d the two share divided out of both.

    Returns the stripped num and the form's exponent map of what is left of
    den (negative exponents).  The Phi_d are irreducible, so the two parts
    are then coprime.  den is consumed.  num becomes one dense list, which
    every d of den strips in turn; each Phi_d has constant term 1, so the
    lowest exponent stays.
    """
    if not num or not den:
        return num, {}
    lo = min(num)
    c = _dense(num, lo, max(num) - lo + 1)
    for d in sorted(den):
        c, k = _strip_phi(c, d, den[d])
        den[d] -= k
    return _sparse(c, lo), {d: -m for d, m in den.items() if m}


def _strip_phi(c: list, d: int, most: int) -> tuple[list, int]:
    """(c / Phi_d^k, k) for the largest k <= most with Phi_d^k dividing c.

    c is a dense coefficient list whose first and last entries are nonzero,
    and so is the quotient.  Each division is _mobius_quotient with the
    passes of Phi_d swapped: times its downs, over its ups.  A list no
    longer than deg Phi_d cannot be divided.  A long list, of at least
    _FOLD_BLOCKS * d entries, is first reduced mod v^d - 1, which Phi_d
    divides, by summing each class of exponents mod d, and the same quotient
    of that length-d list decides whether the full division runs.
    """
    ups, downs = _mobius_steps(d)
    deg = sum(ups) - sum(downs)
    k = 0
    while k < most and len(c) > deg:
        if len(c) >= _FOLD_BLOCKS * d and _mobius_quotient([sum(c[r::d]) for r in range(d)], downs, ups) is None:
            break
        q = _mobius_quotient(c, downs, ups)
        if q is None:
            break
        c = q
        k += 1
    return c, k


def _exponent_floor(maps: list[dict[int, int]]) -> dict[int, int]:
    """The least exponent of each Phi_d over the maps, a missing d read as 0; zeros dropped."""
    floor: dict[int, int] = {}
    for phi in maps:
        for d, m in phi.items():
            if m < floor.get(d, 0):
                floor[d] = m
    # a positive least exponent needs d in every map, the shortest one too
    for d, m in min(maps, key=len).items():
        if m > 0 and d not in floor:
            m = min(phi.get(d, 0) for phi in maps)
            if m:
                floor[d] = m
    return floor


def _sum_forms(forms: Iterable[tuple]) -> "LaurentRat":
    """Canonical sum of forms, without a gcd.

    The terms are brought over the lcm of their denominators in the Phi_d
    basis, and the numerator sum is stripped of every Phi_d it shares with
    that lcm (_cancel_phi).  A single term without a poly stays a pure
    product.
    """
    live = [f for f in forms if f[3] is None or f[3]]
    if not live:
        return LaurentRat.zero()
    if len(live) == 1 and live[0][3] is None:
        return LaurentRat._product(*live[0])
    # the floor's negative part is the lcm of the denominators, and its
    # positive part the Phi_d powers every numerator shares, which are
    # factored out of the sum; the term whose denominator holds the lcm's
    # power of Phi_d has none of that Phi_d over the lcm, so these never
    # cancel against the denominator
    floor = _exponent_floor([phi for _, _, phi, _ in live])
    lcm = {d: -m for d, m in floor.items() if m < 0}
    common = {d: m for d, m in floor.items() if m > 0}
    num: dict = {}
    for sign, shift, phi, poly in live:
        # the term's numerator over the lcm, without the shared powers
        term = _phi_product(_add_exponents(phi, floor, -1))
        if poly is not None:
            term = _imul(term, poly)
        _iadd_into(num, term, sign, shift)
    num, phi = _cancel_phi(num, lcm)
    if common and num:
        num = _imul(num, _phi_product(common))
    return LaurentRat._product(1, 0, phi, num)


def bracket_ratio_sum(values: Iterable["LaurentRat"]) -> LaurentRat:
    """Exact sum of values, such as bracket ratios, over the lcm of their denominators, with no gcd."""
    return _sum_forms(v._form for v in values)


def rat_dot(pairs: Iterable[tuple["LaurentRat", "LaurentRat"]]) -> LaurentRat:
    """Exact sum of products a_i * b_i, normalized once over the lcm of the denominators."""
    return _sum_forms(_form_mul(a._form, b._form) for a, b in pairs)


# -- zero test by evaluation at a power of two ---------------------------------


@lru_cache(maxsize=None)
def _cyclo_l1(d: int) -> int:
    """The l1 norm of Phi_d: the sum of its coefficients' absolute values."""
    return sum(map(abs, _cyclo_int(d)))


# keyed by (d, k); a sweep meets few bit widths, and the bound keeps a long
# sweep's memory flat
@lru_cache(maxsize=1024)
def _cyclo_at_pow2(d: int, k: int) -> int:
    """Phi_d(2^k), by Horner with shifts."""
    acc = 0
    for c in reversed(_cyclo_int(d)):
        acc = (acc << k) + c
    return acc


def rat_dot_vanishes(pairs: Iterable[tuple["LaurentRat", "LaurentRat"]]) -> bool:
    """Whether sum a_i * b_i is zero, decided by one evaluation at v = 2^k.

    Equal to rat_dot(pairs).is_zero(), without expanding the sum; see the
    module docstring for the bound that makes the test exact.
    """
    terms = []  # (sign, shift, Phi_d exponents, polys) of each nonzero product
    for a, b in pairs:
        sa, ha, ea, pa = a._form
        sb, hb, eb, pb = b._form
        polys = tuple(p for p in (pa, pb) if p is not None)
        if all(polys):
            phi = eb if not ea else ea if not eb else _add_exponents(ea, eb)
            terms.append((sa * sb, ha + hb, phi, polys))
    if not terms:
        return True
    norms = {}  # id(poly) -> l1 norm; the same poly may sit in several terms
    for term in terms:
        for p in term[3]:
            if id(p) not in norms:
                norms[id(p)] = sum(map(abs, p.values()))
    # over the lcm of the denominators, with the Phi_d powers that every
    # numerator shares factored out, term i keeps Phi_d^(phi_i[d] - floor[d])
    floor = _exponent_floor([term[2] for term in terms])
    needs = [_add_exponents(term[2], floor, -1) for term in terms] if floor else [term[2] for term in terms]
    bound = 0
    for term, need in zip(terms, needs):
        size = 1
        for d, m in need.items():
            size *= _cyclo_l1(d) ** m
        for p in term[3]:
            size *= norms[id(p)]
        bound += size
    k = bound.bit_length() + 2  # every coefficient is below 2^k / 2
    # the terms that share their polys are summed first, so each group takes one
    # multiplication by its polys' values
    groups: dict[tuple, list] = {}  # poly ids -> (polys, [(shift, value without the polys)])
    for (sign, shift, _, polys), need in zip(terms, needs):
        value = sign
        for d, m in need.items():
            value *= _cyclo_at_pow2(d, k) ** m
        groups.setdefault(tuple(map(id, polys)), (polys, []))[1].append((shift, value))
    values = {}  # id(poly) -> (lowest exponent, value at 2^k over 2^(k lo))
    placed = []  # (exponent of 2^k, value)
    for polys, parts in groups.values():
        low = min(h for h, _ in parts)
        value = sum(v << k * (h - low) for h, v in parts)
        if not value:
            continue
        for p in polys:
            got = values.get(id(p))
            if got is None:
                lo = min(p)
                got = values[id(p)] = (lo, sum(c << k * (e - lo) for e, c in p.items()))
            low += got[0]
            value *= got[1]
        placed.append((low, value))
    if not placed:
        return True
    base = min(e for e, _ in placed)
    return not sum(value << k * (e - base) for e, value in placed)


# -- exact evaluation at a Gaussian-rational point -------------------------------

# A block of fewer terms runs Horner directly; cut-overs from 8 to 64 timed
# alike on the values of theta(56,60,64) and tet_primed((40,)*6).
_HORNER_TERMS = 24


def _gmul(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """(ar + i ai)(br + i bi), by three products unless both are real."""
    if not (ai or bi):
        return ar * br, 0
    k = br * (ar + ai)
    return k - ai * (br + bi), k + ar * (bi - br)


def _gpow(x: int, y: int, k: int) -> tuple[int, int]:
    """(x + iy)^k for k >= 0, by binary powering from the top bit."""
    out = (1, 0)
    for bit in bin(k)[2:]:
        out = _gmul(*out, *out)
        if bit == "1":
            out = _gmul(*out, x, y)
    return out


def _homogeneous(c: list, x: int, y: int, s: int) -> tuple[int, int]:
    """sum c[k] * g^k * s^(n-1-k) over the n entries of c, g = x + iy.

    H(c) = s^(n-h) H(c[:h]) + g^h H(c[h:]) with h = n // 2, each g^h taken
    once per call; a block of fewer than _HORNER_TERMS entries runs Horner,
    and s^k is a shift when s = 2^m.
    """
    m = s.bit_length() - 1
    shift = s == 1 << m
    gpow: dict[int, tuple[int, int]] = {}

    def up(a: int, k: int) -> int:  # a * s^k
        return a << m * k if shift else a * s**k

    def run(i: int, n: int) -> tuple[int, int]:
        if n < _HORNER_TERMS:
            re, im = c[i + n - 1], 0
            for k in range(1, n):
                re, im = re * x - im * y + up(c[i + n - 1 - k], k), re * y + im * x
            return re, im
        h = n // 2
        if h not in gpow:
            gpow[h] = _gpow(x, y, h)
        ar, ai = run(i, h)
        br, bi = _gmul(*run(i + h, n - h), *gpow[h])
        return up(ar, n - h) + br, up(ai, n - h) + bi

    return run(0, len(c))


def _eval_ratio(num: dict, den: dict, x: int, y: int, s: int) -> tuple[int, int, int]:
    """(re, im, d) with num / den = (re + i im) / d at v = (x + iy) / s, and d > 0.

    Each dict is g^lo s^-hi times the _homogeneous value of its dense list
    from one lo, so the quotient is a Gaussian rational, and its
    denominator's conjugate leaves the integer d.  When every exponent has
    the parity of lo, as in tet_primed's values, the lists keep every other
    slot and run in w = v^2, at g^2 over s^2.  Raises PoleError when den
    vanishes at v, or v = 0 meets a negative exponent of num.
    """
    if not num:
        return 0, 0, 1
    lo = min(min(num), min(den))
    gx, gy, gs, step = x, y, s, 1
    if len(set(map((1).__and__, chain(num, den)))) == 1:
        gx, gy, gs, step = x * x - y * y, 2 * x * y, s * s, 2
    nr, ni = _homogeneous(_dense(num, lo, max(num) - lo + 1)[::step], gx, gy, gs)
    dr, di = _homogeneous(_dense(den, lo, max(den) - lo + 1)[::step], gx, gy, gs)
    t = max(den) - max(num)
    f = s ** abs(t)
    nr, ni, dr, di = (nr * f, ni * f, dr, di) if t >= 0 else (nr, ni, dr * f, di * f)
    if not (dr or di):
        raise PoleError("pole at the evaluation point")
    if di:
        return (*_gmul(nr, ni, dr, -di), dr * dr + di * di)
    return (nr, ni, dr) if dr > 0 else (-nr, -ni, -dr)


class LaurentRat:
    """Element of the fraction field of Laurent polynomials in v, over a product of Phi_d.

    The value is one form (sign, shift, phi, poly), see the module
    docstring.  Canonical form: num and den coprime, den = prod Phi_d^-m over
    the negative exponents m of phi, so its lowest term is 1 at exponent 0.
    num and den are expanded, and kept, when first read.

    LaurentRat(value) takes an int, a LaurentPoly or a LaurentRat.
    """

    __slots__ = ("_form", "_num", "_den")

    def __init__(self, value):
        value = _lift(value)
        if value is None:
            raise TypeError("LaurentRat takes an int, a LaurentPoly or a LaurentRat")
        self._form, self._num, self._den = value._form, value._num, value._den

    # -- constructors ---------------------------------------------------

    @classmethod
    def _product(cls, sign: int, shift: int, phi: dict[int, int], poly: dict | None = None) -> "LaurentRat":
        """The form sign * v^shift * poly * prod Phi_d^phi[d], already canonical."""
        out = cls.__new__(cls)
        out._form = (sign, shift, phi, poly)
        out._num = out._den = None
        return out

    @classmethod
    def zero(cls) -> "LaurentRat":
        return cls._product(1, 0, {}, {})

    @classmethod
    def one(cls) -> "LaurentRat":
        return cls._product(1, 0, {})

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "LaurentRat":
        out = cls._product(1, 0, {}, p.terms)
        out._num = p
        return out

    @classmethod
    def factorials(cls, sign: int, ups: Iterable[int], downs: Iterable[int] = ()) -> "LaurentRat":
        """sign * prod [n]! over ups / prod [n]! over downs, as a pure product."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls._product(sign, *_factorial_exponents(ups, downs))

    @classmethod
    def brackets(cls, sign: int, ups: Collection[int], downs: Collection[int] = ()) -> "LaurentRat":
        """sign * prod [k] over ups / prod [k] over downs, as a pure product.

        [k] contributes v^(1-k) and Phi_d for each d >= 3 dividing 2k, and
        [-k] = -[k].  A [0] among ups makes the value 0; among downs it
        raises ZeroDivisionError.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if 0 in downs:
            raise ZeroDivisionError("bracket [0] is zero")
        if 0 in ups:
            return cls.zero()
        shift = 0
        phi: dict[int, int] = {}
        for ks, step in ((ups, 1), (downs, -1)):
            for k in ks:
                if k < 0:
                    k = -k
                    sign = -sign
                shift += step * (1 - k)
                for d in _bracket_cyclo_divisors(k):
                    phi[d] = phi.get(d, 0) + step
        return cls._product(sign, shift, {d: m for d, m in phi.items() if m})

    # -- representation ---------------------------------------------------

    @property
    def num(self) -> LaurentPoly:
        if self._num is None:
            sign, shift, phi, poly = self._form
            num = _phi_product(phi)
            if poly is not None:
                num = _imul(num, poly) if len(num) > 1 else poly
            if sign < 0 or shift:
                num = {e + shift: sign * c for e, c in num.items()}
            self._num = LaurentPoly._wrap(num)
        return self._num

    @property
    def den(self) -> LaurentPoly:
        if self._den is None:
            self._den = LaurentPoly._wrap(_phi_product(self._den_map()))
        return self._den

    def _den_map(self) -> dict[int, int]:
        return {d: -m for d, m in self._form[2].items() if m < 0}

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        poly = self._form[3]
        return poly is not None and not poly

    def is_laurent_poly(self) -> bool:
        """True when the reduced denominator is 1."""
        return all(m > 0 for m in self._form[2].values())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = _lift(other)
        if o is None:
            return NotImplemented
        a, b = self._form, o._form
        if a[3] is None and b[3] is None:
            # unique factorization: equal products have equal triples
            return a[:3] == b[:3]
        return self._den_map() == o._den_map() and self.num == o.num

    def __hash__(self):
        # a value with denominator 1 hashes as its numerator, which it equals
        return hash(self.num) if self.is_laurent_poly() else hash((self.num, self.den))

    # -- field operations ---------------------------------------------------

    def __neg__(self) -> "LaurentRat":
        sign, shift, phi, poly = self._form
        return LaurentRat._product(-sign, shift, phi, poly)

    def __add__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _sum_forms((self._form, o._form))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _sum_forms((self._form, (-o._form[0], *o._form[1:])))

    def __rsub__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _sum_forms((_form_mul(self._form, o._form),))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero value")
        s1, h1, e1, p1 = self._form
        s2, h2, e2, p2 = o._form
        if p2 is not None:
            raise ValueError("a divisor must be a signed product of brackets and factorials, with no polynomial part")
        return _sum_forms(((s1 * s2, h1 - h2, _add_exponents(e1, e2, -1), p1),))

    def __rtruediv__(self, other) -> "LaurentRat":
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def v_inverted(self) -> "LaurentRat":
        sign, shift, phi, poly = self._form
        # Phi_d(1/v) = v^-deg(Phi_d) * Phi_d(v) for every d >= 2
        shift = -shift - sum(m * (len(_cyclo_int(d)) - 1) for d, m in phi.items())
        if poly is not None:
            poly = {-e: c for e, c in poly.items()}
        return LaurentRat._product(sign, shift, phi, poly)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, v0: int | Fraction) -> Fraction:
        v0 = _exact_point(v0)
        re, _, d = _eval_ratio(self.num.terms, self.den.terms, v0.numerator, 0, v0.denominator)
        return Fraction(re, d)

    def eval_complex(self, v0: complex) -> complex:
        """The value at v0, each part rounded once (CPython's int / int is correctly rounded).

        A float or complex v0 is (x + iy) / 2^m exactly, by as_integer_ratio.
        """
        z = complex(v0)
        (x, a), (y, b) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        s = max(a, b)
        re, im, d = _eval_ratio(self.num.terms, self.den.terms, x * (s // a), y * (s // b), s)
        try:
            return complex(re / d, im / d)
        except OverflowError:
            raise OverflowError(f"the value at v = {v0} is beyond a double's range") from None

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        # not a call: the constructor takes no (num, den) pair
        return f"<LaurentRat num={self.num!r} den={self.den!r}>"

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_json_obj(), "den": self.den.to_json_obj()}

    # perfbench/spans.py is the only reader of this method and of the
    # BracketRatio alias below; both go when its targets drop them
    def to_laurent_rat(self) -> "LaurentRat":
        return self


BracketRatio = LaurentRat


def _lift(other) -> LaurentRat | None:
    if isinstance(other, LaurentRat):
        return other
    if isinstance(other, int):
        other = LaurentPoly({0: other})
    if isinstance(other, LaurentPoly):
        return LaurentRat.from_poly(other)
    return None
