"""Multivariate Laurent polynomials with exact rational coefficients.

Used for classical curve polynomials in the edge/twist variables and for
quantum operator coefficients, where the half-integer power of q is carried
by an ordinary variable "v" (v = q^(1/2), so q^k enters as v^(2k)).

Terms are a sparse map {exponent tuple: Fraction} aligned with a sorted
tuple of variable names.  Variables that appear only with exponent zero are
dropped on construction, so structural equality is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .laurent import LaurentPoly, PoleError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...] = (), terms: Mapping[tuple[int, ...], Fraction] | None = None):
        vars = tuple(vars)
        data: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _coerce(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != len(vars):
                    raise ValueError("exponent tuple length mismatch")
                acc = data.get(exps)
                c = c if acc is None else acc + c
                if c:
                    data[exps] = c
                elif exps in data:
                    del data[exps]
        # drop variables that never occur
        if vars and data:
            used = [any(exps[i] for exps in data) for i in range(len(vars))]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                vars = tuple(vars[i] for i in keep)
                data = {tuple(e[i] for i in keep): c for e, c in data.items()}
        elif vars:
            vars = ()
        # canonical variable order
        if vars and list(vars) != sorted(vars):
            order = sorted(range(len(vars)), key=lambda i: vars[i])
            vars = tuple(vars[i] for i in order)
            data = {tuple(e[i] for i in order): c for e, c in data.items()}
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars}")
        self.vars = vars
        self.terms = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = _coerce(c)
        if not c:
            return cls()
        out = cls.__new__(cls)
        out.vars = ()
        out.terms = {(): c}
        return out

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str, exp: int = 1, coeff=1) -> "MultiPoly":
        coeff = _coerce(coeff)
        if not coeff:
            return cls()
        if exp == 0:
            return cls.const(coeff)
        out = cls.__new__(cls)
        out.vars = (name,)
        out.terms = {(exp,): coeff}
        return out

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff=1) -> "MultiPoly":
        coeff = _coerce(coeff)
        if not coeff:
            return cls()
        items = sorted((n, e) for n, e in exps.items() if e)
        out = cls.__new__(cls)
        out.vars = tuple(n for n, _ in items)
        out.terms = {tuple(e for _, e in items): coeff}
        return out

    @classmethod
    def from_laurent(cls, p: LaurentPoly, name: str = "v") -> "MultiPoly":
        return cls((name,), {(e,): c for e, c in p.terms.items()})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): _ONE}

    def is_constant(self) -> bool:
        return not self.vars

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError("not a constant")
        return self.terms.get((), _ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if i is None or not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def min_exp_in(self, name: str) -> int:
        i = self._index(name)
        if i is None or not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def _index(self, name: str) -> Optional[int]:
        try:
            return self.vars.index(name)
        except ValueError:
            return None

    def coeffs_in(self, name: str) -> dict[int, "MultiPoly"]:
        """Decompose as sum_k coeff_k * name^k; coefficients omit name."""
        i = self._index(name)
        if i is None:
            return {0: self} if self.terms else {}
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            key = exps[:i] + exps[i + 1:]
            buckets.setdefault(k, {})[key] = c
        return {k: MultiPoly(rest, t) for k, t in buckets.items()}

    def coeff_of(self, name: str, k: int) -> "MultiPoly":
        return self.coeffs_in(name).get(k, MultiPoly.zero())

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _unify(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        vars = tuple(sorted(set(a.vars) | set(b.vars)))
        pos_a = [vars.index(n) for n in a.vars]
        pos_b = [vars.index(n) for n in b.vars]
        n = len(vars)

        def remap(terms, pos):
            out = {}
            for exps, c in terms.items():
                key = [0] * n
                for p, e in zip(pos, exps):
                    key[p] = e
                out[tuple(key)] = c
            return out

        return vars, remap(a.terms, pos_a), remap(b.terms, pos_b)

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars, ta, tb = self._unify(self, other)
        data = dict(ta)
        for e, c in tb.items():
            s = data.get(e, _ZERO) + c
            if s:
                data[e] = s
            elif e in data:
                del data[e]
        return MultiPoly(vars, data)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return MultiPoly.zero()
            out = MultiPoly.__new__(MultiPoly)
            out.vars = self.vars
            out.terms = {e: k * c for e, k in self.terms.items()}
            return out
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        vars, ta, tb = self._unify(self, other)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        data: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = data.get(e)
                p = c1 * c2
                s = p if s is None else s + p
                if s:
                    data[e] = s
                elif e in data:
                    del data[e]
        return MultiPoly(vars, data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- substitution / evaluation --------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Replace variables by polynomials.

        A variable appearing with negative exponents may only be bound to an
        invertible value: a single-term polynomial (unit monomial).
        """
        if not bindings:
            return self
        idx = [(i, bindings[n]) for i, n in enumerate(self.vars) if n in bindings]
        if not idx:
            return self
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def bound_power(i: int, b: MultiPoly, e: int) -> MultiPoly:
            key = (i, e)
            got = pow_cache.get(key)
            if got is not None:
                return got
            if e >= 0:
                val = b ** e
            else:
                if not b.is_monomial():
                    raise ValueError(f"negative power of {self.vars[i]} needs invertible binding")
                (exps, c), = b.terms.items()
                inv = MultiPoly(b.vars, {tuple(-x for x in exps): _ONE / c})
                val = inv ** (-e)
            pow_cache[key] = val
            return val

        out = MultiPoly.zero()
        for exps, c in self.terms.items():
            rest = {n: e for n, e in zip(self.vars, exps) if n not in bindings and e}
            term = MultiPoly.monomial(rest, c)
            for i, b in idx:
                e = exps[i]
                if e:
                    term = term * bound_power(i, b, e)
            out = out + term
        return out

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        missing = [n for n in self.vars if n not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        total = 0j
        vals = [complex(point[n]) for n in self.vars]
        for exps, c in self.terms.items():
            t = complex(c)
            for vv, e in zip(vals, exps):
                if e:
                    if vv == 0 and e < 0:
                        raise PoleError("negative power at zero")
                    t *= vv ** e
            total += t
        return total

    def eval_fraction(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [n for n in self.vars if n not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        total = _ZERO
        vals = [_coerce(point[n]) for n in self.vars]
        for exps, c in self.terms.items():
            t = c
            for vv, e in zip(vals, exps):
                if e:
                    if vv == 0 and e < 0:
                        raise PoleError("negative power at zero")
                    t *= vv ** e
            total += t
        return total

    def to_laurent(self, name: str = "v") -> LaurentPoly:
        """Convert a univariate-in-`name` (or constant) polynomial to LaurentPoly."""
        if not self.terms:
            return LaurentPoly()
        if self.vars == ():
            return LaurentPoly({0: self.terms[()]})
        if self.vars != (name,):
            raise ValueError(f"polynomial in {self.vars} is not univariate in {name!r}")
        return LaurentPoly({e[0]: c for e, c in self.terms.items()})

    # -- rendering -------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            factors = []
            for n, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(n)
                elif e:
                    factors.append(f"{n}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self.terms!r})"

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [[list(e), str(c)] for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MultiPoly":
        return cls(tuple(obj["vars"]), {tuple(int(x) for x in e): Fraction(c) for e, c in obj["terms"]})


# -- exact division -----------------------------------------------------------------


def _min_exps(p: MultiPoly) -> dict[str, int]:
    return {n: p.min_exp_in(n) for n in p.vars}


def _shift_to_poly(p: MultiPoly) -> tuple[MultiPoly, dict[str, int]]:
    """Multiply by a monomial unit so every variable has min exponent 0."""
    shifts = {n: -e for n, e in _min_exps(p).items() if e}
    if not shifts:
        return p, {}
    idx = {n: p.vars.index(n) for n in shifts}
    terms = {}
    for exps, c in p.terms.items():
        e2 = list(exps)
        for n, s in shifts.items():
            e2[idx[n]] += s
        terms[tuple(e2)] = c
    return MultiPoly(p.vars, terms), shifts


def exact_div_multi(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact division in the multivariate Laurent ring; ValueError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return MultiPoly.zero()
    a1, sh_a = _shift_to_poly(a)
    b1, sh_b = _shift_to_poly(b)
    vars, ta, tb = MultiPoly._unify(a1, b1)
    lead_b = max(tb)  # lex order on exponent tuples
    cb = tb[lead_b]
    quot: dict[tuple[int, ...], Fraction] = {}
    cur = dict(ta)
    while cur:
        lead = max(cur)
        qe = tuple(x - y for x, y in zip(lead, lead_b))
        if any(e < 0 for e in qe):
            raise ValueError("not divisible")
        qc = cur[lead] / cb
        quot[qe] = qc
        for e, c in tb.items():
            t = tuple(x + y for x, y in zip(e, qe))
            s = cur.get(t, _ZERO) - qc * c
            if s:
                cur[t] = s
            elif t in cur:
                del cur[t]
    q = MultiPoly(vars, quot)
    # undo the unit shifts: a = a1 * m_a^-1, b = b1 * m_b^-1 => a/b = q * m_b / m_a
    unit = {n: sh_a.get(n, 0) - sh_b.get(n, 0) for n in set(sh_a) | set(sh_b)}
    unit = {n: -e for n, e in unit.items() if e}
    if unit:
        q = q * MultiPoly.monomial(unit)
    return q


def monomial_quotient(a: MultiPoly, b: MultiPoly) -> Optional[MultiPoly]:
    """If a = m * b for a single-term m, return m, else None."""
    if a.is_zero() and b.is_zero():
        return MultiPoly.one()
    if a.is_zero() or b.is_zero():
        return None
    if len(a.terms) != len(b.terms):
        return None
    vars, ta, tb = MultiPoly._unify(a, b)
    ea = max(ta)
    eb = max(tb)
    shift = tuple(x - y for x, y in zip(ea, eb))
    ratio = ta[ea] / tb[eb]
    for e, c in tb.items():
        t = tuple(x + y for x, y in zip(e, shift))
        if ta.get(t) != ratio * c:
            return None
    return MultiPoly(vars, {shift: ratio})


def compare_up_to_unit(p1: MultiPoly, p2: MultiPoly) -> Optional[MultiPoly]:
    """Return the unit monomial u with p1 = u * p2, or None.

    Both inputs must be nonzero; proportionality up to a single-term Laurent
    monomial is the equivalence used when two normalizations of the same
    polynomial differ only by prefactor conventions.
    """
    if p1.is_zero() or p2.is_zero():
        raise ValueError("compare_up_to_unit needs nonzero polynomials")
    return monomial_quotient(p1, p2)


# -- resultant ------------------------------------------------------------------------


def _det(mat: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant by minor expansion, memoized over column subsets."""
    n = len(mat)
    cache: dict[tuple[int, int], MultiPoly] = {}

    def minor(row: int, cols: int) -> MultiPoly:
        if row == n:
            return MultiPoly.one()
        key = (row, cols)
        got = cache.get(key)
        if got is not None:
            return got
        total = MultiPoly.zero()
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not (cols & bit):
                continue
            entry = mat[row][j]
            if entry.terms:
                sub = minor(row + 1, cols & ~bit)
                term = entry * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = total
        return total

    return minor(0, (1 << n) - 1)


def resultant_in(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant eliminating `name`, after clearing its negative powers.

    Clearing negative powers multiplies each input by a unit monomial in
    `name`, which changes the resultant only by a product of coefficient
    monomials; callers use the result up to such factors (vanishing locus
    and divisibility statements are unaffected).
    """
    mp = p.min_exp_in(name)
    mq = q.min_exp_in(name)
    if mp < 0:
        p = p * MultiPoly.var(name, -mp)
    if mq < 0:
        q = q * MultiPoly.var(name, -mq)
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dp == 0 or dq == 0:
        raise ValueError(f"resultant needs positive degree in {name!r} on both sides (got {dp}, {dq})")
    cp = p.coeffs_in(name)
    cq = q.coeffs_in(name)
    size = dp + dq
    zero = MultiPoly.zero()
    mat = []
    for i in range(dq):
        row = [zero] * size
        for k in range(dp + 1):
            row[i + dp - k] = cp.get(k, zero)
        mat.append(row)
    for i in range(dp):
        row = [zero] * size
        for k in range(dq + 1):
            row[i + dq - k] = cq.get(k, zero)
        mat.append(row)
    return _det(mat)

