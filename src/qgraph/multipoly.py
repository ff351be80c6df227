"""Multivariate Laurent polynomials with integer coefficients.

Used for classical curve polynomials in the edge/twist variables and for
quantum operator coefficients, where the half-integer power of q is carried
by an ordinary variable "v" (v = q^(1/2), so q^k enters as v^(2k)).

Terms are a sparse map {exponent tuple: int coefficient} aligned with a
sorted tuple of variable names, so the ring is Z[x^+-1, ...].  As in
qgraph.laurent, the constructors and the scalar operations take an int
(operator.index) and raise TypeError on anything else, a Fraction too, and
from_json_obj parses int strings; rational numbers appear only as the
values of eval_fraction.  Variables that appear only with exponent zero are
dropped on construction, so structural equality is semantic equality.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from operator import add, index, mul
from typing import Mapping, Optional

from .laurent import PoleError, _exact_point


def _drop_unused(vars: tuple[str, ...], data: dict) -> tuple[tuple[str, ...], dict]:
    """Remove the variables whose exponent is zero in every term."""
    if not data:
        return (), data
    if vars:
        keep = [i for i in range(len(vars)) if any(e[i] for e in data)]
        if len(keep) < len(vars):
            vars = tuple(vars[i] for i in keep)
            data = {tuple(e[i] for i in keep): c for e, c in data.items()}
    return vars, data


def _mul_terms(ta: dict, tb: dict) -> dict:
    """The product of two term maps over the same variables, like terms summed."""
    if len(ta) > len(tb):
        ta, tb = tb, ta
    data: dict[tuple[int, ...], int] = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = tuple(map(add, e1, e2))
            p = c1 * c2
            s = data.get(e)
            s = p if s is None else s + p
            if s:
                data[e] = s
            else:
                del data[e]
    return data


def _add_into(data: dict, terms) -> None:
    """data += the (exponents, coefficient) pairs of terms, in order, dropping
    the coefficients that cancel."""
    for e, c in terms:
        s = data.get(e)
        if s is None:
            data[e] = c
            continue
        s += c
        if s:
            data[e] = s
        else:
            del data[e]


_SLOT = 1 << 64


def _packed_columns(p: "MultiPoly") -> tuple:
    """Per variable (raise, top, column): the exponents plus raise >= 0, top their
    largest, packed as sum of (e + raise) * 2^(64 j) over the terms j; () when
    an exponent does not fit its slot."""
    out = []
    for i in range(len(p.vars)):
        col = [exps[i] for exps in p.terms]
        raise_by = max(0, -min(col))
        high = max(col) + raise_by
        if high >= _SLOT:
            return ()
        packed = int.from_bytes(b"".join((e + raise_by).to_bytes(8, "little") for e in col), "little")
        out.append((raise_by, high, packed))
    return tuple(out)


class MultiPoly:
    # _plan: evaluate's power keys and per-term factors (_evaluate_plan), and
    # _columns: weighted_degrees' packed exponent columns; both filled on first use
    __slots__ = ("vars", "terms", "_plan", "_columns")

    def __init__(self, vars: tuple[str, ...] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        vars = tuple(vars)
        data: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                c = index(c)
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
        vars, data = _drop_unused(vars, data)
        # canonical variable order
        if vars and list(vars) != sorted(vars):
            order = sorted(range(len(vars)), key=lambda i: vars[i])
            vars = tuple(vars[i] for i in order)
            data = {tuple(e[i] for i in order): c for e, c in data.items()}
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars}")
        self.vars = vars
        self.terms = data
        self._plan = self._columns = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _make(cls, vars: tuple[str, ...], data: dict) -> "MultiPoly":
        """A poly from canonical parts: vars sorted and unique, coefficients
        canonical and nonzero.  Only drops the vars that no longer occur."""
        out = cls.__new__(cls)
        out.vars, out.terms = _drop_unused(vars, data)
        out._plan = out._columns = None
        return out

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = index(c)
        if not c:
            return cls()
        return cls._make((), {(): c})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str, exp: int = 1, coeff=1) -> "MultiPoly":
        coeff = index(coeff)
        if not coeff:
            return cls()
        if exp == 0:
            return cls.const(coeff)
        return cls._make((name,), {(exp,): coeff})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff=1) -> "MultiPoly":
        coeff = index(coeff)
        if not coeff:
            return cls()
        items = sorted((n, e) for n, e in exps.items() if e)
        return cls._make(tuple(n for n, _ in items), {tuple(e for _, e in items): coeff})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if not self.vars:  # a constant hashes as its int, which it equals
            return hash(self.terms.get((), 0))
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
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            key = exps[:i] + exps[i + 1:]
            buckets.setdefault(k, {})[key] = c
        return {k: MultiPoly._make(rest, t) for k, t in buckets.items()}

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
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars, ta, tb = self._unify(self, other)
        data = dict(ta)
        _add_into(data, tb.items())
        return MultiPoly._make(vars, data)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            c = index(other)
            if not c:
                return MultiPoly.zero()
            return MultiPoly._make(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        vars, ta, tb = self._unify(self, other)
        return MultiPoly._make(vars, _mul_terms(ta, tb))

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
        """Replace variables by nonzero monomials c * m.

        Each term maps to one term: its exponents by a linear map, its
        coefficient times c^e for each bound exponent e; terms that collide
        merge in term order, as in a sum.  A negative power needs a unit
        binding, c = +-1.  Any other binding raises ValueError.
        """
        for n, b in bindings.items():
            if len(b.terms) != 1:
                raise ValueError(f"{n} must be bound to a nonzero monomial, got {b}")
        if not any(n in bindings for n in self.vars):
            return self
        images = [bindings.get(n) or MultiPoly.var(n) for n in self.vars]
        space = tuple(sorted(set().union(*(b.vars for b in images))))
        pos = {n: k for k, n in enumerate(space)}
        # each coordinate of space gathers one of a term's exponents (index
        # len(self.vars) reads a 0) and adds the rest of the exponent map;
        # scaled holds the variables whose binding's coefficient is not 1
        zero = len(self.vars)
        gather, rest, scaled = [zero] * len(space), [], []
        for i, b in enumerate(images):
            (exps, c), = b.terms.items()
            for m, x in zip(b.vars, exps):
                if x == 1 and gather[pos[m]] == zero:
                    gather[pos[m]] = i
                else:
                    rest.append((pos[m], i, x))
            if c != 1:
                scaled.append((i, c))

        def mapped():
            for exps, c in self.terms.items():
                for i, bc in scaled:
                    if exps[i] < 0 and bc != -1:
                        raise ValueError(f"a negative power of {self.vars[i]} needs a binding with coefficient +-1")
                    c *= bc ** abs(exps[i])  # 1/c = c for c = -1
                key = tuple(map((exps + (0,)).__getitem__, gather))
                if rest:
                    key = list(key)
                    for p, i, x in rest:
                        key[p] += x * exps[i]
                    key = tuple(key)
                yield key, c

        out: dict[tuple[int, ...], int] = {}
        _add_into(out, mapped())
        return MultiPoly._make(space, out)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        missing = [n for n in self.vars if n not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        if self._plan is None:
            self._plan = self._evaluate_plan()
        keys, plan = self._plan
        vals = [complex(point[n]) for n in self.vars]
        powers = []
        for i, e in keys:
            vv = vals[i]
            if vv == 0 and e < 0:
                raise PoleError("negative power at zero")
            powers.append(vv ** e)
        total = 0j
        for t, factors in plan:
            for k in factors:
                t *= powers[k]
            total += t
        return total

    def _evaluate_plan(self) -> tuple[list, list]:
        """The distinct nonzero (var index, exponent) pairs, in order of first
        use, and per term in term order its complex coefficient and the
        positions of its pairs in var order."""
        keys: dict[tuple[int, int], int] = {}
        plan = []
        for exps, c in self.terms.items():
            factors = [keys.setdefault((i, e), len(keys)) for i, e in enumerate(exps) if e]
            plan.append((complex(c), factors))
        return list(keys), plan

    def weighted_degrees(self, weights: Mapping[str, int]) -> list[int]:
        """sum of weights[name] * exponent over the variables, for each term in term order.

        Each variable's exponent column is kept as one int with a 64-bit slot
        per term, raised to be nonnegative, so for nonnegative weights whose
        sums fit the slots the whole list comes from one multiply-add per
        variable; other weights take the per-term sum.
        """
        ws = [weights[name] for name in self.vars]
        if self._columns is None:
            self._columns = _packed_columns(self)
        if min(ws, default=0) >= 0 and self._columns:
            total = offset = top = 0
            for w, (raise_by, high, packed) in zip(ws, self._columns):
                total += w * packed
                offset += w * raise_by
                top += w * high
            if top < _SLOT:
                raw = array("Q", total.to_bytes(8 * len(self.terms), "little"))
                if sys.byteorder != "little":
                    raw.byteswap()
                return [e - offset for e in raw]
        return [sum(map(mul, ws, exps)) for exps in self.terms]

    def eval_fraction(self, point: Mapping[str, int | Fraction]) -> Fraction:
        missing = [n for n in self.vars if n not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        total = Fraction(0)
        vals = [_exact_point(point[n]) for n in self.vars]
        for exps, c in self.terms.items():
            t = c
            for vv, e in zip(vals, exps):
                if e:
                    if vv == 0 and e < 0:
                        raise PoleError("negative power at zero")
                    t *= vv ** e
            total += t
        return total

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
        return cls(tuple(obj["vars"]), {tuple(int(x) for x in e): int(c) for e, c in obj["terms"]})


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
    return MultiPoly._make(p.vars, terms), shifts


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
    quot: dict[tuple[int, ...], int] = {}
    cur = dict(ta)
    while cur:
        lead = max(cur)
        qe = tuple(x - y for x, y in zip(lead, lead_b))
        if any(e < 0 for e in qe):
            raise ValueError("not divisible")
        qc, r = divmod(cur[lead], cb)
        if r:
            raise ValueError("not divisible")
        quot[qe] = qc
        for e, c in tb.items():
            t = tuple(map(add, e, qe))
            s = cur.get(t, 0) - qc * c
            if s:
                cur[t] = s
            elif t in cur:
                del cur[t]
    q = MultiPoly._make(vars, quot)
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
    ratio, r = divmod(ta[ea], tb[eb])
    if r:
        return None
    for e, c in tb.items():
        t = tuple(x + y for x, y in zip(e, shift))
        if ta.get(t) != ratio * c:
            return None
    return MultiPoly._make(vars, {shift: ratio})


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

