"""Exact arithmetic kernel: sparse Laurent polynomials and q-series.

Representation
--------------
* A coefficient is an integer Laurent polynomial in the single variable q,
  stored as a ``{exponent: int}`` dict with no zero entries (class ``QPoly``).
* A multivariate Laurent polynomial in x_1..x_n maps exponent tuples to
  ``QPoly`` values (class ``Laurent``).  Exponent tuples are stored DOUBLED:
  the entry ``2*e`` stands for ``x_i**e``, so half-integer exponents remain
  exact integers.
* A ``Ring`` context fixes the rank n and whether the relation
  ``x_1*...*x_n == 1`` is imposed.  Under the relation each monomial is
  reduced by subtracting multiples of (2,...,2) until its minimum doubled
  entry lies in {0, 1} (0 whenever all entries are even).
* A ``QSeries`` is ``q**offset`` times one Laurent polynomial whose q
  exponents all lie in 0..order, with a rational offset and an inclusive
  truncation order.  Its per-exponent coefficients are derived on demand.

Everything is immutable after construction and all integers are unbounded.
"""
from __future__ import annotations

from fractions import Fraction


class RingContextError(ValueError):
    """Raised when operands live in different ring contexts."""


class QPoly:
    """Integer Laurent polynomial in q."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.c = {e: v for e, v in dict(coeffs).items() if v}
        else:
            self.c = {}

    @classmethod
    def _raw(cls, c):
        p = object.__new__(cls)
        p.c = c
        return p

    @classmethod
    def const(cls, v):
        return cls._raw({0: v} if v else {})

    @classmethod
    def term(cls, exp, coeff=1):
        """The monomial coeff * q**exp."""
        return cls._raw({exp: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if isinstance(other, QPoly):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                del out[e]
        return QPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return QPoly._raw({})
            return QPoly._raw({e: v * other for e, v in self.c.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        return QPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = QPOLY_ONE
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, d):
        """Multiply by q**d."""
        return QPoly._raw({e + d: v for e, v in self.c.items()})

    def reversed_q(self):
        """Substitute q -> 1/q."""
        return QPoly._raw({-e: v for e, v in self.c.items()})

    def at(self, value=1):
        """Evaluate at a numeric q."""
        if value == 1:
            return sum(self.c.values())
        return sum(v * Fraction(value) ** e for e, v in self.c.items())

    def min_exp(self):
        return min(self.c) if self.c else None

    def pairs(self):
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self.c.items())

    def truncated(self, order):
        """Drop terms with exponent above ``order``."""
        return QPoly._raw({e: v for e, v in self.c.items() if e <= order})

    def divexact(self, other):
        """Exact quotient self / other.

        Both operands are shifted so the divisor starts at q**0, then an
        ascending-degree division is performed over the integers.  A nonzero
        remainder or a non-integral step raises ArithmeticError: callers use
        this as an internal-consistency check, never as control flow.
        """
        if not other:
            raise ZeroDivisionError("division by zero q-polynomial")
        if not self:
            return QPoly._raw({})
        sv, ov = self.min_exp(), other.min_exp()
        rem = dict(self.shifted(-sv).c)
        den = other.shifted(-ov).c
        dlow = den[0]
        qmax = (max(self.c) - sv) - (max(den))  # exact quotient cannot exceed this
        quot = {}
        while rem:
            e = min(rem)
            v = rem[e]
            if e > qmax or v % dlow:
                raise ArithmeticError("non-exact q-polynomial division")
            f = v // dlow
            quot[e] = f
            for de, dv in den.items():
                ee = e + de
                w = rem.get(ee, 0) - f * dv
                if w:
                    rem[ee] = w
                else:
                    rem.pop(ee, None)
        return QPoly._raw({e + sv - ov: v for e, v in quot.items()})

    def __repr__(self):
        return f"QPoly({self.c!r})"

    def __str__(self):
        if not self.c:
            return "0"
        bits = []
        for e, v in self.pairs():
            if e == 0:
                bits.append(f"{v}")
            else:
                mono = "q" if e == 1 else f"q^{e}"
                if v == 1:
                    bits.append(mono)
                elif v == -1:
                    bits.append(f"-{mono}")
                else:
                    bits.append(f"{v}*{mono}")
        out = bits[0]
        for b in bits[1:]:
            out += f" + {b}" if not b.startswith("-") else f" - {b[1:]}"
        return out


QPOLY_ZERO = QPoly._raw({})
QPOLY_ONE = QPoly._raw({0: 1})


def q_pochhammer(k):
    """(q)_k = prod_{i=1..k} (1 - q**i)."""
    if k < 0:
        raise ValueError("q_pochhammer needs k >= 0")
    out = QPOLY_ONE
    for i in range(1, k + 1):
        out = out * QPoly._raw({0: 1, i: -1})
    return out


def gaussian_multinomial(N, parts):
    """(q)_N / prod (q)_{k_i} as an exact integer polynomial.

    The division is carried out explicitly and asserted to be exact.
    """
    parts = tuple(parts)
    if any(k < 0 for k in parts) or sum(parts) != N:
        raise ValueError("parts must be nonnegative and sum to N")
    out = q_pochhammer(N)
    for k in parts:
        out = out.divexact(q_pochhammer(k))
    return out


class Ring:
    """Context for Laurent polynomials: rank n, optional x_1*...*x_n = 1."""

    __slots__ = ("n", "relation")

    def __init__(self, n, relation=False):
        if n < 1:
            raise ValueError("rank must be positive")
        self.n = n
        self.relation = bool(relation)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.n == other.n
            and self.relation == other.relation
        )

    def __hash__(self):
        return hash((self.n, self.relation))

    def __repr__(self):
        return f"Ring(n={self.n}, relation={self.relation})"

    def canon(self, vec):
        """Canonical representative of a doubled exponent vector."""
        if len(vec) != self.n:
            raise RingContextError(f"exponent vector length {len(vec)} != rank {self.n}")
        if not self.relation:
            return tuple(vec)
        m = min(vec)
        shift = 2 * (m // 2)
        if shift:
            return tuple(e - shift for e in vec)
        return tuple(vec)

    def zero(self):
        return Laurent._raw(self, {})

    def one(self):
        return Laurent._raw(self, {(0,) * self.n: QPOLY_ONE})

    def monomial(self, vec, coeff=None):
        """Monomial with doubled exponent vector ``vec``."""
        if coeff is None:
            coeff = QPOLY_ONE
        elif isinstance(coeff, int):
            coeff = QPoly.const(coeff)
        if not coeff:
            return self.zero()
        return Laurent._raw(self, {self.canon(vec): coeff})

    def gen(self, i):
        """The variable x_i (1-indexed)."""
        vec = [0] * self.n
        vec[i - 1] = 2
        return self.monomial(tuple(vec))

    def gens(self):
        return [self.gen(i) for i in range(1, self.n + 1)]

    def from_terms(self, terms):
        """Build from an iterable of (doubled vector, QPoly | int) pairs."""
        out = {}
        for vec, c in terms:
            if isinstance(c, int):
                c = QPoly.const(c)
            if not c:
                continue
            v = self.canon(vec)
            acc = out.get(v)
            out[v] = c if acc is None else acc + c
        return Laurent._raw(self, {v: c for v, c in out.items() if c})


class Laurent:
    """Multivariate Laurent polynomial with QPoly coefficients."""

    __slots__ = ("ring", "terms")

    @classmethod
    def _raw(cls, ring, terms):
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    def _check(self, other):
        if self.ring != other.ring:
            raise RingContextError(f"mixed contexts {self.ring} and {other.ring}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.ring.n: QPoly.const(other)}
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.n, other)
        self._check(other)
        out = dict(self.terms)
        for v, c in other.terms.items():
            acc = out.get(v)
            w = c if acc is None else acc + c
            if w:
                out[v] = w
            else:
                del out[v]
        return Laurent._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._raw(self.ring, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QPoly)):
            if isinstance(other, int):
                other = QPoly.const(other)
            if not other:
                return self.ring.zero()
            return Laurent._raw(
                self.ring, {v: c * other for v, c in self.terms.items()}
            )
        if not isinstance(other, Laurent):
            return NotImplemented
        self._check(other)
        relation = self.ring.relation
        out = {}
        for v1, c1 in self.terms.items():
            d1 = c1.c
            for v2, c2 in other.terms.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                if relation:
                    m = min(v)
                    shift = 2 * (m // 2)
                    if shift:
                        v = tuple(e - shift for e in v)
                acc = out.get(v)
                if acc is None:
                    acc = out[v] = {}
                for e1, a1 in d1.items():
                    for e2, a2 in c2.c.items():
                        e = e1 + e2
                        w = acc.get(e, 0) + a1 * a2
                        if w:
                            acc[e] = w
                        else:
                            del acc[e]
        return Laurent._raw(
            self.ring, {v: QPoly._raw(d) for v, d in out.items() if d}
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def coeff(self, vec):
        return self.terms.get(self.ring.canon(vec), QPOLY_ZERO)

    def truncated(self, order):
        """Drop terms with q exponent above ``order``."""
        out = {}
        for v, c in self.terms.items():
            c = c.truncated(order)
            if c:
                out[v] = c
        return Laurent._raw(self.ring, out)

    def subs_x_inverse(self):
        """Substitute every x_i -> 1/x_i."""
        out = {}
        for v, c in self.terms.items():
            w = self.ring.canon(tuple(-e for e in v))
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return Laurent._raw(self.ring, {v: c for v, c in out.items() if c})

    def subs_q_inverse(self):
        """Substitute q -> 1/q in every coefficient."""
        return Laurent._raw(
            self.ring, {v: c.reversed_q() for v, c in self.terms.items()}
        )

    def permuted(self, perm):
        """Apply x_i -> x_{perm[i-1]} (perm is a 1-indexed image list)."""
        out = {}
        for v, c in self.terms.items():
            w = [0] * self.ring.n
            for i, e in enumerate(v):
                w[perm[i] - 1] = e
            w = self.ring.canon(tuple(w))
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return Laurent._raw(self.ring, {v: c for v, c in out.items() if c})

    def at_x_ones(self):
        """Evaluate every x_i at 1, leaving a QPoly."""
        out = QPOLY_ZERO
        for c in self.terms.values():
            out = out + c
        return out

    def at_q_one(self):
        """Evaluate q at 1, leaving integer coefficients."""
        return Laurent._raw(
            self.ring,
            {
                v: QPoly.const(c.at(1))
                for v, c in self.terms.items()
                if c.at(1)
            },
        )

    def to_ring(self, ring):
        """Recanonicalize into another ring of the same rank."""
        if ring.n != self.ring.n:
            raise RingContextError("cannot change rank")
        return ring.from_terms(self.terms.items())

    def sorted_terms(self):
        """Deterministic (vector, QPoly) list: lexicographic on vectors."""
        return sorted(self.terms.items())

    def max_vec(self):
        return max(self.terms) if self.terms else None

    def __repr__(self):
        return f"Laurent({self.ring!r}, {len(self.terms)} terms)"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for v, c in self.sorted_terms():
            mono = monomial_str(v)
            cs = str(c)
            if mono == "1":
                bits.append(cs)
            elif cs == "1":
                bits.append(mono)
            elif cs == "-1":
                bits.append(f"-{mono}")
            elif ("+" in cs) or (" - " in cs):
                bits.append(f"({cs})*{mono}")
            else:
                bits.append(f"{cs}*{mono}")
        return " + ".join(bits)


def monomial_str(vec):
    """Render a doubled exponent vector, halving back to true exponents."""
    bits = []
    for i, e in enumerate(vec):
        if e == 0:
            continue
        if e % 2 == 0:
            ex = str(e // 2)
        else:
            ex = f"{e}/2"
        bits.append(f"x{i + 1}" if ex == "1" else f"x{i + 1}^{ex}")
    return "*".join(bits) if bits else "1"


def elementary_symmetric(m, variables):
    """e_m of a list of Laurent polynomials; zero outside 0 <= m <= len."""
    if not variables:
        raise ValueError("need at least one variable to fix the ring")
    ring = variables[0].ring
    if m < 0 or m > len(variables):
        return ring.zero()
    if m == 0:
        return ring.one()
    # DP over prefix products of (1 + z_i t), tracking t-degrees up to m.
    e = [ring.one()] + [ring.zero()] * m
    for z in variables:
        for d in range(min(m, len(e) - 1), 0, -1):
            e[d] = e[d] + e[d - 1] * z
    return e[m]


def determinant(matrix):
    """Exact determinant of a square Laurent matrix.

    Expansion along the first remaining row with memoization on the active
    column set, so repeated minors are computed once.
    """
    r = len(matrix)
    if r == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != r:
            raise ValueError("matrix is not square")
    ring = matrix[0][0].ring
    for row in matrix:
        for entry in row:
            if entry.ring != ring:
                raise RingContextError("matrix entries in mixed contexts")
    memo = {}

    def minor(i, cols):
        if not cols:
            return ring.one()
        key = (i, cols)
        got = memo.get(key)
        if got is not None:
            return got
        row = matrix[i]
        out = ring.zero()
        sign = 1
        for idx, j in enumerate(cols):
            entry = row[j]
            if entry:
                sub = cols[:idx] + cols[idx + 1 :]
                term = entry * minor(i + 1, sub)
                out = out + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = out
        return out

    return minor(0, tuple(range(r)))


class QSeries:
    """Truncated q-series q**offset * value.

    ``value`` is one Laurent polynomial whose q exponents all lie in
    0..order; series arithmetic is Laurent arithmetic followed by a cut at
    the order.  ``build_qseries`` is the validated way to make one.
    """

    __slots__ = ("ring", "offset", "value", "order")

    def __init__(self, ring, offset, value, order):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if value.ring != ring:
            raise RingContextError("series value in wrong context")
        self.ring = ring
        self.offset = Fraction(offset)
        self.value = value
        self.order = order

    @property
    def coeffs(self):
        """The q-free Laurent coefficient of each q**(offset + j), j = 0..order."""
        out = [{} for _ in range(self.order + 1)]
        for v, c in self.value.terms.items():
            for e, a in c.c.items():
                out[e][v] = QPoly.const(a)
        return [Laurent._raw(self.ring, t) for t in out]

    def __add__(self, other):
        if self.ring != other.ring:
            raise RingContextError("series in different contexts")
        d = other.offset - self.offset
        if d.denominator != 1:
            raise ValueError("series offsets differ by a non-integer")
        lo, hi = (self, other) if d >= 0 else (other, self)
        d = abs(int(d))
        order = min(lo.order, hi.order + d)
        value = lo.value + (hi.value * QPoly.term(d) if d else hi.value)
        return QSeries(self.ring, lo.offset, value.truncated(order), order)

    def __neg__(self):
        return QSeries(self.ring, self.offset, -self.value, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            if self.ring != other.ring:
                raise RingContextError("series in different contexts")
            order = min(self.order, other.order)
            value = (self.value * other.value).truncated(order)
            return QSeries(self.ring, self.offset + other.offset, value, order)
        if not isinstance(other, (int, QPoly, Laurent)):
            return NotImplemented
        scalars = other.terms.values() if isinstance(other, Laurent) else [other]
        if any(isinstance(c, QPoly) and set(c.c) - {0} for c in scalars):
            raise ValueError("series scalars must be q-free")
        # a Laurent scalar in another ring raises in Laurent.__mul__
        return QSeries(self.ring, self.offset, self.value * other, self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.offset == other.offset
            and self.order == other.order
            and self.value == other.value
        )

    def compare(self, other):
        """(equal, first_mismatch) over the shared exact window.

        The two series must occupy the identical window; comparing series
        with different windows is a usage error, not an inequality.  The
        first mismatch is the lowest q power of the difference, with the
        two coefficients there.
        """
        if self.ring != other.ring:
            raise RingContextError("series in different contexts")
        if self.offset != other.offset or self.order != other.order:
            raise ValueError(
                f"window mismatch: ({self.offset}, {self.order}) vs "
                f"({other.offset}, {other.order})"
            )
        diff = self.value - other.value
        if not diff:
            return True, None
        j = min(c.min_exp() for c in diff.terms.values())
        return False, (self.offset + j, self.coeffs[j], other.coeffs[j])

    def __repr__(self):
        return (
            f"QSeries(offset={self.offset}, order={self.order}, "
            f"ring={self.ring!r})"
        )

    def __str__(self):
        bits = []
        for j, c in enumerate(self.coeffs):
            if c:
                e = self.offset + j
                bits.append(f"q^{e}*({c})")
        return " + ".join(bits) if bits else "0"


def build_qseries(ring, offset, order, contributions):
    """Assemble a QSeries from (rational exponent, Laurent) contributions.

    Exponents must sit in offset + Z_{>=0}, no higher than offset + order,
    and so must every exponent a contribution's own q powers reach.  The
    sum is accumulated in place, one ``{q exponent: int}`` dict per vector.
    """
    offset = Fraction(offset)
    acc = {}
    for expo, value in contributions:
        if value.ring != ring:
            raise RingContextError("series contribution in wrong context")
        j = Fraction(expo) - offset
        if j.denominator != 1 or not 0 <= j <= order:
            raise ValueError(f"exponent {expo} not in offset {offset} + 0..{order}")
        j = int(j)
        for v, c in value.terms.items():
            slot = acc.get(v)
            if slot is None:
                slot = acc[v] = {}
            for e, a in c.c.items():
                e += j
                if not 0 <= e <= order:
                    raise ValueError(f"q power {offset + e} leaves the window")
                slot[e] = slot.get(e, 0) + a
    terms = {v: QPoly(slot) for v, slot in acc.items()}
    value = Laurent._raw(ring, {v: c for v, c in terms.items() if c})
    return QSeries(ring, offset, value, order)


def qpoly_to_json(p):
    """Ascending [exponent, coefficient] pairs."""
    return [[e, c] for e, c in p.pairs()]


def qpoly_from_json(pairs):
    return QPoly({int(e): int(c) for e, c in pairs})


def laurent_to_json(poly):
    """{"n":..,"relation":..,"terms":[{"x2":[..],"q":[[e,c],..]},..]} with
    terms sorted lexicographically on the doubled exponent vectors."""
    return {
        "n": poly.ring.n,
        "relation": poly.ring.relation,
        "terms": [
            {"x2": list(vec), "q": qpoly_to_json(c)}
            for vec, c in poly.sorted_terms()
        ],
    }


def laurent_from_json(doc):
    ring = Ring(int(doc["n"]), bool(doc["relation"]))
    return ring.from_terms(
        (tuple(term["x2"]), qpoly_from_json(term["q"])) for term in doc["terms"]
    )


def qseries_to_json(series):
    """The Laurent format plus the rational offset and truncation order."""
    return {
        "n": series.ring.n,
        "relation": series.ring.relation,
        "offset": str(series.offset),
        "order": series.order,
        "coefficients": [laurent_to_json(c)["terms"] for c in series.coeffs],
    }


def qseries_from_json(doc):
    ring = Ring(int(doc["n"]), bool(doc["relation"]))
    offset = Fraction(doc["offset"])
    coeffs = (
        ring.from_terms((tuple(t["x2"]), qpoly_from_json(t["q"])) for t in terms)
        for terms in doc["coefficients"]
    )
    return build_qseries(
        ring, offset, int(doc["order"]), ((offset + j, c) for j, c in enumerate(coeffs))
    )


def inverse_pochhammer_series(ring, power, order):
    """prod_{j>=1} (1 - q**j)**(-power) truncated at q**order, offset 0."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for j in range(1, order + 1):
        for _ in range(power):
            # multiply by 1/(1 - q^j) = 1 + q^j + q^{2j} + ...
            for d in range(j, order + 1):
                coeffs[d] += coeffs[d - j]
    return QSeries(
        ring, 0, ring.monomial((0,) * ring.n, QPoly(dict(enumerate(coeffs)))), order
    )
