"""Exact arithmetic kernel: sparse Laurent polynomials and q-series.

Representation
--------------
* ``QPoly`` is an integer Laurent polynomial in q alone, a ``{exponent: int}``
  dict with no zero entries.  The q-only code (Kostka-Foulkes polynomials,
  q-multinomials) computes with it, and ``Laurent`` takes and returns its
  coefficients as ``QPoly`` values.
* ``Laurent`` is an integer Laurent polynomial in x_1..x_n and q, stored as
  ONE flat ``{key: int}`` dict with no zero entries: one packed integer key
  per monomial x^(v/2) q^e.  Exponents of x are DOUBLED (v_i is twice the
  exponent of x_i), so half-integer exponents stay integers.
* ``Ring`` fixes the rank n, whether the relation ``x_1*...*x_n == 1`` is
  imposed, and the packing of (v, e) into a key.  There is one ``Ring`` per
  (n, relation), so contexts compare by identity.  Under the relation the
  printed representative of a monomial (``Ring.canon``) is v shifted by a
  multiple of (2,...,2) until its minimum entry lies in {0, 1}.
* A ``QSeries`` is ``q**offset`` times one Laurent polynomial whose q
  exponents all lie in 0..order, with a rational offset and an inclusive
  truncation order.  Its ring is its value's, and its per-exponent
  coefficients are derived on demand.

The packing.  Let B = 32, BIAS = 2**(B-1) and H = 2**(B-2).  A key is a
nonnegative integer with base-2**B digits D_0, D_1, ...:

    D_0 = e + BIAS                          the q exponent
    no relation:  D_i = v_i + BIAS          for i = 1..n
    relation:     D_i = v_i - v_n + BIAS    for i = 1..n-1
                  D_n = v_n mod 2           the parity digit, unbiased

Call d = D - BIAS the value of a biased digit.  A key is in range when
every biased value lies in [-H, H); every stored key is in range.

Injective.  In range every biased digit lies in [BIAS-H, BIAS+H), inside
[0, 2**B), and the parity digit in {0, 1}, so the base-2**B expansion of the
key gives back every digit, hence e and the digit values.  Without the
relation these are e and v.  Under the relation a monomial is a class of v
modulo Z*(2,...,2): v and w lie in one class iff w - v = t*(1,...,1) with t
even, iff they have the same differences v_i - v_n and the same parity of
v_n.  So the key determines the class, and unpacking it (``Ring._vector``,
behind ``sorted_terms``) returns its representative with minimum entry in
{0, 1}, which is ``Ring.canon``.

Additive.  Let K be the key of x^0 q^0 (every biased digit BIAS, parity 0).
For in-range keys k, k' the biased digits of k + k' - K are d + d' + BIAS,
in [BIAS - 2H, BIAS + 2H - 2] = [0, 2**B - 2]: no digit carries into or
borrows from its neighbour, so k + k' - K has the digits of the product
monomial x^((v+v')/2) q^(e+e'), except that under the relation its parity
digit is p + p' in {0, 1, 2}; masking the key below bit B*n + 1 reduces it
mod 2.  So a product is a key addition, and a q shift by j is ``key + j``.

Range.  The product key k + k' - K of in-range keys is exact, but its
digit values may leave [-H, H), and one more addition could then carry.  So
the check runs once per stored sum: a product, or a sum of products
(``laurent_dot``), checks the keys it stores once all its products are
added.  Collecting coefficients under exact keys adds no keys together, so
the sum is exact, and an out-of-range product key whose coefficients cancel
inside one sum is not stored: it leaves an exact zero, which is the true
coefficient there.  A biased digit is in range iff its two top bits
are 01 or 10, i.e. iff bit B-1 of D ^ (D << 1) is set; K has exactly bit
B-1 of each biased digit set, so all keys are in range iff the AND of
k ^ (k << 1) over them keeps every bit of K.  A key out of range raises
OverflowError, as does packing a digit out of range.  Every other new key
is packed (``from_terms``), a running sum bounded by one ``pack`` of an
extreme vector (``symmetrized``, ``walk_sum``, which also bounds its q digit
by the walk length times the largest q step), a q shift inside a
``build_qseries`` or ``symmetrized_series`` window (0 <= e <= order < H),
or a q digit set to 0 (``QSeries.coeffs``), so no key ever wraps: an
operation raises or is exact.

Wire format.  ``laurent_to_json`` is {"n", "relation", "terms"} and
``qseries_to_json`` adds "offset" and "order" and has one terms list per q
power in "coefficients".  The documents carry the ``Laurent`` values
themselves, and ``terms_text`` writes each one as its terms list, [{"x2":
doubled vector, "q": [[exponent, coefficient], ..]}, ..], straight from the
packed keys.  The readers live with the tests: the library only writes.

Everything is immutable after construction and all integers are unbounded.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from struct import Struct, error as struct_error

DIGIT_BITS = 32
_BIAS = 1 << (DIGIT_BITS - 1)
_HALF = 1 << (DIGIT_BITS - 2)  # digit values lie in [-_HALF, _HALF)
_DIGIT = (1 << DIGIT_BITS) - 1


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
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {k!r}")
        out = QPOLY_ONE
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, d):
        """Multiply by q**d."""
        return QPoly._raw({e + d: v for e, v in self.c.items()})

    def at(self):
        """Evaluate at q = 1."""
        return sum(self.c.values())

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

    (q)_N / (q)_K for the largest part K is the product of (1 - q^i) over
    K < i <= N; every other part is divided out explicitly, and each of
    those divisions is asserted to be exact.
    """
    parts = sorted(parts)
    if any(k < 0 for k in parts) or sum(parts) != N:
        raise ValueError("parts must be nonnegative and sum to N")
    out = QPOLY_ONE
    for i in range(parts[-1] + 1 if parts else 1, N + 1):
        out = out * QPoly._raw({0: 1, i: -1})
    for k in parts[:-1]:
        out = out.divexact(q_pochhammer(k))
    return out


class Ring:
    """Context for Laurent polynomials: rank n, optional x_1*...*x_n = 1,
    and the packing of monomials into integer keys (module docstring)."""

    __slots__ = ("n", "relation", "_one", "_wrap", "_units", "_words", "_top", "_read")

    # One object per context, so identity is equality.  Sharing the table is
    # safe: its entries are immutable and keyed by their whole value, one per
    # (n, relation) asked for, so only ``is`` tells a shared one from a new one.
    _made = {}

    def __new__(cls, n, relation=False):
        key = (n, bool(relation))
        self = cls._made.get(key)
        if self is None:
            if n < 1:
                raise ValueError("rank must be positive")
            self = cls._made[key] = object.__new__(cls)
            self.n, self.relation = key
            # n + 1 biased digits without the relation, n and the parity digit
            # with it; _one is the key K of x^0 q^0, _wrap masks the parity digit
            biased = n if self.relation else n + 1
            self._one = sum(_BIAS << (DIGIT_BITS * i) for i in range(biased))
            self._wrap = (1 << (DIGIT_BITS * biased + self.relation)) - 1
            # ``pack`` writes a zero q word and n x digit values as words;
            # _top is the place of the parity digit
            self._words = Struct(f"<4x{n}i").pack
            self._top = DIGIT_BITS * n
            # ``_vector`` reads the x words: K's x part, their mask and bytes
            words = biased - 1
            self._read = (self._one >> DIGIT_BITS, (1 << DIGIT_BITS * words) - 1,
                          4 * words, Struct(f"<{words}i").unpack)
            # _units[i] is the key of x_(i+1)^(1/2) minus K: a doubled vector
            # w steps a key by sum_i w_i _units[i] (``symmetrized``)
            self._units = tuple(self.pack([int(i == j) for j in range(n)]) - self._one
                                for i in range(n))
        return self

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

    def pack(self, vec):
        """The key of x^(vec/2) q^0; OverflowError if a digit is out of range.

        One bytes conversion, linear in n: a zero word for q, then the x
        digit values as signed 32-bit words.  A value d in [-2**31, 2**31) is
        the word d mod 2**32, which is the biased digit d + BIAS with bit B-1
        flipped, so XOR with K gives every biased digit; under the relation
        the top word is v_n - v_n = 0, where K has no bits, and the parity
        goes there.  A value past 32 bits or a vector of the wrong length
        fails to pack, and the in-range test of ``_checked`` catches the
        rest (module docstring).
        """
        one = self._one
        try:
            if self.relation:
                last = vec[-1]
                key = (int.from_bytes(self._words(*[v - last for v in vec]), "little")
                       ^ one | (last & 1) << self._top)
            else:
                key = int.from_bytes(self._words(*vec), "little") ^ one
            if (key ^ (key << 1)) & one == one:
                return key
        except (struct_error, IndexError):
            if len(vec) != self.n:
                raise RingContextError(
                    f"exponent vector length {len(vec)} != rank {self.n}") from None
        last = vec[-1] if self.relation else 0
        for v in reversed(vec[:-1] if self.relation else vec):
            if not -_HALF <= v - last < _HALF:
                raise OverflowError(f"exponent {v - last} outside the packed range")
        raise TypeError(f"exponents must be integers, got {vec!r}")

    def _vector(self, x):
        """Canonical doubled vector of a key with its q digit shifted out: the
        x words of ``pack`` read by one unpack, the parity digit above them."""
        one, mask, size, unpack = self._read
        digits = unpack(((x ^ one) & mask).to_bytes(size, "little"))
        if not self.relation:
            return digits
        # the words are v_i - v_n, then v_n - v_n = 0; above them is the
        # parity of v_n, and v_n = t gives min entry m + t in {0, 1}
        digits += (0,)
        m = min(digits)
        t = (m + (x >> 8 * size)) % 2 - m
        return tuple([d + t for d in digits]) if t else digits

    def _checked(self, terms):
        """``terms`` if every key is in range, else OverflowError."""
        guard = self._one
        acc = guard
        for k in terms:
            acc &= k ^ (k << 1)
        if acc != guard:
            raise OverflowError("exponent outside the packed range")
        return terms

    def zero(self):
        return Laurent._raw(self, {})

    def one(self):
        return Laurent._raw(self, {self._one: 1})

    def monomial(self, vec, coeff=1):
        """Monomial with doubled exponent vector ``vec`` times an int or QPoly."""
        return self.from_terms([(vec, coeff)])

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
        get = out.get
        pack = self.pack
        for vec, c in terms:
            k = pack(vec)
            if isinstance(c, int):
                out[k] = get(k, 0) + c
                continue
            for e, a in c.c.items():
                if not -_HALF <= e < _HALF:
                    raise OverflowError(f"exponent {e} outside the packed range")
                out[k + e] = get(k + e, 0) + a
        return Laurent._raw(self, {k: c for k, c in out.items() if c})

    def symmetrized(self, vecs):
        """Sum over ``vecs`` of the monomials x^(w/2), w running over the
        distinct permutations of each doubled vector.

        As an integer a key is K + sum_j d_j 2**(B*j), plus the parity digit
        under the relation, and every digit value d_j is linear in w.  So
        with u_i the key of x_i^(1/2) minus K (``_units``, made with the
        ring), the key of x^(w/2) is
        K + sum_i w_i u_i masked to the key's width: under the relation that
        sum puts w_n on the parity digit, and once the digits below it are
        in range the mask reduces it mod 2 (module docstring, "Additive").
        So a permutation's key is a running sum, built position by position
        over the permutations grouped by the multiset of values still to
        place.  One ``pack`` of the sorted vector checks the range of them all: its
        digits include the extreme ones, the largest and the smallest entry
        without the relation and max - min with it, where every digit
        w_i - w_n lies in [-(max - min), max - min].
        """
        one, wrap = self._one, self._wrap
        out = {}
        get = out.get
        for vec in vecs:
            top = sorted(vec, reverse=True)
            self.pack(top)
            values = sorted(set(top))
            level = {tuple(top.count(v) for v in values): [one]}
            for u in self._units:
                after = {}
                for rest, keys in level.items():
                    for j, c in enumerate(rest):
                        if c:
                            d = values[j] * u
                            left = rest[:j] + (c - 1,) + rest[j + 1:]
                            after.setdefault(left, []).extend([k + d for k in keys])
                level = after
            for keys in level.values():
                for k in keys:
                    k &= wrap
                    out[k] = get(k, 0) + 1
        return Laurent._raw(self, out)

    def walk_sum(self, start, steps, moves):
        """Sum over the walks of x^(w/2) q^e, w = start + v_1 + ... + v_m and
        e = e_1 + ... + e_m for a walk with letters a_1..a_m: ``steps`` maps
        each letter a_j to a pair (v_j, e_j) of a doubled vector (of length
        n, or ValueError) and a q exponent.  A walk starts in the state None
        and takes one move per position; ``moves[i][s]`` lists the moves
        (next state, letter) from state s at position i (m = len(moves); no
        moves give the empty walk).  A state is any hashable value, and
        ``moves[i]`` any mapping: one with ``__missing__`` builds the moves
        of a state the first time a walk reaches it there.

        A transfer matrix over positions: after position i each state maps
        to {key: number of walks that reach it}, so equal states merge and
        the work is the moves times the distinct keys per state and
        position, not walks times length.  A letter's key step is
        sum_j v_j u_j + e (``_units``), so a walk's key is pack(start)
        plus its steps (module docstring, "Additive").

        No partial sum carries: digit values are linear in w (w_j, or
        w_j - w_n under the relation), and with t_j = |start_j| + m * max_a
        |v_j| every partial sum has |w_j| <= t_j.  So one ``pack`` of the
        t_j (of the t_j + t_n, and 0 in slot n, under the relation) bounds
        every x digit value below H, stored keys included, or raises; m
        times the largest |e| bounds the q digit alike, or OverflowError.
        The parity digit only sums the steps' w_n, with nothing above it,
        and the mask of the finished keys reduces it mod 2.
        """
        m, units = len(moves), self._units
        keys = {a: sum(map(mul, v, units)) + e for a, (v, e) in steps.items()}
        state = {None: {self.pack(start): 1}}
        peaks = [max(map(abs, col)) for col in zip(*[v for v, _ in steps.values()], strict=True)]
        top = [abs(s) + m * p for s, p in zip(start, peaks or [0] * self.n, strict=True)]
        if self.relation:
            top = [t + top[-1] for t in top[:-1]] + [0]
        self.pack(top)
        if m * max((abs(e) for _, e in steps.values()), default=0) >= _HALF:
            raise OverflowError("q exponent outside the packed range")
        for move in moves:
            after = {}
            for a, counts in state.items():
                for b, letter in move[a]:
                    u = keys[letter]
                    row = after.get(b)
                    if row is None:
                        after[b] = {k + u: c for k, c in counts.items()}
                        continue
                    get = row.get
                    for k, c in counts.items():
                        k += u
                        row[k] = get(k, 0) + c
            state = after
        out = {}
        get, wrap = out.get, self._wrap
        for row in state.values():
            for k, c in row.items():
                k &= wrap
                out[k] = get(k, 0) + c
        return Laurent._raw(self, out)


class Laurent:
    """Multivariate Laurent polynomial in x and q: ``terms`` maps packed
    monomial keys (see ``Ring``) to nonzero integers."""

    __slots__ = ("ring", "terms")

    @classmethod
    def _raw(cls, ring, terms):
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingContextError(f"mixed contexts {self.ring} and {other.ring}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({self.ring._one: other} if other else {})
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            w = out.get(k, 0) + c
            if w:
                out[k] = w
            else:
                del out[k]
        return Laurent._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._raw(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.ring.zero()
            return Laurent._raw(self.ring, {k: c * other for k, c in self.terms.items()})
        if isinstance(other, QPoly):
            other = self.ring.monomial((0,) * self.ring.n, other)
        elif not isinstance(other, Laurent):
            return NotImplemented
        self._check(other)
        return Laurent._raw(self.ring, self._product(other))

    __rmul__ = __mul__

    def _product(self, other, order=None):
        """The terms of self * other, leaving out every pair of terms whose
        q exponents sum above ``order`` when it is given."""
        ring = self.ring
        one, wrap = ring._one, ring._wrap
        if order is None and len(other.terms) == 1:
            # times a monomial, distinct keys stay distinct: nothing to sum
            ((k2, c2),) = other.terms.items()
            shift = k2 - one
            return ring._checked(
                {(k + shift) & wrap: c * c2 for k, c in self.terms.items()}
            )
        blocks = [(self.terms.items(), list(other.terms.items()))]
        if order is not None:
            lhs, rhs = _by_q(self.terms), _by_q(other.terms)
            blocks = [
                (a, b) for e, a in lhs.items() for f, b in rhs.items() if e + f <= order
            ]
        return _dot(ring, blocks)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {k!r}")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def _groups(self):
        """{key >> B: {q exponent: coefficient}}, one entry per x part."""
        groups = {}
        for k, c in self.terms.items():
            x = k >> DIGIT_BITS
            g = groups.get(x)
            if g is None:
                g = groups[x] = {}
            g[(k & _DIGIT) - _BIAS] = c
        return groups

    def _by_vector(self):
        """Unsorted (canonical doubled vector, QPoly) pairs."""
        vector = self.ring._vector
        return [(vector(x), QPoly._raw(g)) for x, g in self._groups().items()]

    def coeff(self, vec):
        """The QPoly coefficient of x^(vec/2)."""
        x = self.ring.pack(vec) >> DIGIT_BITS
        return QPoly._raw({
            (k & _DIGIT) - _BIAS: c
            for k, c in self.terms.items() if k >> DIGIT_BITS == x
        })

    def truncated(self, order):
        """Drop terms with q exponent above ``order``."""
        top = order + _BIAS
        return Laurent._raw(
            self.ring, {k: c for k, c in self.terms.items() if k & _DIGIT <= top}
        )

    def subs_x_inverse(self):
        """Substitute every x_i -> 1/x_i.

        Every biased x digit D becomes 2*BIAS - D, and the q digit D_0 and
        the parity part P (the digit above the biased ones, times its place
        value) stay: k -> 2K - k + 2*(D_0 - BIAS) + 2*P.  The new digits lie
        in (BIAS - H, BIAS + H], so nothing borrows, and the range check
        catches a digit value of H.
        """
        ring = self.ring
        top = ring._wrap.bit_length() - ring.relation  # place of the parity digit
        two_one = 2 * ring._one
        return Laurent._raw(ring, ring._checked({
            two_one - k + 2 * ((k & _DIGIT) - _BIAS) + 2 * (k >> top << top): c
            for k, c in self.terms.items()
        }))

    def subs_q_inverse(self):
        """Substitute q -> 1/q in every coefficient: D_0 - BIAS changes sign."""
        return Laurent._raw(self.ring, self.ring._checked(
            {k - 2 * ((k & _DIGIT) - _BIAS): c for k, c in self.terms.items()}
        ))

    def at_x_ones(self):
        """Evaluate every x_i at 1, leaving a QPoly."""
        out = {}
        for k, c in self.terms.items():
            e = (k & _DIGIT) - _BIAS
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def to_ring(self, ring):
        """Recanonicalize into another ring of the same rank (``self`` in
        its own ring: one ring per context, and values are immutable)."""
        if ring is self.ring:
            return self
        if ring.n != self.ring.n:
            raise RingContextError("cannot change rank")
        return ring.from_terms(self._by_vector())

    def sorted_terms(self):
        """Deterministic (vector, QPoly) list: lexicographic on vectors."""
        return sorted(self._by_vector())

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


def _by_q(terms):
    """{q exponent: [(key, coefficient), ...]} of a packed term dict."""
    out = {}
    for k, c in terms.items():
        out.setdefault((k & _DIGIT) - _BIAS, []).append((k, c))
    return out


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


def _dot(ring, blocks):
    """The checked terms of the sum of a * b over (a, b) blocks, a and b
    iterables of (key, coefficient) pairs of ``ring``, b iterable repeatedly."""
    one, wrap = ring._one, ring._wrap
    out = {}
    get = out.get
    for a, b in blocks:
        for k1, c1 in a:
            base = k1 - one
            for k2, c2 in b:
                k = (base + k2) & wrap
                out[k] = get(k, 0) + c1 * c2
    return ring._checked({k: c for k, c in out.items() if c})


def laurent_dot(ring, products):
    """Sum of c * a * b over (int c, Laurent a, Laurent b) triples of one ring.

    Every product is added into one term dict as it is made, so no product
    and no running total is built as a ``Laurent``; the sum is range-checked
    once, on the keys it stores (module docstring, "Range").
    """
    def blocks():
        for c, a, b in products:
            for value in (a, b):
                if value.ring is not ring:
                    raise RingContextError(f"mixed contexts {ring} and {value.ring}")
            if c == 1:
                yield a.terms.items(), list(b.terms.items())
            elif c:
                yield a.terms.items(), [(k, c * v) for k, v in b.terms.items()]

    return Laurent._raw(ring, _dot(ring, blocks()))


def determinant(matrix):
    """Exact determinant of a square Laurent matrix.

    A forward loop over the columns.  A state is the bit mask of the rows
    used by the columns so far, valued at the signed sum of products over
    the ways to place those columns on those rows (placing row i flips the
    sign once per used row below it), and each column builds every new
    state as one ``laurent_dot``.  A state that leaves unused a row with no
    nonzero entry in a later column is dropped.  On an upper-Hessenberg
    matrix (the strip matrices of ``schur`` and ``twisted``) the rows used
    after k columns are k of rows 0..k: at most k + 1 states, each with at
    most two successors.
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
            if entry.ring is not ring:
                raise RingContextError("matrix entries in mixed contexts")
    full = (1 << r) - 1
    cols = [sum(1 << i for i, row in enumerate(matrix) if row[j]) for j in range(r)]
    later = [0] * r  # later[j]: the rows with a nonzero entry right of column j
    for j in range(r - 1, 0, -1):
        later[j - 1] = later[j] | cols[j]
    states = {1 << i: row[0] for i, row in enumerate(matrix) if row[0]}
    for j in range(1, r):
        grouped = {}
        for used, value in states.items():
            free = cols[j] & ~used
            while free:
                bit = free & -free
                free ^= bit
                if used | bit | later[j] == full:
                    i = bit.bit_length() - 1
                    sign = -1 if (used >> i).bit_count() & 1 else 1
                    grouped.setdefault(used | bit, []).append((sign, matrix[i][j], value))
        states = {used: laurent_dot(ring, products) for used, products in grouped.items()}
    return states.get(full, ring.zero())


class QSeries:
    """Truncated q-series q**offset * value.

    ``value`` is one Laurent polynomial whose q exponents all lie in
    0..order; series arithmetic is Laurent arithmetic followed by a cut at
    the order.  ``build_qseries`` is the validated way to make one.
    """

    __slots__ = ("offset", "value", "order")

    def __init__(self, offset, value, order):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.offset = offset if isinstance(offset, Fraction) else Fraction(offset)
        self.value = value
        self.order = order

    @property
    def ring(self):
        return self.value.ring

    @property
    def coeffs(self):
        """The q-free Laurent coefficient of each q**(offset + j), j = 0..order."""
        out = [{} for _ in range(self.order + 1)]
        for k, c in self.value.terms.items():
            e = (k & _DIGIT) - _BIAS
            out[e][k - e] = c
        return [Laurent._raw(self.ring, t) for t in out]

    def __add__(self, other):
        d = other.offset - self.offset
        if d.denominator != 1:
            raise ValueError("series offsets differ by a non-integer")
        lo, hi = (self, other) if d >= 0 else (other, self)
        d = abs(int(d))
        order = min(lo.order, hi.order + d)
        value = lo.value + (hi.value * QPoly.term(d) if d else hi.value)
        return QSeries(lo.offset, value.truncated(order), order)

    def __neg__(self):
        return QSeries(self.offset, -self.value, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            self.value._check(other.value)  # _product does not check
            order = min(self.order, other.order)
            value = Laurent._raw(self.ring, self.value._product(other.value, order))
            return QSeries(self.offset + other.offset, value, order)
        if isinstance(other, QPoly):
            other = self.ring.monomial((0,) * self.ring.n, other)
        if isinstance(other, Laurent):
            if any(k & _DIGIT != _BIAS for k in other.terms):
                raise ValueError("series scalars must be q-free")
        elif not isinstance(other, int):
            return NotImplemented
        # a Laurent scalar in another ring raises in Laurent.__mul__
        return QSeries(self.offset, self.value * other, self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.order == other.order
            and self.value == other.value
        )

    def compare(self, other):
        """(equal, first_mismatch) over the shared exact window.

        The two series must occupy the identical window; comparing series
        with different windows is a usage error, not an inequality.  The
        first mismatch is the lowest q power of the difference, with the
        two coefficients there.  Equal values are told by their term dicts,
        so the difference is built only on a mismatch.
        """
        if self.offset != other.offset or self.order != other.order:
            raise ValueError(
                f"window mismatch: ({self.offset}, {self.order}) vs "
                f"({other.offset}, {other.order})"
            )
        if self.value == other.value:
            return True, None
        diff = self.value - other.value
        j = min(k & _DIGIT for k in diff.terms) - _BIAS
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


def check_order(order):
    """Raise ValueError for a negative ``order`` and OverflowError if q powers
    up to it leave the packed q digit.  An enumeration sized by the order
    checks it before it starts."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order >= _HALF:
        raise OverflowError(f"order {order} outside the packed range")


def build_qseries(ring, offset, order, contributions):
    """Assemble a QSeries from (j, Laurent) contributions, each at
    q^(offset + j).

    Each shift j must be an int in 0..order, and every q power a
    contribution's own terms reach must stay in the window too.  The sum is
    accumulated in place into one term dict; a contribution at shift j adds
    j to each of its keys.
    """
    check_order(order)
    acc = {}
    get = acc.get
    digit = _DIGIT
    for j, value in contributions:
        if value.ring is not ring:
            raise RingContextError("series contribution in wrong context")
        if type(j) is not int or not 0 <= j <= order:
            raise ValueError(f"shift {j!r} not an int in 0..{order}")
        # q digit + j must stay in 0..order, so the digit itself in lo..hi
        lo, hi = _BIAS - j, _BIAS + order - j
        for k, c in value.terms.items():
            if not lo <= k & digit <= hi:
                e = (k & digit) - lo
                raise ValueError(f"q power {offset + e} leaves the window")
            k += j
            acc[k] = get(k, 0) + c
    return QSeries(offset, Laurent._raw(ring, {k: c for k, c in acc.items() if c}), order)


def _grown(memo, keys, order, fill):
    """``memo[key][:order + 1]`` for each key: lists of the q-free
    coefficients of a series at q^(offset + j), j = 0, 1, ...

    Such a coefficient does not depend on the truncation order, so a list
    is kept and only extended.  When one is shorter than order + 1,
    ``fill(lows)`` gets the number each list holds and returns, per key,
    the coefficients from there to the order (none for a list that is long
    enough).  Nothing is stored unless ``fill`` returns.
    """
    lows = [len(memo.setdefault(key, [])) for key in keys]
    if min(lows) <= order:
        for key, more in zip(keys, fill(lows)):
            memo[key].extend(more)
    return [memo[key][: order + 1] for key in keys]


def qpoly_to_json(p):
    """Ascending [exponent, coefficient] pairs."""
    return [[e, c] for e, c in p.pairs()]


def laurent_to_json(poly, pretty=False):
    """{"n": .., "relation": .., "terms": poly}, and last "pretty", the
    value's text, when ``pretty`` is set.  The document carries the value
    itself; ``terms_text`` writes it as the terms list."""
    doc = {"n": poly.ring.n, "relation": poly.ring.relation, "terms": poly}
    if pretty:
        doc["pretty"] = str(poly)
    return doc


def qseries_to_json(series, pretty=False):
    """The Laurent format's rank and relation, the rational offset, the
    truncation order, one terms list per q power offset + 0..order, and
    last "pretty", the series' text, when ``pretty`` is set."""
    doc = {
        "n": series.ring.n,
        "relation": series.ring.relation,
        "offset": str(series.offset),
        "order": series.order,
        "coefficients": series.coeffs,
    }
    if pretty:
        doc["pretty"] = str(series)
    return doc


def terms_text(poly, newline):
    """The terms list of ``poly`` (module docstring, "Wire format") as
    ``json.dumps(..., indent=2)`` writes it on a line whose break and indent
    are ``newline``: terms in lexicographic order of their canonical vectors,
    q pairs in ascending order.  One ``Ring._vector`` per x part, one sort of
    the vectors and one of each term's q pairs.

    The text goes through ``%`` templates built once per call: a head with
    one ``%d`` per vector entry, a q pair and the tail.  A term with one q
    pair, the common case, is one ``%`` over its vector and its pair.
    """
    if not poly.terms:
        return "[]"
    groups = poly._groups()
    i1 = newline + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    comma = "," + i3
    head = ("{" + i2 + '"x2": [' + i3 + comma.join(["%d"] * poly.ring.n)
            + i2 + "]," + i2 + '"q": [' + i3)
    pair = "[" + i4 + "%d," + i4 + "%d" + i3 + "]"
    tail = i2 + "]" + i1 + "}"
    single = head + pair + tail
    vector = poly.ring._vector
    out = []
    for vec, x in sorted([(vector(x), x) for x in groups]):
        pairs = groups[x]
        if len(pairs) == 1:
            out.append(single % (*vec, *pairs.popitem()))
        else:
            out.append(head % vec + comma.join([pair % p for p in sorted(pairs.items())]) + tail)
    return "[" + i1 + ("," + i1).join(out) + newline + "]"


def inverse_pochhammer_coefficients(power, order):
    """The coefficients of prod_{j>=1} (1 - q**j)**(-power) at q**0..q**order."""
    coeffs = [1] + [0] * order
    for j in range(1, order + 1):
        for _ in range(power):
            # multiply by 1/(1 - q^j) = 1 + q^j + q^{2j} + ...
            for d in range(j, order + 1):
                coeffs[d] += coeffs[d - j]
    return coeffs


def inverse_pochhammer_series(ring, power, order):
    """prod_{j>=1} (1 - q**j)**(-power) truncated at q**order, offset 0."""
    coeffs = inverse_pochhammer_coefficients(power, order)
    return QSeries(0, ring.monomial((0,) * ring.n, QPoly(dict(enumerate(coeffs)))), order)


def symmetrized_series(ring, offset, order, classes, power):
    """q**offset sum_j q**j value over the (j, value) classes of q-free
    values, such as the orbit sums ``ring.symmetrized(vecs)``, times
    ``inverse_pochhammer_series(ring, power, order)``.

    The product is written straight into one term dict: the class at j
    puts each of its keys k at k + j + f with the coefficient p_f of the
    inverse Pochhammer series, for every f <= order - j with p_f nonzero
    (``inverse_pochhammer_coefficients``).  The classes must share no
    monomial, so every (monomial, f) pair is stored once; a count of the
    stored terms checks that, and ValueError is raised if two classes met.
    """
    check_order(order)
    coeffs = inverse_pochhammer_coefficients(power, order)
    out = {}
    stored = 0
    for j, value in classes:
        if not 0 <= j <= order:
            raise ValueError(f"class exponent {j} not in 0..{order}")
        items = value.terms.items()
        for f in range(order - j + 1):
            p = coeffs[f]
            if p:
                shift = j + f
                out.update({k + shift: c * p for k, c in items})
                stored += len(items)
    if len(out) != stored:
        raise ValueError("symmetrized classes share a monomial")
    return QSeries(offset, Laurent._raw(ring, out), order)
