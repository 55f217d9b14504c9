import json
import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonchar.polyring import (
    DIGIT_BITS,
    QPoly,
    Ring,
    RingContextError,
    build_qseries,
    determinant,
    elementary_symmetric,
    gaussian_multinomial,
    laurent_dot,
    laurent_from_json,
    laurent_to_json,
    q_pochhammer,
    qseries_from_json,
    qseries_to_json,
)


def random_qpoly(rng):
    return QPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 3))})


def random_laurent(ring, rng, nterms=3):
    terms = []
    for _ in range(rng.randint(0, nterms)):
        vec = tuple(2 * rng.randint(-2, 2) for _ in range(ring.n))
        terms.append((vec, random_qpoly(rng)))
    return ring.from_terms(terms)


def test_ring_identities():
    r = Ring(2)
    x1, x2 = r.gens()
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    rr = Ring(2, relation=True)
    y1, y2 = rr.gens()
    assert y1 * y2 == rr.one()
    p = x1 * QPoly({0: 1, 1: 1})
    assert p + x1 * QPoly({0: -1, 1: -1}) == r.zero()
    assert not (p - p)


def test_ring_is_one_object_per_context():
    for n in range(1, 6):
        for relation in (False, True):
            assert Ring(n, relation) is Ring(n, relation)
            assert Ring(n, relation=relation).relation is relation
        assert Ring(n, relation=1) is Ring(n, True)
        assert Ring(n) is Ring(n, False) is not Ring(n, True)
        assert Ring(n) is not Ring(n + 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            Ring(n)


def test_series_ring_is_its_value_ring():
    for relation in (False, True):
        ring = Ring(2, relation)
        series = build_qseries(ring, Fraction(1, 4), 2, [(Fraction(5, 4), ring.gen(1))])
        for s in (series, series + series, -series, series * series, series * 3):
            assert s.ring is s.value.ring is ring


def test_context_mismatch():
    with pytest.raises(RingContextError):
        Ring(2).one() + Ring(3).one()
    with pytest.raises(RingContextError):
        Ring(2).one() * Ring(2, relation=True).one()
    ring, other = Ring(2), Ring(2, relation=True)
    a = build_qseries(ring, 0, 2, [(0, ring.one())])
    b = build_qseries(other, 0, 2, [(0, other.one())])
    for op in (lambda: a + b, lambda: a * b, lambda: a.compare(b), lambda: a * b.value):
        with pytest.raises(RingContextError):
            op()
    for foreign in (Ring(3).one(), other.one()):
        with pytest.raises(RingContextError):
            build_qseries(ring, 0, 2, [(1, foreign)])


def test_ring_axioms_random():
    rng = random.Random(7)
    for relation in (False, True):
        ring = Ring(3, relation)
        for _ in range(40):
            a = random_laurent(ring, rng)
            b = random_laurent(ring, rng)
            c = random_laurent(ring, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_relation_reduction_homomorphism():
    rng = random.Random(11)
    plain = Ring(3)
    reduced = Ring(3, relation=True)
    for _ in range(40):
        a = random_laurent(plain, rng)
        b = random_laurent(plain, rng)
        lhs = (a * b).to_ring(reduced)
        rhs = a.to_ring(reduced) * b.to_ring(reduced)
        assert lhs == rhs
    # idempotence of canonicalization
    for _ in range(20):
        a = random_laurent(reduced, rng)
        assert a.to_ring(reduced) == a
    for vec in [(-1, 3, 1), (0, 2, 4), (5, 5, 5)]:
        assert reduced.canon(reduced.canon(vec)) == reduced.canon(vec)
        assert min(reduced.canon(vec)) in (0, 1)


def test_q_pochhammer():
    assert q_pochhammer(0) == QPoly.const(1)
    assert q_pochhammer(2) == QPoly({0: 1, 1: -1, 2: -1, 3: 1})


def test_gaussian_multinomial():
    assert gaussian_multinomial(2, [1, 1]) == QPoly({0: 1, 1: 1})
    for N in range(0, 7):
        assert gaussian_multinomial(N, [N]) == QPoly.const(1)
    # at q=1 the integer multinomial coefficient comes back
    rng = random.Random(5)
    for _ in range(25):
        N = rng.randint(0, 8)
        parts = []
        rest = N
        while rest:
            k = rng.randint(1, rest)
            parts.append(k)
            rest -= k
        parts = parts or [0]
        value = gaussian_multinomial(N, parts).at()
        expected = math.factorial(N)
        for k in parts:
            expected //= math.factorial(k)
        assert value == expected


def full_division_multinomial(N, parts):
    """(q)_N divided by (q)_k for every part k, the largest one included."""
    out = q_pochhammer(N)
    for k in parts:
        out = out.divexact(q_pochhammer(k))
    return out


def test_gaussian_multinomial_matches_full_division():
    # every weak composition of N <= 10 into at most four parts, in every
    # order and with zeros
    cases = 0
    for N in range(11):
        for length in range(1, 5):
            for parts in product(range(N + 1), repeat=length):
                if sum(parts) == N:
                    got = gaussian_multinomial(N, parts)
                    assert got == full_division_multinomial(N, parts), (N, parts)
                    cases += 1
    assert cases == 1364
    assert gaussian_multinomial(0, []) == QPoly.const(1)
    for N, parts in ((3, [4, -1]), (3, [1, 1]), (1, [])):
        with pytest.raises(ValueError):
            gaussian_multinomial(N, parts)


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        QPoly({0: 1, 1: 1}).divexact(QPoly({0: 1, 1: -1}))
    a = QPoly({0: 3, 2: 5})
    b = QPoly({1: 2, 3: -7})
    assert (a * b).divexact(b) == a


def test_elementary_symmetric():
    r = Ring(3)
    x1, x2, x3 = r.gens()
    e2 = elementary_symmetric(2, [x1, x2, x3])
    assert e2 == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary_symmetric(0, [x1]) == r.one()
    assert elementary_symmetric(4, [x1, x2, x3]) == r.zero()
    assert elementary_symmetric(-1, [x1]) == r.zero()
    # mixed monomial inputs, as used by the signed model
    r2 = Ring(2)
    zs = [
        r2.monomial((2, 0)),
        r2.monomial((0, 2)),
        r2.one(),
        r2.monomial((-2, 0)),
        r2.monomial((0, -2)),
    ]
    e1 = elementary_symmetric(1, zs)
    assert e1 == sum(zs[1:], zs[0])


def naive_cofactor(matrix):
    r = len(matrix)
    if r == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    out = ring.zero()
    for j in range(r):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * naive_cofactor(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def test_determinant_small():
    r = Ring(2)
    x1, x2 = r.gens()
    assert determinant([[x1]]) == x1
    a, b, c, d = x1, x2, r.one(), x1 * x2
    assert determinant([[a, b], [c, d]]) == a * d - b * c
    with pytest.raises(ValueError):
        determinant([[a, b]])


def test_determinant_matches_cofactor():
    rng = random.Random(3)
    ring = Ring(2)
    for size in (3, 4):
        for _ in range(6):
            matrix = [
                [random_laurent(ring, rng, nterms=2) for _ in range(size)]
                for _ in range(size)
            ]
            assert determinant(matrix) == naive_cofactor(matrix)


def test_qseries_arithmetic_and_window():
    ring = Ring(2)
    one = ring.one()
    a = build_qseries(ring, 0, 2, [(0, one), (1, one * 2), (2, one * 3)])
    b = build_qseries(ring, 1, 1, [(1, one), (2, one)])
    total = a + b
    assert total.offset == 0 and total.order == 2
    assert total.coeffs[1] == one * 3 and total.coeffs[2] == one * 4
    prod = a * b
    assert prod.offset == 1 and prod.order == 1
    assert prod.coeffs[0] == one and prod.coeffs[1] == one * 3
    with pytest.raises(ValueError):
        a.compare(b)
    eq, mismatch = a.compare(
        build_qseries(ring, 0, 2, [(0, one), (1, one * 2), (2, one)])
    )
    assert not eq and mismatch[0] == 2
    # scalars must be q-free: a constant QPoly is an integer, q itself is not
    assert a * QPoly.const(2) == a * 2
    for scalar in (QPoly.term(1), ring.gen(2) * QPoly({0: 1, 1: 1})):
        with pytest.raises(ValueError):
            a * scalar


def test_build_qseries_strictness():
    ring = Ring(2)
    one = ring.one()
    with pytest.raises(ValueError):
        build_qseries(ring, 0, 1, [(5, one)])
    with pytest.raises(ValueError):
        build_qseries(ring, 0, 1, [(-1, one)])
    # the exponent is checked even where the value vanishes
    with pytest.raises(ValueError):
        build_qseries(ring, 0, 1, [(2, ring.zero())])
    # a contribution's own q powers move it inside the window ...
    x1 = ring.gen(1)
    quarter = Fraction(1, 4)
    assert build_qseries(ring, quarter, 3, [(quarter + 1, x1 * QPoly({0: 2, 2: 5}))]) == (
        build_qseries(ring, quarter, 3, [(quarter + 1, x1 * 2), (quarter + 3, x1 * 5)]))
    # ... and may not carry it out, above or below
    for qpow in (3, -2):
        with pytest.raises(ValueError):
            build_qseries(ring, quarter, 3, [(quarter + 1, x1 * QPoly.term(qpow))])


def test_json_round_trip():
    rng = random.Random(19)
    for relation in (False, True):
        ring = Ring(3, relation)
        for _ in range(10):
            poly = random_laurent(ring, rng)
            doc = laurent_to_json(poly)
            assert laurent_from_json(json.loads(json.dumps(doc))) == poly
    ring = Ring(2, relation=True)
    quarter = Fraction(1, 4)
    series = build_qseries(
        ring, quarter, 3, [(quarter + j, ring.gen(1) * (j + 1)) for j in range(4)]
    )
    doc = qseries_to_json(series)
    assert qseries_from_json(json.loads(json.dumps(doc))) == series


# -- the coefficient-list arithmetic, kept as an oracle ---------------------
#
# A reference series is (offset, [q-free Laurent of each q**(offset + j)],
# order): the layout QSeries had before it held one Laurent value.


def ref_add(a, b):
    d = b[0] - a[0]
    lo, hi = (a, b) if d >= 0 else (b, a)
    d = abs(int(d))
    order = int(min(a[0] + a[2], b[0] + b[2]) - lo[0])
    coeffs = []
    for j in range(order + 1):
        c = lo[1][j]
        if j - d >= 0:
            c = c + hi[1][j - d]
        coeffs.append(c)
    return lo[0], coeffs, order


def ref_neg(a):
    return a[0], [-c for c in a[1]], a[2]


def ref_mul(a, b):
    ring = a[1][0].ring
    order = min(a[2], b[2])
    coeffs = [ring.zero() for _ in range(order + 1)]
    for i in range(order + 1):
        for j in range(order - i + 1):
            coeffs[i + j] = coeffs[i + j] + a[1][i] * b[1][j]
    return a[0] + b[0], coeffs, order


def ref_compare(a, b):
    for j, (x, y) in enumerate(zip(a[1], b[1])):
        if x != y:
            return False, (a[0] + j, x, y)
    return True, None


def as_ref(series):
    return series.offset, series.coeffs, series.order


def from_ref(ring, ref):
    offset, coeffs, order = ref
    return build_qseries(ring, offset, order, [(offset + j, c) for j, c in enumerate(coeffs)])


def laurents(ring, q_exponents=st.just(0)):
    """Laurent polynomials with doubled exponents in -3..3 (half-integer
    exponents included) and coefficients with q powers drawn from
    ``q_exponents``."""
    vectors = st.tuples(*[st.integers(-3, 3)] * ring.n)
    coeffs = st.dictionaries(q_exponents, st.integers(-3, 3), max_size=3).map(QPoly)
    return st.lists(st.tuples(vectors, coeffs), max_size=3).map(ring.from_terms)


rings = st.builds(Ring, st.integers(1, 3), st.booleans())


@st.composite
def series_cases(draw):
    """A ring, two reference series whose offsets (in quarters) differ by an
    integer, and a third sharing the first one's window, equal to it at
    some powers and drawn afresh at the others."""
    ring = draw(rings)
    base = Fraction(draw(st.integers(-8, 8)), 4)

    def coeffs(order):
        return [draw(laurents(ring)) for _ in range(order + 1)]

    a_order, b_order = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = (base, coeffs(a_order), a_order)
    b = (base + draw(st.integers(-3, 3)), coeffs(b_order), b_order)
    same = (base, [c if draw(st.booleans()) else draw(laurents(ring)) for c in a[1]], a_order)
    return ring, a, b, same


@settings(max_examples=60, deadline=None)
@given(series_cases())
def test_qseries_matches_coefficient_list_reference(case):
    ring, a, b, same = case
    sa, sb, ss = from_ref(ring, a), from_ref(ring, b), from_ref(ring, same)
    assert as_ref(sa) == a
    assert as_ref(sa + sb) == ref_add(a, b)
    assert as_ref(sa - sb) == ref_add(a, ref_neg(b))
    assert as_ref(-sa) == ref_neg(a)
    assert as_ref(sa * sb) == ref_mul(a, b)
    assert as_ref(sa * 3) == (a[0], [c * 3 for c in a[1]], a[2])
    scalar = b[1][0]
    assert as_ref(sa * scalar) == (a[0], [c * scalar for c in a[1]], a[2])
    verdict, mismatch = sa.compare(ss)
    ref_verdict, ref_mismatch = ref_compare(a, same)
    assert verdict == ref_verdict and (verdict == (sa == ss))
    assert mismatch == ref_mismatch
    assert qseries_from_json(json.loads(json.dumps(qseries_to_json(sa)))) == sa


@settings(max_examples=60, deadline=None)
@given(rings.flatmap(lambda ring: st.tuples(*[laurents(ring, st.integers(-2, 2))] * 3)))
def test_laurent_ring_axioms_and_canonical_form(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == a.ring.zero() and a * a.ring.one() == a
    if a.ring.relation:
        for value in (a, a * b, a + c):
            assert all(min(vec) in (0, 1) for vec, _c in value.sorted_terms())
    else:
        reduced = Ring(a.ring.n, relation=True)
        assert (a * b).to_ring(reduced) == a.to_ring(reduced) * b.to_ring(reduced)


def test_negative_and_non_int_powers_raise():
    ring = Ring(2)
    x = ring.gen(1)
    q = QPoly.term(1)
    assert x ** 0 == ring.one() and x ** 3 == x * x * x
    assert q ** 0 == QPoly.const(1) and q ** 3 == QPoly.term(3)
    for k in (-1, -3, 1.0, Fraction(1, 2), "2"):
        with pytest.raises(ValueError):
            x ** k
        with pytest.raises(ValueError):
            q ** k


# -- the packed keys ---------------------------------------------------------

HALF = 2 ** (DIGIT_BITS - 2)  # packed digit values lie in [-HALF, HALF)


def doubled_entries(bound):
    """Doubled exponents: small ones of both parities, and large ones up to
    ``bound`` in size."""
    return st.one_of(st.integers(-5, 5), st.integers(-bound, bound - 1))


@st.composite
def packing_cases(draw):
    """A ring, two vectors and two q exponents whose sums stay in range:
    entries of size below HALF/4, so that differences under the relation
    and sums of two are below HALF."""
    ring = Ring(draw(st.integers(1, 5)), draw(st.booleans()))
    vec = st.tuples(*[doubled_entries(HALF // 4)] * ring.n)
    q = st.one_of(st.integers(-5, 5), st.integers(-HALF // 2, HALF // 2 - 1))
    return ring, draw(vec), draw(q), draw(vec), draw(q)


@settings(max_examples=150, deadline=None)
@given(packing_cases())
def test_packing_round_trip_and_additivity(case):
    ring, v, e, w, f = case
    # packing then unpacking gives the canonical vector and the q exponent
    monomial = ring.monomial(v, QPoly.term(e, 2))
    assert monomial.sorted_terms() == [(ring.canon(v), QPoly.term(e, 2))]
    assert ring.pack(ring.canon(v)) == ring.pack(v)
    assert monomial == ring.monomial(ring.canon(v), QPoly.term(e, 2))
    # a product of monomials is the monomial of the summed exponents
    total = tuple(a + b for a, b in zip(v, w))
    product = ring.monomial(v, QPoly.term(e)) * ring.monomial(w, QPoly.term(f, 3))
    assert product == ring.monomial(total, QPoly.term(e + f, 3))
    assert product.sorted_terms() == [(ring.canon(total), QPoly.term(e + f, 3))]
    assert product.coeff(total) == QPoly.term(e + f, 3)
    assert not product.coeff(total[:-1] + (total[-1] + 1,))


def test_out_of_range_exponents_raise_or_come_out_exact():
    for relation in (False, True):
        ring = Ring(2, relation)
        # given directly: x_1 past the digit width, and q past it
        for vec, e in (((HALF, 0), 0), ((-HALF - 1, 0), 0), ((0, 0), HALF),
                       ((0, 0), -HALF - 1), ((2 ** 70, 0), 0)):
            with pytest.raises(OverflowError):
                ring.monomial(vec, QPoly.term(e))
            with pytest.raises(OverflowError):
                ring.from_terms([(vec, QPoly.term(e))])
        # reached through a product: exact while in range, never wrapped
        for a in (HALF - 2, HALF - 1, -HALF, -HALF + 1):
            for b in (-2, -1, 1, 2):
                lhs, rhs = ring.monomial((a, 0)), ring.monomial((b, 0))
                qa, qb = ring.monomial((0, 0), QPoly.term(a)), QPoly.term(b)
                if -HALF <= a + b < HALF:
                    assert (lhs * rhs).sorted_terms() == [(ring.canon((a + b, 0)), QPoly.const(1))]
                    assert (qa * qb).sorted_terms() == [((0, 0), QPoly.term(a + b))]
                else:
                    with pytest.raises(OverflowError):
                        lhs * rhs
                    with pytest.raises(OverflowError):
                        qa * qb
        # inverting maps the digit value -HALF to HALF, past the width
        with pytest.raises(OverflowError):
            ring.monomial((-HALF, 0)).subs_x_inverse()
        with pytest.raises(OverflowError):
            ring.monomial((0, 0), QPoly.term(-HALF)).subs_q_inverse()
        assert ring.monomial((1 - HALF, 0)).subs_x_inverse() == ring.monomial((HALF - 1, 0))
        # repeated squaring walks x_1 past the width
        big = ring.monomial((2 ** (DIGIT_BITS - 4), 0))
        square = big * big
        assert square.sorted_terms() == [(ring.canon((2 ** (DIGIT_BITS - 3), 0)), QPoly.const(1))]
        with pytest.raises(OverflowError):
            square * square
    # a q-series window reaching past the q digit
    with pytest.raises(OverflowError):
        build_qseries(Ring(1), 0, HALF, [])


# -- the tuple-keyed Laurent arithmetic, kept as an oracle -------------------
#
# Before the packed keys a Laurent was {canonical doubled vector: QPoly}; these
# are its sum and product, on that layout.


def ref_laurent_add(a, b):
    out = dict(a)
    for v, c in b.items():
        acc = out.get(v)
        w = c if acc is None else acc + c
        if w:
            out[v] = w
        else:
            del out[v]
    return out


def ref_laurent_mul(a, b, relation):
    out = {}
    for v1, c1 in a.items():
        for v2, c2 in b.items():
            v = tuple(x + y for x, y in zip(v1, v2))
            if relation:
                shift = 2 * (min(v) // 2)
                if shift:
                    v = tuple(e - shift for e in v)
            acc = out.get(v)
            w = c1 * c2 if acc is None else acc + c1 * c2
            if w:
                out[v] = w
            else:
                del out[v]
    return out


def as_tuple_terms(poly):
    return dict(poly.sorted_terms())


@settings(max_examples=80, deadline=None)
@given(rings.flatmap(lambda ring: st.tuples(*[laurents(ring, st.integers(-3, 3))] * 2)))
def test_laurent_matches_tuple_keyed_reference(pair):
    a, b = pair
    ta, tb = as_tuple_terms(a), as_tuple_terms(b)
    assert as_tuple_terms(a + b) == ref_laurent_add(ta, tb)
    assert as_tuple_terms(a - b) == ref_laurent_add(ta, {v: -c for v, c in tb.items()})
    product = ref_laurent_mul(ta, tb, a.ring.relation)
    assert as_tuple_terms(a * b) == product
    assert (a * b).sorted_terms() == sorted(product.items())
    # compared as Laurents too: equal keys, not only equal unpacked terms
    assert a * b == a.ring.from_terms(product.items())
    inverted = {a.ring.canon(tuple(-e for e in v)): c for v, c in ta.items()}
    assert as_tuple_terms(a.subs_x_inverse()) == inverted
    assert a.subs_x_inverse() == a.ring.from_terms(inverted.items())
    reversed_q = {v: c.reversed_q() for v, c in ta.items()}
    assert as_tuple_terms(a.subs_q_inverse()) == reversed_q
    assert a.subs_q_inverse() == a.ring.from_terms(reversed_q.items())
    # times a monomial (the one-to-one path), on either side
    for v in list(tb)[:1]:
        m = a.ring.monomial(v, QPoly.term(1, -2))
        ref = ref_laurent_mul(ta, as_tuple_terms(m), a.ring.relation)
        assert a * m == m * a == a.ring.from_terms(ref.items())


# -- the multiply-accumulate kernel -------------------------------------------


def dot_by_operators(ring, products):
    """The same sum through Laurent ``*`` and ``+``, one product at a time."""
    out = ring.zero()
    for c, a, b in products:
        out = out + a * b * c
    return out


@st.composite
def dot_cases(draw):
    """A ring and (c, a, b) triples: zero coefficients, zero values, and
    triples each followed later by its own negative, so that whole products
    cancel inside the sum."""
    ring = draw(rings)
    value = st.one_of(st.just(ring.zero()), laurents(ring, st.integers(-2, 2)))
    triples = draw(st.lists(st.tuples(st.integers(-3, 3), value, value), max_size=4))
    if triples:
        for c, a, b in draw(st.lists(st.sampled_from(triples), max_size=2)):
            triples.append((-c, b, a))
    return ring, draw(st.permutations(triples))


@settings(max_examples=120, deadline=None)
@given(dot_cases())
def test_laurent_dot_equals_sum_of_products(case):
    ring, triples = case
    expected = dot_by_operators(ring, triples)
    got = laurent_dot(ring, triples)
    assert got == expected
    assert all(got.terms.values())
    assert laurent_dot(ring, iter(triples)) == expected
    # any ring equal to the one named is accepted
    assert laurent_dot(Ring(ring.n, ring.relation), triples) == expected


def test_laurent_dot_edge_cases():
    for relation in (False, True):
        ring = Ring(3, relation)
        x1, x2, x3 = ring.gens()
        assert laurent_dot(ring, []) == ring.zero()
        assert laurent_dot(ring, [(0, x1, x2)]) == ring.zero()
        assert laurent_dot(ring, [(5, ring.zero(), x2), (2, x1, ring.zero())]) == ring.zero()
        assert laurent_dot(ring, [(1, x1, x2), (-1, x2, x1)]) == ring.zero()
        assert laurent_dot(ring, [(2, x1 + x2, x3), (-1, x3, x2)]) == x3 * (x1 * 2 + x2)
        assert laurent_dot(ring, [(1, x1, ring.one())]) == x1


def test_laurent_dot_rejects_mixed_rings():
    ring = Ring(2)
    for foreign in (Ring(3).one(), Ring(2, relation=True).one(), Ring(1).zero()):
        for triple in ((1, foreign, ring.one()), (1, ring.one(), foreign),
                       (0, foreign, ring.one()), (1, foreign, foreign)):
            with pytest.raises(RingContextError):
                laurent_dot(ring, [triple])
        with pytest.raises(RingContextError):
            laurent_dot(ring, [(1, ring.gen(1), ring.gen(2)), (1, foreign, foreign)])
        with pytest.raises(RingContextError):
            determinant([[ring.one(), ring.zero()], [foreign, ring.one()]])


def small_entries(ring):
    """Laurent entries of at most two terms with small exponents."""
    vectors = st.tuples(*[st.integers(-2, 2)] * ring.n)
    coeffs = st.one_of(st.integers(-2, 2), st.integers(-1, 1).map(QPoly.term))
    return st.lists(st.tuples(vectors, coeffs), min_size=1, max_size=2).map(ring.from_terms)


PATTERNS = ("dense", "unit_hessenberg", "upper", "lower", "sparse")


@st.composite
def matrix_cases(draw):
    """A square matrix of size 1..6 with a zero pattern from ``PATTERNS``,
    sometimes with one row set to zero."""
    ring = draw(rings)
    size = draw(st.integers(1, 6))
    pattern = draw(st.sampled_from(PATTERNS))
    entry = small_entries(ring)
    matrix = []
    for i in range(size):
        row = []
        for j in range(size):
            if pattern == "unit_hessenberg" and i == j + 1:
                row.append(ring.one())
            elif (pattern in ("unit_hessenberg", "upper") and i > j
                  or pattern == "lower" and i < j
                  or pattern == "sparse" and draw(st.booleans())):
                row.append(ring.zero())
            else:
                row.append(draw(entry))
        matrix.append(row)
    zero_row = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    if zero_row is not None:
        matrix[zero_row] = [ring.zero()] * size
    return pattern, zero_row, matrix


@settings(max_examples=100, deadline=None)
@given(matrix_cases())
def test_determinant_matches_cofactor_on_zero_patterns(case):
    pattern, zero_row, matrix = case
    det = determinant(matrix)
    assert det == naive_cofactor(matrix)
    if zero_row is not None:
        assert not det
    if pattern in ("upper", "lower"):
        diagonal = matrix[0][0]
        for i in range(1, len(matrix)):
            diagonal = diagonal * matrix[i][i]
        assert det == diagonal


def test_sums_of_products_keep_the_range_check():
    for relation in (False, True):
        ring = Ring(2, relation)
        a, b = ring.monomial((HALF - 2, 0)), ring.gen(1)  # x_1^((H-2)/2) and x_1
        for compute in (lambda: laurent_dot(ring, [(1, a, b)]),
                        lambda: laurent_dot(ring, [(1, ring.one(), ring.one()), (2, b, a)]),
                        lambda: determinant([[a, ring.zero()], [ring.zero(), b]]),
                        lambda: a * b):
            with pytest.raises(OverflowError):
                compute()
        # out-of-range product keys that cancel inside one sum leave an exact zero
        assert laurent_dot(ring, [(1, a, b), (-1, b, a)]) == ring.zero()
        assert laurent_dot(ring, [(2, a, b), (1, ring.one(), b), (-2, b, a)]) == b
        assert determinant([[a, a], [b, b]]) == ring.zero()


@st.composite
def symmetrized_cases(draw):
    """A ring and a few doubled vectors, repeats and shared orbits allowed."""
    ring = Ring(draw(st.integers(1, 4)), draw(st.booleans()))
    vec = st.tuples(*[doubled_entries(HALF // 2)] * ring.n)
    return ring, draw(st.lists(vec, max_size=3))


@settings(max_examples=100, deadline=None)
@given(symmetrized_cases())
def test_symmetrized_sums_the_distinct_permutations(case):
    ring, vecs = case
    expected = ring.from_terms((w, 1) for vec in vecs for w in set(permutations(vec)))
    assert ring.symmetrized(vecs) == expected


def test_symmetrized_checks_the_range_like_pack():
    raised = set()
    for relation in (False, True):
        ring = Ring(3, relation)
        for vec in ((HALF - 1, 0, 0), (HALF, 0, 0), (0, 0, -HALF), (0, 0, -HALF - 1),
                    (HALF - 1, 0, 1), (HALF // 2, 0, -HALF // 2),
                    (HALF // 2 - 1, 1, -HALF // 2)):
            try:
                expected = ring.from_terms((w, 1) for w in set(permutations(vec)))
            except OverflowError:
                raised.add(relation)
                with pytest.raises(OverflowError):
                    ring.symmetrized([vec])
            else:
                assert ring.symmetrized([vec]) == expected, (relation, vec)
    assert raised == {False, True}
