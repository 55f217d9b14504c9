import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonchar.polyring import (
    QPoly,
    Ring,
    RingContextError,
    build_qseries,
    determinant,
    elementary_symmetric,
    gaussian_multinomial,
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
        value = gaussian_multinomial(N, parts).at(1)
        expected = math.factorial(N)
        for k in parts:
            expected //= math.factorial(k)
        assert value == expected


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
            assert all(min(vec) in (0, 1) for vec in value.terms)
    else:
        reduced = Ring(a.ring.n, relation=True)
        assert (a * b).to_ring(reduced) == a.to_ring(reduced) * b.to_ring(reduced)
