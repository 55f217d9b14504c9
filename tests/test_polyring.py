import json
import math
import random

import pytest

from ribbonchar.polyring import (
    QPoly,
    QSeries,
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
    a = QSeries(ring, 0, [one, one * 2, one * 3], 2)
    b = QSeries(ring, 1, [one, one], 1)
    total = a + b
    assert total.offset == 0 and total.order == 2
    assert total.coeffs[1] == one * 3 and total.coeffs[2] == one * 4
    prod = a * b
    assert prod.offset == 1 and prod.order == 1
    assert prod.coeffs[0] == one and prod.coeffs[1] == one * 3
    with pytest.raises(ValueError):
        a.compare(b)
    eq, mismatch = a.compare(QSeries(ring, 0, [one, one * 2, one], 2))
    assert not eq and mismatch[0] == 2


def test_build_qseries_strictness():
    ring = Ring(2)
    one = ring.one()
    with pytest.raises(ValueError):
        build_qseries(ring, 0, 1, [(5, one)])
    with pytest.raises(ValueError):
        build_qseries(ring, 0, 1, [(-1, one)])


def test_json_round_trip():
    rng = random.Random(19)
    for relation in (False, True):
        ring = Ring(3, relation)
        for _ in range(10):
            poly = random_laurent(ring, rng)
            doc = laurent_to_json(poly)
            assert laurent_from_json(json.loads(json.dumps(doc))) == poly
    from fractions import Fraction

    ring = Ring(2, relation=True)
    quarter = Fraction(1, 4)
    series = build_qseries(
        ring, quarter, 3, [(quarter + j, ring.gen(1) * (j + 1)) for j in range(4)]
    )
    doc = qseries_to_json(series)
    assert qseries_from_json(json.loads(json.dumps(doc))) == series
