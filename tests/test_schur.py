import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbonchar import twisted
from ribbonchar.polyring import Ring, determinant
from ribbonchar.schur import (
    _STRIP_CACHE,
    _group_weights,
    lr_expand,
    schur_conjugate,
    schur_enumerative,
    schur_jacobi_trudi,
    schur_strip_cached,
    e_m,
)
from ribbonchar.shapes import BorderStrip, Partition, SkewDiagram, complement
from ribbonchar.spectra import enumerate_Sp_N
from helpers import conjugate_by_fillings, lr_extract, permuted, schur_straight


def strip_matrix_det(bs, n, relation=False):
    """Hessenberg determinant over column data of a border strip, the oracle
    for ``schur_strip_cached``, which expands it along its first row.

    With prefix sums M_t of the column lengths, entry (i, j) is
    e_{M_{r+1-i} - M_{r-j}}: the first row collects trailing column sums and
    the subdiagonal is all ones.  The empty strip gives 1.
    """
    ring = Ring(n, relation)
    r = len(bs.columns)
    if r == 0:
        return ring.one()
    psum = list(accumulate(bs.columns, initial=0))
    matrix = [
        [e_m(ring, psum[r + 1 - i] - psum[r - j]) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    return determinant(matrix)


def inner_partitions(outer):
    """All partitions nested inside ``outer``."""
    def grow(i, cap, acc):
        if i == len(outer.parts):
            yield Partition(acc)
            return
        for v in range(min(cap, outer.parts[i]), -1, -1):
            yield from grow(i + 1, v, acc + [v])

    yield from grow(0, outer.part(1) if outer.parts else 0, [])


def small_partitions(max_size, max_width):
    out = []

    def grow(rest, maxpart, acc):
        out.append(Partition(acc))
        if not rest:
            return
        for p in range(min(rest, maxpart), 0, -1):
            grow(rest - p, p, acc + [p])

    grow(max_size, max_width, [])
    return sorted(set(out))


def test_simple_values():
    sd = SkewDiagram.from_str("2/0")
    r = Ring(2)
    x1, x2 = r.gens()
    expected = x1 * x1 + x1 * x2 + x2 * x2
    assert schur_enumerative(sd, 2) == expected
    assert schur_jacobi_trudi(sd, 2) == expected
    assert strip_matrix_det(BorderStrip((1, 1)), 2) == expected
    assert schur_enumerative(SkewDiagram.from_str("0/0"), 2) == r.one()
    # rank violation vanishes
    assert schur_enumerative(SkewDiagram.from_str("1,1,1/0"), 2) == Ring(2).zero()
    assert schur_jacobi_trudi(SkewDiagram.from_str("1,1,1/0"), 2) == Ring(2).zero()


def test_single_column_is_elementary():
    for n in (2, 3, 4):
        ring = Ring(n)
        for m in range(1, n + 1):
            sd = SkewDiagram(Partition((1,) * m), Partition())
            assert schur_jacobi_trudi(sd, n) == e_m(ring, m)
            assert strip_matrix_det(BorderStrip((m,)), n) == e_m(ring, m)


def test_methods_agree_small():
    for n in (1, 2, 3):
        for outer in small_partitions(5, 3):
            for inner in inner_partitions(outer):
                sd = SkewDiagram(outer, inner)
                assert schur_enumerative(sd, n) == schur_jacobi_trudi(sd, n)


def test_methods_agree_large_shape():
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2")
    assert schur_enumerative(sd, 3) == schur_jacobi_trudi(sd, 3)


def test_determinant_matches_row_enumeration():
    # det [[e1, e2], [1, e1]] at rank 3 is the two-box row Schur function
    ring = Ring(3)
    matrix = [[e_m(ring, 1), e_m(ring, 2)], [ring.one(), e_m(ring, 1)]]
    row = SkewDiagram(Partition((2,)), Partition())
    assert determinant(matrix) == schur_enumerative(row, 3)


def test_strip_methods_agree():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 4)
        cols = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        bs = BorderStrip(cols)
        det = strip_matrix_det(bs, n)
        assert det == schur_jacobi_trudi(bs.realize(), n)
        assert det == schur_strip_cached(cols, n)
        assert det == schur_enumerative(bs.realize(), n)


def test_first_row_recursion():
    # expanding the determinant along its first row reproduces it
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(2, 4)
        cols = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        ring = Ring(n)
        r = len(cols)
        acc = ring.zero()
        idx = 0
        for i in range(1, r + 1):
            idx += cols[r - i]
            term = e_m(ring, idx) * strip_matrix_det(BorderStrip(cols[: r - i]), n)
            acc = acc + (term if i % 2 == 1 else -term)
        assert acc == strip_matrix_det(BorderStrip(cols), n)


def test_symmetry_under_transposition():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 4)
        cols = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
        poly = strip_matrix_det(BorderStrip(cols), n)
        i, j = rng.sample(range(1, n + 1), 2)
        perm = list(range(1, n + 1))
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        assert permuted(poly, perm) == poly


def test_conjugate_simple():
    empty, box = SkewDiagram.from_str("0/0"), SkewDiagram.from_str("1/0")
    assert schur_conjugate(empty, 2) == Ring(2, True).one()
    assert schur_conjugate(empty, 2) == conjugate_by_fillings(empty, 2)
    ring = Ring(2, True)
    x1, x2 = ring.gens()
    assert schur_conjugate(box, 2) == x1 + x2
    assert schur_conjugate(box, 2) == conjugate_by_fillings(box, 2)


def test_conjugate_equals_complement():
    cases = [
        (SkewDiagram.from_str("5,4,3,1/3,2"), 4),
        (SkewDiagram.from_str("2,1/0"), 2),
        (SkewDiagram.from_str("3,2,1/1,1"), 3),
    ]
    rng = random.Random(24)
    while len(cases) < 12:
        n = rng.randint(2, 4)
        outer = Partition(
            sorted((rng.randint(1, 4) for _ in range(rng.randint(1, n))), reverse=True)
        )
        inners = list(inner_partitions(outer))
        sd = SkewDiagram(outer, rng.choice(inners))
        if sd.rank() <= n:
            cases.append((sd, n))
    for sd, n in cases:
        lhs = schur_conjugate(sd, n)
        rhs = schur_enumerative(complement(sd, n), n, relation=True)
        assert lhs == rhs, (str(sd), n)
        assert lhs == conjugate_by_fillings(sd, n), (str(sd), n)


def test_double_complement_matches_via_schur():
    sd = SkewDiagram.from_str("3,2/1")
    n = 3
    twice = complement(complement(sd, n), n)
    assert schur_enumerative(twice, n, relation=True) == schur_enumerative(
        sd, n, relation=True
    )


def test_factorization():
    rng = random.Random(25)
    done = 0
    while done < 30:
        n = rng.randint(2, 4)
        r = rng.randint(2, 5)
        cols = [rng.randint(1, n) for _ in range(r)]
        splits = [
            i
            for i in range(1, r)
            if cols[i - 1] + cols[i] >= n + 1
        ]
        if not splits:
            continue
        i = rng.choice(splits)
        whole = schur_strip_cached(tuple(cols), n)
        left = schur_strip_cached(tuple(cols[:i]), n)
        right = schur_strip_cached(tuple(cols[i:]), n)
        assert whole == left * right, (cols, i, n)
        done += 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_factorization_property(data):
    # a strip splits into a product of strips between two columns whose
    # lengths add up to more than n
    n = data.draw(st.integers(1, 5))
    cols = tuple(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=7)))
    relation = data.draw(st.booleans())
    splits = [i for i in range(1, len(cols)) if cols[i - 1] + cols[i] >= n + 1]
    assume(splits)
    i = data.draw(st.sampled_from(splits))
    left = schur_strip_cached(cols[:i], n, relation)
    right = schur_strip_cached(cols[i:], n, relation)
    assert schur_strip_cached(cols, n, relation) == left * right


def test_lr_expand():
    lam = Partition((3, 1))
    assert lr_expand(SkewDiagram(lam, Partition()), 3) == {lam: 1}
    assert lr_expand(BorderStrip((1, 1)).realize(), 2) == {Partition((2,)): 1}
    assert lr_expand(BorderStrip((2, 1)).realize(), 3) == {Partition((2, 1)): 1}
    # reassembly of a shape that is not a strip is exact, by extraction
    sd = SkewDiagram.from_str("3,2,1/1,1")
    n = 3
    with pytest.raises(ValueError):
        lr_expand(sd, n)
    coeffs = lr_extract(sd, n)
    total = Ring(n).zero()
    for nu, c in coeffs.items():
        total = total + schur_straight(nu, n) * c
    assert total == schur_enumerative(sd, n)


def test_lr_expand_routes_agree_on_strips():
    rng = random.Random(27)
    for _ in range(20):
        n = rng.randint(2, 3)
        cols = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        sd = BorderStrip(cols).realize()
        assert lr_expand(sd, n) == lr_extract(sd, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=5), st.booleans())))
def test_strip_routes_agree_random(case):
    n, blocks, relation = case
    bs = BorderStrip(blocks)
    cached = schur_strip_cached(blocks, n, relation)
    assert cached == strip_matrix_det(bs, n, relation)
    assert cached == schur_jacobi_trudi(bs.realize(), n, relation)


ROUTES = {
    "strip_cached": lambda blocks: schur_strip_cached(blocks, 2),
    "sL_determinant": lambda blocks: twisted.sL_determinant(blocks, 1),
    "chi_tableaux": lambda blocks: twisted.chi_twisted(blocks, 1),
    "chi_fiber": lambda blocks: twisted.chi_twisted(blocks, 1, method="fiber"),
}


@pytest.mark.parametrize("blocks", [(0,), (2, 0), (0, 3), (1, -1)])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_strip_routes_reject_nonpositive_blocks(route, blocks):
    # the second call fails too: a rejected call leaves nothing cached
    for _ in range(2):
        with pytest.raises(ValueError, match="column lengths must be positive"):
            ROUTES[route](blocks)
    assert not any(key[0] == blocks for key in _STRIP_CACHE)


def test_group_weights_count_the_compositions():
    # each composition of t, listed one by one, at (parts, sum of prefix sums)
    weights = _group_weights(8)
    for t in range(9):
        brute = Counter()
        for comp in enumerate_Sp_N(t, t):
            brute[len(comp), sum(accumulate(comp))] += (-1) ** (len(comp) - 1)
        assert weights[t] == dict(brute), t
