import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ribbonchar.polyring import Ring
from ribbonchar.schur import schur_enumerative, schur_jacobi_trudi
from ribbonchar.shapes import BorderStrip, Partition, SkewDiagram, partitions_of
from ribbonchar.spectra import enumerate_Sp_N
from ribbonchar.tableaux import (
    GZScheme,
    SIGNED,
    STANDARD,
    Tableau,
    _enumerate,
    _pin_ranks,
    _pinned_strip,
    _rank_caps,
    count_LR,
    enumerate_L_admissible,
    enumerate_admissible,
    enumerate_sst,
    filling_sum,
    gz_from_sst,
    is_lattice_permutation,
    kostka_number,
    kostka_numbers,
    lattice_columns,
    lattice_start,
    signed_alphabet,
    signed_pos,
    sst_from_gz,
    tableau_weight,
)
from ribbonchar.twisted import kappa_twisted, sL_determinant
from helpers import count_walk_entries, lattice_column
from wire import tableau_from_json, tableau_to_json


def test_enumerate_sst_basics():
    sd = SkewDiagram.from_str("2/0")
    readings = [t.reading_word() for t in enumerate_sst(sd, 2)]
    assert sorted(readings) == [[1, 1], [2, 1], [2, 2]]
    assert list(enumerate_sst(SkewDiagram.from_str("1,1,1/0"), 2)) == []
    assert len(list(enumerate_sst(SkewDiagram.from_str("0/0"), 3))) == 1


def test_enumeration_is_duplicate_free_and_valid():
    rng = random.Random(6)
    for _ in range(20):
        cols = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        sd = BorderStrip(cols).realize()
        n = rng.randint(1, 3)
        ts = list(enumerate_sst(sd, n))
        assert len(set(ts)) == len(ts)
        for t in ts:
            for (r, c), a in t.entries.items():
                if (r - 1, c) in t.entries:
                    assert t.entries[(r - 1, c)] < a
                if (r, c - 1) in t.entries:
                    assert t.entries[(r, c - 1)] <= a
            assert max(
                (sum(1 for (rr, cc) in t.entries if cc == col) for col in range(1, 10)),
                default=0,
            ) <= n


def test_weight_bookkeeping_consistency():
    sd = SkewDiagram.from_str("3,2/1")
    ts = list(enumerate_sst(sd, 3))
    total = 0
    for t in ts:
        vec = tableau_weight(t)
        assert sum(vec) == 2 * sd.size()
        total += 1
    assert total == len(set(ts))


def test_displayed_tableau_weight():
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2")
    t = Tableau(sd, {(1, 5): 2, (2, 4): 1, (3, 3): 2, (3, 4): 2, (4, 1): 3}, STANDARD, 3)
    assert tableau_weight(t) == (2, 6, 2)


def test_simple_weight():
    sd = SkewDiagram.from_str("2/0")
    t = Tableau(sd, {(1, 1): 1, (1, 2): 2}, STANDARD, 3)
    assert tableau_weight(t) == (2, 2, 0)


def test_lattice_permutation_and_count_LR():
    assert count_LR(BorderStrip((1,)), Partition((1,))) == 1
    assert count_LR(BorderStrip((2,)), Partition((2,))) == 0
    assert count_LR(BorderStrip((2,)), Partition((1, 1))) == 1
    assert count_LR(BorderStrip((1, 1)), Partition((1, 1))) == 0
    assert count_LR(BorderStrip((1, 1)), Partition((2,))) == 1
    assert count_LR(BorderStrip((1, 1)), Partition((3,))) == 0
    # two fillings exist on these shapes in the size-6 example
    assert count_LR(BorderStrip((2, 2, 2)), Partition((3, 2, 1))) == 2
    assert count_LR(BorderStrip((1, 2, 2, 1)), Partition((3, 2, 1))) == 2
    assert count_LR(BorderStrip((1, 2, 3)), Partition((3, 2, 1))) == 1


def test_lattice_reading_order_is_strip_order():
    # the first pictured size-6 strip: word 1,1,2,1,2,3 along the strip
    bs = BorderStrip((1, 2, 3))
    sd = bs.realize()
    entries = {
        (1, 3): 1,
        (1, 2): 1,
        (2, 2): 2,
        (2, 1): 1,
        (3, 1): 2,
        (4, 1): 3,
    }
    t = Tableau(sd, entries, STANDARD, 4)
    assert t.reading_word() == [1, 1, 2, 1, 2, 3]
    assert is_lattice_permutation(t)


def test_gz_worked_example():
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2")
    t = Tableau(sd, {(1, 5): 2, (2, 4): 1, (3, 3): 2, (3, 4): 2, (4, 1): 3}, STANDARD, 3)
    g = gz_from_sst(t, 3)
    assert [tuple(r) for r in g.rows] == [
        (4, 3, 2),
        (4, 4, 2),
        (5, 4, 4),
        (5, 4, 4, 1),
    ]
    assert sst_from_gz(g) == t
    assert g.weight() == tableau_weight(t)


def test_gz_round_trip_exhaustive():
    sd = SkewDiagram.from_str("3,2/1")
    for t in enumerate_sst(sd, 2):
        g = gz_from_sst(t, 2)
        assert sst_from_gz(g) == t
        assert g.weight() == tableau_weight(t)


def test_gz_empty_shape():
    sd = SkewDiagram(Partition((2, 1)), Partition((2, 1)))
    t = Tableau(sd, {}, STANDARD, 2)
    g = gz_from_sst(t, 2)
    assert all(tuple(r) == (2, 1) for r in g.rows)
    assert sst_from_gz(g) == t


def test_gz_interlacing_violation():
    with pytest.raises(ValueError):
        GZScheme([Partition((2,)), Partition((1,))], N=1)
    with pytest.raises(ValueError):
        GZScheme([Partition(), Partition((1, 1, 1))], N=1)


def test_signed_order():
    n = 2
    order = [1, 2, 0, -2, -1]
    assert [signed_pos(a, n) for a in order] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        signed_pos(3, 2)


def test_admissible_zero_pairs():
    # vertical (0,0) allowed, horizontal forbidden
    col = SkewDiagram.from_str("1,1/0")
    fillings = {tuple(t.reading_word()) for t in enumerate_admissible(col, 1)}
    assert (0, 0) in fillings
    row = SkewDiagram.from_str("2/0")
    fillings = {tuple(t.reading_word()) for t in enumerate_admissible(row, 1)}
    assert (0, 0) not in fillings


def test_signed_column_chains():
    # vertical chains ascend strictly except at 0, which may repeat freely:
    # a rank-1 column of 4 carries exactly these four fillings
    col = SkewDiagram.from_str("1,1,1,1/0")
    ts = list(enumerate_admissible(col, 1))
    assert sorted(t.reading_word() for t in ts) == [
        [0, 0, 0, -1],
        [0, 0, 0, 0],
        [1, 0, 0, -1],
        [1, 0, 0, 0],
    ]
    # non-zero letters cannot repeat, so a zero-free column is capped at 2n+1
    no_zero = [
        t
        for t in enumerate_admissible(SkewDiagram.from_str("1,1,1,1/0"), 1)
        if 0 not in t.reading_word()
    ]
    assert no_zero == []


def test_L_admissible_rank_one():
    ts = list(enumerate_L_admissible(BorderStrip((2,)), 1))
    weights = sorted(tableau_weight(t) for t in ts)
    assert weights == [(-1,), (1,)]
    with pytest.raises(ValueError):
        list(enumerate_L_admissible(BorderStrip((1, 1)), 1))


def test_L_admissible_rank_one_excited():
    ts = list(enumerate_L_admissible(BorderStrip((1, 2)), 1))
    weights = sorted(tableau_weight(t) for t in ts)
    assert weights == [(-3,), (-1,), (1,), (3,)]
    for t in ts:
        assert t.entries[(2, 1)] == -1  # pinned cell stored literally


def test_kostka_number():
    assert kostka_number(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert kostka_number(Partition((2,)), Partition((1, 1))) == 1
    assert kostka_number(Partition((1, 1)), Partition((2,))) == 0
    assert kostka_number(Partition(), Partition()) == 1


def counts_by_enumeration(shape, n, lattice):
    """Reference counts: how many semi-standard fillings of ``shape`` over
    1..n have each content (letter counts with trailing zeros dropped),
    keeping only lattice permutations when ``lattice`` is set."""
    out = Counter()
    for t in enumerate_sst(shape, n):
        content = t.content()
        key = tuple(content[a] for a in range(1, n + 1))
        while key and not key[-1]:
            key = key[:-1]
        # a lattice word's content is a partition; skip the costly reading
        # of every other filling
        if lattice and (
            any(a < b for a, b in zip(key, key[1:])) or not is_lattice_permutation(t)
        ):
            continue
        out[key] += 1
    return out


def test_count_LR_matches_enumeration_exhaustively():
    # every strip with columns <= 4 of size <= 7 against every partition of
    # its size; enumerating over |strip| letters covers every content
    pairs = 0
    for size in range(8):
        for cols in enumerate_Sp_N(size, 4):
            bs = BorderStrip(cols)
            want = counts_by_enumeration(bs.realize(), max(size, 1), lattice=True)
            for lam in partitions_of(size):
                assert count_LR(bs, lam) == want[lam.parts], (bs, lam)
                pairs += 1
    assert pairs == 1322


def test_kostka_number_matches_enumeration_exhaustively():
    for size in range(8):
        for lam in partitions_of(size):
            want = counts_by_enumeration(
                SkewDiagram(lam, Partition()), max(size, 1), lattice=False
            )
            for mu in partitions_of(size):
                assert kostka_number(lam, mu) == want[mu.parts], (lam, mu)


def test_kostka_numbers_share_one_memo_per_content():
    # one call over every shape of a size, in both orders, equals one
    # call per shape; a shape of another size counts 0
    for size in range(9):
        shapes = partitions_of(size)
        for mu in shapes:
            want = [kostka_number(lam, mu) for lam in shapes]
            assert kostka_numbers(shapes, mu) == want, mu
            assert kostka_numbers(shapes[::-1], mu) == want[::-1], mu
            assert kostka_numbers([(size + 1,), *shapes], mu.parts) == [0, *want]
    assert kostka_numbers([], (2, 1)) == []


def test_lattice_columns_keep_no_states_empty():
    # the premise of the pruning in kostka_foulkes
    for top in range(4):
        assert lattice_columns({}, top, (2, 1)) == []


@st.composite
def lattice_states_with_cap(draw):
    """A cap of up to four letters and the states that random columns,
    stepped one at a time, reach from ``lattice_start``."""
    cap = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)), reverse=True))
    states = lattice_start(cap)
    for m in draw(st.lists(st.integers(1, 4), max_size=4)):
        states = lattice_column(states, m, cap)
    return states, draw(st.integers(0, 5)), cap


@settings(max_examples=200, deadline=None)
@given(lattice_states_with_cap())
def test_lattice_columns_match_one_column_at_a_time(case):
    states, top, cap = case
    after = lattice_columns(states, top, cap)
    for m in range(1, top + 1):
        want = lattice_column(states, m, cap)
        if m > len(after):
            # the list stops exactly where one column first leaves nothing
            assert want == {}, m
            break
        assert want and after[m - 1] == want, m


@st.composite
def strips_with_content(draw):
    # sizes 0 and 1 have one strip each, checked exhaustively above
    size = draw(st.integers(2, 9))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1))))
    bounds = [0, *cuts, size]
    bs = BorderStrip(b - a for a, b in zip(bounds, bounds[1:]))
    # at most four parts: the reference enumerates every filling over
    # len(content) letters, which for longer contents of size 9 runs to
    # hundreds of thousands of tableaux per example
    content = draw(st.sampled_from(partitions_of(size, max_length=4)))
    return bs, content


@settings(max_examples=60, deadline=None)
@given(strips_with_content())
def test_count_LR_matches_enumeration_on_random_strips(case):
    bs, content = case
    want = counts_by_enumeration(bs.realize(), content.length(), lattice=True)
    assert count_LR(bs, content) == want[content.parts]


# the oracle builds one Tableau per filling; larger streams are skipped
ORACLE_LIMIT = 2000


@st.composite
def skew_shapes(draw, width, most):
    """A skew shape of at most ``most`` cells, 4 rows and ``width`` columns."""
    outer = sorted(draw(st.lists(st.integers(1, width), max_size=4)), reverse=True)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(0, min([part, *inner[-1:]]))))
    shape = SkewDiagram(Partition(outer), Partition(inner))
    assume(shape.size() <= most)
    return shape


@st.composite
def pinned_skew_fillings(draw):
    """A skew shape of at most 9 cells, a rank, an alphabet, and pins on
    some of its cells (None for no pins); pins may be impossible."""
    shape = draw(skew_shapes(4, 9))
    n = draw(st.integers(1, 3))
    alphabet = draw(st.sampled_from([STANDARD, SIGNED]))
    letters = list(range(1, n + 1)) if alphabet == STANDARD else signed_alphabet(n)
    pinned = None
    if draw(st.booleans()):
        cells = draw(st.sets(st.sampled_from(shape.cells()))) if shape.cells() else set()
        pinned = {cell: draw(st.sampled_from(letters)) for cell in sorted(cells)}
    return shape, n, alphabet, pinned


@settings(max_examples=150, deadline=None)
@given(pinned_skew_fillings())
@example((SkewDiagram.from_str("0/0"), 2, STANDARD, None))
@example((SkewDiagram.from_str("0/0"), 3, SIGNED, {}))
@example((SkewDiagram.from_str("2,1/1"), 1, SIGNED, None))
# impossible pins: a column pinned decreasing, a row pinned 0, 0
@example((SkewDiagram.from_str("1,1/0"), 2, STANDARD, {(1, 1): 2, (2, 1): 1}))
@example((SkewDiagram.from_str("2/0"), 1, SIGNED, {(1, 1): 0, (1, 2): 0}))
def test_filling_weights_match_tableau_enumerators(case):
    shape, n, alphabet, pinned = case
    if pinned is None:
        oracle = (enumerate_sst if alphabet == STANDARD else enumerate_admissible)(shape, n)
    else:
        oracle = _enumerate(shape, n, alphabet, pinned)
    fillings = list(islice(oracle, ORACLE_LIMIT + 1))
    assume(len(fillings) <= ORACLE_LIMIT)
    assert_filling_sums(fillings, shape, n, alphabet, pinned)


@settings(max_examples=150, deadline=None)
@given(pinned_skew_fillings())
# a column of three at n = 1: a 0 on a 0 reaches the cap of the signed 0
@example((SkewDiagram.from_str("1,1,1/0"), 1, SIGNED, None))
@example((SkewDiagram.from_str("2,2/0"), 1, SIGNED, None))
@example((SkewDiagram.from_str("2,1/0"), 2, SIGNED, {(2, 1): 0}))
def test_fillings_respect_rank_caps(case):
    # every filling stays within the caps, and the caps are the most that
    # fillings reach: the caps themselves fill the shape whenever it has a
    # filling; it has none exactly when a cap is below 0 or below its pin
    shape, n, alphabet, pinned = case
    letters = signed_alphabet(n) if alphabet == SIGNED else list(range(1, n + 1))
    rank = {a: r for r, a in enumerate(letters)}
    zero = rank[0] if alphabet == SIGNED else -1
    pins = _pin_ranks(shape, n, alphabet, pinned or {})
    caps = _rank_caps(shape.cells(), pins, len(letters), zero)
    assert set(caps) == set(shape.cells())
    fillings = list(islice(_enumerate(shape, n, alphabet, pinned), ORACLE_LIMIT))
    for t in fillings:
        assert all(rank[a] <= caps[cell] for cell, a in t.entries.items()), t
    if fillings:
        top = {cell: letters[k] for cell, k in caps.items()}
        assert [t.entries for t in _enumerate(shape, n, alphabet, top)] == [top]
    else:
        assert min(caps.values()) < 0 or any(caps[c] != k for c, k in pins.items())


# 1,348 entries before the rank caps, and 193 with no cap step left of a
# signed 0 (the row rule's exception)
def test_rank_caps_shrink_a_skew_walk(monkeypatch):
    shape = SkewDiagram.from_str("3,3,3,3/1")
    want = Ring(2).from_terms((tableau_weight(t), 1) for t in enumerate_admissible(shape, 2))
    counted = count_walk_entries(monkeypatch)
    assert filling_sum(Ring(2), shape, SIGNED) == want
    assert len(counted) == 1 and counted[0] <= 170


def assert_filling_sums(fillings, shape, n, alphabet, pinned):
    """``filling_sum`` equals the oracle's fillings summed in both rings."""
    for relation in (False, True):
        ring = Ring(n, relation)
        want = ring.from_terms((tableau_weight(t), 1) for t in fillings)
        assert filling_sum(ring, shape, alphabet, pinned) == want, relation


@st.composite
def pinned_strips(draw):
    """A rank n and a strip of blocks ending in the pinned column 2n; the
    blocks sum to at most 9, 5 or 4 for n = 1, 2 or 3, where the largest
    strips have 54, 1,360 and 3,528 fillings."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(0, {1: 9, 2: 5, 3: 4}[n]))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1)))) if size > 1 else []
    bounds = [0, *cuts, size] if size else [0]
    blocks = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    return n, BorderStrip(blocks + (2 * n,))


@settings(max_examples=40, deadline=None)
@given(pinned_strips())
@example((1, BorderStrip((2,))))
@example((3, BorderStrip((6,))))
def test_filling_weights_match_pinned_strips(case):
    n, bs = case
    fillings = list(islice(enumerate_L_admissible(bs, n), ORACLE_LIMIT + 1))
    assume(len(fillings) <= ORACLE_LIMIT)
    shape, pinned = _pinned_strip(bs, n)
    assert_filling_sums(fillings, shape, n, SIGNED, pinned)


def compositions(size):
    """Every block list of the given size, in lexicographic order."""
    if size == 0:
        yield ()
        return
    for first in range(1, size + 1):
        for rest in compositions(size - first):
            yield (first,) + rest


def test_filling_sums_of_pinned_strips_match_sL_determinant():
    # every strip of pinned_strips, the ones past ORACLE_LIMIT included:
    # 512 + 32 + 16 block lists, up to 3,528 fillings at n = 3
    checked = 0
    for n, top in ((1, 9), (2, 5), (3, 4)):
        for size in range(top + 1):
            for blocks in compositions(size):
                shape, pinned = _pinned_strip(kappa_twisted(blocks, n), n)
                got = filling_sum(Ring(n), shape, SIGNED, pinned)
                assert got == sL_determinant(blocks, n), (n, blocks)
                checked += 1
    assert checked == 560


@settings(max_examples=60, deadline=None)
@given(skew_shapes(6, 12), st.integers(1, 4), st.booleans())
@example(SkewDiagram.from_str("6,6/0"), 4, False)
@example(SkewDiagram.from_str("6,6,6,6/6,4,2"), 3, True)
def test_filling_sums_match_jacobi_trudi_on_skew_shapes(shape, n, relation):
    # up to 12 cells and 4 letters, far past ORACLE_LIMIT fillings
    assert schur_enumerative(shape, n, relation) == schur_jacobi_trudi(shape, n, relation)


def test_filling_weights_reject_pins_outside_the_alphabet():
    shape = SkewDiagram.from_str("2/0")
    with pytest.raises(ValueError):
        filling_sum(Ring(2), shape, STANDARD, {(1, 1): 3})
    with pytest.raises(ValueError):
        filling_sum(Ring(2), shape, SIGNED, {(1, 2): -3})


@pytest.mark.parametrize("alphabet", [STANDARD, SIGNED])
@pytest.mark.parametrize("shape, pinned", [
    pytest.param("2/0", {(1, 1): 3}, id="letter-past-n"),
    pytest.param("2/0", {(1, 2): -3}, id="signed-letter-past-n"),
    pytest.param("2/0", {(1, 1): 1, (1, 2): 7}, id="good-pin-beside-bad"),
    pytest.param("2/0", {(5, 5): 1}, id="cell-below-right"),
    pytest.param("2/0", {(1, 3): 1}, id="cell-right-of-row"),
    pytest.param("2/0", {(0, 1): 1}, id="row-zero"),
    pytest.param("2/0", {(2, 1): 1}, id="row-past-shape"),
    pytest.param("2,1/1", {(1, 1): 1}, id="cell-of-inner-shape"),
])
def test_both_filling_routes_reject_the_same_bad_pins(alphabet, shape, pinned):
    shape = SkewDiagram.from_str(shape)
    with pytest.raises(ValueError):
        filling_sum(Ring(2), shape, alphabet, pinned)
    with pytest.raises(ValueError):
        _enumerate(shape, 2, alphabet, pinned)


def test_tableau_json_round_trip():
    sd = SkewDiagram.from_str("3,2/1")
    for t in enumerate_sst(sd, 2):
        doc = tableau_to_json(t)
        assert doc["shape"] == "3,2/1"
        back = tableau_from_json(doc, STANDARD, 2)
        assert back == t
