import random

import pytest
from fractions import Fraction

from ribbonchar.shapes import (
    BorderStrip,
    Partition,
    SkewDiagram,
    block_bits,
    blocks_from_ones,
    complement,
    drinfeld_polynomials,
    is_border_strip,
    is_rank,
    partitions_of,
    strip_from_skew,
    t_statistic,
)
from ribbonchar.spectra import enumerate_Sp_N
from helpers import drinfeld_root_str
from test_schur import inner_partitions


def flood_fill_is_strip(sd):
    """Oracle for ``is_border_strip``: no 2x2 block of cells, and one flood
    fill over side adjacency reaches every cell."""
    cells = set(sd.cells())
    if not cells:
        return True
    for (r, c) in cells:
        if (r, c + 1) in cells and (r + 1, c) in cells and (r + 1, c + 1) in cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        r, c = cur
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == cells


def random_partition(rng, maxpart=5, maxlen=5):
    parts = sorted((rng.randint(0, maxpart) for _ in range(rng.randint(0, maxlen))), reverse=True)
    return Partition(parts)


def test_partition_basics():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert Partition.from_str("5,4,3,1").parts == (5, 4, 3, 1)
    assert Partition.from_str("0") == Partition()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition.from_str("2,x")


def test_conjugate():
    assert Partition((4, 3, 2)).conjugate() == Partition((3, 3, 2, 1))
    assert Partition().conjugate() == Partition()
    assert Partition((5, 5, 5, 5)).conjugate() == Partition((4, 4, 4, 4, 4))
    rng = random.Random(2)
    for _ in range(50):
        p = random_partition(rng)
        assert p.conjugate().conjugate() == p


def test_realize_border_strip():
    assert BorderStrip((2,)).realize() == SkewDiagram(Partition((1, 1)), Partition())
    assert BorderStrip((1, 1)).realize() == SkewDiagram(Partition((2,)), Partition())
    assert BorderStrip((3, 1, 2)).realize() == SkewDiagram(
        Partition((3, 3, 3, 1)), Partition((2, 2))
    )
    assert BorderStrip().realize() == SkewDiagram(Partition(), Partition())


def test_strip_round_trip():
    rng = random.Random(4)
    for _ in range(60):
        cols = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        bs = BorderStrip(cols)
        sd = bs.realize()
        assert is_border_strip(sd)
        assert strip_from_skew(sd) == bs


def test_is_rank_and_border_strip():
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2,0")
    assert is_rank(sd, 3)
    assert not is_rank(sd, 1)
    # the row-4 box is disconnected from the rest, so this is not a strip
    assert not is_border_strip(sd)
    assert not is_border_strip(SkewDiagram.from_str("2,2/0"))
    assert not is_border_strip(SkewDiagram.from_str("2,1/1"))
    assert is_border_strip(SkewDiagram.from_str("0/0"))
    assert is_border_strip(SkewDiagram.from_str("2,2/1"))


def test_complement():
    sd = SkewDiagram(Partition((5, 4, 3, 1)), Partition((3, 2)))
    comp = complement(sd, 4)
    assert comp == SkewDiagram(Partition((5, 5, 5, 5, 3, 2)), Partition((5, 4, 3, 1)))
    assert comp.size() == 4 * 5 - sd.size()
    assert complement(SkewDiagram(Partition((1,)), Partition()), 2) == SkewDiagram(
        Partition((1, 1)), Partition((1,))
    )
    with pytest.raises(ValueError):
        complement(SkewDiagram(Partition((1, 1, 1)), Partition()), 2)


def test_t_statistic():
    assert t_statistic(BorderStrip((7,))) == 0
    assert t_statistic(BorderStrip()) == 0
    assert t_statistic(BorderStrip((1, 1))) == 1
    # the first two pictured strips of the size-6 worked example
    assert t_statistic(BorderStrip((1, 2, 3))) == 4
    assert t_statistic(BorderStrip((2, 1, 3))) == 5


def test_drinfeld_fig_example():
    sd = SkewDiagram.from_str("5,4,4,1/4,3,2,0")
    data = drinfeld_polynomials(sd, 4)
    assert data[1] == (
        (Fraction(-3), -1),
        (Fraction(0), -1),
        (Fraction(4), -1),
    )
    assert data[2] == ((Fraction(3, 2), -1),)
    assert data[3] == ()
    assert [drinfeld_root_str(r) for r in data[1]] == ["-3-b", "-b", "4-b"]
    assert drinfeld_root_str(data[2][0]) == "3/2-b"


def test_drinfeld_edge_cases():
    assert drinfeld_polynomials(SkewDiagram(Partition(), Partition()), 3) == {1: (), 2: ()}
    single = drinfeld_polynomials(SkewDiagram(Partition((1,)), Partition()), 3)
    assert len(single[1]) == 1 and single[2] == ()


def test_drinfeld_degree_sum_on_strips():
    # sum over i of i * deg(P_i) recovers the cell count for rank-n strips
    rng = random.Random(9)
    for _ in range(30):
        cols = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        bs = BorderStrip(cols)
        sd = bs.realize()
        data = drinfeld_polynomials(sd, 4)
        assert sum(i * len(roots) for i, roots in data.items()) == sd.size()


def test_column_sum_is_size():
    rng = random.Random(10)
    for _ in range(40):
        outer = random_partition(rng)
        raw = sorted((rng.randint(0, 5) for _ in outer.parts), reverse=True)
        inner = Partition(min(m, p) for m, p in zip(raw, outer.parts))
        sd = SkewDiagram(outer, inner)
        assert sum(sd.column_lengths()) == sd.size()


def test_text_formats():
    assert str(BorderStrip((3, 1, 2))) == "<3,1,2>"
    assert BorderStrip.from_str("<3,1,2>") == BorderStrip((3, 1, 2))
    assert BorderStrip.from_str("<>") == BorderStrip()
    assert str(SkewDiagram.from_str("5,4,3,1/3,2")) == "5,4,3,1/3,2"
    with pytest.raises(ValueError):
        BorderStrip.from_str("3,1,2")


def test_row_test_equals_flood_fill_on_every_small_diagram():
    diagrams = [
        SkewDiagram(outer, inner)
        for size in range(10)
        for outer in partitions_of(size)
        for inner in inner_partitions(outer)
    ]
    assert len(diagrams) == 1592
    for sd in diagrams:
        assert is_border_strip(sd) == flood_fill_is_strip(sd), str(sd)


def test_block_bits_inverts_blocks_from_ones():
    for size in range(11):
        for blocks in enumerate_Sp_N(size, 4):
            bits = block_bits(blocks, size)
            ones = [i for i, bit in enumerate(bits, start=1) if bit]
            assert blocks_from_ones(ones) == blocks
