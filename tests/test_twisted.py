import random
from itertools import accumulate, product
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonchar import twisted
from ribbonchar.polyring import Ring, build_qseries, inverse_pochhammer_series
from ribbonchar.shapes import BorderStrip
from ribbonchar.spectra import SpinConfiguration
from ribbonchar.tableaux import enumerate_L_admissible, signed_alphabet, tableau_weight
from ribbonchar.twisted import (
    TwistedConfiguration,
    chi_twisted,
    energy_twisted,
    enumerate_twisted_fiber,
    h_map_twisted,
    kappa_twisted,
    local_energy_twisted,
    sL_determinant,
    sigma_character,
    t_character,
    twisted_character_brute,
    twisted_decomposition,
    twisted_level1_theta,
    twisted_strips,
    twisted_t_statistic,
    weight_twisted,
)
from helpers import t_determinant_by_matrix


def test_local_energy_twisted():
    assert local_energy_twisted(0, 0, 2) == 0
    assert local_energy_twisted(0, -2, 2) == 0
    assert local_energy_twisted(-1, 1, 2) == 1
    assert local_energy_twisted(1, 2, 2) == 0
    assert local_energy_twisted(2, 0, 2) == 0
    assert local_energy_twisted(0, 1, 2) == 1


def test_energy_weight_examples():
    n = 1
    all_zero = TwistedConfiguration((), n)
    assert energy_twisted(all_zero) == 0
    assert weight_twisted(all_zero) == (-1,)
    plus = TwistedConfiguration((1,), n)
    assert energy_twisted(plus) == 0
    assert weight_twisted(plus) == (1,)
    minus = TwistedConfiguration((-1,), n)
    assert h_map_twisted(minus) == (1,)
    assert energy_twisted(minus) == 1
    assert weight_twisted(minus) == (-3,)


def test_canonical_trims_zeros():
    s = TwistedConfiguration((1, 0, 0), 1)
    assert s.canonical().prefix == (1,)
    assert s == TwistedConfiguration((1,), 1)
    assert h_map_twisted(s) == ()


def test_configuration_identity():
    # one base class defines equality, hashing and repr for both models;
    # its type check keeps the two models' configurations apart
    assert SpinConfiguration((1,), 2) != TwistedConfiguration((1,), 2)
    assert TwistedConfiguration((1,), 2) != SpinConfiguration((1,), 2)
    assert len({SpinConfiguration((1,), 2), TwistedConfiguration((1,), 2)}) == 2
    # trimmed and untrimmed prefixes are one configuration
    for short, long in (
        (SpinConfiguration((2,), 2), SpinConfiguration((2, 1, 2, 1, 2), 2)),
        (SpinConfiguration((), 3), SpinConfiguration((1, 2, 3), 3)),
        (TwistedConfiguration((1, 0, -2), 2), TwistedConfiguration((1, 0, -2, 0, 0), 2)),
        (TwistedConfiguration((), 1), TwistedConfiguration((0,), 1)),
    ):
        assert short == long and hash(short) == hash(long)
        assert long.canonical().prefix == short.prefix
        assert long.letter(len(long.prefix) + 1) == short.letter(len(long.prefix) + 1)
    assert SpinConfiguration((1,), 2) != SpinConfiguration((1,), 3)
    assert TwistedConfiguration((1, 0), 2) != TwistedConfiguration((0, 1), 2)
    # repr keeps the stored prefix, untrimmed
    assert repr(TwistedConfiguration((1, 0), 2)) == "TwistedConfiguration((1, 0), n=2)"
    assert repr(SpinConfiguration((2, 1, 2), 2)) == "SpinConfiguration((2, 1, 2), n=2)"


def test_kappa_twisted():
    assert kappa_twisted((), 1) == BorderStrip((2,))
    assert kappa_twisted((1,), 1) == BorderStrip((1, 2))
    assert kappa_twisted((2, 3), 2) == BorderStrip((2, 3, 4))


def test_ground_sector_character():
    ring = Ring(1)
    expected = ring.monomial((1,)) + ring.monomial((-1,))
    assert sigma_character(1) == expected
    assert chi_twisted((), 1) == expected
    assert chi_twisted((), 1, method="fiber") == expected
    assert sL_determinant((), 1) == expected


def test_excited_rank_one():
    ring = Ring(1)
    expected = (
        ring.monomial((3,))
        + ring.monomial((1,))
        + ring.monomial((-1,))
        + ring.monomial((-3,))
    )
    assert chi_twisted((1,), 1) == expected
    assert chi_twisted((1,), 1, method="fiber") == expected
    assert sL_determinant((1,), 1) == expected


def test_t_characters():
    r1 = Ring(1)
    assert t_character(1, 0) == r1.one()
    assert t_character(1, 1) == r1.monomial((2,)) + r1.one() + r1.monomial((-2,))
    assert t_character(1, -1) == r1.zero()
    r2 = Ring(2)
    e1 = (
        r2.monomial((2, 0))
        + r2.monomial((0, 2))
        + r2.one()
        + r2.monomial((-2, 0))
        + r2.monomial((0, -2))
    )
    assert t_character(2, 1) == e1
    assert t_character(2, 2) == sigma_character(2) ** 2 - e1
    # dimensions
    assert sigma_character(1).at_x_ones().at() == 2
    assert (sigma_character(2) ** 2).at_x_ones().at() == 16
    assert t_character(2, 1).at_x_ones().at() == 5


def test_three_way_character_equality():
    for n in (1, 2):
        blocks_list = [()]
        for r in (1, 2, 3):
            def grow(acc, depth):
                if depth == 0:
                    blocks_list.append(tuple(acc))
                    return
                for m in (1, 2, 3):
                    grow(acc + [m], depth - 1)
            grow([], r)
        for blocks in blocks_list:
            tab = chi_twisted(blocks, n)
            fib = chi_twisted(blocks, n, method="fiber")
            det = sL_determinant(blocks, n)
            assert tab == fib == det, (blocks, n)


def test_three_way_character_equality_rank_three():
    # every block list with parts at most 3 and size at most 5: 28 lists
    block_lists = [
        blocks
        for r in range(6)
        for blocks in product((1, 2, 3), repeat=r)
        if sum(blocks) <= 5
    ]
    assert len(block_lists) == 28
    for blocks in block_lists:
        tab = chi_twisted(blocks, 3)
        fib = chi_twisted(blocks, 3, method="fiber")
        det = sL_determinant(blocks, 3)
        assert tab == fib == det, blocks


def test_prefix_expansion_matches_the_matrix_determinant(monkeypatch):
    # from empty memos, the longest strips first, so that one call fills a
    # run of prefixes, then every strip again from the held ones
    strips = list(twisted_strips(8))
    for n in (1, 2, 3, 4):
        monkeypatch.setattr(twisted, "_T_STRIP_CACHE", {})
        monkeypatch.setattr(twisted, "_DET_CACHE", {})
        for blocks in sorted(strips, key=len, reverse=True) + strips:
            det = t_determinant_by_matrix(blocks, n)
            assert twisted._t_determinant(blocks, n) == det, (n, blocks)
            assert sL_determinant(blocks, n) == sigma_character(n) * det, (n, blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, 2 * n + 1), max_size=6))))
def test_prefix_expansion_matches_the_matrix_determinant_random(case):
    n, blocks = case
    expected = sigma_character(n) * t_determinant_by_matrix(blocks, n)
    assert sL_determinant(blocks, n) == expected


def test_characters_match_the_object_enumerators():
    # both routes of chi_twisted count weight vectors; the enumerators that
    # build tableaux and configurations are their oracles
    for n, blocks in ((1, ()), (1, (2, 1)), (2, (1,)), (2, (1, 3)), (3, (2,))):
        ring = Ring(n)
        by_tableaux = ring.from_terms(
            (tableau_weight(t), 1)
            for t in enumerate_L_admissible(kappa_twisted(blocks, n), n))
        by_configs = ring.from_terms(
            (weight_twisted(s), 1) for s in enumerate_twisted_fiber(blocks, n))
        assert chi_twisted(blocks, n) == by_tableaux == by_configs, (n, blocks)


def twisted_fiber_by_product(blocks, n):
    """Every word of the scan length m + n + 2 over the signed alphabet
    whose local energies, followed by a 0, have ones exactly at the prefix
    sums of the blocks, in the order of the alphabet."""
    psums = set(accumulate(blocks))
    length = sum(blocks) + n + 2
    target = [1 if i in psums else 0 for i in range(1, length + 1)]
    H = {(a, b): local_energy_twisted(a, b, n)
         for a in signed_alphabet(n) for b in signed_alphabet(n)}
    return [
        word
        for word in product(signed_alphabet(n), repeat=length)
        if all(map(eq, map(H.get, zip(word, word[1:] + (0,))), target))
    ]


def test_twisted_fiber_order_matches_product_oracle():
    block_lists = [
        blocks
        for r in range(5)
        for blocks in product(range(1, 5), repeat=r)
        if sum(blocks) <= 4
    ]
    for n in (1, 2):
        for blocks in block_lists:
            got = [s.prefix for s in enumerate_twisted_fiber(blocks, n)]
            assert got == twisted_fiber_by_product(blocks, n), (blocks, n)


def test_fiber_energy_matches_statistic():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 2)
        blocks = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        t = twisted_t_statistic(blocks)
        for s in enumerate_twisted_fiber(blocks, n):
            assert energy_twisted(s) == t
            assert h_map_twisted(s) == blocks
    # the statistic is the sum of prefix sums
    for blocks in [(2,), (1, 2), (3, 1, 2)]:
        psum = 0
        acc = 0
        for m in blocks:
            psum += m
            acc += psum
        assert twisted_t_statistic(blocks) == acc


def test_strip_window_enumeration():
    found = sorted(twisted_strips(3))
    assert () in found
    assert (3,) in found and (1, 1) in found
    assert all(twisted_t_statistic(b) <= 3 for b in found)
    assert len(found) == len(set(found))
    bigger = {b for b in twisted_strips(5) if twisted_t_statistic(b) <= 3}
    assert bigger == set(found)


def test_decomposition_equals_theta():
    for n in (1, 2):
        dec = twisted_decomposition(n, 5)
        theta = twisted_level1_theta(n, 5)
        eq, mismatch = dec.compare(theta)
        assert eq, (n, mismatch)


def test_decomposition_equals_fiber_sum():
    for n, order in ((1, 5), (2, 5), (1, 12), (2, 9), (3, 7)):
        dec = twisted_decomposition(n, order)
        brute = twisted_character_brute(n, order)
        eq, mismatch = dec.compare(brute)
        assert eq, (n, order, mismatch)


def decomposition_per_strip(n, order):
    """The strip sum with sigma inside every term: q^t times
    ``sL_determinant`` of each strip in the window."""
    return build_qseries(Ring(n, relation=False), 0, order, (
        (twisted_t_statistic(blocks), sL_determinant(blocks, n))
        for blocks in twisted_strips(order)
    ))


def test_decomposition_equals_per_strip_sigma_det():
    for n in (1, 2, 3):
        for order in range(7):
            assert twisted_decomposition(n, order) == decomposition_per_strip(n, order), (
                n, order)


def theta_by_box(n, order):
    """The lattice sum over the box of shifts with every entry in
    -gmax-1..gmax, each vector of the box filtered by its grading."""
    ring = Ring(n, relation=False)
    gmax = 1
    while gmax * (gmax + 1) // 2 <= order:
        gmax += 1

    def contributions():
        for gamma in product(range(-gmax - 1, gmax + 1), repeat=n):
            expo = sum(g * (g + 1) // 2 for g in gamma)
            if expo <= order:
                yield expo, ring.monomial(tuple(2 * g + 1 for g in gamma))

    numerator = build_qseries(ring, 0, order, contributions())
    return numerator * inverse_pochhammer_series(ring, n, order)


def test_product_theta_matches_box():
    for n, order in ((1, 12), (2, 9), (4, 6), (6, 5)):
        assert twisted_level1_theta(n, order) == theta_by_box(n, order), (n, order)


@pytest.mark.parametrize("route", [twisted_decomposition, twisted_character_brute,
                                   twisted_level1_theta])
def test_negative_order_is_rejected(route):
    for n in (1, 2):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            route(n, -1)


def test_theta_constant_term():
    theta = twisted_level1_theta(1, 3)
    assert theta.offset == 0
    assert theta.coeffs[0] == sigma_character(1)
    dec = twisted_decomposition(2, 3)
    assert dec.coeffs[0] == sigma_character(2)


def test_empty_fiber_matches_empty_tableaux():
    # no admissible filling puts anything below the maximal letter, so a
    # first block too tall for the alphabet kills both sides
    n = 1
    tall = (7,)
    assert chi_twisted(tall, n) == chi_twisted(tall, n, method="fiber")
