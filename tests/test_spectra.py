import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbonchar import schur as schur_module
from ribbonchar.polyring import Ring, build_qseries
from ribbonchar.schur import schur_enumerative
from ribbonchar.shapes import BorderStrip, t_statistic
from ribbonchar.spectra import (
    _letter_moves,
    motif_excitation,
    SpectrumPoint,
    SpinConfiguration,
    Z_vertex,
    Z_vertex_direct,
    energy,
    enumerate_Sp_N,
    enumerate_fiber,
    excitation_energy,
    fiber_character,
    ground_sum,
    h_map,
    hs_eigenvalue,
    kappa,
    local_energy,
    local_energy_sum,
    local_energy_words,
    motif_to_blocks,
    motifs,
    phi,
    phi_inverse,
    polychronakos_ground_energy,
    weight,
)
from ribbonchar.tableaux import enumerate_sst, signed_alphabet, tableau_weight
from ribbonchar.twisted import local_energy_twisted
from helpers import z_vertex_by_strips


def all_points(max_size, n):
    """Every spectrum point with at most ``max_size`` cells."""
    out = [SpectrumPoint((), n)]
    def grow(blocks, total):
        for m in range(1, n + 1):
            if total + m > max_size:
                continue
            cand = blocks + (m,)
            if m != n:
                out.append(SpectrumPoint(cand, n))
            grow(cand, total + m)
    grow((), 0)
    return out


def test_local_energy():
    assert local_energy(1, 2) == 0
    assert local_energy(2, 2) == 1
    assert local_energy(3, 1) == 1


def test_normal_form_validation():
    with pytest.raises(ValueError):
        SpectrumPoint((2,), 2)
    with pytest.raises(ValueError):
        SpectrumPoint((3,), 2)
    SpectrumPoint((2, 1), 2)


def test_h_map_examples():
    assert h_map(SpinConfiguration((1, 2), 3)).blocks == (2,)
    assert h_map(SpinConfiguration((), 3)).blocks == ()
    assert h_map(SpinConfiguration((2, 1), 2)).blocks == (1, 1)
    assert h_map(SpinConfiguration((1, 2, 3), 3)).blocks == ()


def test_ground_state_blocks():
    for n in (2, 3, 4):
        for k in range(n):
            s = SpinConfiguration(tuple(range(1, k + 1)), n)
            assert h_map(s).blocks == ((k,) if k else ())
            assert energy(s) == 0
            vec = [0] * n
            for a in range(1, k + 1):
                vec[a - 1] = 2
            assert weight(s) == tuple(vec)


def test_energy_weight_example():
    s = SpinConfiguration((2, 1), 2)
    assert energy(s) == 1
    assert weight(s) == (2, 2)


def test_padding_invariance():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 3)
        prefix = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
        s = SpinConfiguration(prefix, n)
        padded = SpinConfiguration(prefix + tuple(range(1, n + 1)), n)
        assert energy(s) == energy(padded)
        assert weight(s) == weight(padded)
        assert h_map(s) == h_map(padded)
        assert s == padded
        # canonicalization is idempotent
        assert s.canonical().canonical().prefix == s.canonical().prefix


def test_kappa():
    assert kappa(SpectrumPoint((), 3)) == BorderStrip()
    assert kappa(SpectrumPoint((1, 1), 2)) == BorderStrip((1, 1))
    assert kappa(SpectrumPoint((2,), 3)) == BorderStrip((2,))


def test_fiber_example():
    h = SpectrumPoint((1, 1), 2)
    prefixes = sorted(s.prefix for s in enumerate_fiber(h))
    assert prefixes == [(1, 1), (2, 1), (2, 2)]
    assert len(list(enumerate_fiber(SpectrumPoint((), 2)))) == 1


def fiber_by_product(h):
    """Every word of length |h| over 1..n whose configuration maps to h,
    in lexicographic order."""
    return [
        word
        for word in product(range(1, h.n + 1), repeat=h.size())
        if h_map(SpinConfiguration(word, h.n)) == h
    ]


def test_fiber_order_matches_product_oracle():
    # the CLI prints fibers in enumeration order, so the order is compared
    for n in (1, 2, 3):
        for h in all_points(6, n):
            got = [s.prefix for s in enumerate_fiber(h)]
            assert got == fiber_by_product(h), h


def test_gap_condition_both_ways():
    # every configuration image satisfies the <= n-1 zero-run condition,
    # and every block list satisfying it has a nonempty fiber
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randint(2, 3)
        prefix = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
        h = h_map(SpinConfiguration(prefix, n))
        assert all(1 <= m <= n for m in h.blocks)
    for n in (2, 3):
        for h in all_points(5, n):
            assert next(iter(enumerate_fiber(h)), None) is not None


def test_bijection_with_tableaux():
    for n in (2, 3):
        for h in all_points(6, n):
            shape = kappa(h).realize()
            tableaux = list(enumerate_sst(shape, n))
            fiber = list(enumerate_fiber(h))
            assert len(tableaux) == len(fiber)
            assert Counter(tableau_weight(t) for t in tableaux) == Counter(
                weight(s) for s in fiber
            )
            for t in tableaux:
                s = phi(t, h)
                assert h_map(s) == h
                assert weight(s) == tableau_weight(t)
                assert phi_inverse(s, h) == t
            assert len({phi(t, h) for t in tableaux}) == len(tableaux)


def test_phi_column_filling_always_valid():
    # filling every column with 1,2,3,... from the top is a valid preimage
    from ribbonchar.tableaux import STANDARD, Tableau

    for n in (2, 3):
        for h in all_points(6, n):
            shape = kappa(h).realize()
            muc = shape.inner.conjugate()
            entries = {}
            for (r, c) in shape.cells():
                entries[(r, c)] = r - muc.part(c)
            t = Tableau(shape, entries, STANDARD, n)
            s = phi(t, h)
            assert h_map(s) == h


def test_phi_shape_mismatch():
    h = SpectrumPoint((1, 1), 2)
    other = kappa(SpectrumPoint((1,), 2)).realize()
    from ribbonchar.tableaux import STANDARD, Tableau

    t = Tableau(other, {(1, 1): 1}, STANDARD, 2)
    with pytest.raises(ValueError):
        phi(t, h)


def local_energy_words_recursive(letters, H, bits, tail):
    """The scan as one nested generator per position, each word passing up
    through all of them: the oracle for the words and their order."""
    m = len(bits)
    if m == 0:
        yield ()
        return
    follow = {
        (a, bit): [b for b in letters if H(a, b) == bit]
        for a in letters
        for bit in (0, 1)
    }
    ends = {a for a in letters if H(a, tail) == bits[-1]}
    word = []

    def extend(choices):
        i = len(word)
        if i == m - 1:
            for a in choices:
                if a in ends:
                    yield (*word, a)
            return
        for a in choices:
            word.append(a)
            yield from extend(follow[a, bits[i]])
            word.pop()

    yield from extend(letters)


def test_local_energy_words_matches_recursive_oracle():
    # random letter sets in random order, random 0/1 tables and bit strings,
    # against both tails (1 as in the untwisted model, 0 as in the twisted)
    rng = random.Random(41)
    for trial in range(400):
        letters = rng.sample(range(-3, 5), rng.randint(1, 5))
        tail = trial % 2
        table = {
            (a, b): rng.randint(0, 1) for a in letters for b in {*letters, tail}
        }
        H = lambda a, b: table[a, b]
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        got = list(local_energy_words(letters, H, bits, tail))
        assert got == list(local_energy_words_recursive(letters, H, bits, tail))
    for tail in (0, 1):
        assert list(local_energy_words([1, 2], local_energy, [], tail)) == [()]


def starts_a_word(b, letters, H, bits, tail):
    """Whether a word of ``local_energy_words_recursive`` starts with b: its
    first word, with b tried first, does."""
    first = (b, *(a for a in letters if a != b))
    word = next(local_energy_words_recursive(first, H, bits, tail), None)
    return word is not None and word[0] == b


def letter_moves_by_pairs(letters, H, bits, tail):
    """The scan's table built pair by pair for each distinct bit, H called
    letters**2 times per bit, then cut to the moves that some word uses:
    the oracle for ``_letter_moves``.  A move into b at position i is kept
    when a word of ``local_energy_words_recursive`` over the bits from
    position i on starts with b."""
    if not bits:
        return []
    letters = tuple(letters)
    follow = {
        bit: {a: tuple((b, b) for b in letters if H(a, b) == bit) for a in letters}
        for bit in set(bits[:-1])
    }
    moves = [{None: tuple((a, a) for a in letters)}] + [follow[bit] for bit in bits[:-1]]
    for i, move in enumerate(moves):
        starts = {b for b in letters if starts_a_word(b, letters, H, bits[i:], tail)}
        moves[i] = {a: tuple(mv for mv in row if mv[0] in starts) for a, row in move.items()}
    return moves


def energy_model(n, twisted):
    """(letters, H, tail) of the untwisted or the twisted scan at rank n."""
    if twisted:
        return signed_alphabet(n), lambda a, b: local_energy_twisted(a, b, n), 0
    return tuple(range(1, n + 1)), local_energy, 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.lists(st.integers(0, 1), max_size=12))
# no word at all, so the oracle's search from each letter runs to the end:
# its costliest case in a search of 618 bit strings at rank 4 (about 0.2 s)
@example(4, False, [1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0])
def test_letter_moves_match_pairwise_construction(n, twisted, bits):
    letters, H, tail = energy_model(n, twisted)
    assert _letter_moves(letters, H, bits, tail) == letter_moves_by_pairs(letters, H, bits, tail)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_letter_moves_read_each_pair_once(n, twisted):
    letters, H, tail = energy_model(n, twisted)
    calls = Counter()

    def counting(a, b):
        calls[a, b] += 1
        return H(a, b)

    bits = [1, 0, 0, 1, 1, 0, 1]
    assert _letter_moves(letters, counting, bits, tail) == letter_moves_by_pairs(
        letters, H, bits, tail
    )
    assert sum(calls.values()) <= len(letters) ** 2 + len(letters)


def local_energy_sum_by_words(ring, letters, H, bits, tail, start, step):
    """The count as one weight per scanned word, collected in a Counter:
    the oracle for the transfer matrix of ``local_energy_sum``."""
    weights = Counter(
        tuple(map(sum, zip(start, *map(step, word))))
        for word in local_energy_words(letters, H, bits, tail)
    )
    return ring.from_terms(weights.items())


def test_local_energy_sum_matches_word_oracle():
    # the word scan's random cases, with both relations, random starts and
    # random doubled steps, negative and zero entries included
    rng = random.Random(43)
    for trial in range(400):
        letters = rng.sample(range(-3, 5), rng.randint(1, 5))
        tail = trial % 2
        table = {
            (a, b): rng.randint(0, 1) for a in letters for b in {*letters, tail}
        }
        H = lambda a, b: table[a, b]
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        n = rng.randint(1, 3)
        ring = Ring(n, relation=trial % 4 >= 2)
        start = tuple(rng.randint(-3, 3) for _ in range(n))
        steps = {a: tuple(rng.randint(-2, 2) for _ in range(n)) for a in letters}
        args = (ring, letters, H, bits, tail, start, steps.__getitem__)
        assert local_energy_sum(*args) == local_energy_sum_by_words(*args), trial
    step = lambda a: (2 * a, -a)
    for relation in (False, True):
        ring = Ring(2, relation)
        # empty bits: the empty word alone, weighing the start
        got = local_energy_sum(ring, [1, 2], local_energy, [], 1, (3, -1), step)
        assert got == ring.monomial((3, -1))
        # no letter lies below the tail letter 1, and no two letters of 1, 2
        # ascend twice: no word survives
        for bits in ([0], [0, 0, 0]):
            args = (ring, [1, 2], local_energy, bits, 1, (0, 0), step)
            assert local_energy_sum(*args) == ring.zero()
            assert local_energy_sum_by_words(*args) == ring.zero()


def test_local_energy_sum_rejects_unpackable_partial_sums():
    # digit values lie in [-2**30, 2**30): the word 1 weighs 2**30 - 1 in
    # its slot, and the word 1 1 weighs 2**30 + 1, past the packed range
    ring = Ring(1)
    H = lambda a, b: 1
    start = (2**30 - 3,)
    assert local_energy_sum(ring, [1], H, [1], 1, start, lambda a: (2,)) == (
        ring.monomial((2**30 - 1,))
    )
    with pytest.raises(OverflowError):
        local_energy_sum(ring, [1], H, [1, 1], 1, start, lambda a: (2,))


@pytest.mark.parametrize("relation", [False, True])
def test_fiber_character_matches_configuration_sum(relation):
    # the configuration route: a SpinConfiguration per word, weighed on its
    # canonical prefix; under relation=False a word ending in a whole period
    # would weigh (2, ..., 2) more than its configuration
    for n, size in ((1, 9), (2, 9), (3, 8), (4, 7)):
        ring = Ring(n, relation)
        for h in all_points(size, n):
            oracle = ring.from_terms((weight(s), 1) for s in enumerate_fiber(h))
            assert fiber_character(h, relation) == oracle, h


def test_fiber_character_equals_strip_schur():
    for n in (2, 3):
        for h in all_points(6, n):
            assert fiber_character(h, relation=False) == schur_enumerative(
                kappa(h).realize(), n
            )


def test_energy_closed_form():
    # m(n-m)/2n + t equals the conformal offset plus the direct sum
    for n in (2, 3):
        for h in all_points(6, n):
            m = h.size()
            k = h.sector()
            delta = Fraction(k * (n - k), 2 * n)
            closed = Fraction(m * (n - m), 2 * n) + t_statistic(kappa(h))
            assert closed == delta + excitation_energy(h.blocks, n)


def test_excitation_invariant_under_trailing_full_blocks():
    for n in (2, 3):
        for blocks in [(1,), (2, 1), (1, 1)]:
            if any(b > n for b in blocks):
                continue
            assert excitation_energy(blocks, n) == excitation_energy(
                blocks + (n,), n
            ) == excitation_energy(blocks + (n, n), n)


def test_enumerate_Sp_N():
    assert sorted(enumerate_Sp_N(2, 2)) == [(1, 1), (2,)]
    assert list(enumerate_Sp_N(0, 3)) == [()]
    for n in (2, 3):
        for N in range(6):
            assert all(sum(b) == N for b in enumerate_Sp_N(N, n))


def test_motifs_and_bijection():
    assert motif_to_blocks((), 2) == (1,)
    assert motif_to_blocks((0,) * 4, 3) == (1, 1, 1, 1, 1)
    assert motif_to_blocks((1, 1), 3) == (3,)
    with pytest.raises(ValueError):
        motif_to_blocks((1, 1), 2)
    for n in (2, 3):
        for N in range(1, 7):
            ms = list(motifs(N, n))
            sp = list(enumerate_Sp_N(N, n))
            assert len(ms) == len(sp)
            assert sorted(motif_to_blocks(d, n) for d in ms) == sorted(sp)


def test_hs_eigenvalue():
    assert hs_eigenvalue((0, 0, 0)) == 0
    assert hs_eigenvalue((1,), N=2) == 1 * (1 - 2)
    assert hs_eigenvalue((0, 1, 0), N=4) == 2 * (2 - 4)


def test_motif_excitation_matches_fiber_energy():
    # every configuration over a motif's spectrum point carries exactly the
    # motif's excitation (checked for the inverse-square grading only)
    for n in (2, 3):
        for N in range(1, 6):
            for d in motifs(N, n):
                blocks = list(motif_to_blocks(d, n))
                while blocks and blocks[-1] == n:
                    blocks.pop()
                h = SpectrumPoint(tuple(blocks), n)
                expected = motif_excitation(d, n)
                assert expected == excitation_energy(h.blocks, n)
                for s in enumerate_fiber(h):
                    assert energy(s) == expected, (n, N, d)


def test_ground_sum_matches_positionwise_sum():
    for n in range(1, 6):
        for m in range(21):
            assert ground_sum(m, n) == sum(i for i in range(1, m + 1) if i % n == m % n), (n, m)


def test_ground_energy_values():
    assert polychronakos_ground_energy(0, 2) == 0
    assert polychronakos_ground_energy(2, 2) == 1
    assert polychronakos_ground_energy(2, 3) == 1
    assert polychronakos_ground_energy(4, 3) == 5


def z_by_configurations(N, n, relation=False):
    """The partition function by brute force: every one of the n^N words,
    scored by ``energy`` and weighed by its full letter content."""
    ring = Ring(n, relation)
    letters = range(1, n + 1)
    return build_qseries(
        ring,
        0,
        polychronakos_ground_energy(N, n),
        (
            (
                energy(SpinConfiguration(word, n)),
                ring.monomial(tuple(2 * word.count(a) for a in letters)),
            )
            for word in product(letters, repeat=N)
        ),
    )


@pytest.mark.parametrize("relation", [False, True])
def test_Z_vertex_direct_matches_configuration_oracle(relation):
    for n, N_max in ((1, 8), (2, 10), (3, 6), (4, 5)):
        for N in range(N_max + 1):
            assert Z_vertex_direct(N, n, relation) == z_by_configurations(N, n, relation), (n, N)


def test_Z_vertex_forms_agree():
    # the last two are the sizes of the benchmark's polychronakos checks
    sizes = [(n, N) for n in (2, 3) for N in range(0, 5)] + [(2, 14), (3, 10)]
    for n, N in sizes:
        strips = Z_vertex(N, n)
        direct = Z_vertex_direct(N, n)
        eq, _ = strips.compare(direct)
        assert eq, (n, N)


@pytest.mark.parametrize("relation", [False, True])
def test_Z_vertex_equals_the_strip_by_strip_oracle(relation):
    # the last two are the sizes of the benchmark's polychronakos checks
    sizes = [(n, N) for n in range(1, 6) for N in range(10)] + [(2, 14), (3, 10)]
    for n, N in sizes:
        assert Z_vertex(N, n, relation) == z_vertex_by_strips(N, n, relation), (n, N)


def test_Z_vertex_memo_grows_by_size_and_keeps_relations_apart(monkeypatch):
    memo = {}
    monkeypatch.setattr(schur_module, "_SIZE_CACHE", memo)
    cold = Z_vertex(6, 3)
    memo.clear()
    Z_vertex(9, 3)
    assert Z_vertex(6, 3) == cold
    Z_vertex(4, 3, relation=True)
    assert {ring: len(sums) for ring, sums in memo.items()} == {
        Ring(3): 10, Ring(3, relation=True): 5}
    assert Z_vertex(6, 3, relation=True) == z_vertex_by_strips(6, 3, relation=True)
    assert Z_vertex(6, 3) == cold


def test_Z_vertex_past_the_packed_q_range_raises(monkeypatch):
    # at n = 1 the one strip of N cells has prefix sums adding up to
    # N(N+1)/2, which first leaves the packed q digit (below 2^30) at
    # N = 46341, though the ground sum would bring the excitation back to 0
    monkeypatch.setattr(schur_module, "_SIZE_CACHE", {})
    assert Z_vertex(46340, 1).coeffs == [Ring(1).monomial((2 * 46340,))]
    with pytest.raises(OverflowError, match="outside the packed range"):
        Z_vertex(46341, 1)


def test_Z_vertex_at_rank_4_length_10_is_fast(monkeypatch):
    monkeypatch.setattr(schur_module, "_SIZE_CACHE", {})
    started = time.perf_counter()
    strips = Z_vertex(10, 4)
    elapsed = time.perf_counter() - started
    assert strips == Z_vertex_direct(10, 4)
    assert elapsed < 1.0, elapsed


def test_Z_dimension_count():
    # at q = 1 and x = 1 the truncation counts all n^N configurations
    cases = [(Z_vertex, n, N) for n in (2, 3) for N in range(0, 5)]
    cases += [(Z_vertex_direct, 2, N) for N in range(0, 13)]
    cases += [(Z_vertex_direct, 3, N) for N in range(0, 5)]
    for Z, n, N in cases:
        series = Z(N, n)
        total = 0
        for c in series.coeffs:
            total += c.at_x_ones().at()
        assert total == n ** N, (Z.__name__, n, N)
