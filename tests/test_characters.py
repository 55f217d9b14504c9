import functools
import math
import sys
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonchar.characters import (
    A_closed,
    F_N,
    KostkaResult,
    branching_function,
    conformal_dimension,
    decomposition_strips,
    _compositions,
    _signed_compositions,
    kostka_foulkes,
    kostka_oracle,
    kostka_rhs,
    level1_decomposition,
    level1_theta,
    polychronakos_partition,
    rogers_szego,
    rogers_szego_recursive,
)
from ribbonchar.polyring import (
    QPoly,
    Ring,
    build_qseries,
    determinant,
    gaussian_multinomial,
    inverse_pochhammer_series,
    laurent_dot,
    q_pochhammer,
)
from ribbonchar import schur as schur_module
from ribbonchar.schur import e_m, schur_strip_cached
from ribbonchar.shapes import BorderStrip, Partition, partitions_of, t_statistic
from ribbonchar.spectra import Z_vertex, Z_vertex_direct, enumerate_Sp_N, motifs
from ribbonchar.tableaux import count_LR
from helpers import (
    A_coefficient,
    A_split_contributions,
    at_q_one,
    kostka_by_peel,
    schur_straight,
)


def q_truncated(poly, order):
    return poly.ring.from_terms(
        (v, c.truncated(order)) for v, c in poly.sorted_terms()
    )


def test_rogers_szego_values():
    r2 = Ring(2)
    x1, x2 = r2.gens()
    assert rogers_szego(0, 2) == r2.one()
    assert rogers_szego(1, 2) == x1 + x2
    assert rogers_szego(2, 2) == x1 * x1 + x2 * x2 + x1 * x2 * QPoly({0: 1, 1: 1})
    r3 = Ring(3)
    assert rogers_szego(1, 3) == sum(r3.gens()[1:], r3.gens()[0])


def test_rogers_szego_at_one():
    for n in (2, 3):
        for N in range(0, 6):
            ring = Ring(n)
            power = sum(ring.gens()[1:], ring.gens()[0]) ** N
            assert at_q_one(rogers_szego(N, n)) == power


def test_recursion_matches_direct():
    for n in (2, 3):
        for N in range(0, 8):
            assert rogers_szego_recursive(N, n) == rogers_szego(N, n)


def strip_sum_by_loop(N, n):
    """The strip sum as ``F_N`` once summed it, the oracle for ``F_N``:
    q^(N(N+1)/2 - sum of prefix sums) times each strip Schur function."""
    ring = Ring(n)
    base = N * (N + 1) // 2
    return laurent_dot(ring, (
        (1, schur_strip_cached(blocks, n),
         ring.monomial((0,) * n, QPoly.term(base - sum(accumulate(blocks)))))
        for blocks in enumerate_Sp_N(N, n)
    ))


@functools.cache
def rogers_szego_memo(N, n):
    """The recursion top-down, memoised, as ``rogers_szego_recursive`` once
    ran it: the oracle for its bottom-up build.  H_N = sum_{i=1..n}
    (-1)^(i+1) prod_{j=N-i+1}^{N-1}(1-q^j) e_i H_(N-i), H_0 = 1."""
    ring = Ring(n)
    if N == 0:
        return ring.one()
    products = []
    for i in range(1, min(n, N) + 1):
        pref = QPoly.const(1)
        for j in range(N - i + 1, N):
            pref = pref * QPoly({0: 1, j: -1})
        products.append((1 if i % 2 == 1 else -1, e_m(ring, i) * pref,
                         rogers_szego_memo(N - i, n)))
    return laurent_dot(ring, products)


def test_F_matches_strip_loop():
    for n in range(1, 5):
        for N in range(0, 11):
            assert F_N(N, n) == strip_sum_by_loop(N, n), (n, N)


def test_recursion_matches_memoised_recursion():
    for n in range(1, 5):
        for N in range(0, 9):
            assert rogers_szego_recursive(N, n) == rogers_szego_memo(N, n), (n, N)


def test_recursion_depth_is_not_bounded_by_the_recursion_limit():
    # n = 1: every prefactor is 1, so H_N = x_1^N; N = 1200 is past the
    # default recursion limit, which a top-down recursion would hit
    assert rogers_szego_recursive(1200, 1) == Ring(1).monomial((2400,))


def test_compositions_in_lexicographic_order():
    # product lists all tuples in lexicographic order; keep those that sum up
    for total in range(9):
        for parts in range(1, 6):
            want = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(_compositions(total, parts)) == want, (total, parts)


def test_loops_reach_no_recursion_limit():
    # each route once recursed one frame per column, part or entry; with
    # the limit 100 frames above the current depth, 300 of them must pass
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    ring = Ring(1)
    x, one, zero = ring.gen(1), ring.one(), ring.zero()
    r = 300
    bidiagonal = [[x if j == i else one if j == i + 1 else zero for j in range(r)] for i in range(r)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert determinant(bidiagonal) == x ** r
        assert list(_compositions(1, r)) == [(0,) * (r - 1 - i) + (1,) + (0,) * i for i in range(r)]
        theta = level1_theta(r, 0, 0)
        assert theta.coeffs == [Ring(r, relation=True).one()]
        assert list(decomposition_strips(1, r, 0)) == [((), 0)]
    finally:
        sys.setrecursionlimit(limit)


def test_F_examples():
    r2 = Ring(2)
    x1, x2 = r2.gens()
    assert F_N(0, 2) == r2.one()
    assert F_N(1, 2) == x1 + x2
    assert F_N(2, 2) == schur_strip_cached((1, 1), 2) + schur_strip_cached(
        (2,), 2
    ) * QPoly.term(1)


def test_F_equals_H():
    for n in (2, 3):
        for N in range(0, 8):
            assert F_N(N, n) == rogers_szego(N, n), (n, N)


def test_generating_function():
    # prod over letters and small q powers of geometric factors, read off at
    # degree N, truncates to H_N / (q)_N
    M = 6
    J = M + 1
    for n in (2, 3):
        ring = Ring(n)
        variables = [
            ring.monomial(tuple(2 if j == i else 0 for j in range(n)), QPoly.term(p))
            for i in range(n)
            for p in range(J)
        ]
        h = [ring.one()] + [ring.zero()] * 4
        for v in variables:
            for d in range(1, 5):
                h[d] = h[d] + h[d - 1] * v
        for N in range(0, 5):
            lhs = q_truncated(h[N] * q_pochhammer(N), M)
            assert lhs == q_truncated(rogers_szego(N, n), M), (n, N)


def test_A_coefficients():
    for N in range(1, 9):
        assert A_coefficient(N, 1) == QPoly.const(1)
    assert A_coefficient(3, 2) == A_closed(3, 2) == -(QPoly({0: 1, 2: -1}))
    for n in range(2, 5):
        for N in range(1, 9):
            for m in range(1, min(n, N) + 1):
                assert A_coefficient(N, m, n) == A_closed(N, m), (N, m, n)


def test_A_recursion():
    for N in range(2, 9):
        for m in range(2, N + 1):
            lhs = A_coefficient(N, m)
            rhs = -(QPoly({0: 1, N - 1: -1})) * A_coefficient(N - 1, m - 1)
            assert lhs == rhs, (N, m)


def test_A_proof_split():
    for N in range(2, 8):
        for m in range(2, min(6, N) + 1):
            ending_one, bumped = A_split_contributions(N, m)
            prev = A_coefficient(N - 1, m - 1)
            assert ending_one == -prev, (N, m)
            assert bumped == prev.shifted(N - 1), (N, m)
            assert ending_one + bumped == A_coefficient(N, m)


def test_theta_offsets_and_vacuum():
    assert level1_theta(2, 1, 4).offset == Fraction(1, 4)
    assert conformal_dimension(4, 2) == Fraction(1, 2)
    vac = level1_theta(2, 0, 4)
    assert vac.offset == 0
    assert vac.coeffs[0] == Ring(2, relation=True).one()
    low = level1_decomposition(2, 1, 4)
    ring = Ring(2, relation=True)
    x1, x2 = ring.gens()
    assert low.coeffs[0] == x1 + x2
    assert level1_decomposition(3, 0, 4).coeffs[0] == Ring(3, relation=True).one()


def test_theta_equals_decomposition_small():
    for n in (2, 3):
        for k in range(n):
            theta = level1_theta(n, k, 5)
            for variant in ("a", "b"):
                eq, mismatch = theta.compare(level1_decomposition(n, k, 5, variant))
                assert eq, (n, k, variant, mismatch)


def test_variants_agree():
    for n in (2, 3):
        for k in range(n):
            a = level1_decomposition(n, k, 5, "a")
            b = level1_decomposition(n, k, 5, "b")
            eq, _ = a.compare(b)
            assert eq


def test_pair_equals_the_single_variants(monkeypatch):
    # The two variants are equal series, so each strip Schur function the
    # decomposition looks up is scaled by 1 + its residue: a pair whose b
    # summed a's strips, or the reverse, no longer matches the single calls.
    # k = 0 and k = n/2 are self-dual: there b is a's summed value inverted.
    real = schur_module.schur_strip_cached
    depth = 0

    def scaled(blocks, n, relation=False):
        nonlocal depth
        depth += 1
        try:
            value = real(blocks, n, relation)
        finally:
            depth -= 1
        return value if depth else value * (1 + sum(blocks) % n)

    monkeypatch.setattr(schur_module, "schur_strip_cached", scaled)
    for n in range(1, 6):
        for k in range(n):
            for order in range(6):
                a, b = level1_decomposition(n, k, order, "ab")
                assert a == level1_decomposition(n, k, order, "a"), (n, k, order)
                assert b == level1_decomposition(n, k, order, "b"), (n, k, order)
                assert (a == b) == (2 * k % n == 0), (n, k, order)


def strip_depth(n, cutoff):
    """Most columns a strip inside the window can have, by the bound proved
    in ``decomposition_strips``."""
    cap = math.floor(2 * n * Fraction(cutoff))
    return max(0, (cap - n + 1) // (n + 1) + 1)


def brute_force_strips(n, cutoff, residue, columns):
    """Every strip of at most ``columns`` columns with size congruent to
    ``residue`` mod n and exponent <= cutoff: all column tuples, filtered."""
    out = set()
    if cutoff >= 0 and residue % n == 0:
        out.add(((), Fraction(0)))
    for r in range(1, columns + 1):
        for blocks in product(*([range(1, n + 1)] * (r - 1) + [range(1, n)])):
            m = sum(blocks)
            if m % n != residue % n:
                continue
            f = Fraction(m * (n - m), 2 * n) + sum(accumulate(blocks[:-1]))
            if f <= cutoff:
                out.add((blocks, f))
    return out


def assert_strips_match_brute_force(n, cutoff, margin):
    single = {}
    for residue in range(n):
        got = single[residue] = list(decomposition_strips(n, cutoff, residue))
        assert len(got) == len(set(got)), (n, cutoff, residue)
        expected = brute_force_strips(n, cutoff, residue, strip_depth(n, cutoff) + margin)
        assert set(got) == expected, (n, cutoff, residue)
    # two residues from one search: the union, each class in its own order
    for r in range(n):
        for s in range(n):
            got = list(decomposition_strips(n, cutoff, r, s))
            assert len(got) == len(set(got)), (n, cutoff, r, s)
            assert set(got) == set(single[r]) | set(single[s]), (n, cutoff, r, s)
            for residue in (r, s):
                own = [(b, e) for b, e in got if sum(b) % n == residue]
                assert own == single[residue], (n, cutoff, r, s)


def test_strips_match_brute_force():
    cutoffs = {
        2: (0, Fraction(1, 4), 3, Fraction(13, 2)),
        3: (Fraction(1, 3), 2, Fraction(13, 3)),
        4: (Fraction(3, 8), Fraction(5, 2), Fraction(7, 2)),
        5: (Fraction(2, 5), Fraction(3, 2), Fraction(5, 2)),
    }
    for n, values in cutoffs.items():
        for cutoff in values:
            assert_strips_match_brute_force(n, cutoff, margin=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-1, 5 * n + 5))))
def test_strips_match_brute_force_random(case):
    n, a = case
    assert_strips_match_brute_force(n, Fraction(a, 2 * n), margin=1)


def test_strip_enumeration_box_is_saturated():
    # enlarging the search box must not add strips inside the window: the
    # brute force run three columns past the proved depth finds nothing new
    for n, cutoff in ((2, Fraction(13, 2)), (3, Fraction(9, 2)), (4, Fraction(3))):
        depth = strip_depth(n, cutoff)
        for residue in range(n):
            small = brute_force_strips(n, cutoff, residue, depth)
            large = brute_force_strips(n, cutoff, residue, depth + 3)
            assert small == large == set(decomposition_strips(n, cutoff, residue))


def theta_by_float_box(n, k, order):
    """The lattice sum over a box sized by a float square root, every vector
    of the box filtered."""
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    cutoff = delta + order
    box = int((2 * float(cutoff)) ** 0.5 * 2) + 2
    terms = []
    for a in product(range(box + 1), repeat=n):
        s = sum(a)
        if min(a) != 0 or s % n != k:
            continue
        expo = Fraction(sum(x * x for x in a), 2) - Fraction(s * s, 2 * n)
        if expo <= cutoff:
            terms.append((expo, ring.monomial(tuple(2 * x for x in a))))
    numerator = build_qseries(ring, delta, order, terms)
    return numerator * inverse_pochhammer_series(ring, n - 1, order)


def test_theta_matches_float_box():
    for n in range(2, 6):
        for k in range(n):
            for order in range(4 if n < 5 else 3):
                theta = level1_theta(n, k, order)
                eq, mismatch = theta.compare(theta_by_float_box(n, k, order))
                assert eq, (n, k, order, mismatch)


def theta_by_coordinates(n, k, order):
    """The lattice sum by a depth-first search over coordinates, one vector
    at a time.

    Weight classes are integer vectors a with minimum entry 0 and sum s
    congruent to k mod n, at exponent (n * sum a_i^2 - s^2) / (2n), the
    pairwise sum of squared differences over 2n.  Pairing each a_i with a
    zero entry bounds a_i^2 by that sum, so every entry is at most
    isqrt(cap) with cap = floor(2n * cutoff).  The pairwise sum over the
    coordinates fixed so far only grows, and it is convex in the next
    coordinate, so the scan over that coordinate stops once it is past the
    minimum and over the cap.
    """
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    cutoff = delta + order
    two_n = 2 * n
    cap = math.floor(two_n * cutoff)
    box = math.isqrt(max(cap, 0))
    doubled = []

    def grow(i, s, squares, pairs, has_zero):
        if i == n:
            yield Fraction(pairs, two_n), ring.monomial(tuple(doubled))
            return
        if i < n - 1:
            xs = range(box + 1)
        elif has_zero:
            xs = range((k - s) % n, box + 1, n)
        else:
            xs = (0,) if (k - s) % n == 0 else ()
        for x in xs:
            total = pairs + i * x * x - 2 * s * x + squares
            if total > cap:
                if i * x >= s:
                    break
                continue
            doubled.append(2 * x)
            yield from grow(i + 1, s + x, squares + x * x, total, has_zero or x == 0)
            doubled.pop()

    numerator = build_qseries(ring, delta, order, grow(0, 0, 0, 0, False))
    return numerator * inverse_pochhammer_series(ring, n - 1, order)


# the largest order per rank at which the coordinate search stays cheap
COORDINATE_ORDERS = {1: 12, 2: 14, 3: 9, 4: 7, 5: 6, 6: 5, 7: 4, 8: 3}


@pytest.mark.parametrize("n", sorted(COORDINATE_ORDERS))
def test_orbit_theta_matches_coordinate_search(n):
    for order in sorted({0, 1, COORDINATE_ORDERS[n]}):
        for k in range(n):
            theta = level1_theta(n, k, order)
            assert theta == theta_by_coordinates(n, k, order), (n, k, order)


def test_theta_rejects_negative_order():
    for n, k in ((1, 0), (3, 1), (10, 5)):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            level1_theta(n, k, -1)


@pytest.mark.parametrize("route", [Z_vertex, Z_vertex_direct, rogers_szego_recursive,
                                   rogers_szego, polychronakos_partition])
def test_negative_length_is_rejected(route):
    # every route to the length-N sums refuses N < 0 alike, not with an empty sum
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="N must be nonnegative"):
            route(-1, n)


def test_motifs_reject_length_below_one():
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be positive"):
            motifs(N, 2)


def test_theta_equals_decomposition_large():
    # sizes the full-box strip search needed tens of seconds for
    for n, order in ((4, 10), (5, 8)):
        for k in range(n):
            theta = level1_theta(n, k, order)
            for variant in ("a", "b"):
                eq, mismatch = theta.compare(level1_decomposition(n, k, order, variant))
                assert eq, (n, k, variant, mismatch)


def test_polychronakos():
    for n in (2, 3):
        z0 = polychronakos_partition(0, n)
        assert z0.order == 0 and z0.coeffs[0] == Ring(n).one()
    z2 = polychronakos_partition(2, 2)
    assert z2.order == 1
    # q * H_2(1/q, x) = q*(x1^2+x2^2) + (1+q)*x1*x2: the column strip sits
    # at the ground exponent and the row strip one level up
    assert z2.coeffs[0] == schur_strip_cached((2,), 2)
    assert z2.coeffs[1] == schur_strip_cached((1, 1), 2)
    for n in (2, 3):
        for N in range(0, 6):
            a = polychronakos_partition(N, n)
            b = Z_vertex(N, n)
            c = Z_vertex_direct(N, n)
            assert a.compare(b)[0] and b.compare(c)[0], (n, N)


def coeff_or_zero(series, j):
    return series.coeffs[j] if j <= series.order else series.ring.zero()


def test_stabilization():
    for n, start in ((2, 4), (3, 6)):
        for N in range(start, 9):
            a = polychronakos_partition(N, n, relation=True)
            b = polychronakos_partition(N + n, n, relation=True)
            for j in range(3):
                assert coeff_or_zero(a, j) == coeff_or_zero(b, j), (n, N, j)
    # and the truncations approach the lattice character
    for n in (2, 3):
        for N in (7, 8):
            k = N % n
            theta = level1_theta(n, k, 2)
            z = polychronakos_partition(N, n, relation=True)
            for j in range(3):
                assert theta.coeffs[j] == coeff_or_zero(z, j), (n, N, j)


def test_kostka_worked_example():
    result = kostka_foulkes(Partition((3, 2, 1)))
    product = QPoly.term(4)
    for factor in (
        QPoly({0: 1, 1: 1}),
        QPoly({0: 1, 1: 1}),
        QPoly({0: 1, 2: 1}),
        QPoly({0: 1, 3: 1}),
    ):
        product = product * factor
    assert result.polynomial == product
    assert len(result.strips) == 14
    assert sum(c for _b, _t, c in result.strips) == 16
    assert kostka_oracle(Partition((3, 2, 1))) == product


def test_kostka_result_checks_its_audit_list():
    lam = Partition((3, 2, 1))
    strips = kostka_foulkes(lam).strips
    KostkaResult(lam, kostka_oracle(lam), strips)
    with pytest.raises(AssertionError):
        KostkaResult(lam, kostka_oracle(lam) + QPoly.term(5), strips)
    with pytest.raises(AssertionError):
        KostkaResult(lam, kostka_oracle(lam), strips[1:])
    # counts at one t that cancel leave no term
    bs = strips[0][0]
    KostkaResult(lam, QPoly(), [(bs, 3, 2), (bs, 3, -2)])
    with pytest.raises(AssertionError):
        KostkaResult(lam, QPoly.const(0), [(bs, 3, 2), (bs, 3, -1)])


def test_kostka_small_shapes():
    assert kostka_foulkes(Partition((2,)), 2).polynomial == QPoly.term(1)
    assert kostka_oracle(Partition((2,)), 2) == QPoly.term(1)
    result = kostka_foulkes(Partition((1, 1)), 2)
    assert result.polynomial == QPoly.const(1)
    assert [bs.columns for bs, _t, _c in result.strips] == [(2,)]
    assert kostka_oracle(Partition((1, 1)), 2) == QPoly.const(1)
    for N in range(1, 6):
        row = kostka_foulkes(Partition((N,)), 2)
        assert row.polynomial == QPoly.term(N * (N - 1) // 2)
        assert kostka_oracle(Partition((N,)), 2) == row.polynomial


def all_partitions_of(N):
    out = []

    def grow(rest, maxpart, acc):
        if rest == 0:
            out.append(Partition(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            grow(rest - p, p, acc + [p])

    grow(N, N if N else 1, [])
    return out


def test_kostka_matches_oracle():
    shapes = [lam for N in range(1, 6) for lam in all_partitions_of(N)]
    # sizes that enumerating every tableau put out of reach
    shapes += [lam for lam in all_partitions_of(8) if lam.length() <= 4]
    shapes.append(Partition((4, 3, 2, 1)))
    for lam in shapes:
        assert kostka_foulkes(lam).polynomial == kostka_oracle(lam), lam


def test_kostka_dimension_sum():
    # at q = 1 the values weight the classical dimension count
    for n in (2, 3):
        for N in range(1, 5):
            total = 0
            for lam in all_partitions_of(N):
                if lam.length() > n:
                    continue
                kq = kostka_foulkes(lam, n).polynomial.at()
                dim = schur_straight(lam, n).at_x_ones().at()
                total += kq * dim
            assert total == n ** N, (n, N)


def test_kostka_rank_independence():
    for lam in (Partition((2, 1)), Partition((3, 1)), Partition((2, 2))):
        base = kostka_foulkes(lam, lam.length()).polynomial
        assert kostka_foulkes(lam, lam.length() + 2).polynomial == base


def kostka_strips_by_compositions(lam, n=None):
    """The strip audit list by one ``count_LR`` per composition of |lam|
    with parts up to min(n, len(lam)), in ``enumerate_Sp_N`` order."""
    least = max(lam.length(), 1)
    n = least if n is None else min(n, least)
    out = []
    for blocks in enumerate_Sp_N(lam.size(), n):
        bs = BorderStrip(blocks)
        c = count_LR(bs, lam)
        if c:
            out.append((bs, t_statistic(bs), c))
    return out


def test_kostka_strips_match_composition_route():
    for N in range(10):
        for lam in partitions_of(N):
            for n in (None, 1, 2, 3, 4, 5):
                want = kostka_strips_by_compositions(lam, n)
                assert list(kostka_foulkes(lam, n).strips) == want, (lam, n)


@st.composite
def partitions_with_rank(draw):
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(0, 11)))))
    return lam, draw(st.one_of(st.none(), st.integers(1, 7)))


@settings(max_examples=25, deadline=None)
@given(partitions_with_rank())
def test_kostka_strips_match_composition_route_on_random_partitions(case):
    lam, n = case
    assert list(kostka_foulkes(lam, n).strips) == kostka_strips_by_compositions(lam, n)


def kostka_rhs_by_compositions(N, n):
    """The q-multinomial expansion at every n-part composition of N."""
    return {
        tuple(2 * k for k in comp):
            gaussian_multinomial(N, comp).shifted(sum(k * (k - 1) // 2 for k in comp))
        for comp in product(range(N + 1), repeat=n)
        if sum(comp) == N
    }


def test_kostka_rhs_reads_the_partition_coefficients():
    for N in range(8):
        for n in range(1, 5):
            full = kostka_rhs_by_compositions(N, n)
            got = kostka_rhs(N, n)
            assert got == {v: c for v, c in full.items() if list(v) == sorted(v, reverse=True)}
            # the full sum is constant on S_n-orbits
            for vec, coeff in full.items():
                assert coeff == got[tuple(sorted(vec, reverse=True))], (N, n, vec)


def test_kostka_oracle_matches_peel_exhaustively():
    cases = [
        (lam, n)
        for N in range(11)
        for lam in partitions_of(N)
        for n in range(max(lam.length(), 1), 7)
    ]
    assert len(cases) == 446
    for lam, n in cases:
        assert kostka_oracle(lam, n) == kostka_by_peel(lam, n), (lam, n)


@st.composite
def partitions_with_ranks_from_length(draw):
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(0, 14)))))
    least = max(lam.length(), 1)
    return lam, draw(st.integers(least, least + 3))


@settings(max_examples=25, deadline=None)
@given(partitions_with_ranks_from_length())
def test_kostka_oracle_matches_peel_on_random_partitions(case):
    lam, n = case
    assert kostka_oracle(lam, n) == kostka_by_peel(lam, n)


def signed_compositions_by_permutations(lam, n):
    """(sgn w, lam + delta - w(delta)) over all of S_n, the sign counted by
    inversions, keeping the terms with no negative entry."""
    parts = lam.parts + (0,) * (n - lam.length())
    delta = [n - 1 - i for i in range(n)]
    out = []
    for w in permutations(range(n)):
        comp = tuple(p + d - delta[j] for p, d, j in zip(parts, delta, w))
        if min(comp) >= 0:
            inversions = sum(a > b for a, b in combinations(w, 2))
            out.append((-1 if inversions % 2 else 1, comp))
    return sorted(out)


def test_signed_compositions_match_permutations():
    for n in range(1, 7):
        for N in range(7):
            for lam in partitions_of(N, max_length=n):
                got = sorted(_signed_compositions(lam, n))
                assert got == signed_compositions_by_permutations(lam, n), (lam, n)


def test_kostka_oracle_is_rank_stable():
    lam = Partition((3, 2, 1))
    base = kostka_oracle(lam, 3)
    for n in range(4, 13):
        assert kostka_oracle(lam, n) == base, n
    # trailing zeros force their values, so no rank adds a term
    assert len(list(_signed_compositions(lam, 12))) == len(list(_signed_compositions(lam, 3)))


@pytest.mark.parametrize("n", [0, -1])
def test_kostka_rejects_rank_below_one(n):
    for lam in (Partition(), Partition((2, 1))):
        with pytest.raises(ValueError):
            kostka_foulkes(lam, n)
        with pytest.raises(ValueError):
            kostka_oracle(lam, n)
    for N in (0, 3):
        with pytest.raises(ValueError):
            kostka_rhs(N, n)
    with pytest.raises(ValueError):
        next(_compositions(3, n))
    with pytest.raises(ValueError):
        kostka_rhs(-1, 2)


def test_branching_vacuum():
    b = branching_function(0, Partition(), 2, 2)
    assert b.offset == 0
    assert b.coeffs[0] == Ring(2, relation=True).one()
    with pytest.raises(ValueError):
        branching_function(0, Partition((1,)), 2, 2)
    with pytest.raises(ValueError):
        branching_function(0, Partition((1, 1)), 2, 2)


def test_branching_consistency():
    n, k, order = 2, 1, 4
    dec = level1_decomposition(n, k, order)
    acc = build_qseries(Ring(n, relation=True), dec.offset, order, [])
    for m in range(1, 14, n):
        lam = Partition((m,))
        acc = acc + branching_function(k, lam, n, order) * schur_straight(
            lam, n, relation=True
        )
    assert acc.compare(dec)[0]


def test_branching_padded_content():
    # the shifted-content rule engages at sizes |shape| + n
    strips3 = [(1, 1, 1), (2, 1), (1, 2)]
    assert all(count_LR(BorderStrip(b), Partition((1, 1, 1))) == 0 for b in strips3)
    b = branching_function(0, Partition(), 3, 6)
    assert b.coeffs[0] == Ring(3, relation=True).one()
    assert any(bool(c) for c in b.coeffs[1:])
