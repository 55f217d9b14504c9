"""q-series assembly: multinomial generating polynomials, the border-strip
sum that equals them, lattice theta forms versus strip decompositions of the
level-1 characters, and the strip formula for Kostka-Foulkes polynomials
with its independent extraction oracle."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .polyring import (
    QPoly,
    Ring,
    build_qseries,
    gaussian_multinomial,
    inverse_pochhammer_series,
    laurent_dot,
)
from .shapes import BorderStrip, Partition, partitions_of
from .spectra import Z_vertex, enumerate_Sp_N, polychronakos_ground_energy
from .tableaux import count_LR, kostka_numbers, lattice_column, lattice_start
from . import schur as _schur


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts < 1:
        raise ValueError("need at least one part")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_GM_CACHE = {}


def _gm(N, parts):
    key = (N, tuple(sorted(parts)))
    got = _GM_CACHE.get(key)
    if got is None:
        got = _GM_CACHE[key] = gaussian_multinomial(N, key[1])
    return got


def rogers_szego(N, n):
    """Sum over compositions of N of the q-multinomial times the monomial."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation=False)
    return ring.from_terms(
        (tuple(2 * k for k in comp), _gm(N, comp))
        for comp in _compositions(N, n)
    )


_RSZ_REC_CACHE = {}


def rogers_szego_recursive(N, n):
    """The same polynomials built purely from their recursion.

    H_N = sum_{i=1..n} (-1)^(i+1) * prod_{j=N-i+1}^{N-1}(1-q^j) * e_i * H_{N-i}
    with H_0 = 1 and H_{<0} = 0; the prefactor is the exact quotient of
    q-factorials, expanded as a product.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    key = (N, n)
    got = _RSZ_REC_CACHE.get(key)
    if got is not None:
        return got
    ring = Ring(n, relation=False)
    if N == 0:
        out = ring.one()
    else:
        products = []
        for i in range(1, min(n, N) + 1):
            pref = QPoly.const(1)
            for j in range(N - i + 1, N):
                pref = pref * QPoly({0: 1, j: -1})
            products.append((1 if i % 2 == 1 else -1, _schur.e_m(ring, i) * pref,
                             rogers_szego_recursive(N - i, n)))
        out = laurent_dot(ring, products)
    _RSZ_REC_CACHE[key] = out
    return out


def F_N(N, n):
    """Strip sum: q^(N(N+1)/2 - sum of prefix sums) times each strip Schur."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation=False)
    base = N * (N + 1) // 2
    zero = (0,) * n
    return laurent_dot(ring, (
        (1, _schur.schur_strip_cached(blocks, n),
         ring.monomial(zero, QPoly.term(base - sum(accumulate(blocks)))))
        for blocks in enumerate_Sp_N(N, n)
    ))


def _a_exponent(N, m, ks):
    j = len(ks)
    return N * (m - j) - m * (m + 1) // 2 + sum(i * k for i, k in enumerate(ks, 1))


def A_coefficient(N, m, n=None):
    """Signed sum over ordered partitions of m (parts <= n when given)."""
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    out = QPoly()
    for ks in enumerate_Sp_N(m, m if n is None else n):
        term = QPoly.term(_a_exponent(N, m, ks))
        out = out + (term if len(ks) % 2 == 1 else -term)
    return out


def A_closed(N, m):
    """(-1)^(m+1) (q)_{N-1} / (q)_{N-m}, expanded as a plain product."""
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    out = QPoly.const(1)
    for i in range(N - m + 1, N):
        out = out * QPoly({0: 1, i: -1})
    return out if m % 2 == 1 else -out


def A_split_contributions(N, m):
    """The two sub-sums over ordered partitions ending in 1 versus >= 2."""
    ending_one = QPoly()
    bumped = QPoly()
    for ks in enumerate_Sp_N(m, m):
        term = QPoly.term(_a_exponent(N, m, ks))
        signed = term if len(ks) % 2 == 1 else -term
        if ks[-1] == 1:
            ending_one = ending_one + signed
        else:
            bumped = bumped + signed
    return ending_one, bumped


def conformal_dimension(n, k):
    return Fraction(k * (n - k), 2 * n)


def decomposition_strips(n, cutoff, residue):
    """Yield (blocks, exponent) for every strip with exponent <= cutoff whose
    size is congruent to ``residue`` mod n.

    Strips have columns m_1..m_r in 1..n with the final column at most n-1;
    the empty strip has size 0 and exponent 0.  With prefix sums p_j a strip
    sits at exponent F / (2n), where

        F = 2n * sum_{j<r} p_j + p_r (n - p_r),

    so the search runs over columns in integers against
    cap = floor(2n * cutoff), and builds a Fraction only for emitted strips.

    The pruning is complete.  Take a prefix whose prefix sums total S (its
    last one, p, included).  Every strip extending it by one column has p_r
    in [p+1, p+n-1]; x(n-x) is concave and symmetric about n/2, so on that
    interval its minimum is at p+n-1, and such a strip has

        F >= B(S, p) := 2n S + (p+n-1)(1-p).

    Appending a column c to the prefix raises B by
    2p(n-c) + c(n+2-c) >= n+1, so a strip extending the prefix by more
    columns lies above the bound of a longer prefix, hence above B(S, p).
    A prefix with B > cap therefore has no extension inside the window, and
    as B starts at n-1 and grows by at least n+1 per column, no strip has
    more than (cap - n + 1) / (n + 1) + 1 columns: the search terminates.
    For a fixed prefix B is not monotone in c, so every c is tried.
    """
    residue %= n
    two_n = 2 * n
    cap = math.floor(two_n * Fraction(cutoff))
    if cap >= 0 and residue == 0:
        yield (), Fraction(0)
    prefix = []

    def grow(S, p):
        for c in range(1, n + 1):
            q = p + c
            if c < n and q % n == residue:
                F = two_n * S + q * (n - q)
                if F <= cap:
                    yield (*prefix, c), Fraction(F, two_n)
            T = S + q
            if two_n * T + (q + n - 1) * (1 - q) <= cap:
                prefix.append(c)
                yield from grow(T, q)
                prefix.pop()

    yield from grow(0, 0)


def level1_decomposition(n, k, order, variant="a"):
    """Strip-sum form of the sector-k character, offset by the conformal
    dimension; variant "b" runs over the complementary sector with the
    variable-inverted Schur functions."""
    if not 0 <= k < n:
        raise ValueError("sector out of range")
    if variant not in ("a", "b"):
        raise ValueError("variant must be 'a' or 'b'")
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    cutoff = delta + order
    residue = k if variant == "a" else n - k
    series = build_qseries(
        ring,
        delta,
        order,
        (
            (expo, _schur.schur_strip_cached(blocks, n, relation=True))
            for blocks, expo in decomposition_strips(n, cutoff, residue)
        ),
    )
    if variant == "b":
        # x -> 1/x is additive, so inverting the summed value once equals
        # summing the inverted strip Schur functions
        series = build_qseries(
            ring, delta, order, [(delta, series.value.subs_x_inverse())]
        )
    return series


def level1_theta(n, k, order):
    """Lattice-sum form of the sector-k character.

    Weight classes are the integer vectors a with minimum entry 0 and
    coordinate sum s congruent to k mod n; such a vector sits at exponent
    P(a) / (2n), where

        P(a) = n * sum a_i^2 - s^2 = sum_{i<j} (a_i - a_j)^2.

    s and P are symmetric, so the search lists one vector per S_n-orbit,
    the non-increasing one, whose last entry is its minimum 0.
    ``Ring.symmetrized`` expands the orbits of one exponent into their
    distinct permutations, one contribution per exponent.  Distinct vectors
    with minimum 0 are distinct monomials under the relation, so every
    coefficient of the sum is 1.

    The search is complete.  Every vector in the window has P <= cap with
    cap = floor(2n * cutoff).  Let P_i and s_i be the pairwise sum and the
    sum of the first i entries.  Appending x adds sum_{j<=i} (a_j - x)^2,
    at least its minimum over real x, P_i / i at x = s_i / i; each later
    entry adds at least that much again, as its sum runs over a longer
    prefix.  So P >= P_i + (n - i) P_i / i = n P_i / i, and a prefix with
    n P_i > i cap has no completion in the window.  The first entry is at
    most isqrt(cap), as a_1^2 = (a_1 - a_n)^2 <= P.  Each later entry is
    scanned downward from the previous one: below the prefix's minimum
    every (a_j - x)^2 grows as x falls, so once a prefix fails the bound
    every smaller x fails it too and the scan stops.  The result carries
    the inverse-q-factorial denominator to the requested order.
    """
    if not 0 <= k < n:
        raise ValueError("sector out of range")
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    cutoff = delta + order
    two_n = 2 * n
    cap = math.floor(two_n * cutoff)
    orbits = {}
    prefix = []

    def grow(i, s, squares, pairs):
        # i entries fixed, with sum s, sum of squares ``squares`` and
        # pairwise sum ``pairs``; the last entry is 0
        if i == n - 1:
            pairs += squares
            if s % n == k and pairs <= cap:
                orbits.setdefault(pairs, []).append((*(2 * x for x in prefix), 0))
            return
        for x in range(prefix[-1] if prefix else math.isqrt(max(cap, 0)), -1, -1):
            total = pairs + squares - 2 * s * x + i * x * x
            if n * total > (i + 1) * cap:
                break
            prefix.append(x)
            grow(i + 1, s + x, squares + x * x, total)
            prefix.pop()

    grow(0, 0, 0, 0)
    numerator = build_qseries(ring, delta, order, (
        (Fraction(pairs, two_n), ring.symmetrized(reps)) for pairs, reps in orbits.items()
    ))
    return numerator * inverse_pochhammer_series(ring, n - 1, order)


def polychronakos_partition(N, n, relation=False):
    """q^(ground energy) times the reversed-q multinomial polynomial."""
    ring = Ring(n, relation)
    e0 = polychronakos_ground_energy(N, n)
    flipped = rogers_szego(N, n).to_ring(ring).subs_q_inverse()
    return build_qseries(ring, 0, e0, [(e0, flipped)])


def polychronakos_strip_form(N, n, relation=False):
    """The same partition function as a strip sum over block lists."""
    return Z_vertex(N, n, relation)


class KostkaResult:
    """Strip-sum value of a Kostka-Foulkes polynomial with its audit list."""

    __slots__ = ("lam", "polynomial", "strips")

    def __init__(self, lam, polynomial, strips):
        self.lam = lam
        self.polynomial = polynomial
        self.strips = tuple(strips)
        check = QPoly()
        for _bs, t, c in self.strips:
            check = check + QPoly.term(t, c)
        if check != polynomial:
            raise AssertionError("strip audit list disagrees with polynomial")

    def __repr__(self):
        return f"KostkaResult({self.lam}, {self.polynomial})"


def kostka_foulkes(lam, n=None):
    """Sum of q^t(strip) times the lattice-filling count, over all strips
    of the size of lam with columns bounded by n.

    Single-column strips carry statistic 0; the convention is pinned by the
    extraction oracle and by the q-multinomial identity behind it.  A column
    longer than the length of lam has no strictly increasing filling from
    its letters, so columns are listed only up to that length.

    A depth-first search over column prefixes, each column tried in
    increasing order, lists the strips in ``enumerate_Sp_N``'s lexicographic
    order.  A prefix carries the ``count_LR`` states of its columns, one
    ``lattice_column`` step per column.  The pruning is complete: a state
    after a step extends one before it, so a prefix with no states leaves
    every strip extending it at count 0, which the audit list omits.  t, the
    sum of all prefix sums but the last, grows by the previous one per column.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if n is not None and n < 1:
        raise ValueError("rank must be positive")
    least = max(lam.length(), 1)
    n = least if n is None else min(n, least)
    N, cap = lam.size(), lam.parts
    strips = []
    coeffs = {}

    def grow(states, p, t, blocks):
        if p == N:
            c = sum(states.values())
            strips.append((BorderStrip(blocks), t, c))
            coeffs[t] = coeffs.get(t, 0) + c
            return
        for m in range(1, min(n, N - p) + 1):
            nxt = lattice_column(states, m, cap)
            if nxt:
                grow(nxt, p + m, t + p, blocks + (m,))

    grow(lattice_start(cap), 0, 0, ())
    return KostkaResult(lam, QPoly(coeffs), strips)


def kostka_rhs(N, n):
    """sum over n-part compositions of q^(sum k_i(k_i-1)/2) [N; k]_q x^k,
    as its coefficients ``{doubled exponent vector: QPoly}`` at the
    partitions of N padded to n parts, listed in lexicographically
    decreasing order.  Both the q-multinomial and the shift are symmetric
    in k, so the sum is symmetric in x and its coefficient at any
    composition is the one at its sorted partition."""
    if n < 1 or N < 0:
        raise ValueError("need rank n >= 1 and N >= 0")
    padded = (mu.parts + (0,) * (n - mu.length()) for mu in partitions_of(N, max_length=n))
    return {
        tuple(2 * k for k in comp): _gm(N, comp).shifted(sum(k * (k - 1) // 2 for k in comp))
        for comp in padded
    }


def kostka_oracle(lam, n=None):
    """Kostka-Foulkes value extracted from the q-multinomial expansion.

    Processing partitions in lexicographically decreasing order (which
    refines dominance; ``kostka_rhs`` lists them so), peel with classical
    tableau-counted Kostka numbers:
        K_rhs(lam) = coeff_{x^lam}(rhs) - sum_{mu > lam} K_rhs(mu) K(mu, lam).
    Nothing here touches the strip formula.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    n = max(lam.length(), 1) if n is None else n
    if n < 1:
        raise ValueError("rank must be positive")
    if lam.length() > n:
        return QPoly()
    extracted = {}
    for vec, val in kostka_rhs(lam.size(), n).items():
        mu = Partition(v // 2 for v in vec)
        for knu, count in zip(extracted.values(), kostka_numbers(extracted, mu)):
            if count:
                val = val - knu * count
        extracted[mu] = val
        if mu == lam:
            return val
    return extracted.get(lam, QPoly())


def branching_function(k, lam, n, order):
    """Multiplicity series of a highest-weight shape inside the sector-k
    strip decomposition: strips of matching residue and size at least
    the shape's, counted with padded content."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.length() >= n:
        raise ValueError("shape must have fewer than n rows")
    if lam.size() % n != k % n:
        raise ValueError("shape size incompatible with the sector")
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    cutoff = delta + order
    one = (0,) * n

    def contributions():
        for blocks, expo in decomposition_strips(n, cutoff, k):
            m = sum(blocks)
            if m < lam.size():
                continue
            j = (m - lam.size()) // n
            content = lam.padded(n, add=j)
            c = count_LR(BorderStrip(blocks), content)
            if c:
                yield expo, ring.monomial(one, c)

    return build_qseries(ring, delta, order, contributions())
