"""q-series assembly: multinomial generating polynomials, the border-strip
sum that equals them, lattice theta forms versus strip decompositions of the
level-1 characters, and the strip formula for Kostka-Foulkes polynomials
with its independent extraction oracle."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .polyring import (
    Laurent,
    QPoly,
    QSeries,
    Ring,
    _grown,
    build_qseries,
    check_order,
    gaussian_multinomial,
    laurent_dot,
    symmetrized_series,
)
from .shapes import BorderStrip, Partition, partitions_of
from .spectra import Z_vertex, polychronakos_ground_energy
from .tableaux import count_LR, lattice_columns, lattice_start
from . import schur as _schur


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``, in
    lexicographic order: each part is a run of stars between two bars."""
    if parts < 1:
        raise ValueError("need at least one part")
    end = total + parts - 1
    for bars in combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


_GM_CACHE = {}


def _gm(N, parts):
    key = (N, tuple(sorted(k for k in parts if k)))  # (q)_0 = 1: zero parts drop out
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


def rogers_szego_recursive(N, n):
    """The same polynomials built purely from their recursion.

    H_M = sum_{i=1..min(n, M)} A_closed(M, i) * e_i * H_(M-i) with H_0 = 1,
    built bottom-up from H_0 to H_N.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation=False)
    H = [ring.one()]
    for M in range(1, N + 1):
        H.append(laurent_dot(ring, [
            (1, _schur.e_m(ring, i) * A_closed(M, i), H[M - i])
            for i in range(1, min(n, M) + 1)
        ]))
    return H[N]


def F_N(N, n):
    """Strip sum: q^(N(N+1)/2 - sum of prefix sums) times each strip Schur.

    This is ``Z_vertex``'s strip sum read at q -> 1/q and raised by the
    ground energy, as that energy plus ``ground_sum(N, n)`` is N(N+1)/2.
    """
    return Z_vertex(N, n).value.subs_q_inverse() * QPoly.term(polychronakos_ground_energy(N, n))


def A_closed(N, m):
    """(-1)^(m+1) (q)_{N-1} / (q)_{N-m}, expanded as a plain product."""
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    out = QPoly.const(1)
    for i in range(N - m + 1, N):
        out = out * QPoly({0: 1, i: -1})
    return out if m % 2 == 1 else -out


def conformal_dimension(n, k):
    return Fraction(k * (n - k), 2 * n)


def decomposition_strips(n, cap, *residues):
    """Yield (blocks, F) for every strip with F <= cap whose size is
    congruent mod n to one of ``residues``.

    Strips have columns m_1..m_r in 1..n with the final column at most n-1;
    the empty strip has size 0 and F = 0.  With prefix sums p_j a strip
    sits at exponent F / (2n), where

        F = 2n * sum_{j<r} p_j + p_r (n - p_r),

    so the search runs over columns in integers.  A strip of residue r has
    F = r(n - r) mod 2n, so F = k(n - k) + 2n j for sector k's strip at
    q^(delta + j), and cap = k(n - k) + 2n order bounds j by the order.

    One depth-first search serves every residue class: the pruning below
    does not read the residue, so each class comes out in the order a
    search for it alone would give, interleaved with the other classes.

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
    wanted = {r % n for r in residues}
    two_n = 2 * n
    if cap >= 0 and 0 in wanted:
        yield (), 0
    # one frame per column of the prefix: the S and p before it
    prefix, frames = [], []
    S, p, c = 0, 0, 1
    while frames or c <= n:
        if c > n:
            S, p = frames.pop()
            c = prefix.pop() + 1
            continue
        q = p + c
        if c < n and q % n in wanted:
            F = two_n * S + q * (n - q)
            if F <= cap:
                yield (*prefix, c), F
        T = S + q
        if two_n * T + (q + n - 1) * (1 - q) <= cap:
            frames.append((S, p))
            prefix.append(c)
            S, p, c = T, q, 1
        else:
            c += 1


# q-free coefficients at q^(delta + j), j = 0, 1, ..., grown on demand: the
# strip sums per (n, residue) and the theta's orbit sums per (n, k)
_DECOMP_CACHE = {}
_THETA_CACHE = {}


def level1_decomposition(n, k, order, variant="a"):
    """Strip-sum form of the sector-k character, offset by the conformal
    dimension.  Variant "a" sums the strip Schur functions of residue k;
    variant "b" sums those of the complementary residue n-k and inverts the
    variables; "ab" returns the pair (a, b).

    Residues k and n-k share the conformal dimension, so the strip sum at
    q^(delta + j) is kept per (n, residue) and grown on demand: variant a
    of sector k and variant b of sector n-k read one list.  One
    ``decomposition_strips`` search fills the j that the asked residues do
    not hold yet.  No strip's own Schur function is built: by the first-row
    expansion of ``schur._strip_expansion``,

        s(m_1..m_r) = sum_i (-1)^(i+1) e_t s(m_1..m_{r-i}),  t = m_r+...+m_{r-i+1} <= n,

    so each (residue, j) class adds its strips' signed prefix Schur
    functions per t and is one ``laurent_dot`` of e_t with those sums; the
    empty strip is e_0 times 1.  x -> 1/x is additive, so b inverts its
    summed value once rather than each strip Schur function; when
    k = n-k mod n the two residues coincide and b is a's summed value
    inverted, nothing summed twice.
    """
    if not 0 <= k < n:
        raise ValueError("sector out of range")
    if variant not in ("a", "b", "ab"):
        raise ValueError("variant must be 'a', 'b' or 'ab'")
    check_order(order)
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    base, two_n = k * (n - k), 2 * n
    a, b = k, (n - k) % n
    residues = list(dict.fromkeys({"a": (a,), "b": (b,), "ab": (a, b)}[variant]))

    def fill(lows):
        # a strip of either residue sits at F = k(n - k) + 2n j; prefix Schur
        # functions are q-free, so each (j, t) sums the keys as held
        low = dict(zip(residues, lows))
        found = {r: {} for r in residues}
        for blocks, F in decomposition_strips(n, base + two_n * order,
                                              *(r for r in residues if low[r] <= order)):
            r = sum(blocks) % n
            j = (F - base) // two_n
            if j < low[r]:
                continue
            groups = found[r].setdefault(j, {})
            if not blocks:
                groups[0] = dict(ring.one().terms)
            t, sign = 0, 1
            for cut in range(len(blocks) - 1, -1, -1):
                t += blocks[cut]
                if t > n:
                    break
                prefix = _schur.schur_strip_cached(blocks[:cut], n, relation=True)
                acc = groups.setdefault(t, {})
                get = acc.get
                for key, c in prefix.terms.items():
                    acc[key] = get(key, 0) + sign * c
                sign = -sign
        return [[laurent_dot(ring, [(1, _schur.e_m(ring, t),
                                     Laurent._raw(ring, {key: c for key, c in acc.items() if c}))
                                    for t, acc in found[r].get(j, {}).items()])
                 for j in range(low[r], order + 1)] for r in residues]

    held = _grown(_DECOMP_CACHE, [(n, r) for r in residues], order, fill)
    sums = {r: build_qseries(ring, delta, order, enumerate(cs)) for r, cs in zip(residues, held)}
    if variant == "a":
        return sums[a]
    inverted = QSeries(delta, sums[b].value.subs_x_inverse(), order)
    return inverted if variant == "b" else (sums[a], inverted)


def level1_theta(n, k, order):
    """Lattice-sum form of the sector-k character.

    Weight classes are the integer vectors a with minimum entry 0 and
    coordinate sum s congruent to k mod n; such a vector sits at exponent
    P(a) / (2n), where

        P(a) = n * sum a_i^2 - s^2 = sum_{i<j} (a_i - a_j)^2.

    s and P are symmetric, so the search lists one vector per S_n-orbit,
    the non-increasing one, whose last entry is its minimum 0.  The orbits
    of one exponent, as their distinct permutations (``Ring.symmetrized``),
    are kept per (n, k) and grown on demand; ``symmetrized_series`` writes
    them times the inverse-q-factorial denominator straight into the
    window.  Distinct vectors with minimum 0 are distinct monomials under
    the relation, so no two exponents share a monomial.

    The search is complete.  Every vector in the window has P <= cap with
    cap = k(n - k) + 2n order, the P of q^(delta + order).  Let P_i and s_i
    be the pairwise sum and the sum of the first i entries.  Appending x
    adds sum_{j<=i} (a_j - x)^2, at least its minimum over real x, P_i / i
    at x = s_i / i; each later entry adds at least that much again, as its
    sum runs over a longer prefix.  So P >= P_i + (n - i) P_i / i = n P_i / i, and a prefix with
    n P_i > i cap has no completion in the window.  The first entry is at
    most isqrt(cap), as a_1^2 = (a_1 - a_n)^2 <= P.  Each later entry is
    scanned downward from the previous one: below the prefix's minimum
    every (a_j - x)^2 grows as x falls, so once a prefix fails the bound
    every smaller x fails it too and the scan stops.
    """
    if not 0 <= k < n:
        raise ValueError("sector out of range")
    check_order(order)
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)
    base, two_n = k * (n - k), 2 * n

    def fill(lows):
        (lo,) = lows
        cap = base + two_n * order
        # the class of P sits at q^(P / 2n) = q^(delta + j), j = (P - k(n - k)) / 2n
        # exactly: P = s(n - s) mod 2n, and s(n - s) = k(n - k) mod 2n for s = k mod n
        orbits = {}
        # one frame per entry of the prefix: i entries fixed, with sum s, sum
        # of squares and pairwise sum, and the next x to try; a new entry is
        # tried from the one before it down, and the last entry is 0
        prefix, frames = [], []
        i = s = squares = pairs = 0
        x = math.isqrt(max(cap, 0))
        while True:
            if i < n - 1 and x >= 0:
                total = pairs + squares - 2 * s * x + i * x * x
                if n * total <= (i + 1) * cap:
                    frames.append((i, s, squares, pairs, x - 1))
                    prefix.append(x)
                    i, s, squares, pairs = i + 1, s + x, squares + x * x, total
                    continue
            elif i == n - 1 and s % n == k and pairs + squares <= cap:
                j = (pairs + squares - base) // two_n
                if j >= lo:
                    orbits.setdefault(j, []).append((*(2 * y for y in prefix), 0))
            if not frames:
                break
            i, s, squares, pairs, x = frames.pop()
            prefix.pop()
        return [[ring.symmetrized(orbits.get(j, ())) for j in range(lo, order + 1)]]

    (held,) = _grown(_THETA_CACHE, [(n, k)], order, fill)
    return symmetrized_series(ring, delta, order, enumerate(held), n - 1)


def polychronakos_partition(N, n, relation=False):
    """q^(ground energy) times the reversed-q multinomial polynomial."""
    ring = Ring(n, relation)
    e0 = polychronakos_ground_energy(N, n)
    flipped = rogers_szego(N, n).to_ring(ring).subs_q_inverse()
    return build_qseries(ring, 0, e0, [(e0, flipped)])


class KostkaResult:
    """Strip-sum value of a Kostka-Foulkes polynomial with its audit list."""

    __slots__ = ("lam", "polynomial", "strips")

    def __init__(self, lam, polynomial, strips):
        self.lam = lam
        self.polynomial = polynomial
        self.strips = tuple(strips)
        check = {}
        for _bs, t, c in self.strips:
            check[t] = check.get(t, 0) + c
        if QPoly(check) != polynomial:
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

    A depth-first search over column prefixes, on an explicit stack whose
    children are pushed in decreasing column length and so popped in
    increasing order, lists the strips in ``enumerate_Sp_N``'s lexicographic
    order.  A prefix carries the ``count_LR`` states of its columns; one
    ``lattice_columns`` call gives them after every next column, as only the
    top cell reads the column before.  The pruning is complete: a state
    after a step extends one before it, so the list stops at the first
    length with no states, past which every strip counts 0 and the audit
    list omits it.  t, the sum of all prefix sums but the last, grows by the
    previous one per column.
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
    stack = [(lattice_start(cap), 0, 0, ())]
    while stack:
        states, p, t, blocks = stack.pop()
        if p == N:
            c = sum(states.values())
            strips.append((BorderStrip._raw(blocks), t, c))
            coeffs[t] = coeffs.get(t, 0) + c
            continue
        after = lattice_columns(states, min(n, N - p), cap)
        for m in range(len(after), 0, -1):
            stack.append((after[m - 1], p + m, t + p, blocks + (m,)))
    return KostkaResult(lam, QPoly(coeffs), strips)


def _rhs_coefficient(N, comp):
    """q^(sum k_i(k_i-1)/2) [N; k]_q, the coefficient at x^k of the sum
    that ``kostka_rhs`` lists; zero parts change neither factor."""
    return _gm(N, comp).shifted(sum(k * (k - 1) // 2 for k in comp))


def kostka_rhs(N, n):
    """sum over n-part compositions of q^(sum k_i(k_i-1)/2) [N; k]_q x^k,
    as its coefficients ``{doubled exponent vector: QPoly}`` at the
    partitions of N padded to n parts, listed in lexicographically
    decreasing order.  Both the q-multinomial and the shift are symmetric
    in k, so the sum is symmetric in x and its coefficient at any
    composition is the one at its sorted partition.  No library route
    reads it or ``tableaux.kostka_numbers``: both stay for the tests' Kostka
    peel, the oracle of ``kostka_oracle``, and with ``kostka_number`` for
    perfbench, whose tracer reads their spans."""
    if n < 1 or N < 0:
        raise ValueError("need rank n >= 1 and N >= 0")
    padded = (mu.parts + (0,) * (n - mu.length()) for mu in partitions_of(N, max_length=n))
    return {tuple(2 * k for k in comp): _rhs_coefficient(N, comp) for comp in padded}


def _signed_compositions(lam, n):
    """(sgn w, lam + delta - w(delta)) for every w in S_n that leaves no
    entry negative, where delta = (n-1, ..., 0).

    Positions are filled from the last on an explicit stack, position i
    with an unused value of w(delta) up to lam_i + delta_i, so a trailing
    zero of lam forces the least unused value: the terms at any n >= len(lam)
    are those at len(lam), padded with zeros.  The sign flips once per
    later position holding a larger value.
    """
    parts = lam.parts + (0,) * (n - lam.length())
    stack = [(n, 0, 1, ())]
    while stack:
        i, used, sign, tail = stack.pop()
        if i == 0:
            yield sign, tail
            continue
        i -= 1
        top = parts[i] + n - 1 - i
        for v in range(min(top, n - 1) + 1):
            if not used >> v & 1:
                flip = (used >> v).bit_count() & 1
                stack.append((i, used | 1 << v, -sign if flip else sign, (top - v,) + tail))


def kostka_oracle(lam, n=None):
    """Kostka-Foulkes value extracted from the q-multinomial expansion.

    The expansion f is symmetric, f = sum_mu K_mu(q) s_mu, so by Jacobi's
    bialternant formula a_delta f = sum_mu K_mu(q) a_(mu+delta), and of
    these only a_(lam+delta) holds the monomial x^(lam+delta) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3).  Hence
        K_lam(q) = sum_w sgn(w) [x^(lam + delta - w(delta))] f,
    read at the compositions of ``_signed_compositions`` at rank len(lam):
    trailing zeros force their values and zero parts change no factor, so
    no larger n adds a term.  Nothing here touches the strip formula.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    n = max(lam.length(), 1) if n is None else n
    if n < 1:
        raise ValueError("rank must be positive")
    if lam.length() > n:
        return QPoly()
    N = lam.size()
    out = {}
    for sign, comp in _signed_compositions(lam, max(lam.length(), 1)):
        for e, v in _rhs_coefficient(N, comp).c.items():
            out[e] = out.get(e, 0) + sign * v
    return QPoly(out)


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
    base, two_n = k * (n - k), 2 * n
    one = (0,) * n

    def contributions():
        for blocks, F in decomposition_strips(n, base + two_n * order, k):
            m = sum(blocks)
            if m < lam.size():
                continue
            content = lam.padded(n, add=(m - lam.size()) // n)
            c = count_LR(BorderStrip(blocks), content)
            if c:
                yield (F - base) // two_n, ring.monomial(one, c)

    return build_qseries(ring, conformal_dimension(n, k), order, contributions())
