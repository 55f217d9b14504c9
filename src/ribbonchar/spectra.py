"""Spin configurations, the local energy map and its fibers, the block
normal form of the spectrum, and the finite truncations with motifs.

A configuration is a finite prefix of letters 1..n followed by the periodic
tail (1, 2, ..., n) repeated forever.  The sector is the prefix length mod n.
A spectrum point is the block list [m_1,...,m_r] encoding the 0/1 sequence
(0^{m_1-1} 1, ..., 0^{m_r-1} 1, (0^{n-1} 1)^inf) with 1 <= m_i <= n and
m_r != n; the finite truncations additionally allow a final block equal to n
and are handled as plain block tuples.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .polyring import QPoly, Ring, build_qseries, laurent_dot
from .shapes import BorderStrip, blocks_from_ones
from .tableaux import STANDARD, Tableau, strip_cell_order
from . import schur as _schur


def local_energy(a, b):
    """0 when the first letter is strictly lower, else 1."""
    return 0 if a < b else 1


class SpinConfiguration:
    """Eventually periodic letter sequence, stored as (prefix, rank)."""

    __slots__ = ("prefix", "n")

    def __init__(self, prefix, n):
        prefix = tuple(prefix)
        if any(not 1 <= a <= n for a in prefix):
            raise ValueError(f"letters must lie in 1..{n}")
        self.prefix = prefix
        self.n = n

    def sector(self):
        return len(self.prefix) % self.n

    def canonical(self):
        """Trim whole trailing periods (1, 2, ..., n) from the prefix."""
        period = tuple(range(1, self.n + 1))
        prefix = self.prefix
        while len(prefix) >= self.n and prefix[-self.n :] == period:
            prefix = prefix[: -self.n]
        if prefix is self.prefix:
            return self
        return SpinConfiguration(prefix, self.n)

    def letter(self, i):
        """The i-th letter (1-indexed), following the periodic tail."""
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return (i - len(self.prefix) - 1) % self.n + 1

    def __eq__(self, other):
        return (
            isinstance(other, SpinConfiguration)
            and self.n == other.n
            and self.canonical().prefix == other.canonical().prefix
        )

    def __hash__(self):
        return hash((self.canonical().prefix, self.n))

    def __repr__(self):
        return f"SpinConfiguration({self.prefix}, n={self.n})"


class SpectrumPoint:
    """Block normal form of an image of the local energy map."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks, n):
        blocks = tuple(blocks)
        if any(not 1 <= m <= n for m in blocks):
            raise ValueError(f"blocks must lie in 1..{n}")
        if blocks and blocks[-1] == n:
            raise ValueError("last block must differ from the rank")
        self.blocks = blocks
        self.n = n

    def sector(self):
        return sum(self.blocks) % self.n

    def size(self):
        return sum(self.blocks)

    def value(self, i):
        """The i-th local energy (1-indexed) of the encoded sequence."""
        m = self.size()
        if i <= m:
            psum = 0
            for b in self.blocks:
                psum += b
                if i == psum:
                    return 1
                if i < psum:
                    return 0
        return 1 if (i - m) % self.n == 0 else 0

    def __eq__(self, other):
        return (
            isinstance(other, SpectrumPoint)
            and self.blocks == other.blocks
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.blocks, self.n))

    def __repr__(self):
        return f"SpectrumPoint({list(self.blocks)}, n={self.n})"


def ground_energy_value(i, k, n):
    """The i-th local energy of the sector-k ground configuration."""
    return 1 if i % n == k % n else 0


def h_map(s):
    """Local energies of a configuration, in block normal form."""
    n = s.n
    m = len(s.prefix)
    ones = [
        i
        for i in range(1, m + 1)
        if local_energy(s.letter(i), s.letter(i + 1)) == 1
    ]
    ones.append(m + n)  # first tail one; all later blocks equal n
    blocks = blocks_from_ones(ones)
    while blocks and blocks[-1] == n:
        blocks = blocks[:-1]
    return SpectrumPoint(blocks, n)


def energy(s):
    """Finite sum of i * (local energy - ground local energy)."""
    n, k = s.n, s.sector()
    m = len(s.prefix)
    return sum(
        i * (local_energy(s.letter(i), s.letter(i + 1)) - ground_energy_value(i, k, n))
        for i in range(1, m + 1)
    )


def weight(s):
    """Doubled exponent vector of the canonical-prefix weight monomial."""
    vec = [0] * s.n
    for a in s.canonical().prefix:
        vec[a - 1] += 2
    return tuple(vec)


def kappa(h):
    """The finite border strip attached to a spectrum point."""
    return BorderStrip(h.blocks)


def phi(t, h):
    """Configuration read off a tableau of the realized strip shape."""
    shape = kappa(h).realize()
    if t.shape != shape or t.alphabet != STANDARD or t.n != h.n:
        raise ValueError("tableau shape does not match the spectrum point")
    prefix = [t.entries[c] for c in strip_cell_order(shape)]
    s = SpinConfiguration(prefix, h.n)
    if h_map(s) != h:
        raise AssertionError("reading violates the spectrum point")
    return s


def phi_inverse(s, h):
    """Tableau of shape kappa(h) whose strip reading gives the prefix."""
    if h_map(s) != h:
        raise ValueError("configuration is not in the fiber")
    m = h.size()
    prefix = list(s.canonical().prefix)
    while len(prefix) < m:
        prefix.extend(range(1, s.n + 1))
    if len(prefix) != m:
        raise ValueError("configuration is not in the fiber")
    shape = kappa(h).realize()
    entries = dict(zip(strip_cell_order(shape), prefix))
    return Tableau(shape, entries, STANDARD, s.n)


def local_energy_words(letters, H, bits, tail):
    """Words w_1..w_m over ``letters`` with H(w_i, w_(i+1)) = bits[i-1],
    where w_(m+1) is the letter ``tail``, in the lexicographic order of
    ``letters``.  Empty ``bits`` give the single empty word.

    The letters allowed after each (letter, bit) are tabulated once from H,
    so the depth-first scan never calls H between two letters of the word.
    The scan keeps its own stack of (prefix, remaining choices), one entry
    per position, and yields each word from the loop that picks its last
    letter.
    """
    m = len(bits)
    if m == 0:
        yield ()
        return
    letters = tuple(letters)
    ends = {a for a in letters if H(a, tail) == bits[-1]}
    if m == 1:
        yield from ((a,) for a in letters if a in ends)
        return
    follow = {
        bit: {a: tuple(b for b in letters if H(a, b) == bit) for a in letters}
        for bit in (0, 1)
    }
    # steps[i][a]: the letters allowed at position i + 1 after a at position
    # i; the last letter must also meet the tail
    steps = [follow[bit] for bit in bits[:-1]]
    steps[-1] = {a: tuple(b for b in row if b in ends) for a, row in steps[-1].items()}
    final = m - 2
    stack = [((), iter(letters))]
    while stack:
        prefix, choices = stack[-1]
        for a in choices:
            word = prefix + (a,)
            i = len(prefix)
            if i == final:
                for b in steps[i][a]:
                    yield word + (b,)
            else:
                stack.append((word, iter(steps[i][a])))
                break
        else:
            stack.pop()


def fiber_words(h):
    """Letter prefixes whose local energies, followed by the tail letter 1,
    are those of the spectrum point, as bare words in lexicographic order."""
    target = [h.value(i) for i in range(1, h.size() + 1)]
    return local_energy_words(range(1, h.n + 1), local_energy, target, 1)


def enumerate_fiber(h):
    """Configurations of the fiber: those of ``fiber_words``, in order.

    Uses only the local energy function; the tableau machinery is never
    consulted, so this is an independent oracle for the bijection.
    """
    for word in fiber_words(h):
        yield SpinConfiguration(word, h.n)


def fiber_character(h, relation=True):
    """Sum of weight monomials over the fiber, counted over the bare words
    of one scan.

    Each word is its configuration's canonical prefix: the last local
    energy, against the tail letter 1, is always 1, so a word ending in a
    whole period (1, ..., n) would end the block list with a block n, which
    a spectrum point cannot have.
    """
    letters = range(1, h.n + 1)
    weights = Counter(
        tuple([2 * word.count(a) for a in letters]) for word in fiber_words(h)
    )
    return Ring(h.n, relation).from_terms(weights.items())


def excitation_energy(blocks, n):
    """sum_i i*(h_i - ground_i) for a block list (final block n allowed)."""
    m = sum(blocks)
    k = m % n
    psums = set(accumulate(blocks))
    return sum(
        i * ((1 if i in psums else 0) - ground_energy_value(i, k, n))
        for i in range(1, m + 1)
    )


def enumerate_Sp_N(N, n):
    """All block lists with entries in 1..n summing to N (final n allowed)."""
    if N == 0:
        yield ()
        return
    for first in range(1, min(n, N) + 1):
        for rest in enumerate_Sp_N(N - first, n):
            yield (first,) + rest


def motifs(N, n):
    """Binary words d_1..d_{N-1} with fewer than n consecutive ones."""
    if N < 1:
        raise ValueError("N must be positive")

    def extend(word, run):
        if len(word) == N - 1:
            yield tuple(word)
            return
        word.append(0)
        yield from extend(word, 0)
        word.pop()
        if run + 1 < n:
            word.append(1)
            yield from extend(word, run + 1)
            word.pop()

    return extend([], 0)


def motif_to_blocks(d, n):
    """Translate a motif to its block list via h_i = 1 - d_i, h_N = 1."""
    N = len(d) + 1
    run = 0
    for bit in d:
        if bit not in (0, 1):
            raise ValueError("motif entries must be 0 or 1")
        run = run + 1 if bit else 0
        if run >= n:
            raise ValueError(f"motif has {n} consecutive ones")
    ones = [i for i, bit in enumerate(d, start=1) if bit == 0]
    ones.append(N)
    return blocks_from_ones(ones)


def hs_eigenvalue(d, N=None):
    """sum_i i * d_i * (i * d_i - N) over the motif word."""
    if N is None:
        N = len(d) + 1
    return sum(i * b * (i * b - N) for i, b in enumerate(d, start=1))


def motif_excitation(d, n):
    """-sum_i i*d_i plus the ground constant: the excitation carried by
    every configuration in the motif's fiber (the inverse-square model's
    grading, distinct from the trigonometric eigenvalue above)."""
    N = len(d) + 1
    return -sum(i * b for i, b in enumerate(d, start=1)) + polychronakos_ground_energy(N, n)


def polychronakos_ground_energy(N, n):
    """The normalizing constant making the lowest excitation zero."""
    Nbar = N % n
    e = Fraction((n - 1) * N * N, 2 * n) - Fraction(Nbar * (n - Nbar), 2 * n)
    if e.denominator != 1:
        raise AssertionError("ground energy is not an integer")
    return int(e)


def Z_vertex(N, n, relation=False):
    """Partition function of the length-N truncation, summed over blocks.

    Each block list contributes q^(excitation) times the Schur function of
    the size-N strip read off the blocks (a final block n keeps its column).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation)
    order = polychronakos_ground_energy(N, n)
    return build_qseries(
        ring,
        0,
        order,
        (
            (
                excitation_energy(blocks, n),
                _schur.schur_strip_cached(blocks, n, relation),
            )
            for blocks in enumerate_Sp_N(N, n)
        ),
    )


def Z_vertex_direct(N, n, relation=False):
    """Same partition function summed configuration by configuration.

    A transfer matrix over positions (the 1D configuration sum of
    Date-Jimbo-Kuniba-Miwa-Okado): after position i the state maps each
    letter a to the sum, over words w_1..w_i with w_i = a, of
    q^(sum_{j<i} j*H(w_j, w_(j+1))) times the weight monomial of the word.
    The last letter meets the tail letter 1 at position N, and the
    sector-(N mod n) ground constant is subtracted.  Only the local energy
    is read, never a strip or a tableau, so this stays independent of the
    strip sum in ``Z_vertex``.  It costs N*n q shifts and N*n sums of n
    products (``laurent_dot``) instead of n^N configurations.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation)
    order = polychronakos_ground_energy(N, n)
    letters = range(1, n + 1)
    x = {a: ring.gen(a) for a in letters}
    total = ring.one()  # N = 0: the single empty configuration
    if N:
        state = x
        for i in range(1, N):
            # H is 0 or 1, so each state[a] is raised by q^i once per step
            raised = {a: state[a] * QPoly.term(i) for a in letters}
            state = {b: laurent_dot(ring, (
                (1, raised[a] if local_energy(a, b) else state[a], x[b]) for a in letters
            )) for b in letters}
        total = laurent_dot(ring, (
            (1, state[a], ring.one() * QPoly.term(N * local_energy(a, 1))) for a in letters
        ))
    ground = sum(i * ground_energy_value(i, N % n, n) for i in range(1, N + 1))
    return build_qseries(ring, 0, order, [(0, total * QPoly.term(-ground))])
