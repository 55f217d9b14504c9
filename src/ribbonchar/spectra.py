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

from fractions import Fraction
from itertools import accumulate

from .polyring import QPoly, Ring, build_qseries
from .shapes import BorderStrip, block_bits, blocks_from_ones
from .tableaux import STANDARD, Tableau, strip_cell_order
from . import schur as _schur


def local_energy(a, b):
    """0 when the first letter is strictly lower, else 1."""
    return 0 if a < b else 1


class Configuration:
    """A finite prefix of letters followed by the periodic ``tail()``
    repeated forever, stored as (prefix, rank).  Two configurations are
    equal when they have the same type, the same rank and the same prefix
    once whole tail periods are trimmed from its end."""

    __slots__ = ("prefix", "n")

    def __init__(self, prefix, n):
        self.prefix = tuple(prefix)
        self.n = n

    def canonical(self):
        """Trim whole trailing tail periods from the prefix."""
        period = self.tail()
        k = len(period)
        prefix = self.prefix
        while len(prefix) >= k and prefix[-k:] == period:
            prefix = prefix[:-k]
        if prefix is self.prefix:
            return self
        return type(self)(prefix, self.n)

    def letter(self, i):
        """The i-th letter (1-indexed), following the periodic tail."""
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        period = self.tail()
        return period[(i - len(self.prefix) - 1) % len(period)]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.canonical().prefix == other.canonical().prefix
        )

    def __hash__(self):
        return hash((self.canonical().prefix, self.n))

    def __repr__(self):
        return f"{type(self).__name__}({self.prefix}, n={self.n})"


class SpinConfiguration(Configuration):
    """Eventually periodic letter sequence: letters 1..n, tail (1, ..., n)."""

    __slots__ = ()

    def __init__(self, prefix, n):
        super().__init__(prefix, n)
        if any(not 1 <= a <= n for a in self.prefix):
            raise ValueError(f"letters must lie in 1..{n}")

    def tail(self):
        return tuple(range(1, self.n + 1))

    def sector(self):
        return len(self.prefix) % self.n


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


def ground_sum(m, n):
    """Sum of the i <= m with i = m (mod n): the energy sum_i i*h_i of the
    first m local energies of the sector-(m mod n) ground configuration."""
    return sum(range(m, 0, -n))


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
    m = len(s.prefix)
    return sum(
        i * local_energy(s.letter(i), s.letter(i + 1)) for i in range(1, m + 1)
    ) - ground_sum(m, s.n)


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


def _letter_moves(letters, H, bits, tail):
    """The letters allowed at each position of the words of
    ``local_energy_words``, tabulated once from H as ``Ring.walk_sum`` moves
    whose state is the letter just placed: ``moves[0][None]`` at the first
    position and ``moves[i][a]`` after a at position i, each a pair (b, b),
    the last letter meeting the tail too; no moves for empty ``bits``.  H
    is read once per pair of letters and once per letter against the tail."""
    if not bits:
        return []
    letters = tuple(letters)
    ends = {a for a in letters if H(a, tail) == bits[-1]}
    rows = [(a, [H(a, b) for b in letters]) for a in letters]
    follow = {
        bit: {a: tuple((b, b) for b, h in zip(letters, row) if h == bit) for a, row in rows}
        for bit in set(bits[:-1])
    }
    moves = [{None: tuple(zip(letters, letters))}] + [follow[bit] for bit in bits[:-1]]
    moves[-1] = {a: tuple(mv for mv in row if mv[0] in ends) for a, row in moves[-1].items()}
    return moves


def local_energy_words(letters, H, bits, tail):
    """Words w_1..w_m over ``letters`` with H(w_i, w_(i+1)) = bits[i-1],
    where w_(m+1) is the letter ``tail``, in the lexicographic order of
    ``letters``.  Empty ``bits`` give the single empty word.

    The scan reads the allowed letters from ``_letter_moves``, so it never
    calls H between two letters of the word.  It keeps its own stack of
    (prefix, remaining choices), one entry per position, and yields each
    word from the loop that picks its last letter.
    """
    moves = _letter_moves(letters, H, bits, tail)
    if len(moves) < 2:
        yield from ([(a,) for a, _ in moves[0][None]] if moves else [()])
        return
    final = len(moves) - 1  # the words of this length pick their last letter
    stack = [((), iter(moves[0][None]))]
    while stack:
        prefix, choices = stack[-1]
        for a, _ in choices:
            word = prefix + (a,)
            i = len(word)
            if i == final:
                for b, _ in moves[i][a]:
                    yield word + (b,)
            else:
                stack.append((word, iter(moves[i][a])))
                break
        else:
            stack.pop()


def local_energy_sum(ring, letters, H, bits, tail, start, step):
    """Sum over the words of ``local_energy_words(letters, H, bits, tail)``
    of x^((start + step(w_1) + ... + step(w_m))/2) in ``ring``, ``step``
    giving each letter's doubled weight: a transfer matrix over positions
    (``Ring.walk_sum``) on the scan's own table, listing no word."""
    letters = tuple(letters)
    moves = _letter_moves(letters, H, bits, tail)
    return ring.walk_sum(start, {a: (step(a), 0) for a in letters}, moves)


def fiber_words(h):
    """Letter prefixes whose local energies, followed by the tail letter 1,
    are those of the spectrum point, as bare words in lexicographic order."""
    target = block_bits(h.blocks, h.size())
    return local_energy_words(range(1, h.n + 1), local_energy, target, 1)


def enumerate_fiber(h):
    """Configurations of the fiber: those of ``fiber_words``, in order.

    Uses only the local energy function; the tableau machinery is never
    consulted, so this is an independent oracle for the bijection.
    """
    for word in fiber_words(h):
        yield SpinConfiguration(word, h.n)


def fiber_character(h, relation=True):
    """Sum of weight monomials over the fiber: the words of ``fiber_words``
    counted by ``local_energy_sum`` with weight 2*e_a per letter a, none of
    them listed.

    Each word is its configuration's canonical prefix: the last local
    energy, against the tail letter 1, is always 1, so a word ending in a
    whole period (1, ..., n) would end the block list with a block n, which
    a spectrum point cannot have.
    """
    letters = range(1, h.n + 1)
    target = block_bits(h.blocks, h.size())
    return local_energy_sum(
        Ring(h.n, relation), letters, local_energy, target, 1, (0,) * h.n,
        lambda a: tuple(2 * (a == b) for b in letters),
    )


def excitation_energy(blocks, n):
    """sum_i i*(h_i - ground_i) for a block list (final block n allowed)."""
    return sum(accumulate(blocks)) - ground_sum(sum(blocks), n)


def enumerate_Sp_N(N, n):
    """All block lists in 1..n summing to N (final n allowed), lexicographically."""
    stack = [(0, ())]
    while stack:
        total, blocks = stack.pop()
        if total == N:
            yield blocks
            continue
        for m in range(min(n, N - total), 0, -1):
            stack.append((total + m, blocks + (m,)))


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
    the size-N strip read off the blocks (a final block n keeps its column):
    ``schur.strip_size_sum``, which grades each strip by the sum of its
    prefix sums, less the ground sum.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation)
    total = _schur.strip_size_sum(ring, N)
    order = polychronakos_ground_energy(N, n)
    return build_qseries(ring, 0, order, [(0, total * QPoly.term(-ground_sum(N, n)))])


def Z_vertex_direct(N, n, relation=False):
    """Same partition function summed configuration by configuration.

    The 1D configuration sum of Date-Jimbo-Kuniba-Miwa-Okado as one
    ``Ring.walk_sum``: the state is the last letter, the move a -> b at
    position i has the letter (b, i*H(a, b)), x_b times q^(i*H(a, b)), and a
    closing position meets the tail letter 1 with (0, N*H(a, 1)), no x at
    all; the sector-(N mod n) ground constant is then subtracted.  Only the
    local energy is read, never a strip or a tableau, so this stays
    independent of the strip sum in ``Z_vertex``.  It costs N*n^2 moves times
    the distinct keys per letter, not n^N configurations.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    ring = Ring(n, relation)
    order = polychronakos_ground_energy(N, n)
    letters = range(1, n + 1)
    moves = [{None: [(b, (b, 0)) for b in letters]}]
    moves += [{a: [(b, (b, i * local_energy(a, b))) for b in letters] for a in letters}
              for i in range(1, N)]
    moves.append({a: [(None, (0, N * local_energy(a, 1)))] for a in letters})
    steps = {letter: (tuple(2 * (letter[0] == b) for b in letters), letter[1])
             for move in moves for row in move.values() for _, letter in row}
    total = ring.walk_sum((0,) * n, steps, moves if N else [])
    return build_qseries(ring, 0, order, [(0, total * QPoly.term(-ground_sum(N, n)))])
