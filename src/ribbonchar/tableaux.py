"""Tableau enumeration: semi-standard, lattice-permutation, GZ schemes,
and the signed-alphabet admissible fillings.

Standard fillings use letters 1..n with columns strictly increasing downward
and rows weakly increasing to the right.  Signed fillings use the ordered
alphabet 1 < ... < n < 0 < -n < ... < -1 with the same shape of rules except
that a vertical (0,0) pair is allowed and a horizontal (0,0) pair is not.
Enumeration is a lazy cell-by-cell backtracking in row-major order, so both
neighbours of a cell are already placed when it is tried; it yields one
``Tableau`` per filling, for the bijections and as the test oracle.  Three
routes build no tableau.  ``filling_weights`` runs the same backtracking
over letter ranks, with the letters allowed under each (above, left) pair
tabulated once per call, and counts the weight vectors of the fillings; the
Schur and twisted characters are read off it.  The two counts, lattice
fillings of a border strip (``count_LR``, a fold of ``lattice_column`` over
its columns) and Kostka numbers (``kostka_numbers``), are exact integer
dynamic programmes.  Their state lives only for the call: a Kostka memo is
shared by the shapes of one call, which all have one content.
"""
from __future__ import annotations

from collections import Counter

from .shapes import Partition, SkewDiagram


STANDARD = "standard"
SIGNED = "signed"


def signed_alphabet(n):
    """The letters 1..n, 0, -n..-1 in increasing order."""
    return list(range(1, n + 1)) + [0] + list(range(-n, 0))


def signed_pos(a, n):
    """Position of a letter in the signed order (1-indexed)."""
    if 1 <= a <= n:
        return a
    if a == 0:
        return n + 1
    if -n <= a <= -1:
        return 2 * n + 2 + a
    raise ValueError(f"letter {a} outside signed alphabet of rank {n}")


class Tableau:
    """A filling of a skew diagram.

    ``entries`` maps (row, col) cells to letters.  ``frozen`` marks cells
    whose letters carry half weight (the pinned tail of a signed filling);
    it is empty for standard tableaux.
    """

    __slots__ = ("shape", "entries", "alphabet", "n", "frozen")

    def __init__(self, shape, entries, alphabet, n, frozen=frozenset()):
        self.shape = shape
        self.entries = dict(entries)
        self.alphabet = alphabet
        self.n = n
        self.frozen = frozenset(frozen)
        if set(self.entries) != set(shape.cells()):
            raise ValueError("entries do not cover the shape")

    def content(self):
        return Counter(self.entries.values())

    def reading_word(self):
        """Entries along the strip order: right to left, top to bottom."""
        return [self.entries[c] for c in strip_cell_order(self.shape)]

    def rows(self):
        """Per-row entry lists, left to right (inner cells omitted)."""
        out = []
        for i in range(1, self.shape.outer.length() + 1):
            row = [
                self.entries[(i, j)]
                for j in range(self.shape.inner.part(i) + 1, self.shape.outer.part(i) + 1)
            ]
            out.append(row)
        return out

    def key(self):
        return (self.shape.outer, self.shape.inner, tuple(sorted(self.entries.items())))

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Tableau({self.shape}, {self.rows()})"


def strip_cell_order(shape):
    """Total order on cells: columns right to left, top to bottom inside."""
    return sorted(shape.cells(), key=lambda rc: (-rc[1], rc[0]))


def _rules(alphabet, n):
    """(letters in increasing order, vertical(above, below), horizontal(left,
    right)) of the alphabet's fillings."""
    if alphabet == STANDARD:
        return list(range(1, n + 1)), lambda a, b: a < b, lambda left, right: right >= left

    def vertical(a, b):
        return (a == 0 and b == 0) or signed_pos(a, n) < signed_pos(b, n)

    def horizontal(left, right):
        return not (left == 0 and right == 0) and signed_pos(right, n) >= signed_pos(left, n)

    return signed_alphabet(n), vertical, horizontal


def _enumerate(shape, n, alphabet, pinned=None):
    """Backtracking generator over valid fillings.

    ``pinned`` maps cells to forced letters; forced cells still undergo the
    adjacency checks so an impossible pin yields an empty stream.
    """
    cells = sorted(shape.cells())
    letters, vertical, horizontal = _rules(alphabet, n)
    pinned = pinned or {}
    cellset = set(cells)
    entries = {}

    def fill(idx):
        if idx == len(cells):
            yield Tableau(shape, entries, alphabet, n, frozenset(pinned))
            return
        cell = cells[idx]
        r, c = cell
        above = entries.get((r - 1, c)) if (r - 1, c) in cellset else None
        left = entries.get((r, c - 1)) if (r, c - 1) in cellset else None
        candidates = (pinned[cell],) if cell in pinned else letters
        for a in candidates:
            if above is not None and not vertical(above, a):
                continue
            if left is not None and not horizontal(left, a):
                continue
            entries[cell] = a
            yield from fill(idx + 1)
            del entries[cell]

    return fill(0)


def enumerate_sst(shape, n):
    """All semi-standard fillings over 1..n, lazily, each exactly once."""
    return _enumerate(shape, n, STANDARD)


def enumerate_admissible(shape, n):
    """All signed-alphabet admissible fillings, lazily."""
    return _enumerate(shape, n, SIGNED)


def _pinned_strip(bs, n):
    """(shape, pinned) of a strip whose last column, the leftmost column of
    its shape, has length 2n and its bottom n cells pinned to -n..-1."""
    if not bs.columns or bs.columns[-1] != 2 * n:
        raise ValueError(f"last column of {bs} must have length {2 * n}")
    shape = bs.realize()
    lamc = shape.outer.conjugate()
    muc = shape.inner.conjugate()
    top = muc.part(1) + 1
    bottom = lamc.part(1)
    if bottom - top + 1 != 2 * n:
        raise AssertionError("leftmost column length disagrees with strip data")
    return shape, {(top + n + i, 1): -n + i for i in range(n)}


def enumerate_L_admissible(bs, n):
    """Admissible fillings of a strip whose last column (length 2n) has its
    bottom n cells pinned to -n, -n+1, ..., -1 with half weight."""
    shape, pinned = _pinned_strip(bs, n)
    return _enumerate(shape, n, SIGNED, pinned=pinned)


def filling_weights(shape, n, alphabet, pinned=None):
    """Counter {``tableau_weight`` vector: number of fillings} over the
    fillings of ``shape`` that the enumerators yield: ``enumerate_sst`` or
    ``enumerate_admissible`` without pins, and with them the fillings whose
    ``pinned`` cells hold their letters at half weight, as in
    ``enumerate_L_admissible``.  A pin outside the alphabet raises
    ``ValueError``; an impossible pin gives an empty Counter.

    The same row-major backtracking, without a ``Tableau`` per filling.
    Letters are held as ranks in the alphabet order.  Each cell knows the
    index of its above and left cells (a missing neighbour reads the extra
    rank m), and the letters allowed under each (above, left) pair of ranks
    are tabulated once from the pair rules.  One weight vector is updated
    and restored letter by letter and counted at each complete filling.
    """
    letters, vertical, horizontal = _rules(alphabet, n)
    pinned = pinned or {}
    m = len(letters)
    rank = {a: r for r, a in enumerate(letters)}
    # (slot, doubled step) of each rank, and the half steps of pinned cells;
    # a signed 0 steps slot 0 by nothing
    steps = [(abs(a) - 1, 2 if a > 0 else -2) if a else (0, 0) for a in letters]
    half_steps = [(slot, step // 2) for slot, step in steps]
    allowed = [
        [
            [
                b
                for b in range(m)
                if (up == m or vertical(letters[up], letters[b]))
                and (left == m or horizontal(letters[left], letters[b]))
            ]
            for left in range(m + 1)
        ]
        for up in range(m + 1)
    ]
    cells = shape.cells()
    ncells = len(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    plan = []  # per cell: above index, left index, pinned rank or None, steps
    for r, c in cells:
        pin = pinned.get((r, c))
        if pin is not None and pin not in rank:
            raise ValueError(f"pinned letter {pin} outside the {alphabet} alphabet")
        plan.append((
            index.get((r - 1, c), ncells),
            index.get((r, c - 1), ncells),
            None if pin is None else rank[pin],
            steps if pin is None else half_steps,
        ))
    ranks = [m] * (ncells + 1)  # the extra slot is the missing neighbour
    vec = [0] * n
    out = Counter()

    def fill(i):
        if i == ncells:
            out[tuple(vec)] += 1
            return
        up, left, pin, cell_steps = plan[i]
        choices = allowed[ranks[up]][ranks[left]]
        if pin is not None:
            if pin not in choices:
                return
            choices = (pin,)
        for b in choices:
            slot, step = cell_steps[b]
            ranks[i] = b
            vec[slot] += step
            fill(i + 1)
            vec[slot] -= step

    fill(0)
    return out


def tableau_weight(t):
    """Doubled exponent vector of the filling's weight monomial.

    Standard letters a contribute the a-th unit; signed letters +/-i
    contribute +/- the i-th unit and 0 contributes nothing.  Frozen cells
    contribute half of that.
    """
    n = t.n
    vec = [0] * n
    for cell, a in t.entries.items():
        half = cell in t.frozen
        if t.alphabet == STANDARD:
            vec[a - 1] += 1 if half else 2
        else:
            if a == 0:
                continue
            i = abs(a) - 1
            step = 1 if half else 2
            vec[i] += step if a > 0 else -step
    return tuple(vec)


def is_lattice_permutation(t):
    """Every prefix of the strip reading word has #a >= #(a+1) for all a."""
    if t.alphabet != STANDARD:
        raise ValueError("lattice reading is defined for standard fillings")
    counts = Counter()
    for a in t.reading_word():
        counts[a] += 1
        if a > 1 and counts[a] > counts[a - 1]:
            return False
    return True


def lattice_column(states, m, cap):
    """The ``count_LR`` states after one more column of ``m`` cells.

    ``states`` maps (content placed so far, last letter placed) to the
    number of ways, with 0-based letters below ``len(cap)``.  Inside the
    column each letter sits above the next cell, which must exceed it; the
    top cell shares a row with the bottom of the column to its right, so it
    may not exceed that letter.  Letters are capped by ``cap`` and by the
    lattice rule #a <= #(a-1) on every prefix.  Each new state extends one
    old state, so no states give no states.
    """
    nletters = len(cap)
    for i in range(m):
        nxt = {}
        for (counts, last), ways in states.items():
            for a in range(last + 1) if i == 0 else range(last + 1, nletters):
                k = counts[a]
                if k == cap[a] or (a and k == counts[a - 1]):
                    continue
                key = (counts[:a] + (k + 1,) + counts[a + 1:], a)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states


def lattice_start(cap):
    """The ``lattice_column`` states of the empty strip: nothing placed,
    and the first cell may take any letter."""
    return {((0,) * len(cap), len(cap) - 1): 1}


def count_LR(bs, content):
    """Number of lattice-permutation fillings of the strip with the given
    content partition; zero when the sizes disagree.

    A dynamic programme over the strip reading word, taken straight from
    ``bs.columns``: columns right to left, top to bottom inside a column,
    one ``lattice_column`` step per column.
    """
    if not isinstance(content, Partition):
        content = Partition(content)
    if bs.size() != content.size():
        return 0
    states = lattice_start(content.parts)
    for m in bs.columns:
        states = lattice_column(states, m, content.parts)
    return sum(states.values())


def _horizontal_strips_removed(lam, cells, i=0):
    """Rows i.. of every nu with lam/nu a horizontal strip of ``cells``
    cells: row i keeps between lam[i+1] and lam[i] of its cells."""
    if i == len(lam):
        if cells == 0:
            yield ()
        return
    floor = lam[i + 1] if i + 1 < len(lam) else 0
    for take in range(min(cells, lam[i] - floor) + 1):
        for rest in _horizontal_strips_removed(lam, cells - take, i + 1):
            yield (lam[i] - take,) + rest


def _kostka(lam, mu, k, memo):
    """Fillings of the shape lam with mu[0] ones, ..., mu[k-1] letters k."""
    if len(lam) > k:
        return 0
    if k == 0:
        return 1
    key = (lam, k)
    if key not in memo:
        memo[key] = sum(
            _kostka(tuple(p for p in nu if p), mu, k - 1, memo)
            for nu in _horizontal_strips_removed(lam, mu[k - 1])
        )
    return memo[key]


def kostka_numbers(shapes, content):
    """[K(shape, content) for shape in shapes]: the numbers of
    straight-shape semi-standard fillings with the given content.

    Counted by the branching rule: the cells holding the largest letter form
    a horizontal strip, so K(lam, mu) is the sum of K(nu, mu without its last
    part) over the nu with lam/nu a horizontal strip of that many cells.
    A memo key (shape, k) stands for the first k parts of this content, so
    one memo serves every shape of the call.
    """
    if not isinstance(content, Partition):
        content = Partition(content)
    memo = {}
    return [
        _kostka(lam.parts, content.parts, content.length(), memo)
        if lam.size() == content.size() else 0
        for lam in (s if isinstance(s, Partition) else Partition(s) for s in shapes)
    ]


def kostka_number(shape, content):
    """K(shape, content), as ``kostka_numbers`` counts it."""
    return kostka_numbers((shape,), content)[0]


class GZScheme:
    """A chain of n+1 nested partitions with the interlacing property."""

    __slots__ = ("rows", "N")

    def __init__(self, rows, N):
        rows = tuple(
            r if isinstance(r, Partition) else Partition(r) for r in rows
        )
        self.rows = rows
        self.N = N
        for m, row in enumerate(rows):
            if row.length() > N + m:
                raise ValueError(f"row {m} longer than {N + m}")
        for m in range(1, len(rows)):
            hi, lo = rows[m], rows[m - 1]
            width = max(hi.length(), lo.length()) + 1
            for i in range(1, width + 1):
                if not (hi.part(i) >= lo.part(i) >= hi.part(i + 1)):
                    raise ValueError(
                        f"interlacing fails between rows {m - 1} and {m} at {i}"
                    )

    def weight(self):
        """Doubled exponent vector: row-size increments feed slots 1..n."""
        vec = []
        for m in range(1, len(self.rows)):
            vec.append(2 * (self.rows[m].size() - self.rows[m - 1].size()))
        return tuple(vec)

    def __eq__(self, other):
        return isinstance(other, GZScheme) and self.rows == other.rows and self.N == other.N

    def __hash__(self):
        return hash((self.rows, self.N))

    def __repr__(self):
        return f"GZScheme({[tuple(r) for r in self.rows]}, N={self.N})"


def gz_from_sst(t, N):
    """Scheme whose m-th row collects the inner shape plus all cells <= m."""
    if t.alphabet != STANDARD:
        raise ValueError("schemes correspond to standard fillings")
    if t.shape.inner.length() > N:
        raise ValueError(f"inner shape longer than N={N}")
    rows = []
    nrows = t.shape.outer.length()
    for m in range(t.n + 1):
        parts = [
            t.shape.inner.part(i)
            + sum(1 for (r, _c), a in t.entries.items() if r == i and a <= m)
            for i in range(1, nrows + 1)
        ]
        rows.append(Partition(parts))
    return GZScheme(rows, N)


def sst_from_gz(g):
    """Inverse construction: inscribe m on the m-th skew layer."""
    n = len(g.rows) - 1
    shape = SkewDiagram(g.rows[-1], g.rows[0])
    entries = {}
    for m in range(1, n + 1):
        layer = SkewDiagram(g.rows[m], g.rows[m - 1])
        for cell in layer.cells():
            entries[cell] = m
    return Tableau(shape, entries, STANDARD, n)
