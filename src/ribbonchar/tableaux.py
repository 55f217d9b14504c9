"""Tableau enumeration: semi-standard, lattice-permutation, GZ schemes,
and the signed-alphabet admissible fillings.

Standard fillings use letters 1..n with columns strictly increasing downward
and rows weakly increasing to the right.  Signed fillings use the ordered
alphabet 1 < ... < n < 0 < -n < ... < -1 with the same shape of rules except
that a vertical (0,0) pair is allowed and a horizontal (0,0) pair is not.
Enumeration is a lazy cell-by-cell backtracking in row-major order, so both
neighbours of a cell are already placed when it is tried; it yields one
``Tableau`` per filling, for the bijections and as the test oracle.  Three
routes build no tableau.  ``filling_sum`` sums the weight monomials of the
fillings in a given ring by a transfer matrix over the same cells in the
same order, run by ``Ring.walk_sum``: the state after a cell is the
frontier of letter ranks that later cells still read, equal frontiers
merge, and the letters allowed under a pair of neighbours come in closed
form from their ranks.  Its cost per cell is frontiers times letters, not
fillings, and it recurses nowhere; the Schur and twisted characters are
read off it.  The two counts, lattice fillings of a border strip
(``count_LR``, a fold of ``lattice_columns`` over its columns) and Kostka
numbers (``kostka_numbers``), are exact integer dynamic programmes.  Their
state lives only for the call: a Kostka memo is shared by the shapes of one
call, which all have one content.  The moves of ``filling_sum`` are kept
per alphabet and rank for the process (``_MOVES_CACHE``): each is a fixed
function of its frontier.
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


def _pin_ranks(shape, n, alphabet, pinned):
    """{cell: rank of its letter in the alphabet order} of the pins; a pin
    on a cell outside ``shape`` or of a letter outside the alphabet raises
    ``ValueError``."""
    rank = {a: r for r, a in enumerate(_rules(alphabet, n)[0])}
    out = {}
    for (r, c), a in pinned.items():
        if not shape.inner.part(r) < c <= shape.outer.part(r):
            raise ValueError(f"pinned cell {(r, c)} outside {shape}")
        if a not in rank:
            raise ValueError(f"pinned letter {a} outside the {alphabet} alphabet")
        out[r, c] = rank[a]
    return out


def _enumerate(shape, n, alphabet, pinned=None):
    """Backtracking generator over valid fillings.

    ``pinned`` maps cells to forced letters, checked by ``_pin_ranks``;
    forced cells still undergo the adjacency checks so an impossible pin
    yields an empty stream.
    """
    cells = sorted(shape.cells())
    letters, vertical, horizontal = _rules(alphabet, n)
    pinned = pinned or {}
    _pin_ranks(shape, n, alphabet, pinned)
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


class _CellMoves(dict):
    """The ``Ring.walk_sum`` moves of the cells of one kind in
    ``filling_sum``, keyed by the frontier before the cell and built the
    first time a walk reaches that frontier there."""

    __slots__ = ("plan",)

    def __missing__(self, state):
        up, left, drop, append, pin, zero, m = self.plan
        lo = 0
        if up:  # the cell above is the first of the frontier
            lo = state[0] + (state[0] != zero)
        if left:  # the cell to the left is the last
            lo = max(lo, state[-1] + (state[-1] == zero))
        if pin is None:
            choices, shift = range(lo, m), 0
        else:
            choices, shift = (pin,) if pin >= lo else (), m
        rest = state[up:len(state) - drop]
        moves = self[state] = [(rest + (b,) if append else rest, b + shift) for b in choices]
        return moves


# (letters, rank of the signed 0 or -1) -> cell kind -> its moves
_MOVES_CACHE = {}


def filling_sum(ring, shape, alphabet, pinned=None):
    """Sum in ``ring`` (of rank n) of the weight monomials
    x^(``tableau_weight``/2) of the fillings of ``shape`` that the
    enumerators yield: ``enumerate_sst`` or ``enumerate_admissible`` without
    pins, and with them the fillings whose ``pinned`` cells hold their
    letters at half weight, as in ``enumerate_L_admissible``.  A pin that
    ``_pin_ranks`` rejects raises ``ValueError``; an impossible pin gives
    zero.

    A transfer matrix over the cells in row-major order, run by
    ``Ring.walk_sum``.  Letters are held as ranks in the alphabet order.
    The state before a cell (r, c) is its frontier: the ranks of the cells
    placed so far that a later cell reads as its above or left neighbour,
    in cell order.  Row r - 2 is read up, and row r - 1 up to column c - 1,
    so the frontier is the cells (r - 1, c' >= c) above a cell of row r,
    then the cells (r, c' < c) that a cell reads later: the cell above
    (r, c) comes first and the cell to its left last.  Placing the cell
    drops the cell above, drops the cell to the left unless a cell lies
    below it, and appends (r, c) if a cell lies below or right of it.  A
    border strip keeps at most two ranks.  The letters allowed below rank
    a and right of rank l are the ranks from max(a + 1, l) up, except that
    the signed 0 may sit below a 0 but not right of one: the closed form of
    the pair rules.  A pinned cell allows only its rank and steps by half a
    letter, a letter of its own.  Cells of one kind (neighbours, drops,
    append, pin) share their moves.
    """
    n = ring.n
    if alphabet == STANDARD:
        m, zero = n, -1
        slots = [(r, 2) for r in range(n)]
    else:
        m, zero = 2 * n + 1, n
        slots = [(r, 2) for r in range(n)] + [(0, 0)] + [(n - 1 - r, -2) for r in range(n)]
    steps = {r: (0,) * slot + (d,) + (0,) * (n - 1 - slot) for r, (slot, d) in enumerate(slots)}
    pins = _pin_ranks(shape, n, alphabet, pinned) if pinned else {}
    for p in pins.values():
        steps[p + m] = tuple(d // 2 for d in steps[p])
    cells = shape.cells()
    inside = set(cells)
    kinds = _MOVES_CACHE.setdefault((m, zero), {})
    moves = []
    for r, c in cells:
        left = (r, c - 1) in inside
        kind = ((r - 1, c) in inside, left, left and (r + 1, c - 1) not in inside,
                (r + 1, c) in inside or (r, c + 1) in inside, pins.get((r, c)))
        move = kinds.get(kind)
        if move is None:
            move = kinds[kind] = _CellMoves()
            move.plan = kind + (zero, m)
        moves.append(move)
    if moves:  # a walk starts in the state None, before an empty frontier
        moves[0][None] = moves[0][()]
    return ring.walk_sum((0,) * n, {r: (v, 0) for r, v in steps.items()}, moves)


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


def lattice_columns(states, top, cap):
    """The ``count_LR`` states after a next column of each length 1..``top``.

    ``states`` maps (content placed so far, last letter placed) to the
    number of ways, with 0-based letters below ``len(cap)``.  Inside the
    column each letter sits above the next cell, which must exceed it; the
    top cell shares a row with the bottom of the column to its right, so it
    may not exceed that letter; as no other cell reads it, a longer column
    starts as a shorter one.  Letters are capped by ``cap`` and by the
    lattice rule #a <= #(a-1) on every prefix.  A new state extends an old
    one, so no states give none: the list ends before its first empty entry.
    """
    nletters = len(cap)
    out = []
    for i in range(top):
        nxt = {}
        for (counts, last), ways in states.items():
            for a in range(last + 1) if i == 0 else range(last + 1, nletters):
                k = counts[a]
                if k == cap[a] or (a and k == counts[a - 1]):
                    continue
                key = (counts[:a] + (k + 1,) + counts[a + 1:], a)
                nxt[key] = nxt.get(key, 0) + ways
        if not nxt:
            break
        out.append(nxt)
        states = nxt
    return out


def lattice_start(cap):
    """The ``lattice_columns`` states of the empty strip: nothing placed,
    and the first cell may take any letter."""
    return {((0,) * len(cap), len(cap) - 1): 1}


def count_LR(bs, content):
    """Number of lattice-permutation fillings of the strip with the given
    content partition; zero when the sizes disagree.

    A dynamic programme over the strip reading word, taken straight from
    ``bs.columns``: columns right to left, top to bottom inside a column,
    the last entry of one ``lattice_columns`` call per column.
    """
    if not isinstance(content, Partition):
        content = Partition(content)
    if bs.size() != content.size():
        return 0
    states = lattice_start(content.parts)
    for m in bs.columns:
        after = lattice_columns(states, m, content.parts)
        if len(after) < m:
            return 0
        states = after[-1]
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
