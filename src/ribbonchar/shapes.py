"""Partitions, skew diagrams, border strips and their statistics.

Cells are addressed as (row, column), 1-indexed, rows growing downward.
A border strip is stored by its column lengths ``<m_1,...,m_r>`` read from
the RIGHT; the skew realization is computed on demand.  Text formats used by
the CLI: partition ``"5,4,3,1"`` (``"0"`` or ``""`` for empty), skew diagram
``"5,4,3,1/3,2"``, border strip ``"<3,1,2>"``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate


class Partition:
    """Weakly decreasing nonnegative parts; trailing zeros are stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError("negative part")
        self.parts = parts

    @classmethod
    def from_str(cls, text):
        text = text.strip()
        if text in ("", "0", "-"):
            return cls()
        try:
            return cls(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}") from exc

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def part(self, i):
        """The i-th part (1-indexed), 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self):
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other):
        return all(self.part(i + 1) >= p for i, p in enumerate(other.parts))

    def padded(self, length, add=0):
        """Parts padded with zeros to ``length``, each increased by ``add``."""
        if length < len(self.parts):
            raise ValueError("padding length below partition length")
        return Partition(
            tuple(p + add for p in self.parts) + (add,) * (length - len(self.parts))
        )

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def partitions_of(total, max_length=None):
    """All partitions of ``total``, optionally with bounded length."""
    out = []

    def grow(rest, maxpart, acc):
        if rest == 0:
            out.append(Partition(acc))
            return
        if max_length is not None and len(acc) == max_length:
            return
        for p in range(min(rest, maxpart), 0, -1):
            grow(rest - p, p, acc + [p])

    grow(total, total if total else 1, [])
    return out


class SkewDiagram:
    """A pair of nested partitions outer/inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=Partition()):
        if not isinstance(outer, Partition):
            outer = Partition(outer)
        if not isinstance(inner, Partition):
            inner = Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"{outer} does not contain {inner}")
        self.outer = outer
        self.inner = inner

    @classmethod
    def from_str(cls, text):
        if "/" in text:
            out, inn = text.split("/", 1)
        else:
            out, inn = text, ""
        return cls(Partition.from_str(out), Partition.from_str(inn))

    def size(self):
        return self.outer.size() - self.inner.size()

    def cells(self):
        """All (row, col) cells, row-major."""
        out = []
        for i, lam in enumerate(self.outer.parts, start=1):
            for j in range(self.inner.part(i) + 1, lam + 1):
                out.append((i, j))
        return out

    def width(self):
        return self.outer.part(1)

    def column_lengths(self):
        """Column lengths indexed left to right, j = 1..outer_1."""
        lamc = self.outer.conjugate()
        muc = self.inner.conjugate()
        return [lamc.part(j) - muc.part(j) for j in range(1, self.width() + 1)]

    def rank(self):
        cols = self.column_lengths()
        return max(cols) if cols else 0

    def __eq__(self, other):
        return (
            isinstance(other, SkewDiagram)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewDiagram({self.outer!r}, {self.inner!r})"

    def __str__(self):
        return f"{self.outer}/{self.inner}"


def is_rank(sd, n):
    """True iff every column of the diagram has length <= n."""
    return sd.rank() <= n


def is_border_strip(sd):
    """Connected with no 2x2 block of cells; the empty diagram qualifies.

    Rows i and i+1 share the columns inner_i+1..outer_(i+1), none if either
    is empty.  Cells of two rows touch only across consecutive rows, so the
    cells are connected iff each row from the first nonempty one to the last
    shares a column with the next; a second shared column closes a 2x2 block.
    """
    lam, mu = sd.outer, sd.inner
    rows = [i for i in range(1, lam.length() + 1) if lam.part(i) > mu.part(i)]
    return not rows or all(lam.part(i + 1) == mu.part(i) + 1 for i in range(rows[0], rows[-1]))


class BorderStrip:
    """Border strip by column lengths, rightmost first; may be empty."""

    __slots__ = ("columns",)

    def __init__(self, columns=()):
        columns = tuple(columns)
        if any(m < 1 for m in columns):
            raise ValueError("column lengths must be positive")
        self.columns = columns

    @classmethod
    def _raw(cls, columns):
        """The strip of a tuple of columns known to be positive, unchecked."""
        strip = object.__new__(cls)
        strip.columns = columns
        return strip

    @classmethod
    def from_str(cls, text):
        text = text.strip()
        if not (text.startswith("<") and text.endswith(">")):
            raise ValueError(f"bad border strip {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls()
        return cls(int(tok) for tok in body.split(","))

    def size(self):
        return sum(self.columns)

    def realize(self):
        """The skew diagram whose i-th column from the right has m_i cells.

        With r columns and prefix sums M_i = m_1 + ... + m_i, the conjugates
        of the realized pair are M_{r+1-i} - r + i and M_{r-i} - r + i.
        """
        r = len(self.columns)
        if r == 0:
            return SkewDiagram(Partition(), Partition())
        psum = list(accumulate(self.columns, initial=0))
        lam_c = [psum[r + 1 - i] - r + i for i in range(1, r + 1)]
        mu_c = [psum[r - i] - r + i for i in range(1, r + 1)]
        return SkewDiagram(Partition(lam_c).conjugate(), Partition(mu_c).conjugate())

    def __eq__(self, other):
        return isinstance(other, BorderStrip) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"BorderStrip{self.columns!r}"

    def __str__(self):
        return "<" + ",".join(str(m) for m in self.columns) + ">"


def blocks_from_ones(ones):
    """Block list of a 0/1 sequence given the ascending positions
    (1-indexed) of its ones: each block runs up to and including a one."""
    return tuple(p - q for q, p in zip((0, *ones), ones))


def block_bits(blocks, length):
    """The first ``length`` entries of the 0/1 sequence whose ones sit at the
    prefix sums of ``blocks``: the inverse of ``blocks_from_ones``."""
    psums = set(accumulate(blocks))
    return [1 if i in psums else 0 for i in range(1, length + 1)]


def strip_from_skew(sd):
    """Recover <m_1,...,m_r> from a skew diagram; error if not a strip."""
    if not is_border_strip(sd):
        raise ValueError(f"{sd} is not a border strip")
    cols = [m for m in sd.column_lengths() if m][::-1]
    return BorderStrip(cols)


def t_statistic(bs):
    """sum_{i<r} (r-i) * m_i; zero for at most one column."""
    r = len(bs.columns)
    return sum((r - i) * m for i, m in enumerate(bs.columns, start=1) if i < r)


def complement(sd, n):
    """The rank-n complement: nest the outer shape inside n full rows."""
    if not is_rank(sd, n):
        raise ValueError(f"{sd} has a column longer than {n}")
    lam1 = sd.outer.part(1)
    mu_tilde = Partition((lam1,) * n + sd.inner.parts)
    return SkewDiagram(mu_tilde, sd.outer)


def drinfeld_polynomials(sd, n):
    """Root data of the classifying polynomials P_1..P_{n-1}.

    Each column j contributes, to the polynomial indexed by its length, the
    root -( (lam'_j + mu'_j)/2 - j + 1/2 ) - b.  Roots are returned as
    (rational constant, coefficient of b) pairs; b stays symbolic.
    """
    lamc = sd.outer.conjugate()
    muc = sd.inner.conjugate()
    out = {i: [] for i in range(1, n)}
    for j in range(1, sd.width() + 1):
        i = lamc.part(j) - muc.part(j)
        if i == 0 or i not in out:
            continue
        const = -(Fraction(lamc.part(j) + muc.part(j), 2) - j + Fraction(1, 2))
        out[i].append((const, -1))
    return {i: tuple(sorted(roots)) for i, roots in out.items()}
