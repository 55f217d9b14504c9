"""Skew Schur functions by tableau enumeration, by the elementary-symmetric
determinant, and by the border-strip determinant, plus the expansion into
straight Schur functions."""
from __future__ import annotations

from itertools import accumulate

from .polyring import Ring, determinant, elementary_symmetric, laurent_dot
from .shapes import Partition, SkewDiagram, is_border_strip, partitions_of, strip_from_skew
from .tableaux import STANDARD, filling_weights


_E_CACHE = {}
_STRIP_CACHE = {}
_STRAIGHT_CACHE = {}


def e_m(ring, m):
    """e_m of the ring generators; 0 outside 0..n, cached per ring."""
    key = (ring, m)
    got = _E_CACHE.get(key)
    if got is None:
        got = _E_CACHE[key] = elementary_symmetric(m, ring.gens())
    return got


def schur_enumerative(shape, n, relation=False):
    """Sum of weight monomials over all semi-standard fillings."""
    ring = Ring(n, relation)
    return ring.from_terms(filling_weights(shape, n, STANDARD).items())


def schur_jacobi_trudi(shape, n, relation=False):
    """Determinant in elementary symmetric polynomials, size outer_1."""
    ring = Ring(n, relation)
    lamc = shape.outer.conjugate()
    muc = shape.inner.conjugate()
    r = max(lamc.length(), 1)
    matrix = [
        [e_m(ring, lamc.part(i) - muc.part(j) - i + j) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    return determinant(matrix)


def schur_border_strip_det(bs, n, relation=False):
    """Hessenberg determinant over column data of a border strip.

    With prefix sums M_t of the column lengths, entry (i, j) is
    e_{M_{r+1-i} - M_{r-j}}: the first row collects trailing column sums and
    the subdiagonal is all ones.  The empty strip gives 1.
    """
    ring = Ring(n, relation)
    r = len(bs.columns)
    if r == 0:
        return ring.one()
    psum = list(accumulate(bs.columns, initial=0))
    matrix = [
        [e_m(ring, psum[r + 1 - i] - psum[r - j]) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    return determinant(matrix)


def schur_strip_cached(blocks, n, relation=False):
    """Border-strip Schur via the first-row expansion, memoized on prefixes.

    s_<m_1..m_r> = sum_i (-1)^(i+1) e_{m_r+...+m_{r-i+1}} s_<m_1..m_{r-i}>,
    and terms with the e-index above n vanish, so each step is short.  The
    sum is one ``laurent_dot``: no product or partial sum is built.
    """
    blocks = tuple(blocks)
    key = (blocks, n, relation)
    got = _STRIP_CACHE.get(key)
    if got is not None:
        return got
    ring = Ring(n, relation)
    if not blocks:
        out = ring.one()
    else:
        r = len(blocks)
        products = []
        idx = 0
        sign = 1
        for i in range(1, r + 1):
            idx += blocks[r - i]
            if idx > n:
                break
            products.append(
                (sign, e_m(ring, idx), schur_strip_cached(blocks[: r - i], n, relation))
            )
            sign = -sign
        out = laurent_dot(ring, products)
    _STRIP_CACHE[key] = out
    return out


def schur_straight_cached(nu, n, relation=False):
    """Straight-shape Schur function, memoized (used by expansions)."""
    key = (nu.parts, n, relation)
    got = _STRAIGHT_CACHE.get(key)
    if got is None:
        got = _STRAIGHT_CACHE[key] = schur_jacobi_trudi(
            SkewDiagram(nu, Partition()), n, relation
        )
    return got


def schur_conjugate(shape, n):
    """Conjugate Schur function, in relation mode.

    Computed both as det(e_{n - lam'_i + mu'_j + i - j}) and as the
    inverted-weight tableau sum; the two are asserted equal.
    """
    ring = Ring(n, relation=True)
    lamc = shape.outer.conjugate()
    muc = shape.inner.conjugate()
    r = max(lamc.length(), 1)
    matrix = [
        [e_m(ring, n - lamc.part(i) + muc.part(j) + i - j) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    det = determinant(matrix)
    inv = ring.from_terms(
        (tuple(-e for e in vec), c)
        for vec, c in filling_weights(shape, n, STANDARD).items()
    )
    if det != inv:
        raise AssertionError(f"conjugate determinant disagrees with sum for {shape}")
    return det


def lr_expand(shape, n, method="auto"):
    """Expansion coefficients {nu: c} with sum_nu c * s_nu = s_shape.

    Border strips are counted shape by shape through their lattice fillings;
    general shapes go through triangular extraction (the lexicographically
    largest monomial of a symmetric polynomial is a partition whose straight
    Schur function can be peeled off).  The two routes agree on strips.
    """
    if method == "auto":
        method = "strips" if is_border_strip(shape) else "extract"
    if method == "strips":
        from .tableaux import count_LR

        bs = strip_from_skew(shape)
        out = {}
        for nu in partitions_of(bs.size(), max_length=n):
            c = count_LR(bs, nu)
            if c:
                out[nu] = c
        return out
    if method != "extract":
        raise ValueError("method must be 'auto', 'strips' or 'extract'")
    rest = schur_enumerative(shape, n, relation=False)
    out = {}
    while rest:
        vec, c = rest.sorted_terms()[-1]
        if any(e % 2 for e in vec):
            raise AssertionError("odd doubled exponent in a standard weight")
        nu = Partition(e // 2 for e in vec)
        cval = c.c.get(0)
        if set(c.c) - {0} or not cval or cval < 0:
            raise AssertionError(f"bad leading coefficient {c}")
        out[nu] = cval
        rest = rest - schur_straight_cached(nu, n) * cval
    return out
