"""Skew Schur functions by tableau enumeration, by the elementary-symmetric
determinant, and, for border strips, by the first-row expansion of the strip's
Hessenberg determinant memoised on prefixes, plus the expansion of a border
strip into straight Schur functions."""
from __future__ import annotations

from .polyring import Ring, determinant, elementary_symmetric, laurent_dot
from .shapes import partitions_of, strip_from_skew
from .tableaux import STANDARD, count_LR, filling_sum


_E_CACHE = {}
_STRIP_CACHE = {}


def e_m(ring, m):
    """e_m of the ring generators; 0 outside 0..n, cached per ring."""
    key = (ring, m)
    got = _E_CACHE.get(key)
    if got is None:
        got = _E_CACHE[key] = elementary_symmetric(m, ring.gens())
    return got


def schur_enumerative(shape, n, relation=False):
    """Sum of weight monomials over all semi-standard fillings."""
    return filling_sum(Ring(n, relation), shape, STANDARD)


def _e_matrix(shape, ring, conjugate=False):
    """The Jacobi-Trudi matrix (e_{lam'_i - mu'_j - i + j}), size outer_1;
    the conjugate function's matrix has each index d replaced by n - d."""
    lamc = shape.outer.conjugate()
    muc = shape.inner.conjugate()
    r = max(lamc.length(), 1)
    top, sign = (ring.n, -1) if conjugate else (0, 1)
    return [
        [e_m(ring, top + sign * (lamc.part(i) - muc.part(j) - i + j)) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]


def schur_jacobi_trudi(shape, n, relation=False):
    """Determinant in elementary symmetric polynomials, size outer_1."""
    return determinant(_e_matrix(shape, Ring(n, relation)))


def schur_strip_cached(blocks, n, relation=False):
    """Border-strip Schur via the first-row expansion, memoized on prefixes.

    s_<m_1..m_r> = sum_i (-1)^(i+1) e_{m_r+...+m_{r-i+1}} s_<m_1..m_{r-i}>,
    and terms with the e-index above n vanish, so each step is short.  The
    sum is one ``laurent_dot``: no product or partial sum is built.  The
    missing prefixes are filled from short to long; the shortest follows a
    held prefix, ends in a block above n (zero) or is empty, so nothing
    recurses.
    """
    blocks = tuple(blocks)
    key = (blocks, n, relation)
    got = _STRIP_CACHE.get(key)
    if got is not None:
        return got
    if any(m < 1 for m in blocks):
        raise ValueError("column lengths must be positive")
    ring = Ring(n, relation)
    r = len(blocks)
    while r and blocks[r - 1] <= n and (blocks[: r - 1], n, relation) not in _STRIP_CACHE:
        r -= 1
    for r in range(r, len(blocks) + 1):
        products = []
        idx = 0
        sign = 1
        for i in range(1, r + 1):
            idx += blocks[r - i]
            if idx > n:
                break
            products.append((sign, e_m(ring, idx), _STRIP_CACHE[blocks[: r - i], n, relation]))
            sign = -sign
        _STRIP_CACHE[blocks[:r], n, relation] = laurent_dot(ring, products) if r else ring.one()
    return _STRIP_CACHE[key]


def schur_conjugate(shape, n):
    """Conjugate Schur function, in relation mode:
    det(e_{n - lam'_i + mu'_j + i - j})."""
    return determinant(_e_matrix(shape, Ring(n, relation=True), conjugate=True))


def lr_expand(shape, n):
    """Expansion coefficients {nu: c} with sum_nu c * s_nu = s_shape of a
    border strip, counted shape by shape through its lattice fillings; a
    shape that is not a border strip raises ``ValueError``."""
    bs = strip_from_skew(shape)
    out = {}
    for nu in partitions_of(bs.size(), max_length=n):
        c = count_LR(bs, nu)
        if c:
            out[nu] = c
    return out
