"""Skew Schur functions by tableau enumeration, by the elementary-symmetric
determinant, and, for border strips, by the first-row expansion of the strip's
Hessenberg determinant memoised on prefixes, the q-graded sum of the strips of
one size, plus the expansion of a border strip into straight Schur functions."""
from __future__ import annotations

from functools import partial

from .polyring import QPoly, Ring, determinant, elementary_symmetric, laurent_dot
from .shapes import partitions_of, strip_from_skew
from .tableaux import STANDARD, count_LR, filling_sum


_E_CACHE = {}
_STRIP_CACHE = {}
_SIZE_CACHE = {}


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
    """Border-strip Schur via the first-row expansion, memoized on prefixes:
    ``_strip_expansion`` in the entries e_m, which vanish above n."""
    blocks = tuple(blocks)
    got = _STRIP_CACHE.get((blocks, n, relation))
    if got is None:
        ring = Ring(n, relation)
        got = _strip_expansion(_STRIP_CACHE, blocks, (n, relation), ring, partial(e_m, ring), n)
    return got


def _strip_expansion(memo, blocks, tag, ring, entry, top):
    """F(blocks) for the first-row expansion of a strip's Hessenberg
    determinant in the entries ``entry(m)``, memoised in ``memo`` under
    (prefix, *tag):

        F(m_1..m_r) = sum_i (-1)^(i+1) entry(m_r+...+m_{r-i+1}) F(m_1..m_{r-i}),

    F(()) = 1, where entries with index above ``top`` vanish, so each step
    stops there.  The sum is one ``laurent_dot``: no product or partial sum
    is built.  The missing prefixes are filled from short to long; the
    shortest follows a held prefix, ends in a block above ``top`` (zero) or
    is empty, so nothing recurses.
    """
    key = (blocks, *tag)
    got = memo.get(key)
    if got is not None:
        return got
    if any(m < 1 for m in blocks):
        raise ValueError("column lengths must be positive")
    r = len(blocks)
    while r and blocks[r - 1] <= top and (blocks[: r - 1], *tag) not in memo:
        r -= 1
    for r in range(r, len(blocks) + 1):
        products = []
        idx = 0
        sign = 1
        for i in range(1, r + 1):
            idx += blocks[r - i]
            if idx > top:
                break
            products.append((sign, entry(idx), memo[(blocks[: r - i], *tag)]))
            sign = -sign
        memo[(blocks[:r], *tag)] = laurent_dot(ring, products) if r else ring.one()
    return memo[key]


def _group_weights(top):
    """For t = 0..top, {(i, sigma): (-1)^(i-1) times the number of
    compositions of t into i parts whose prefix sums add up to sigma}, each
    one of t - b with a last part b, which adds a part and the prefix sum t."""
    weights = [{(0, 0): -1}]
    for t in range(1, top + 1):
        out = {}
        for b in range(1, t + 1):
            for (i, s), c in weights[t - b].items():
                out[i + 1, s + t] = out.get((i + 1, s + t), 0) - c
        weights.append(out)
    return weights


def strip_size_sum(ring, N):
    """V(N): the sum over the block lists in 1..n of size N of q^(the sum of
    their prefix sums) times the strip's Schur function, listing no strip.

    Unrolled, ``_strip_expansion`` sums over the cuts of the blocks into
    consecutive groups one (-1)^(i-1) e_t per group of i blocks summing to t.
    A last group after a prefix of size p adds i*p + sigma to the prefix
    sums, sigma the group's own.  So V(0) = 1 and V(p) is one ``laurent_dot``
    of e_t g(p - t, t) V(p - t) over t <= n, with g(p, t) the sum of
    (-1)^(i-1) q^(i*p + sigma) over the compositions of t (``_group_weights``).
    V does not depend on N: the list is kept per ring and grows on demand.
    """
    sums = _SIZE_CACHE.setdefault(ring, [ring.one()])
    if len(sums) <= N:
        weights = _group_weights(ring.n)
        for p in range(len(sums), N + 1):
            products = []
            for t in range(1, min(ring.n, p) + 1):
                g = sum((QPoly.term(i * (p - t) + s, c) for (i, s), c in weights[t].items()),
                        QPoly())
                products.append((1, e_m(ring, t) * g, sums[p - t]))
            sums.append(laurent_dot(ring, products))
    return sums[N]


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
