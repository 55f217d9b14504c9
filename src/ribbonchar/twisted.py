"""The signed-alphabet vertex model: twisted local energy, its spectral
decomposition through pinned-column strips, the character by enumeration,
by counting the fiber's words and by the sigma/t determinant, and the level-1
lattice form versus the strip decomposition."""
from __future__ import annotations

import math
from functools import partial

from .polyring import (
    QSeries,
    Ring,
    _grown,
    build_qseries,
    check_order,
    elementary_symmetric,
    symmetrized_series,
)
from .schur import _strip_expansion
from .shapes import BorderStrip, block_bits, blocks_from_ones
from .spectra import Configuration, local_energy_sum, local_energy_words
from .tableaux import (
    SIGNED,
    _pinned_strip,
    filling_sum,
    signed_alphabet,
    signed_pos,
)


def local_energy_twisted(a, b, n):
    """0 when a precedes b in the signed order or both letters vanish."""
    if a == 0 and b == 0:
        return 0
    return 0 if signed_pos(a, n) < signed_pos(b, n) else 1


class TwistedConfiguration(Configuration):
    """Finite prefix over the signed alphabet, followed by zeros."""

    __slots__ = ()

    def __init__(self, prefix, n):
        super().__init__(prefix, n)
        for a in self.prefix:
            signed_pos(a, n)  # validates

    def tail(self):
        return (0,)


def h_map_twisted(s):
    """Block list of the twisted local energies (tail is all zeros)."""
    n = s.n
    m = len(s.canonical().prefix)
    ones = [
        i
        for i in range(1, m + 1)
        if local_energy_twisted(s.letter(i), s.letter(i + 1), n) == 1
    ]
    return blocks_from_ones(ones)


def energy_twisted(s):
    """sum_i i * H(s_i, s_{i+1}); finite since the tail contributes zero."""
    n = s.n
    m = len(s.canonical().prefix)
    return sum(
        i * local_energy_twisted(s.letter(i), s.letter(i + 1), n)
        for i in range(1, m + 1)
    )


def weight_twisted(s):
    """Doubled exponents of the weight: letters (+/-)i give (+/-)1 in slot i
    and the whole configuration is shifted by minus the half-sum vector;
    zeros, trailing or not, weigh nothing."""
    vec = [-1] * s.n
    for a in s.prefix:
        if a > 0:
            vec[a - 1] += 2
        elif a < 0:
            vec[-a - 1] -= 2
    return tuple(vec)


def kappa_twisted(blocks, n):
    """Strip of the blocks with the pinned column of length 2n appended."""
    return BorderStrip(tuple(blocks) + (2 * n,))


def _fiber_scan(blocks, n):
    """``local_energy_words`` arguments for the words whose local energies,
    followed by the all-zero tail, realize the blocks.

    After the last forced 1 the letters must ascend strictly to 0 and stay
    there, so prefixes longer than p_r + n + 1 never occur; the scan length
    below is safely beyond that.
    """
    target = block_bits(blocks, sum(blocks) + n + 2)
    return signed_alphabet(n), partial(local_energy_twisted, n=n), target, 0


def enumerate_twisted_fiber(blocks, n):
    """Configurations whose local energies, followed by the all-zero tail,
    realize the blocks, in the lexicographic order of the signed alphabet."""
    for word in local_energy_words(*_fiber_scan(blocks, n)):
        yield TwistedConfiguration(word, n)


def chi_twisted(blocks, n, method="tableaux"):
    """Character of the fiber over a block list, by pinned-tableau
    enumeration or by the fiber's words, counted position by position
    (``local_energy_sum``) with ``weight_twisted``'s weights.  Neither builds
    a tableau or a configuration.  A block below 1 raises ``ValueError``
    (from ``BorderStrip``) under either method."""
    ring = Ring(n, relation=False)
    strip = kappa_twisted(blocks, n)
    if method == "tableaux":
        shape, pinned = _pinned_strip(strip, n)
        return filling_sum(ring, shape, SIGNED, pinned)
    if method == "fiber":
        return local_energy_sum(
            ring, *_fiber_scan(blocks, n), (-1,) * n,
            lambda a: tuple(2 * ((a == i) - (a == -i)) for i in range(1, n + 1)),
        )
    raise ValueError("method must be 'tableaux' or 'fiber'")


_SIGMA_CACHE = {}
_T_CACHE = {}
_T_STRIP_CACHE = {}
_DET_CACHE = {}


def sigma_character(n):
    """prod_i (x_i^(1/2) + x_i^(-1/2)), the spin character."""
    got = _SIGMA_CACHE.get(n)
    if got is not None:
        return got
    ring = Ring(n, relation=False)
    out = ring.one()
    for i in range(n):
        vec_p = tuple(1 if j == i else 0 for j in range(n))
        vec_m = tuple(-1 if j == i else 0 for j in range(n))
        out = out * (ring.monomial(vec_p) + ring.monomial(vec_m))
    _SIGMA_CACHE[n] = out
    return out


def _vector_alphabet(n):
    """Monomials x_1..x_n, 1, x_1^-1..x_n^-1 of the vector representation."""
    ring = Ring(n, relation=False)
    zs = []
    for i in range(n):
        zs.append(ring.monomial(tuple(2 if j == i else 0 for j in range(n))))
    zs.append(ring.one())
    for i in range(n):
        zs.append(ring.monomial(tuple(-2 if j == i else 0 for j in range(n))))
    return zs


def t_character(n, m):
    """The t_m entries of the determinant: 0 below zero, alternating sums
    of exterior powers of the vector representation up to n-1, and
    sigma^2 - t_{2n-1-m} from m = n on."""
    key = (n, m)
    got = _T_CACHE.get(key)
    if got is not None:
        return got
    ring = Ring(n, relation=False)
    if m < 0:
        out = ring.zero()
    elif m <= n - 1:
        zs = _vector_alphabet(n)
        out = ring.zero()
        j = m
        while j >= 0:
            out = out + elementary_symmetric(j, zs)
            j -= 2
    else:
        out = sigma_character(n) ** 2 - t_character(n, 2 * n - 1 - m)
    _T_CACHE[key] = out
    return out


def sL_determinant(blocks, n):
    """Closed form of the fiber character: sigma times the bordered
    Hessenberg determinant in the t characters."""
    return sigma_character(n) * _t_determinant(blocks, n)


def _t_determinant(blocks, n):
    """The bordered Hessenberg determinant in the t characters, memoised on
    prefixes.  Expanded along its trailing blocks it is G(blocks), where
    G(m_1..m_r) = F(m_1..m_r) - G(m_1..m_{r-1}) and G(()) = 1, and F is the
    first-row expansion of the strip in the entries t_m (``_strip_expansion``;
    no t_m with m >= 0 vanishes).  The missing G are filled from short to
    long, after every F of the prefixes is held."""
    blocks = tuple(blocks)
    got = _DET_CACHE.get((blocks, n))
    if got is not None:
        return got
    _strip_expansion(_T_STRIP_CACHE, blocks, (n,), Ring(n, relation=False),
                     partial(t_character, n), math.inf)
    r = len(blocks)
    while r and (blocks[: r - 1], n) not in _DET_CACHE:
        r -= 1
    for r in range(r, len(blocks) + 1):
        f = _T_STRIP_CACHE[blocks[:r], n]
        _DET_CACHE[blocks[:r], n] = f - _DET_CACHE[blocks[: r - 1], n] if r else f
    return _DET_CACHE[blocks, n]


def twisted_t_statistic(blocks):
    """Exponent of a strip in the decomposition: the pinned column counts
    as a column, so blocks (m_1..m_s) weigh sum (s+1-i) m_i."""
    s = len(blocks)
    return sum((s + 1 - i) * m for i, m in enumerate(blocks, start=1))


def twisted_strips(order):
    """All block lists with twisted statistic at most ``order``."""
    yield ()
    stack = [()]
    while stack:
        blocks = stack.pop()
        m = 1
        while True:
            cand = blocks + (m,)
            if twisted_t_statistic(cand) > order:
                break
            yield cand
            stack.append(cand)
            m += 1


def _strip_sum(n, low, order, character):
    """Sum of q^t(blocks) character(blocks) over the strips with
    low <= t <= order, as a series at offset low."""
    check_order(order)
    return build_qseries(
        Ring(n, relation=False),
        low,
        order - low,
        ((t, character(blocks)) for blocks in twisted_strips(order)
         if (t := twisted_t_statistic(blocks)) >= low),
    )


# q-free coefficients at q^j, j = 0, 1, ..., per n: sigma times the strip
# sum, grown on demand, and the lattice numerator to the highest order asked
_TWISTED_DECOMP_CACHE = {}
_TWISTED_THETA_CACHE = {}


def twisted_decomposition(n, order):
    """Strip-sum form of the level-1 character, via the determinant.

    Every strip's ``sL_determinant`` carries the same q-free factor sigma,
    so the strips' q^t times determinant are summed first and the series is
    multiplied by ``sigma_character`` once.  The coefficient at q^j, sigma
    times the sum over t(blocks) = j, is kept per n and grown on demand.
    """
    check_order(order)
    ring = Ring(n, relation=False)

    def fill(lows):
        (lo,) = lows
        return [(_strip_sum(n, lo, order, partial(_t_determinant, n=n))
                 * sigma_character(n)).coeffs]

    (held,) = _grown(_TWISTED_DECOMP_CACHE, [n], order, fill)
    return build_qseries(ring, 0, order, enumerate(held))


def twisted_character_brute(n, order):
    """Fiber-summed level-1 character, truncated by energy.

    The energy of a fiber equals the twisted statistic of its blocks, so
    block lists within the window enumerate every contributing state; each
    fiber's character is its words' weights, counted position by position
    (``chi_twisted(..., method="fiber")``), which reads only the local
    energy.
    """
    return _strip_sum(n, 0, order, partial(chi_twisted, n=n, method="fiber"))


def twisted_level1_theta(n, order):
    """Lattice form: integer shifts gamma of the half-sum vector, graded by
    sum gamma_i (gamma_i + 1) / 2, over the full q-factorial denominator.

    The grading is separable, so the numerator is the product
    prod_i sum_g q^(g(g+1)/2) x_i^(g+1/2) of n one-variable series:
    expanding the product picks one g per coordinate, which is one gamma,
    with exponent and monomial the sum and the product of its factors'.
    Every factor has nonnegative q exponents, so a term of degree at most
    the order takes only factor terms of degree at most the order, and
    truncating each factor and each partial product there drops nothing
    the window keeps.  g(g+1)/2 is symmetric under g -> -1-g and grows in
    g >= 0, so each factor runs over g in [-1-top, top], top the largest
    g >= 0 with g(g+1)/2 <= order.

    So no coefficient of the numerator depends on the order.  The product
    has no step from one order to the next, so its coefficients are kept
    per n from the highest order computed, and a higher order recomputes
    them.  Distinct gamma are distinct monomials, so ``symmetrized_series``
    writes them times the denominator straight into the window.
    """
    check_order(order)
    ring = Ring(n, relation=False)

    def fill(lows):
        (lo,) = lows
        top = 0
        while (top + 1) * (top + 2) // 2 <= order:
            top += 1
        numerator = QSeries(0, ring.one(), order)
        for i in range(n):
            numerator = numerator * build_qseries(ring, 0, order, (
                (g * (g + 1) // 2,
                 ring.monomial(tuple(2 * g + 1 if j == i else 0 for j in range(n))))
                for g in range(-1 - top, top + 1)
            ))
        return [numerator.coeffs[lo:]]

    (held,) = _grown(_TWISTED_THETA_CACHE, [n], order, fill)
    return symmetrized_series(ring, 0, order, enumerate(held), n)
