"""Oracles, small transforms and renderings that only the tests use: no
command and no library route calls them, so they live here rather than in the
package.  An oracle is the second route of a quantity whose library route is
checked against it."""
import functools
from fractions import Fraction
from itertools import accumulate

from ribbonchar.characters import (
    KostkaResult,
    _rhs_coefficient,
    _signed_compositions,
    conformal_dimension,
    decomposition_strips,
    kostka_rhs,
)
from ribbonchar.polyring import (
    DIGIT_BITS,
    QPoly,
    QSeries,
    Ring,
    RingContextError,
    build_qseries,
    determinant,
    inverse_pochhammer_series,
)
from ribbonchar.schur import schur_enumerative, schur_jacobi_trudi, schur_strip_cached
from ribbonchar.shapes import BorderStrip, Partition, SkewDiagram
from ribbonchar.spectra import (
    enumerate_Sp_N,
    excitation_energy,
    polychronakos_ground_energy,
)
from ribbonchar.tableaux import STANDARD, filling_sum, kostka_numbers, lattice_start
from ribbonchar.twisted import t_character


def qseries_at_exponents(ring, offset, order, contributions):
    """``build_qseries`` from (rational exponent, Laurent) contributions, for
    the tests that compute their own exponents: ValueError unless each
    exponent less the offset is an integer j in 0..order, which is the shift
    handed on.  The oracle of the shifts that the library reads as integers."""
    def shifts():
        for expo, value in contributions:
            j = Fraction(expo) - Fraction(offset)
            if j.denominator != 1 or not 0 <= j <= order:
                raise ValueError(f"exponent {expo} not in offset {offset} + 0..{order}")
            yield int(j), value

    return build_qseries(ring, offset, order, shifts())


def reversed_q(p):
    """Substitute q -> 1/q in a ``QPoly``."""
    return QPoly({-e: v for e, v in p.pairs()})


def permuted(poly, perm):
    """Apply x_i -> x_{perm[i-1]} to a ``Laurent`` (perm is a 1-indexed
    image list)."""
    def image(v):
        w = [0] * poly.ring.n
        for i, e in enumerate(v):
            w[perm[i] - 1] = e
        return tuple(w)

    return poly.ring.from_terms((image(v), c) for v, c in poly.sorted_terms())


def at_q_one(poly):
    """Evaluate a ``Laurent`` at q = 1, leaving integer coefficients."""
    return poly.ring.from_terms((v, c.at()) for v, c in poly.sorted_terms())


@functools.cache
def schur_straight(nu, n, relation=False):
    """Straight-shape Schur function s_nu, by the Jacobi-Trudi determinant."""
    return schur_jacobi_trudi(SkewDiagram(nu, Partition()), n, relation)


def lr_extract(shape, n):
    """Expansion coefficients {nu: c} with sum_nu c * s_nu = s_shape, for any
    skew shape, by triangular extraction: the lexicographically largest
    monomial of a symmetric polynomial is a partition whose straight Schur
    function can be peeled off.  The oracle of ``schur.lr_expand``."""
    rest = schur_enumerative(shape, n, relation=False)
    out = {}
    while rest:
        vec, c = rest.sorted_terms()[-1]
        assert not any(e % 2 for e in vec), "odd doubled exponent in a standard weight"
        nu = Partition(e // 2 for e in vec)
        cval = c.c.get(0)
        assert not set(c.c) - {0} and cval and cval > 0, f"bad leading coefficient {c}"
        out[nu] = cval
        rest = rest - schur_straight(nu, n) * cval
    return out


def conjugate_by_fillings(shape, n):
    """Conjugate Schur function, in relation mode, as the tableau sum with
    every weight inverted.  The oracle of ``schur.schur_conjugate``."""
    return filling_sum(Ring(n, relation=True), shape, STANDARD).subs_x_inverse()


def kostka_by_peel(lam, n=None):
    """Kostka-Foulkes value extracted from the q-multinomial expansion by
    peeling with tableau-counted Kostka numbers.  The oracle of
    ``characters.kostka_oracle``.

    Processing partitions in lexicographically decreasing order (which
    refines dominance; ``kostka_rhs`` lists them so):
        K_rhs(lam) = coeff_{x^lam}(rhs) - sum_{mu > lam} K_rhs(mu) K(mu, lam).
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    n = max(lam.length(), 1) if n is None else n
    if lam.length() > n:
        return QPoly()
    extracted = {}
    for vec, val in kostka_rhs(lam.size(), n).items():
        mu = Partition(v // 2 for v in vec)
        for knu, count in zip(extracted.values(), kostka_numbers(extracted, mu)):
            if count:
                val = val - knu * count
        extracted[mu] = val
        if mu == lam:
            return val
    return QPoly()


def kostka_oracle_at_rank(lam, n):
    """``characters.kostka_oracle`` summed over ``_signed_compositions`` at
    rank n itself, lam padded with zeros to n parts.  The oracle of the
    library's sum at rank len(lam)."""
    if lam.length() > n:
        return QPoly()
    out = {}
    for sign, comp in _signed_compositions(lam, n):
        for e, v in _rhs_coefficient(lam.size(), comp).c.items():
            out[e] = out.get(e, 0) + sign * v
    return QPoly(out)


def lattice_column(states, m, cap):
    """The ``count_LR`` states after one more column of ``m`` cells, the
    column stepped on its own from the top.  The oracle of
    ``tableaux.lattice_columns``, whose entry m - 1 it is while that list
    is longer than m - 1."""
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


def kostka_foulkes_by_columns(lam, n=None):
    """``characters.kostka_foulkes`` with one ``lattice_column`` call per
    column length at every prefix, pruning the lengths that leave no
    states.  The oracle of its shared column cells."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
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
            strips.append((BorderStrip(blocks), t, c))
            coeffs[t] = coeffs.get(t, 0) + c
            continue
        for m in range(min(n, N - p), 0, -1):
            nxt = lattice_column(states, m, cap)
            if nxt:
                stack.append((nxt, p + m, t + p, blocks + (m,)))
    return KostkaResult(lam, QPoly(coeffs), strips)


def a_exponent(N, m, ks):
    """The q exponent of the ordered partition ``ks`` of m in
    ``A_coefficient(N, m)``."""
    j = len(ks)
    return N * (m - j) - m * (m + 1) // 2 + sum(i * k for i, k in enumerate(ks, 1))


def A_coefficient(N, m, n=None):
    """Signed sum over ordered partitions of m (parts <= n when given).  The
    oracle of ``characters.A_closed``."""
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    out = QPoly()
    for ks in enumerate_Sp_N(m, m if n is None else n):
        term = QPoly.term(a_exponent(N, m, ks))
        out = out + (term if len(ks) % 2 == 1 else -term)
    return out


def A_split_contributions(N, m):
    """The two sub-sums of ``A_coefficient(N, m)`` over ordered partitions
    ending in 1 versus >= 2."""
    ending_one = QPoly()
    bumped = QPoly()
    for ks in enumerate_Sp_N(m, m):
        term = QPoly.term(a_exponent(N, m, ks))
        signed = term if len(ks) % 2 == 1 else -term
        if ks[-1] == 1:
            ending_one = ending_one + signed
        else:
            bumped = bumped + signed
    return ending_one, bumped


def drinfeld_root_str(root):
    """Render a (constant, b-coefficient) root, e.g. '3/2-b'."""
    const, bc = root
    if bc == -1:
        btxt = "-b"
    elif bc == 1:
        btxt = "+b"
    else:
        btxt = f"{bc:+d}*b"
    if const == 0:
        return btxt
    return f"{const}{btxt}"


def pack_by_shifts(ring, vec):
    """``Ring.pack`` digit by digit: the key grows by one shift and one add
    per digit, most significant first, each digit range-checked on the way."""
    bias, half = 1 << (DIGIT_BITS - 1), 1 << (DIGIT_BITS - 2)
    if len(vec) != ring.n:
        raise RingContextError(f"exponent vector length {len(vec)} != rank {ring.n}")
    if ring.relation:
        last = vec[-1]
        key = last & 1
        digits = [v - last for v in reversed(vec[:-1])]
    else:
        key = 0
        digits = reversed(vec)
    for d in digits:
        if not -half <= d < half:
            raise OverflowError(f"exponent {d} outside the packed range")
        key = (key << DIGIT_BITS) + d + bias
    return (key << DIGIT_BITS) + bias


def vector_by_digits(ring, x):
    """``Ring._vector`` digit by digit: each biased digit masked off and
    unbiased in turn, the parity digit left over under the relation."""
    bias, digit = 1 << (DIGIT_BITS - 1), (1 << DIGIT_BITS) - 1
    digits = []
    for _ in range(ring.n - ring.relation):
        digits.append((x & digit) - bias)
        x >>= DIGIT_BITS
    if not ring.relation:
        return tuple(digits)
    m = min([0, *digits])
    t = (m + x) % 2 - m
    return tuple(d + t for d in digits) + (t,)


def z_vertex_by_strips(N, n, relation=False):
    """The length-N partition function strip by strip: q^(excitation) times
    ``schur_strip_cached`` for every block list of size N.  The oracle of
    ``spectra.Z_vertex``."""
    ring = Ring(n, relation)
    return build_qseries(ring, 0, polychronakos_ground_energy(N, n), (
        (excitation_energy(blocks, n), schur_strip_cached(blocks, n, relation))
        for blocks in enumerate_Sp_N(N, n)
    ))


def level1_decomposition_by_strips(n, k, order, variant="a"):
    """The strip-sum form of the sector-k character strip by strip, with no
    memo: each strip's ``schur_strip_cached`` at its exponent, variant b
    from residue n-k with the variables inverted.  The oracle of the fill of
    ``characters.level1_decomposition``, which sums e_t times the strips'
    prefix Schur functions instead."""
    ring = Ring(n, relation=True)
    delta = conformal_dimension(n, k)

    def strip_sum(residue):
        return qseries_at_exponents(ring, delta, order, (
            (Fraction(F, 2 * n), schur_strip_cached(blocks, n, relation=True))
            for blocks, F in decomposition_strips(n, k * (n - k) + 2 * n * order, residue)
        ))

    if variant == "a":
        return strip_sum(k)
    b = QSeries(delta, strip_sum(n - k).value.subs_x_inverse(), order)
    return b if variant == "b" else (strip_sum(k), b)


def t_determinant_by_matrix(blocks, n):
    """The bordered Hessenberg determinant in the t characters, built as a
    matrix and handed to ``determinant``: a first row of ones, then row i
    holds t_(p_(r+1-i) - p_(r-j)) for the prefix sums p of the blocks."""
    ring = Ring(n, relation=False)
    r = len(blocks)
    psum = list(accumulate(blocks, initial=0))
    matrix = [[ring.one()] * (r + 1)]
    for i in range(1, r + 1):
        # column 0 falls out of the same rule: t_0 = 1 and t_{<0} = 0
        matrix.append([t_character(n, psum[r + 1 - i] - psum[r - j]) for j in range(r + 1)])
    return determinant(matrix)


def symmetrized_series_by_product(ring, offset, order, classes, power):
    """``symmetrized_series`` as two series: the classes' orbit sums summed
    by ``build_qseries``, times ``inverse_pochhammer_series``."""
    numerator = build_qseries(ring, offset, order, classes)
    return numerator * inverse_pochhammer_series(ring, power, order)


def walk_entries(start, steps, moves):
    """The (state, key) entries that ``Ring.walk_sum`` holds after each of
    its positions, summed over the positions: a shadow walk with exact keys
    (the vector and the q exponent as a tuple)."""
    keys = {a: (*v, e) for a, (v, e) in steps.items()}
    state, entries = {None: {(*start, 0)}}, 0
    for move in moves:
        after = {}
        for a, held in state.items():
            for b, letter in move[a]:
                u = keys[letter]
                after.setdefault(b, set()).update(
                    tuple(x + y for x, y in zip(k, u)) for k in held)
        state = after
        entries += sum(map(len, state.values()))
    return entries


def count_walk_entries(monkeypatch):
    """A list that gets ``walk_entries`` of every ``Ring.walk_sum`` call
    made while ``monkeypatch`` holds; each call still returns its sum."""
    counted, walk = [], Ring.walk_sum

    def shadow(ring, start, steps, moves):
        counted.append(walk_entries(start, steps, moves))
        return walk(ring, start, steps, moves)

    monkeypatch.setattr(Ring, "walk_sum", shadow)
    return counted
