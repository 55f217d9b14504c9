"""Oracles, small transforms and renderings that only the tests use: no
command and no library route calls them, so they live here rather than in the
package.  An oracle is the second route of a quantity whose library route is
checked against it."""
import functools

from ribbonchar.characters import kostka_rhs
from ribbonchar.polyring import QPoly, Ring
from ribbonchar.schur import schur_enumerative, schur_jacobi_trudi
from ribbonchar.shapes import Partition, SkewDiagram
from ribbonchar.spectra import enumerate_Sp_N
from ribbonchar.tableaux import STANDARD, filling_sum, kostka_numbers


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
