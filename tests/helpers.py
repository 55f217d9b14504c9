"""Small transforms and renderings that only the tests use: no command and
no library route calls them, so they live here rather than in the package."""
from ribbonchar.characters import _a_exponent
from ribbonchar.polyring import QPoly
from ribbonchar.spectra import enumerate_Sp_N


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


def A_split_contributions(N, m):
    """The two sub-sums of ``A_coefficient(N, m)`` over ordered partitions
    ending in 1 versus >= 2."""
    ending_one = QPoly()
    bumped = QPoly()
    for ks in enumerate_Sp_N(m, m):
        term = QPoly.term(_a_exponent(N, m, ks))
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
